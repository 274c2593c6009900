"""Violation diagnostics: human-readable reports for flagged violations.

Turns a :class:`~repro.core.violations.Violation` plus the machine that
raised it into the kind of report a deployed CHEx86 would hand an
operator: the faulting instruction with a disassembly window around it,
the capability involved (base/bounds/permission state and how far outside
the access fell), the allocation history of the address, and — for
temporal violations — where the block was freed.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.capability import WILD_PID
from ..core.machine import Chex86Machine
from ..core.violations import Violation, ViolationKind
from ..isa.disasm import format_instr
from ..isa.instructions import INSTR_SLOT
from ..telemetry.provenance import symbolize

#: Instructions of context shown on each side of the faulting pc.
WINDOW = 3


def _disasm_window(machine: Chex86Machine, pc: int) -> List[str]:
    """Disassembly context around ``pc``.

    Forensic reports must render for *any* pc a violation can carry —
    the first or last instruction of the text segment, a wild pc far
    outside it, or a misaligned address mid-slot — so every failure
    mode degrades to an explanatory line instead of an exception.
    """
    program = machine.program
    pc_text = f"{pc:#x}" if isinstance(pc, int) else repr(pc)
    if len(program) == 0:
        return [f"  {pc_text}:  <empty text section>"]
    labels_by_address = {addr: name for name, addr in program.labels.items()}
    misaligned = False
    try:
        index = program.index_of(pc)
    except (TypeError, ValueError):
        index = None
    if index is None:
        text_base = getattr(program, "text_base", None)
        text_end = getattr(program, "text_end", None)
        if (isinstance(pc, int) and text_base is not None
                and text_end is not None and text_base <= pc < text_end):
            # Mid-slot pc (e.g. a wild dereference landing inside the
            # text segment): snap to the enclosing instruction slot.
            index = (pc - text_base) // INSTR_SLOT
            misaligned = True
        else:
            return [f"  {pc_text}:  <outside text section>"]
    index = max(0, min(index, len(program) - 1))
    lines = []
    if misaligned:
        lines.append(f"  {pc:#x}:  <misaligned pc; showing enclosing slot>")
    for i in range(max(0, index - WINDOW),
                   min(len(program), index + WINDOW + 1)):
        try:
            address = program.address_of(i)
            label = labels_by_address.get(address)
            if label is not None and program.instrs[i].label == label:
                lines.append(f"{label}:")
            marker = "=>" if i == index else "  "
            instr = program.fetch(address)
            lines.append(f"{marker} {address:#x}:  "
                         f"{format_instr(instr, labels_by_address)}")
        except Exception:  # never let forensics die on one bad slot
            lines.append(f"   <slot {i}: undecodable>")
    return lines


def _capability_report(machine: Chex86Machine,
                       violation: Violation) -> List[str]:
    if violation.pid == WILD_PID:
        return ["capability: PID(-1) — a constant integer address that "
                "never came from a registered allocation (MOVI rule)"]
    if violation.pid == 0:
        return ["capability: none — the pointer was never tracked"]
    capability = machine.captable.get(violation.pid)
    if capability is None:
        return [f"capability: PID {violation.pid} not present in the "
                f"shadow table"]
    lines = [
        f"capability: PID {capability.pid}, "
        f"[{capability.base:#x}, {capability.end:#x}) "
        f"({capability.bounds} bytes), "
        f"{'valid' if capability.valid else 'FREED/invalid'}"
        f"{', busy' if capability.busy else ''}",
    ]
    if violation.kind is ViolationKind.OUT_OF_BOUNDS and violation.address:
        if violation.address >= capability.end:
            distance = violation.address - capability.end
            lines.append(f"access: {violation.address:#x} — "
                         f"{distance + violation.size} byte(s) past the end")
        else:
            distance = capability.base - violation.address
            lines.append(f"access: {violation.address:#x} — "
                         f"{distance} byte(s) below the base")
    return lines


def _allocation_history(machine: Chex86Machine,
                        violation: Violation) -> List[str]:
    address = violation.address
    if not address:
        return []
    record = machine.allocator.record_for(address)
    if record is None and violation.pid > 0:
        # An out-of-bounds address is not inside any allocation; report
        # the allocation the violated capability governs instead.
        capability = machine.captable.get(violation.pid)
        if capability is not None and capability.base:
            record = machine.allocator.record_for(capability.base)
    if record is None:
        return [f"allocator: no allocation ever covered {address:#x}"]
    state = "freed" if record.freed else "live"
    return [
        f"allocator: allocation #{record.serial} "
        f"[{record.address:#x}, {record.address + record.size:#x}) "
        f"({record.size} bytes), currently {state}",
    ]


def _context_line(program, entry: dict) -> str:
    frames = entry.get("frames")
    if not frames:
        frames = [symbolize(program, pc) for pc in entry.get("context", [])]
    return " > ".join(frames) if frames else "<top level>"


def _provenance_chain(machine: Chex86Machine,
                      violation: Violation) -> List[str]:
    """Render the alloc → free → access provenance chain attached by an
    armed run (empty when the run was not recorded)."""
    chain = violation.provenance
    if not chain:
        return []
    program = machine.program
    lines = ["provenance:"]
    alloc = chain.get("alloc")
    if alloc is not None:
        lines.append(f"  allocated {alloc['size']} byte(s) at "
                     f"pc {alloc['pc']:#x} "
                     f"({symbolize(program, alloc['pc'])}), "
                     f"cycle {alloc['cycle']}")
        lines.append(f"    by: {_context_line(program, alloc)}")
    free = chain.get("free")
    if free is not None:
        lines.append(f"  freed at pc {free['pc']:#x} "
                     f"({symbolize(program, free['pc'])}), "
                     f"cycle {free['cycle']}")
        lines.append(f"    by: {_context_line(program, free)}")
    access = chain.get("access")
    if access is not None:
        lines.append(f"  faulting access at pc {access['pc']:#x} "
                     f"({symbolize(program, access['pc'])})")
        lines.append(f"    by: {_context_line(program, access)}")
    return lines


def _hint(violation: Violation) -> str:
    return {
        ViolationKind.OUT_OF_BOUNDS:
            "hint: check the loop bound / index computation feeding this "
            "dereference",
        ViolationKind.USE_AFTER_FREE:
            "hint: a stale copy of this pointer survived the free — the "
            "capability stays invalid forever, so any reuse distance is "
            "caught",
        ViolationKind.DOUBLE_FREE:
            "hint: this pointer's capability was already freed; look for "
            "two ownership paths releasing the same allocation",
        ViolationKind.INVALID_FREE:
            "hint: the freed pointer is not the base of any live "
            "allocation (interior pointer, stack/global address, or a "
            "forged chunk)",
        ViolationKind.WILD_DEREFERENCE:
            "hint: a constant integer address was dereferenced; if this "
            "is an intentional global access, reach it through a constant "
            "pool so the tracker can follow it",
        ViolationKind.HEAP_SPRAY:
            "hint: allocation request exceeds the configured maximum "
            "block size (heap-spray / resource-exhaustion guard)",
        ViolationKind.PERMISSION:
            "hint: the access needs a permission the capability does not "
            "grant",
    }.get(violation.kind, "")


def explain_violation(machine: Chex86Machine,
                      violation: Optional[Violation] = None) -> str:
    """Full diagnostic report for ``violation`` (default: the first one)."""
    if violation is None:
        if not machine.violations.violations:
            return "no violations recorded"
        violation = machine.violations.violations[0]
    sections: List[str] = [
        f"{'=' * 60}",
        f"CHEx86 {violation.kind.value.upper()} ({violation.kind.cwe}) "
        f"at pc {violation.instr_address:#x}",
        f"{'=' * 60}",
        violation.detail or "",
        "",
    ]
    sections.extend(_disasm_window(machine, violation.instr_address))
    sections.append("")
    sections.extend(_capability_report(machine, violation))
    sections.extend(_allocation_history(machine, violation))
    chain = _provenance_chain(machine, violation)
    if chain:
        sections.append("")
        sections.extend(chain)
    hint = _hint(violation)
    if hint:
        sections.append("")
        sections.append(hint)
    return "\n".join(line for line in sections if line is not None)


def explain_all_violations(machine: Chex86Machine) -> str:
    """One report per recorded violation, in flag order.

    A run with ``halt_on_violation=False`` can accumulate many distinct
    violations; reporting only the first hides the rest of the story
    (e.g. an out-of-bounds write followed by the use-after-free it set
    up).  Each report is the full :func:`explain_violation` rendering.
    """
    violations = machine.violations.violations
    if not violations:
        return "no violations recorded"
    count = len(violations)
    sections = [f"{count} violation(s) recorded"]
    for index, violation in enumerate(violations, start=1):
        sections.append("")
        sections.append(f"--- violation {index} of {count} ---")
        sections.append(explain_violation(machine, violation))
    return "\n".join(sections)
