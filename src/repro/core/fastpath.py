"""Decoded-block fast path: a per-static-site front-end cache.

The paper's front end motivates this (Figure 2): x86 cores avoid
re-decoding hot code with a decoded-uop cache (the DSB), and CHEx86
injects its capability micro-ops at exactly that decode boundary.  The
whole front-end product of one static instruction — native micro-ops,
heap-interception plan, ``capCheck`` injection plan, fetch-slot count,
MSROM flag — is therefore a pure function of ``(program, pc, variant)``
and can be compiled once.  ``Chex86Machine.step()`` replays the
precompiled plan per dynamic instance; only the tracker-dependent
decisions (the base register's PID, predicted reloads) stay live.

Per-instance statistics stay exact: the replay path charges native-uop
counts, interception deltas, and check injection/suppression counters
for every dynamic execution, so a fast-path run is bit-identical to the
old decode-every-step loop — including all ``results/*.txt`` artifacts.

One level up, :class:`Superblock` chains consecutive decoded blocks of a
straight-line region into a single replay unit (the trace-cache idea:
amortize per-instruction dispatch across a whole run of hot code).
``Chex86Machine.run_quantum`` replays superblocks with one dispatch per
*block*, entering at any member and stopping after any member, and
applies the aggregated stat deltas in O(1) per replay; the per-member
side table keeps fetch-group and icache accounting bit-identical to
per-instruction stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..isa.instructions import INSTR_SLOT, Instr
from ..microop.decoder import DecodePath
from ..microop.uops import UopKind

#: Formation cap: a superblock never chains more than this many member
#: instructions.  Bounds compile cost (a replay can stop after any
#: member, so the length never holds back a short quantum).
SUPERBLOCK_MAX_MEMBERS = 64

#: Micro-op kinds that redirect (or end) fetch: a member containing one
#: terminates superblock formation (the control uop itself is included —
#: its dynamic target just ends the replay).
_CONTROL_KINDS = frozenset((UopKind.BR, UopKind.JMP, UopKind.JMP_IND,
                            UopKind.HALT))

_LD = UopKind.LD
_ST = UopKind.ST


@dataclass(slots=True)
class DecodedBlock:
    """Everything the front end produces for one static instruction.

    ``entries`` holds one ``(handler, uop, base_reg, check_mode,
    check_template)`` tuple per micro-op in issue order (MCU-injected
    interception uops first, then the native translation).  ``base_reg``
    is the extended index of the addressing base register (-1 when the
    access has none or no check decision is needed); ``check_mode`` is a
    ``repro.core.mcu.CHECK_*`` constant.
    """

    instr: Instr
    native_uops: int
    fetch_slots: int
    msrom: bool
    fallthrough: int
    intercept_deltas: Optional[Tuple[int, int, int, int, int]]
    entries: Tuple[tuple, ...]


def compile_block(machine, pc: int) -> DecodedBlock:
    """Compile the front-end plan for the instruction at ``pc``.

    Raises ValueError (from ``Program.fetch``) when ``pc`` is outside the
    text section; the machine turns that into its usual MachineError.
    Most blocks run once (cold code), so beyond the decode itself this
    does one pass over the uops and no per-uop property calls.
    """
    program = machine.program
    instr = program.fetch(pc)
    macro_index = (pc - program.text_base) // INSTR_SLOT
    uops, path = machine.decoder.decode(instr, pc, macro_index, id(program))
    mcu = machine.mcu
    injected, deltas = mcu.intercept_plan(pc)

    track = machine.traits.tracks_pointers
    dispatch = machine._dispatch
    has_mem = False
    entries = []
    for uop in injected + uops if injected else uops:
        kind = uop.kind
        base_reg = -1
        mode = 0
        check = None
        if kind is _LD or kind is _ST:
            has_mem = True
            if track and not uop.injected:
                mode, check = mcu.static_check_plan(pc, uop)
                mem = uop.mem
                if mem is not None and mem.base is not None:
                    base_reg = int(mem.base)
        entries.append((dispatch[kind], uop, base_reg, mode, check))

    # Injected uops are capability uops, never loads or stores, so
    # ``has_mem`` is about the native translation.
    fetch_slots = 2 if has_mem and machine.traits.checks_in_macro_stream \
        else 1
    return DecodedBlock(
        instr=instr,
        native_uops=len(uops),
        fetch_slots=fetch_slots,
        msrom=path is DecodePath.MSROM or bool(injected),
        fallthrough=pc + INSTR_SLOT,
        intercept_deltas=deltas if any(deltas) else None,
        entries=tuple(entries),
    )


@dataclass(slots=True)
class Superblock:
    """A straight-line chain of :class:`DecodedBlock`\\ s replayed as one
    unit (the trace-cache idea one level above the decoded-uop cache).

    ``members`` is the trace compiler's side table: one ``(pc,
    fetch_slots, icache_line, entries, fallthrough)`` tuple per member
    instruction, with the fetch-group slot count (MSROM widening already
    applied) and the icache line index precomputed: the generated
    replay emits the slot count as a literal and binds the line into a
    hole.  ``native_prefix[k]`` is the native-uop count of the first
    ``k`` members (``length + 1`` entries), so a replay of any member
    range charges its front-end count as one O(1) difference.
    """

    entry: int
    length: int
    members: Tuple[Tuple[int, int, int, Tuple[tuple, ...], int], ...]
    native_prefix: Tuple[int, ...]
    #: Specialized replay function generated by ``sbcompile.compile_replay``
    #: (never None once the machine stores the superblock: a pc whose
    #: replay the trace compiler refuses caches None instead).
    replay: Optional[object] = None


def compile_superblock(machine, pc: int) -> Optional[Superblock]:
    """Chain decoded blocks from ``pc`` into a superblock, or ``None``.

    Formation rules (each is required for replay exactness or cost
    control):

    * members follow fallthrough order; the first member containing a
      control-transfer/halt micro-op is included and terminates the
      chain (its dynamic target simply ends the replay);
    * a heap-interception site (``intercept_deltas`` set) stops the
      chain *before* itself — interception charges MCU stats and emits
      trace events that the per-instruction path owns;
    * a pc outside the text section stops the chain (falling through
      into it must trap exactly where the slow path traps);
    * chains are capped at :data:`SUPERBLOCK_MAX_MEMBERS` members and
      must have at least two (a single-member superblock is just the
      decoded-block fast path with extra dispatch).
    """
    fetch_width = machine.config.fetch_width
    line_shift = machine.timing._line_shift
    blocks = []
    pcs = []
    cursor = pc
    while len(blocks) < SUPERBLOCK_MAX_MEMBERS:
        block = machine._block_at(cursor)
        if block is None or block.intercept_deltas is not None:
            break
        blocks.append(block)
        pcs.append(cursor)
        if any(entry[1].kind in _CONTROL_KINDS for entry in block.entries):
            break
        cursor = block.fallthrough
    if len(blocks) < 2:
        return None

    members = []
    native_prefix = [0]
    for member_pc, block in zip(pcs, blocks):
        slots = fetch_width if block.msrom else block.fetch_slots
        members.append((member_pc, slots, member_pc >> line_shift,
                        block.entries, block.fallthrough))
        native_prefix.append(native_prefix[-1] + block.native_uops)

    return Superblock(
        entry=pc,
        length=len(blocks),
        members=tuple(members),
        native_prefix=tuple(native_prefix),
    )
