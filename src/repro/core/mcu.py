"""The Microcode Customization Unit (MCU).

Implements the paper's on-demand micro-op instrumentation (Section IV):

* **Heap interception** — the OS registers the entry and exit instruction
  addresses of the heap-management functions (plus their register
  signatures) in MSRs; when fetch reaches one of those addresses the MCU
  re-routes translation through the microcode RAM and appends
  ``capGen.Begin/End`` or ``capFree.Begin/End`` micro-ops.
* **Dereference instrumentation** — depending on the variant's check
  policy, memory micro-ops get a ``capCheck`` micro-op injected ahead of
  them; in the prediction-driven default this is *surgical*: only
  dereferences whose base register carries a non-zero PID are checked.
* **Context sensitivity** — an optional set of security-critical code
  ranges restricts ``capCheck`` injection to those regions while heap
  interception (capability generation/freeing) stays always-on, so the
  shadow state is complete whenever checks are enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..heap.library import HeapFnKind, RegisteredFunction
from ..isa.registers import RET_REG
from ..microop.uops import Uop, UopKind
from ..telemetry.state import Counters
from .variants import CheckPolicy, VariantTraits

#: Static check-injection modes, resolved once per (pc, uop) site by
#: :meth:`MicrocodeCustomizationUnit.static_check_plan` and replayed by the
#: decoded-block fast path.  The ``*_IF_PID`` modes defer to the live base
#: PID from the speculative pointer tracker (the prediction-driven policy).
CHECK_NEVER = 0
CHECK_INJECT = 1
CHECK_INJECT_IF_PID = 2
CHECK_SUPPRESS = 3
CHECK_SUPPRESS_IF_PID = 4

#: Check policies that never inject (their checks are fused, explicit in
#: the binary, or absent).
_NO_INJECT_POLICIES = (CheckPolicy.NONE, CheckPolicy.LSU, CheckPolicy.EXPLICIT)

#: The stat deltas of a pc that is no interception site.
_NO_INTERCEPT = (0, 0, 0, 0, 0)


def critical_ranges_for(program, function_labels: Sequence[str]
                        ) -> List[Tuple[int, int]]:
    """Derive critical code ranges from function labels.

    Context-sensitive enforcement (Section IV) protects "security-critical
    code"; operators think in functions, the MCU in address ranges.  A
    function's extent runs from its label to the next *function boundary*
    — where function boundaries are the program entry plus every label the
    program ``call``s (internal loop labels do not split a function).
    """
    from ..isa.instructions import Op
    from ..isa.operands import LabelRef

    call_targets = {
        program.labels[operand.name]
        for instr in program.instrs if instr.op is Op.CALL
        for operand in instr.operands
        if isinstance(operand, LabelRef) and operand.name in program.labels
    }
    boundaries = sorted(call_targets | {program.entry, program.text_end})
    ranges: List[Tuple[int, int]] = []
    for name in function_labels:
        start = program.labels.get(name)
        if start is None:
            raise KeyError(f"no label {name!r} in program {program.name!r}")
        after = [b for b in boundaries if b > start]
        ranges.append((start, after[0] if after else program.text_end))
    return ranges


@dataclass
class McuStats(Counters):
    """Injection counters (Figure 6 bottom: micro-op expansion)."""

    injected_uops: int = 0
    capchecks: int = 0
    capchecks_suppressed_context: int = 0
    capgen_events: int = 0
    capfree_events: int = 0
    entry_intercepts: int = 0
    exit_intercepts: int = 0
    zero_idioms: int = 0


class MicrocodeCustomizationUnit:
    """Injects capability micro-ops into the decoded stream."""

    def __init__(
        self,
        registrations: Sequence[RegisteredFunction],
        traits: VariantTraits,
        critical_ranges: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        self.traits = traits
        self._by_entry: Dict[int, RegisteredFunction] = {}
        self._by_exit: Dict[int, RegisteredFunction] = {}
        if traits.intercepts_heap:
            for registration in registrations:
                self._by_entry[registration.entry] = registration
                self._by_exit[registration.exit] = registration
        self.critical_ranges = list(critical_ranges) if critical_ranges else None
        self.stats = McuStats()

    # -- heap interception ------------------------------------------------------

    def intercept_plan(
        self, address: int,
    ) -> Tuple[List[Uop], Tuple[int, int, int, int, int]]:
        """Micro-ops to append for a fetch at ``address`` (usually none).

        Entry of an allocation routine yields ``capGen.Begin`` (reading the
        size registers); its exit yields ``capGen.End`` (reading the return
        register).  ``free`` mirrors this with ``capFree``; ``realloc``
        yields both pairs.

        Returns the injected uops together with the stat deltas one dynamic
        execution of this site incurs, as ``(entry_intercepts,
        exit_intercepts, capgen_events, capfree_events, injected_uops)``,
        without touching :attr:`stats`.  The decoded block compiles this
        once per static site, and both executors apply the deltas per
        dynamic execution via :meth:`apply_intercept_stats`.
        """
        if address not in self._by_entry and address not in self._by_exit:
            return [], _NO_INTERCEPT
        injected: List[Uop] = []
        entry = exit_ = capgen = capfree = 0
        registration = self._by_entry.get(address)
        if registration is not None:
            entry = 1
            if registration.kind in (HeapFnKind.FREE, HeapFnKind.REALLOC):
                injected.append(Uop(
                    UopKind.CAPFREE_BEGIN, srcs=(int(registration.ptr_reg),),
                    injected=True))
                capfree = 1
            if registration.kind in (HeapFnKind.ALLOC, HeapFnKind.REALLOC):
                injected.append(Uop(
                    UopKind.CAPGEN_BEGIN,
                    srcs=tuple(int(r) for r in registration.size_regs),
                    injected=True))
                capgen = 1
        registration = self._by_exit.get(address)
        if registration is not None:
            exit_ = 1
            if registration.kind in (HeapFnKind.FREE, HeapFnKind.REALLOC):
                injected.append(Uop(UopKind.CAPFREE_END, injected=True))
            if registration.kind in (HeapFnKind.ALLOC, HeapFnKind.REALLOC):
                injected.append(Uop(
                    UopKind.CAPGEN_END, srcs=(int(RET_REG),), injected=True))
        return injected, (entry, exit_, capgen, capfree, len(injected))

    def apply_intercept_stats(
        self, deltas: Tuple[int, int, int, int, int],
    ) -> None:
        """Charge one dynamic execution of an interception site."""
        stats = self.stats
        stats.entry_intercepts += deltas[0]
        stats.exit_intercepts += deltas[1]
        stats.capgen_events += deltas[2]
        stats.capfree_events += deltas[3]
        stats.injected_uops += deltas[4]

    # -- dereference instrumentation ----------------------------------------------

    def static_check_plan(
        self, pc: int, uop: Uop,
    ) -> Tuple[int, Optional[Uop]]:
        """The ``capCheck`` injection plan for memory micro-op ``uop``.

        Whether a check is injected ahead of a dereference is a pure
        function of ``(pc, uop, variant)`` except for the base register's
        PID: whether the policy instruments at all (the LSU policy fuses
        its checks into the load/store itself, see :meth:`lsu_checks`;
        EXPLICIT binaries carry their own ``capchk`` instructions), whether
        ``pc`` sits inside a critical range, and the shape of the injected
        ``capCheck``.  Returns ``(mode, template)`` where ``mode`` is one of
        the ``CHECK_*`` constants and ``template`` is a reusable check uop
        (``pid`` is stamped per dynamic instance) or None.  The ``*_IF_PID``
        modes leave the PID test to the executor; counters are charged
        there too.
        """
        policy = self.traits.check_policy
        if policy in _NO_INJECT_POLICIES:
            return CHECK_NEVER, None
        if not uop.is_mem or uop.is_capability:
            return CHECK_NEVER, None
        tracked = policy is CheckPolicy.TRACKED
        if self.critical_ranges is not None and not self._critical(pc):
            return (CHECK_SUPPRESS_IF_PID if tracked else CHECK_SUPPRESS,
                    None)
        template = Uop(UopKind.CAPCHECK, mem=uop.mem, injected=True,
                       check_write=uop.kind is UopKind.ST)
        return (CHECK_INJECT_IF_PID if tracked else CHECK_INJECT, template)

    def lsu_checks(self) -> bool:
        """Whether the load/store unit performs fused checks (HW-only)."""
        return self.traits.check_policy is CheckPolicy.LSU

    # -- internals -------------------------------------------------------------------

    def _critical(self, pc: int) -> bool:
        return any(lo <= pc < hi for lo, hi in self.critical_ranges)
