"""One process of a workload under one defense.

:class:`MulticoreMachine` is the one place that turns a defense (a
:class:`~repro.core.variants.Variant`, or ``"asan"``: the program
instrumented and run against the sanitizer runtime on the insecure
pipeline) into running cores.  Threads share the process: one
:class:`~repro.pipeline.system.System` (memory, heap, capability table,
alias table, L2) with one :class:`~repro.core.machine.Chex86Machine` per
entry label, each with private L1s/TLB/capability-cache/alias-cache/
tracker/predictors and its own stack.  Two or more cores interleave in
round-robin quanta; capability frees and alias stores broadcast
invalidations to the other cores (Sections IV-C, V-C), whose cost shows
up as extra shadow-cache misses on the receiving cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..core.machine import Chex86Machine, RunResult
from ..core.rules import RuleDatabase
from ..core.variants import Variant
from ..core.violations import ViolationLog
from ..isa.assembler import assemble
from ..isa.program import STACK_TOP
from ..sanitizer import sanitize
from .config import CoreConfig, DEFAULT_CONFIG
from .system import System

#: Instructions per round-robin timeslice.
QUANTUM = 64

#: Virtual-address gap between per-thread stacks.
STACK_STRIDE = 1 << 24

#: A CHEx86 variant, or ``"asan"``.
Defense = Union[Variant, str]


def defense_label(defense: Defense) -> str:
    """The name a defense goes by in cells and reports."""
    return defense.value if isinstance(defense, Variant) else str(defense)


@dataclass
class MulticoreResult:
    """Aggregate of a multithreaded run."""

    program: str
    variant: Variant
    per_core: List[RunResult]
    system: System

    @property
    def halted(self) -> bool:
        return all(result.halted for result in self.per_core)

    @property
    def instructions(self) -> int:
        return sum(result.instructions for result in self.per_core)

    @property
    def uops(self) -> int:
        return sum(result.uops for result in self.per_core)

    @property
    def native_uops(self) -> int:
        return sum(result.native_uops for result in self.per_core)

    @property
    def cycles(self) -> int:
        """Wall-clock of the parallel region: the slowest core."""
        if not self.per_core:
            return 0
        return max(result.cycles for result in self.per_core)

    @property
    def uop_expansion(self) -> float:
        """0.0 when no core decoded anything (repo-wide convention for
        ratios with a zero denominator)."""
        return self.uops / self.native_uops if self.native_uops else 0.0

    @property
    def violations(self) -> ViolationLog:
        merged = ViolationLog()
        for result in self.per_core:
            for violation in result.violations.violations:
                merged.record(violation)
        return merged

    @property
    def flagged(self) -> bool:
        return self.violations.flagged

    def normalized_performance(self, baseline_cycles: int) -> float:
        return baseline_cycles / self.cycles if self.cycles else 0.0


class MulticoreMachine:
    """A workload's process under one defense, on a shared :class:`System`."""

    def __init__(
        self,
        workload,
        variant: Defense = Variant.UCODE_PREDICTION,
        config: CoreConfig = DEFAULT_CONFIG,
        rules: Optional[RuleDatabase] = None,
        halt_on_violation: bool = True,
    ) -> None:
        """``workload`` is a :class:`~repro.workloads.base.Workload`, run
        with one core per ``entry_labels`` entry.  ``variant`` is the
        defense: ``"asan"`` instruments the program, installs the
        sanitizer runtime's host hooks and runs the insecure variant."""
        self.workload = workload
        self.system = System(config)
        program = assemble(workload.source, name=workload.name)
        host_hooks = None
        if variant == "asan":
            program, runtime, _ = sanitize(program, self.system.allocator)
            host_hooks = runtime.host_hooks()
            variant = Variant.INSECURE
        self.variant = variant
        self.program = program
        self.cores: List[Chex86Machine] = []
        for tid, entry in enumerate(workload.entry_labels):
            self.cores.append(Chex86Machine(
                program,
                variant=variant,
                config=config,
                system=self.system,
                rules=rules,
                halt_on_violation=halt_on_violation,
                host_hooks=host_hooks,
                entry_label=entry,
                stack_base=STACK_TOP - tid * STACK_STRIDE,
            ))

    def run(self, max_instructions_per_core: int = 2_000_000
            ) -> MulticoreResult:
        """Run until every core halts or spends its budget.  A lone core
        runs its whole budget in one ``run_quantum``, as
        :meth:`Chex86Machine.run` does; two or more interleave in
        ``QUANTUM``-instruction slices."""
        quantum = QUANTUM if len(self.cores) > 1 \
            else max_instructions_per_core
        budgets = [max_instructions_per_core] * len(self.cores)
        progressing = True
        while progressing:
            progressing = False
            for index, core in enumerate(self.cores):
                if core.halted or budgets[index] <= 0:
                    continue
                executed = core.run_quantum(min(quantum, budgets[index]))
                budgets[index] -= executed
                if executed:
                    progressing = True
        return MulticoreResult(
            program=self.program.name,
            variant=self.variant,
            per_core=[core.result() for core in self.cores],
            system=self.system,
        )
