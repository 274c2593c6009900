"""Table I: the pointer-tracking rule database.

Regenerates the table from the live :class:`RuleDatabase` and — more
importantly — re-runs the paper's *construction process*: starting from
the expert seed, profile workloads with the hardware checker co-processor
engaged and add rules until a profiling pass comes back clean
(Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import render_table
from ..core.checker import HardwareChecker, LearningStep, RuleAutoConstructor
from ..core.machine import Chex86Machine
from ..core.rules import RuleDatabase
from ..core.variants import Variant
from ..isa.assembler import assemble
from ..workloads import build

#: Benchmarks used as the profiling corpus for auto-construction (the paper
#: profiles SPEC/PARSEC plus the exploit suites).
PROFILE_BENCHMARKS = ("perlbench", "mcf", "leela")


@dataclass
class Table1Result:
    database: RuleDatabase
    history: List[LearningStep]
    residual_mismatches: int
    validations: int = 0

    @property
    def converged(self) -> bool:
        """Clean up to coincidental collisions.

        An integer computation can coincidentally equal a tracked address;
        the checker dumps it, the expert dismisses it (no rule could
        legitimately cover it).  Convergence therefore tolerates a
        residual mismatch *rate* below 0.5%.
        """
        if not self.validations:
            return self.residual_mismatches == 0
        return self.residual_mismatches / self.validations < 0.005

    @property
    def rules_learned(self) -> List[str]:
        return [step.rule_added for step in self.history if step.rule_added]

    def format_text(self) -> str:
        rows = [
            [row["uop"], row["addr_mode"], row["propagation"],
             "learned" if row["learned"] else "seed", row["example"]]
            for row in self.database.to_rows()
        ]
        table = render_table(
            ["uop", "addr mode", "capability propagation", "origin",
             "code example"],
            rows, title="Table I: pointer tracking rule database")
        steps = "\n".join(
            f"  round {s.round}: {s.mismatches} mismatches"
            + (f" -> added rule '{s.rule_added}'" if s.rule_added
               else " (clean)")
            for s in self.history
        )
        return f"{table}\n\nAuto-construction history:\n{steps}"


def _profile(db: RuleDatabase, scale: int,
             max_instructions: int) -> HardwareChecker:
    """One offline profiling pass over the corpus with a fresh checker.

    One checker rides each benchmark's machine in turn, searching that
    machine's shadow tables, so a single pass sees the whole corpus, like
    the paper's profiling step.
    """
    checker = HardwareChecker(None)
    for name in PROFILE_BENCHMARKS:
        workload = build(name, scale)
        machine = Chex86Machine(assemble(workload.source, name=name),
                                variant=Variant.UCODE_PREDICTION, rules=db,
                                halt_on_violation=False)
        checker.captable = machine.captable
        machine.attach(checker)
        machine.run(max_instructions=max_instructions)
    return checker


def run(scale: int = 1, max_instructions: int = 200_000) -> Table1Result:
    constructor = RuleAutoConstructor(
        lambda db: _profile(db, scale, max_instructions))
    database, history = constructor.construct(RuleDatabase.seed())
    final = _profile(database, scale, max_instructions)
    return Table1Result(
        database=database,
        history=history,
        residual_mismatches=final.stats.mismatches,
        validations=final.stats.validations,
    )
