"""The hardware checker co-processor and rule auto-construction workflow.

Section V-A: the pointer-tracking rule database is constructed
incrementally.  Starting from a small expert seed, an offline profiling run
engages a checker co-processor that, for every micro-op producing a result,
exhaustively searches the shadow tables to decide whether the result is an
address inside any tracked (allocated or freed) block, and compares that
ground truth against the PID the speculative tracker predicted.  A mismatch
dumps the offending instruction and its execution state and requests a rule
update.

:class:`RuleAutoConstructor` automates the paper's human-in-the-loop step
against a catalog of candidate rules: it repeatedly profiles a workload,
groups mismatches by micro-op signature, installs the matching candidate,
and stops when a profiling pass comes back clean.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..microop.uops import AddrMode, AluOp, Uop, UopKind
from ..telemetry.tracer import Observer
from .capability import ShadowCapabilityTable
from .rules import Rule, RuleDatabase, _LEARNED_RULES


@dataclass(frozen=True)
class Mismatch:
    """One checker-detected rule failure, with its execution state dump."""

    kind: UopKind
    alu: Optional[AluOp]
    addr_mode: AddrMode
    predicted_pid: int
    actual_pid: int
    pc: int
    result_value: int

    @property
    def signature(self) -> Tuple:
        return (self.kind, self.alu, self.addr_mode)


@dataclass
class CheckerStats:
    validations: int = 0
    confirmed: int = 0
    mismatches: int = 0
    not_of_interest: int = 0  # result not inside any tracked block


class HardwareChecker(Observer):
    """Validates tracker predictions against exhaustive shadow-table search."""

    def __init__(self, captable: ShadowCapabilityTable) -> None:
        self.captable = captable
        self.stats = CheckerStats()
        self.mismatches: List[Mismatch] = []

    def ground_truth_pid(self, value: int) -> int:
        """Exhaustive search: PID of the tracked block containing ``value``.

        Searches allocated *and* freed blocks; 0 when the value is not an
        address of interest (stack, text, untracked global, plain data).
        """
        capability = self.captable.find_any_by_address(value)
        return capability.pid if capability is not None else 0

    def validate(self, uop: Uop, predicted_pid: int, result_value: int,
                 pc: int) -> bool:
        """Compare the tracker's PID for a produced result against ground
        truth; records a mismatch dump on failure.  Returns ok?"""
        self.stats.validations += 1
        actual = self.ground_truth_pid(result_value)
        if actual == 0:
            self.stats.not_of_interest += 1
            # The tracker claiming "untracked" or "wild" is consistent with
            # the search failing; a positive PID for a non-address is not.
            if predicted_pid <= 0:
                self.stats.confirmed += 1
                return True
        elif predicted_pid == actual:
            self.stats.confirmed += 1
            return True
        self.stats.mismatches += 1
        self.mismatches.append(Mismatch(
            kind=uop.kind, alu=uop.alu, addr_mode=uop.addr_mode,
            predicted_pid=predicted_pid, actual_pid=actual, pc=pc,
            result_value=result_value,
        ))
        return False

    def on_result(self, ts, pc, uop, pid, value):
        self.validate(uop, pid, value, pc)

    def mismatch_signatures(self) -> Counter:
        return Counter(m.signature for m in self.mismatches)


@dataclass
class LearningStep:
    """One iteration of the auto-construction loop."""

    round: int
    mismatches: int
    rule_added: Optional[str]
    signatures: Tuple[Tuple, ...] = ()


class RuleAutoConstructor:
    """Automates Section V-A's incremental rule-database construction.

    ``profile`` is a callable that runs one offline profiling pass with the
    given rule database and returns the :class:`HardwareChecker` used (its
    ``on_result`` hook sees every result-producing micro-op).
    ``catalog`` is the space of rules an expert could write; the constructor
    picks the candidate matching the most frequent mismatch signature each
    round — the "manual intervention" of the paper, mechanized.
    """

    def __init__(
        self,
        profile: Callable[[RuleDatabase], HardwareChecker],
        catalog: Sequence[Rule] = _LEARNED_RULES,
        max_rounds: int = 32,
    ) -> None:
        self._profile = profile
        self._catalog = list(catalog)
        self._max_rounds = max_rounds

    def construct(self, db: Optional[RuleDatabase] = None
                  ) -> Tuple[RuleDatabase, List[LearningStep]]:
        """Run profiling rounds until clean; returns (database, history)."""
        db = db if db is not None else RuleDatabase.seed()
        history: List[LearningStep] = []
        for round_no in range(1, self._max_rounds + 1):
            checker = self._profile(db)
            signatures = checker.mismatch_signatures()
            if not signatures:
                history.append(LearningStep(round_no, 0, None))
                break
            rule = self._pick_candidate(db, signatures)
            history.append(LearningStep(
                round=round_no,
                mismatches=checker.stats.mismatches,
                rule_added=rule.name if rule else None,
                signatures=tuple(signatures),
            ))
            if rule is None:
                # No candidate covers the remaining mismatches: genuine
                # manual intervention required — stop and report.
                break
            db.add(rule)
        return db, history

    def _pick_candidate(self, db: RuleDatabase,
                        signatures: Counter) -> Optional[Rule]:
        installed = {rule.name for rule in db}
        for (kind, alu, addr_mode), _ in signatures.most_common():
            for rule in self._catalog:
                if rule.name in installed:
                    continue
                if rule.kind is not kind:
                    continue
                if rule.alu is not None and rule.alu is not alu:
                    continue
                if rule.addr_mode is not None and rule.addr_mode is not addr_mode:
                    continue
                return rule
        # Load mismatches that persist after the LD rule is installed mean
        # the *producer* side is missing: spilled pointers are never being
        # recorded.  The execution-state dump makes this obvious to the
        # expert (the loaded value sits in tracked memory a store put
        # there), so the mechanized intervention proposes the ST rule.
        if any(kind is UopKind.LD for kind, _, _ in signatures):
            for rule in self._catalog:
                if rule.kind is UopKind.ST and rule.name not in installed:
                    return rule
        return None
