"""Temporal pointer access pattern classification (paper Table II).

Table II names eight temporal patterns in the sequence of PIDs a given
load instruction reloads:

=================  ======  ===========================
Pattern            Stride  Example PID sequence
=================  ======  ===========================
Constant           0       31 31 31 31 31 31 31
Stride             3       13 16 19 22 25 28 31
Batch + Stride     4       11 11 11 15 15 15 15
Batch + No Stride  n/a     22 22 22 13 99 99 99
Repeat + Stride    1       26 27 28 26 27 28 26
Repeat + No Stride n/a     26 57 5 26 57 5 26
Random + Stride    n/a     26 23 29 27 24 30 28
Random + No Stride n/a     26 23 29 31 29 34 40
=================  ======  ===========================

:func:`classify` reproduces that taxonomy for one PID sequence;
:func:`profile_patterns` classifies every reload PC of a run traced by a
:class:`ReloadTrace` observer,
which is how the paper's observation ("perlbench exhibits the highest
number of Batch + Stride patterns") is regenerated.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.machine import Chex86Machine
from ..core.variants import Variant
from ..isa.assembler import assemble
from ..telemetry import spans
from ..telemetry.tracer import Observer
from ..workloads import build


class Pattern(enum.Enum):
    CONSTANT = "Constant"
    STRIDE = "Stride"
    BATCH_STRIDE = "Batch + Stride"
    BATCH_NO_STRIDE = "Batch + No Stride"
    REPEAT_STRIDE = "Repeat + Stride"
    REPEAT_NO_STRIDE = "Repeat + No Stride"
    RANDOM_STRIDE = "Random + Stride"
    RANDOM_NO_STRIDE = "Random + No Stride"


#: Table II's own example sequences, used as classifier ground truth.
TABLE2_EXAMPLES: Dict[Pattern, Tuple[int, ...]] = {
    Pattern.CONSTANT: (31, 31, 31, 31, 31, 31, 31),
    Pattern.STRIDE: (13, 16, 19, 22, 25, 28, 31),
    Pattern.BATCH_STRIDE: (11, 11, 11, 15, 15, 15, 15),
    Pattern.BATCH_NO_STRIDE: (22, 22, 22, 13, 99, 99, 99),
    Pattern.REPEAT_STRIDE: (26, 27, 28, 26, 27, 28, 26),
    Pattern.REPEAT_NO_STRIDE: (26, 57, 5, 26, 57, 5, 26),
    Pattern.RANDOM_STRIDE: (26, 23, 29, 27, 24, 30, 28),
    Pattern.RANDOM_NO_STRIDE: (26, 23, 29, 31, 29, 34, 40),
}


def _dedupe_runs(seq: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Collapse consecutive repeats; returns (values, run lengths)."""
    values: List[int] = []
    runs: List[int] = []
    for pid in seq:
        if values and values[-1] == pid:
            runs[-1] += 1
        else:
            values.append(pid)
            runs.append(1)
    return values, runs


def _constant_stride(values: Sequence[int]) -> Optional[int]:
    """The common difference if ``values`` is an arithmetic sequence."""
    if len(values) < 2:
        return 0
    stride = values[1] - values[0]
    for a, b in zip(values, values[1:]):
        if b - a != stride:
            return None
    return stride


def _repeat_period(values: Sequence[int]) -> Optional[int]:
    """Smallest period p >= 2 such that values[i] == values[i % p]."""
    n = len(values)
    for period in range(2, n // 2 + 1):
        if len(set(values[:period])) < period:
            continue  # a period with duplicates is not a clean cycle
        if all(values[i] == values[i % period] for i in range(n)):
            return period
    return None


def _near_stride(values: Sequence[int]) -> bool:
    """Random + Stride: random order inside a *striding window* of PIDs.

    Table II's example (26 23 29 27 24 30 28) visits the consecutive PID
    window 23..30 in scrambled order — the window itself advances with the
    allocation stride.  The discriminator is density: the distinct values
    nearly fill their span.  The No-Stride example (26 23 29 31 29 34 40)
    scatters over a span far wider than its count.
    """
    if len(values) < 4:
        return False
    distinct = set(values)
    span = max(distinct) - min(distinct) + 1
    return len(distinct) / span >= 0.75


def classify(seq: Sequence[int]) -> Pattern:
    """Classify one PID reload sequence into a Table II pattern."""
    seq = list(seq)
    if len(set(seq)) <= 1:
        return Pattern.CONSTANT
    values, runs = _dedupe_runs(seq)
    batched = max(runs) > 1

    stride = _constant_stride(values)
    if stride is not None:
        if batched:
            return Pattern.BATCH_STRIDE
        return Pattern.STRIDE

    period = _repeat_period(values)
    if period is not None:
        cycle = values[:period]
        cycle_stride = _constant_stride(cycle)
        if cycle_stride is not None and cycle_stride != 0:
            # An arithmetic cycle visited in batches is the paper's
            # Listing-1 shape (chase buf11, buf15, buf19, repeat): each
            # batch dereferences one buffer several times while the window
            # strides — "Batch + Stride".  Without batching it is the
            # Listing-2 "Repeat + Stride" shape.
            return Pattern.BATCH_STRIDE if batched else Pattern.REPEAT_STRIDE
        return Pattern.REPEAT_NO_STRIDE

    if batched:
        return Pattern.BATCH_NO_STRIDE
    if _near_stride(values):
        return Pattern.RANDOM_STRIDE
    return Pattern.RANDOM_NO_STRIDE


@dataclass
class PatternProfile:
    """Per-PC pattern classification of a reload trace."""

    per_pc: Dict[int, Pattern]
    histogram: Counter

    @property
    def dominant(self) -> Optional[Pattern]:
        if not self.histogram:
            return None
        return self.histogram.most_common(1)[0][0]

    def to_dict(self) -> Dict[str, str]:
        """JSON form: pattern name by decimal pc (the histogram is
        derived, so it is not stored)."""
        return {str(pc): pattern.value for pc, pattern in self.per_pc.items()}

    @classmethod
    def from_dict(cls, record: Dict[str, str]) -> "PatternProfile":
        per_pc = {int(pc): Pattern(value) for pc, value in record.items()}
        return cls(per_pc=per_pc, histogram=Counter(per_pc.values()))


def profile_patterns(trace: Iterable[Tuple[int, int]],
                     min_events: int = 6) -> PatternProfile:
    """Classify the PID sequence observed at each reload PC.

    ``trace`` is a :class:`ReloadTrace`'s ``events``: (pc, pid) pairs in
    program order.  PCs with fewer than ``min_events`` reloads are skipped
    (too short to name a pattern).
    """
    by_pc: Dict[int, List[int]] = defaultdict(list)
    for pc, pid in trace:
        by_pc[pc].append(pid)
    per_pc = {
        pc: classify(pids)
        for pc, pids in by_pc.items()
        if len(pids) >= min_events
    }
    return PatternProfile(per_pc=per_pc, histogram=Counter(per_pc.values()))


class ReloadTrace(Observer):
    """Observer recording the (pc, pid) trace :func:`profile_patterns`
    classifies: every resolved pointer reload that found a PID."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Tuple[int, int]] = []

    def on_reload(self, ts, pc, predicted, actual, outcome):
        if actual > 0:
            self.events.append((pc, actual))


def pattern_cell(spec) -> PatternProfile:
    """The ``"patterns"`` engine cell (Table II): run a
    :class:`~repro.eval.engine.CellSpec`'s workload with a
    :class:`ReloadTrace` attached and classify its reloads."""
    workload = build(spec.workload, spec.scale)
    machine = Chex86Machine(assemble(workload.source, name=spec.workload),
                            variant=Variant(spec.defense), config=spec.config,
                            halt_on_violation=False)
    spans.attach_machine(machine, f"{spec.workload}/{spec.defense} patterns")
    trace = machine.attach(ReloadTrace())
    machine.run(max_instructions=spec.max_instructions)
    return profile_patterns(trace.events, spec.min_events)
