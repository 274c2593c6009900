"""Benchmark memory-allocation profiling (paper Figure 3).

Figure 3 profiles each benchmark on three log-scale metrics:

1. total allocations over the run,
2. maximum number of *live* allocations at any time,
3. average allocations actually *in use* in any given execution interval
   (100M dynamic instructions in the paper; scaled here with the
   simulator's interval length).

The paper's observation — each metric sits orders of magnitude below the
previous one — motivates the 64-entry capability cache.  The profiler
reproduces the same three metrics from a run of our simulator.  The paper
used valgrind, a tool outside the program it watches; here the third
metric comes from :class:`IntervalPids`, an observer in the machine's
observer slot, so profiling leaves the run unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..core.variants import Variant
from ..pipeline.config import CoreConfig, DEFAULT_CONFIG
from ..pipeline.multicore import MulticoreMachine
from ..telemetry.tracer import Observer
from ..workloads.base import Workload

#: Profiling interval in dynamic instructions (the paper uses 100M on
#: full-length benchmarks; the synthetic workloads are ~10^4-10^5
#: instructions, so the interval scales down proportionally — it must stay
#: a small fraction of the run for the in-use metric to be meaningful).
PROFILE_INTERVAL = 400


class IntervalPids(Observer):
    """Allocations in use: the distinct PIDs whose capability checks
    passed, counted per ``interval`` instructions into :attr:`counts`.

    It counts instructions that *start* (``on_instr``), which equals the
    retired count when no violation traps: every profiler runs with
    ``halt_on_violation=False``.  PIDs come from ``on_capcheck``.  An
    interval closes at every ``interval``-th instruction, once that
    instruction's checks are in; :meth:`finish` closes the last one.
    """

    __slots__ = ("interval", "counts", "_pids", "_left")

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.counts: List[int] = []
        self._pids: Set[int] = set()
        self._left = interval

    def on_instr(self, ts, pc):
        if not self._left:
            self._close()
        self._left -= 1

    def on_capcheck(self, ts, pc, pid, address, ok):
        if ok and pid > 0:
            self._pids.add(pid)

    def _close(self) -> None:
        self.counts.append(len(self._pids))
        self._pids = set()
        self._left = self.interval

    def finish(self) -> List[int]:
        """Close a complete last interval, and a partial one only if it
        saw a PID; safe to call more than once."""
        if not self._left or self._pids:
            self._close()
        return self.counts


@dataclass
class AllocationProfile:
    """One benchmark's Figure 3 row."""

    benchmark: str
    total_allocations: int
    max_live: int
    avg_in_use_per_interval: float
    intervals: int


def profile_workload(workload: Workload,
                     config: CoreConfig = DEFAULT_CONFIG,
                     max_instructions: int = 600_000,
                     interval: int = PROFILE_INTERVAL) -> AllocationProfile:
    """Run ``workload`` under the prediction variant and profile it."""
    process = MulticoreMachine(workload, Variant.UCODE_PREDICTION, config,
                               halt_on_violation=False)
    profilers = [core.attach(IntervalPids(interval))
                 for core in process.cores]
    process.run(max_instructions_per_core=max_instructions)
    allocator = process.system.allocator
    counts = [count for profiler in profilers for count in profiler.finish()]
    avg_in_use = sum(counts) / len(counts) if counts else 0.0
    return AllocationProfile(
        benchmark=workload.name,
        total_allocations=allocator.stats.total_allocs,
        max_live=allocator.stats.max_live,
        avg_in_use_per_interval=avg_in_use,
        intervals=len(counts),
    )


def orders_of_magnitude_gaps(profile: AllocationProfile) -> Dict[str, float]:
    """The Figure 3 headline: total >> max-live >> in-use."""
    def ratio(a: float, b: float) -> float:
        return a / b if b else float("inf")

    return {
        "total_over_live": ratio(profile.total_allocations, profile.max_live),
        "live_over_in_use": ratio(profile.max_live,
                                  profile.avg_in_use_per_interval),
    }
