"""SimPoint-style representative-region selection (paper Methodology).

The paper simulates representative regions chosen with PinPlay + SimPoint
rather than whole benchmarks.  This module reproduces that workflow on our
substrate:

1. profile a run into per-interval **basic-block vectors** (instruction
   execution frequency per static instruction, the BBV of Sherwood et al.)
   with the :class:`BasicBlockVectors` observer,
2. random-project the sparse vectors to a low dimension,
3. cluster with k-means (numpy),
4. pick, per cluster, the interval closest to the centroid as the
   *simulation point*, weighted by its cluster's population.

A weighted metric over the simulation points then estimates the full-run
metric — :func:`estimate` — which is exactly how SimPoint numbers are
consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.machine import Chex86Machine
from ..core.variants import Variant
from ..isa.assembler import assemble
from ..isa.instructions import INSTR_SLOT
from ..isa.program import Program
from ..telemetry.tracer import Observer
from ..workloads.base import Workload

#: Dimensionality after random projection (SimPoint uses 15).
PROJECTED_DIMS = 15


@dataclass(frozen=True)
class SimulationPoint:
    """One representative interval and its weight."""

    interval: int   # index into the interval sequence
    weight: float   # fraction of intervals its cluster covers

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"weight {self.weight} outside (0, 1]")


@dataclass
class SimPointSelection:
    """The chosen simulation points for one profiled run."""

    points: List[SimulationPoint]
    intervals: int
    interval_length: int
    cluster_of: List[int]  # cluster id per interval

    @property
    def coverage(self) -> float:
        return sum(p.weight for p in self.points)

    def estimate(self, per_interval_metric: Sequence[float]) -> float:
        """Weighted estimate of a full-run metric from the points alone.

        ``per_interval_metric`` must cover the profiled run exactly — one
        entry per interval.  A shorter sequence would otherwise raise a
        bare ``IndexError`` (or worse, a longer one would silently weight
        the wrong intervals), so the length is validated up front.
        """
        if len(per_interval_metric) != self.intervals:
            raise ValueError(
                f"per-interval metric has {len(per_interval_metric)} "
                f"entries but the profile has {self.intervals} intervals")
        return sum(point.weight * per_interval_metric[point.interval]
                   for point in self.points)


def _to_matrix(vectors: Sequence[Dict[int, int]],
               seed: int = 7) -> np.ndarray:
    """Normalize sparse BBVs and random-project them to PROJECTED_DIMS."""
    dims = max((max(v) for v in vectors if v), default=0) + 1
    dense = np.zeros((len(vectors), dims))
    for row, vector in enumerate(vectors):
        for index, count in vector.items():
            dense[row, index] = count
    norms = dense.sum(axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dense /= norms
    rng = np.random.default_rng(seed)
    projection = rng.uniform(-1.0, 1.0, size=(dims, PROJECTED_DIMS))
    return dense @ projection


def _kmeans_pp_init(matrix: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids distance-proportionally."""
    n = matrix.shape[0]
    centroids = [matrix[rng.integers(n)]]
    for _ in range(1, k):
        distances = np.min(
            [np.sum((matrix - c) ** 2, axis=1) for c in centroids], axis=0)
        total = distances.sum()
        if total == 0:
            centroids.append(matrix[rng.integers(n)])
            continue
        centroids.append(matrix[rng.choice(n, p=distances / total)])
    return np.array(centroids)


def _kmeans(matrix: np.ndarray, k: int, seed: int = 7,
            iterations: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ init; returns (assignments, centroids).

    An emptied cluster is reseeded on the point farthest from its current
    centroid, so well-separated phases cannot collapse into one cluster.
    """
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    k = min(k, n)
    centroids = _kmeans_pp_init(matrix, k, rng)
    assignments = np.full(n, -1, dtype=int)
    for _ in range(iterations):
        distances = np.linalg.norm(
            matrix[:, None, :] - centroids[None, :, :], axis=2)
        new_assignments = distances.argmin(axis=1)
        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
        for cluster in range(k):
            members = matrix[assignments == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
            else:
                # Reseed on the point farthest from its *current* centroid.
                # ``distances`` above is stale here: earlier clusters in
                # this same sweep already moved their centroids, so the
                # pre-update matrix can nominate a point that is now well
                # covered.  Recompute, and break ties on the lowest index
                # so the reseed is deterministic.
                current = np.linalg.norm(
                    matrix[:, None, :] - centroids[None, :, :], axis=2)
                d = current.min(axis=1)
                farthest = int(np.flatnonzero(d == d.max())[0])
                centroids[cluster] = matrix[farthest]
    return assignments, centroids


def select(vectors: Sequence[Dict[int, int]], max_k: int = 8,
           interval_length: int = 0, seed: int = 7) -> SimPointSelection:
    """Choose simulation points from per-interval BBVs."""
    if not vectors:
        raise ValueError("no interval vectors to select from")
    matrix = _to_matrix(vectors, seed)
    assignments, centroids = _kmeans(matrix, max_k, seed)
    points: List[SimulationPoint] = []
    n = len(vectors)
    for cluster in sorted(set(assignments.tolist())):
        member_indices = np.flatnonzero(assignments == cluster)
        distances = np.linalg.norm(
            matrix[member_indices] - centroids[cluster], axis=1)
        representative = int(member_indices[distances.argmin()])
        points.append(SimulationPoint(
            interval=representative,
            weight=len(member_indices) / n,
        ))
    return SimPointSelection(
        points=sorted(points, key=lambda p: p.interval),
        intervals=n,
        interval_length=interval_length,
        cluster_of=assignments.tolist(),
    )


class BasicBlockVectors(Observer):
    """Per-interval BBVs: executions of each static instruction (by its
    macro index in ``program``), one vector per ``interval``
    instructions, in :attr:`vectors`.

    It counts instructions that *start* (``on_instr``), which equals the
    retired count when no violation traps: every profiler runs with
    ``halt_on_violation=False``.  Counts are keyed by pc while an
    interval runs and mapped to macro indices when it closes, at every
    ``interval``-th instruction; :meth:`finish` closes the last one.
    """

    __slots__ = ("interval", "vectors", "_text_base", "_counts", "_left")

    def __init__(self, interval: int, program: Program) -> None:
        self.interval = interval
        self.vectors: List[Dict[int, int]] = []
        self._text_base = program.text_base
        self._counts: Dict[int, int] = {}
        self._left = interval

    def on_instr(self, ts, pc):
        counts = self._counts
        counts[pc] = counts.get(pc, 0) + 1
        self._left -= 1
        if not self._left:
            self._close()

    def _close(self) -> None:
        base = self._text_base
        self.vectors.append({(pc - base) // INSTR_SLOT: count
                             for pc, count in self._counts.items()})
        self._counts = {}
        self._left = self.interval

    def finish(self) -> List[Dict[int, int]]:
        """Close a non-empty partial last interval; safe to call more
        than once."""
        if self._counts:
            self._close()
        return self.vectors


def profile_bbvs(workload: Workload, interval: int = 1_000,
                 variant: Variant = Variant.UCODE_PREDICTION,
                 max_instructions: int = 600_000
                 ) -> Tuple[List[Dict[int, int]], Chex86Machine]:
    """Run ``workload`` collecting per-interval BBVs (single-threaded)."""
    program = assemble(workload.source, name=workload.name)
    machine = Chex86Machine(program, variant=variant,
                            halt_on_violation=False)
    profiler = machine.attach(BasicBlockVectors(interval, program))
    machine.run(max_instructions=max_instructions)
    return profiler.finish(), machine


def select_for(workload: Workload, interval: int = 1_000, max_k: int = 8,
               max_instructions: int = 600_000) -> SimPointSelection:
    """Profile + select in one call (the PinPlay→SimPoint pipeline)."""
    vectors, _ = profile_bbvs(workload, interval,
                              max_instructions=max_instructions)
    return select(vectors, max_k=max_k, interval_length=interval)
