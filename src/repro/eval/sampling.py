"""Checkpointed SimPoint sampling on top of the evaluation engine.

``profile → select → checkpoint → replay``: the paper's methodology
simulates representative regions (PinPlay + SimPoint) rather than whole
benchmarks.  This module closes our reproduction's gap between
``analysis/simpoint.py`` (which can *select* simulation points) and
``eval/engine.py`` (which can fan cells out across workers) using the
machine checkpoint/restore subsystem (``core/snapshot.py``):

1. **Profile** the workload once under the insecure variant, collecting
   per-interval basic-block vectors.  BBVs describe the macro-instruction
   stream, which the transparency oracle guarantees is identical across
   non-ASan defenses — one profile serves every defense column.
2. **Select** simulation points with k-means over the projected BBVs
   (``SimPointSelection``).
3. **Checkpoint**: run the cell's own variant once, snapshotting the
   machine at the start of each selected interval.
4. **Replay** each selected interval as an independent ``"interval"``
   engine cell.  The fan-out inherits everything the engine already
   provides: parallel workers, content-hash caching (keyed by snapshot
   digest, not path), journal entries, retry/timeout fault-tolerance.
5. **Estimate**: per-interval telemetry deltas are extrapolated to
   full-run totals through ``SimPointSelection.estimate`` (weighted by
   cluster population), ``merge=last`` gauges are taken from the
   highest replayed interval, and ratio metrics are recomputed over the
   estimated totals — the registry's snapshot/merge algebra end to end.

The estimated :class:`BenchmarkRun` is keyed under the *original*
benchmark spec in the engine's in-memory memo, so the figure/table
drivers slice sampled results exactly as they slice full runs.  Nothing
is written to the full-run disk cache: a later non-``--simpoint`` run
still computes (and caches) exact cells.

Cells that sampling cannot represent fall back to full simulation:
ASan cells (the sanitizer runtime installs custom host hooks, which the
snapshot subsystem refuses), multi-threaded workloads (single-core
snapshots only), pattern-profile cells, and runs too short to span two
intervals.  See ``docs/sampling.md`` for the accuracy caveats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.simpoint import SimPointSelection, select
from ..core.machine import Chex86Machine
from ..core.snapshot import SnapshotError, snapshot_digest
from ..core.snapshot import save as save_snapshot
from ..core.variants import Variant
from ..isa.assembler import assemble
from ..telemetry import spans
from ..telemetry.registry import METRICS_SCHEMA
from .common import BenchmarkRun, IntervalRun
from .engine import CellSpec, EvalEngine

#: Default profiling/replay interval (instructions).  Small enough that
#: the default 2M-instruction cells span ~40 intervals, large enough
#: that warm-up bias at interval boundaries stays small.
DEFAULT_INTERVAL = 50_000

#: Default cap on simulation points (SimPoint's classic max_k).
DEFAULT_MAX_K = 8


@dataclass(frozen=True)
class SimPointPlan:
    """The sampling parameters one ``--simpoint`` invocation uses."""

    interval: int = DEFAULT_INTERVAL
    max_k: int = DEFAULT_MAX_K
    seed: int = 7

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.max_k <= 0:
            raise ValueError(f"max_k must be > 0, got {self.max_k}")


@dataclass
class _Profile:
    """One workload's profile, shared across its defense columns."""

    selection: SimPointSelection
    halted: bool            # the program finishes within the budget
    instructions: int       # exact full-run instruction count
    seconds: float          # wall-clock cost of the profiling run


@dataclass
class EstimateRecord:
    """Bookkeeping for one estimated cell (the accuracy report)."""

    workload: str
    defense: str
    scale: int
    points: int
    intervals: int
    interval_length: int
    coverage: float
    profile_seconds: float
    checkpoint_seconds: float
    estimated: Dict[str, float]
    full: Optional[Dict[str, float]] = None
    relative_error: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        return asdict(self)


class SamplingEngine:
    """An ``EvalEngine`` wrapper that estimates eligible benchmark cells
    from checkpointed SimPoint intervals instead of simulating them
    end to end.

    Drives the inner engine for everything else (pattern cells, ASan,
    multi-threaded workloads, too-short runs) and for the interval
    replay fan-out itself, so every engine feature — parallel workers,
    caching, journaling, retries — applies unchanged.  The public
    surface mirrors ``EvalEngine`` via delegation; drivers cannot tell
    the difference.
    """

    def __init__(self, engine: EvalEngine,
                 plan: SimPointPlan = SimPointPlan(),
                 echo: Optional[Callable[[str], None]] = None) -> None:
        self._engine = engine
        self.plan = plan
        self.echo = echo if echo is not None else engine.echo
        self._profiles: Dict[Tuple[str, int, int], Optional[_Profile]] = {}
        self.estimates: List[EstimateRecord] = []
        self._checkpoint_dir = Path(engine.cache_dir) / "checkpoints"

    def __getattr__(self, name: str):
        return getattr(self._engine, name)

    # -- the EvalEngine surface ----------------------------------------------

    def get(self, spec: CellSpec):
        return self.run_cells([spec])[spec]

    def run_cells(self, specs: Sequence[CellSpec],
                  artifact: str = "") -> Dict[CellSpec, object]:
        # The whole sampled batch — eligibility profiling, checkpoint
        # passes, inner replay fan-out — runs under the inner engine's
        # span tracer (a no-op context when tracing is off).
        with self._engine._tracing():
            return self._run_batch(specs, artifact)

    def _run_batch(self, specs: Sequence[CellSpec],
                   artifact: str) -> Dict[CellSpec, object]:
        unique: List[CellSpec] = []
        seen = set()
        for spec in specs:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)
        sampled = [spec for spec in unique
                   if spec not in self._engine._memo
                   and self._eligible(spec)]
        passthrough = [spec for spec in unique if spec not in sampled]
        if passthrough:
            self._engine.run_cells(passthrough, artifact=artifact)
        for spec in sampled:
            with spans.maybe("simpoint.estimate", cell=spec.label):
                self._estimate_cell(spec, artifact)
        return {spec: self._engine._memo[spec] for spec in unique}

    def write_metrics(self, path, specs: Sequence[CellSpec],
                      artifact: str) -> None:
        """Delegate the sidecar, then drop the estimation-accuracy report
        (``simpoint_<artifact>.json``) next to it."""
        self._engine.write_metrics(path, specs, artifact)
        target = Path(path)
        report = target.with_name(f"simpoint_{artifact}.json")
        addressed = {(spec.workload, spec.defense, spec.scale)
                     for spec in specs}
        records = [record for record in self.estimates
                   if (record.workload, record.defense,
                       record.scale) in addressed]
        if records:
            self.write_estimate_report(report, artifact, records)

    def write_estimate_report(self, path, artifact: str,
                              records: Optional[List[EstimateRecord]] = None
                              ) -> None:
        """Write estimate-vs-full-run accuracy records as JSON."""
        import json

        records = self.estimates if records is None else records
        document = {
            "schema": METRICS_SCHEMA,
            "artifact": artifact,
            "plan": {"interval": self.plan.interval,
                     "max_k": self.plan.max_k, "seed": self.plan.seed},
            "cells": [record.to_dict() for record in records],
        }
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")

    # -- eligibility ----------------------------------------------------------

    def _eligible(self, spec: CellSpec) -> bool:
        """Can this cell be estimated from checkpointed intervals?"""
        if spec.kind != "benchmark":
            return False
        if spec.defense == "asan":
            return False  # custom host hooks: not snapshotable
        if spec.max_instructions < 2 * self.plan.interval:
            return False  # too short to sample
        profile = self._profile_for(spec)
        return profile is not None

    def _profile_for(self, spec: CellSpec) -> Optional[_Profile]:
        """Profile + select once per (workload, scale, budget); ``None``
        marks a workload sampling cannot handle (cached too)."""
        key = (spec.workload, spec.scale, spec.max_instructions)
        if key in self._profiles:
            return self._profiles[key]
        from ..workloads import build

        workload = build(spec.workload, spec.scale)
        profile: Optional[_Profile] = None
        if workload.threads == 1:
            started = time.perf_counter()
            with spans.maybe("simpoint.profile", workload=spec.workload,
                             budget=spec.max_instructions):
                program = assemble(workload.source, name=workload.name)
                machine = Chex86Machine(program, variant=Variant.INSECURE,
                                        halt_on_violation=False)
                machine.bbv_interval = self.plan.interval
                machine.run(max_instructions=spec.max_instructions)
                machine.flush_profiling_intervals()
                vectors = list(machine.bbv_vectors)
            seconds = time.perf_counter() - started
            if len(vectors) >= 2:
                selection = select(vectors, max_k=self.plan.max_k,
                                   interval_length=self.plan.interval,
                                   seed=self.plan.seed)
                profile = _Profile(selection=selection,
                                   halted=machine.halted,
                                   instructions=machine.instructions,
                                   seconds=seconds)
                self.echo(f"[simpoint] {spec.workload}: "
                          f"{selection.intervals} intervals -> "
                          f"{len(selection.points)} point(s), "
                          f"coverage {selection.coverage:.0%}")
        self._profiles[key] = profile
        return profile

    # -- the sampled path -----------------------------------------------------

    def _estimate_cell(self, spec: CellSpec, artifact: str) -> None:
        profile = self._profile_for(spec)
        selection = profile.selection
        checkpoint_started = time.perf_counter()
        with spans.maybe("simpoint.checkpoint", cell=spec.label,
                         points=len(selection.points)):
            interval_specs = self._checkpoint(spec, selection)
        checkpoint_seconds = time.perf_counter() - checkpoint_started
        replayed = self._engine.run_cells(interval_specs, artifact=artifact)
        intervals = {s.interval_index: replayed[s] for s in interval_specs}
        with spans.maybe("simpoint.extrapolate", cell=spec.label,
                         intervals=len(intervals)):
            run = self._combine(spec, profile, intervals)
        # Memo only: drivers re-keying by the original spec (and
        # cell_metrics/memoized) see the estimate, while the on-disk
        # full-run cache stays exact-only.
        self._engine._memo[spec] = run
        self._record_estimate(spec, profile, run, checkpoint_seconds)

    def _checkpoint(self, spec: CellSpec,
                    selection: SimPointSelection) -> List[CellSpec]:
        """Run the cell's own variant once, snapshotting at the start of
        each selected interval; returns the replay cell specs."""
        from ..workloads import build

        workload = build(spec.workload, spec.scale)
        program = assemble(workload.source, name=workload.name)
        variant = Variant(spec.defense)
        machine = Chex86Machine(program, variant=variant, config=spec.config,
                                halt_on_violation=False)
        wanted = sorted(point.interval for point in selection.points)
        interval = selection.interval_length
        specs: List[CellSpec] = []
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        cursor = 0
        for index in wanted:
            # Advance to the start of interval ``index`` (a halted
            # machine stays put; its snapshot replays zero instructions,
            # matching the profiled tail).
            machine.run_quantum((index - cursor) * interval)
            cursor = index
            name = (f"{spec.workload}-{spec.defense}-{spec.scale}"
                    f"-{spec.cache_key()}-i{index}.ckpt").replace("/", "_")
            path = self._checkpoint_dir / name
            digest = save_snapshot(machine, path)
            specs.append(CellSpec(
                workload=spec.workload, defense=spec.defense,
                scale=spec.scale, max_instructions=spec.max_instructions,
                kind="interval", config=spec.config,
                interval_index=index, interval_length=interval,
                checkpoint=str(path), checkpoint_digest=digest))
        return specs

    def _combine(self, spec: CellSpec, profile: _Profile,
                 intervals: Dict[int, IntervalRun]) -> BenchmarkRun:
        """Extrapolate replayed interval deltas to a full-run estimate."""
        from ..workloads import build

        selection = profile.selection
        n = selection.intervals
        # Ratio definitions and merge=last names come from a probe
        # machine's registry — the metric tree is program-independent,
        # so this stays correct when new metrics are added.
        probe = Chex86Machine(assemble("main:\n    halt\n", name="probe"),
                              config=spec.config).telemetry
        last_names = probe._last_metrics()
        ratio_names = set(probe._ratios)

        summed_names = set()
        for run in intervals.values():
            summed_names.update(name for name in run.metrics_delta
                                if name not in last_names
                                and name not in ratio_names)
        metrics: Dict[str, float] = {}
        for name in summed_names:
            per_interval = [0.0] * n
            for index, run in intervals.items():
                per_interval[index] = run.metrics_delta.get(name, 0.0)
            metrics[name] = n * selection.estimate(per_interval)
        deepest = intervals[max(intervals)]
        for name in last_names:
            if name in deepest.final_metrics:
                metrics[name] = deepest.final_metrics[name]
        probe._apply_ratios(metrics)

        workload = build(spec.workload, spec.scale)
        return BenchmarkRun(
            benchmark=workload.name,
            suite=workload.suite,
            defense=spec.defense,
            threads=workload.threads,
            halted=profile.halted,
            flagged=any(run.flagged for run in intervals.values()),
            # The profiling run yields the instruction count exactly
            # (variant-transparent), so no estimation error there.
            instructions=profile.instructions,
            cycles=int(round(metrics.get("timing.cycles", 0.0))),
            rss_bytes=deepest.rss_bytes,
            frequency_ghz=spec.config.frequency_ghz,
            metrics=metrics,
        )

    def _record_estimate(self, spec: CellSpec, profile: _Profile,
                         run: BenchmarkRun,
                         checkpoint_seconds: float) -> None:
        """Log the estimate; compare to a cached full run when one
        exists (never computing one just for the comparison)."""
        selection = profile.selection
        headline = ("cycles", "uops", "injected_uops", "squash_cycles",
                    "dram_bytes")
        record = EstimateRecord(
            workload=spec.workload, defense=spec.defense, scale=spec.scale,
            points=len(selection.points), intervals=selection.intervals,
            interval_length=selection.interval_length,
            coverage=selection.coverage,
            profile_seconds=round(profile.seconds, 4),
            checkpoint_seconds=round(checkpoint_seconds, 4),
            estimated={name: getattr(run, name) for name in headline},
        )
        full = self._engine._cache_load(spec)
        if isinstance(full, BenchmarkRun):
            record.full = {name: getattr(full, name) for name in headline}
            record.relative_error = {
                name: (abs(record.estimated[name] - record.full[name])
                       / record.full[name]) if record.full[name] else 0.0
                for name in headline
            }
            worst = max(record.relative_error.values())
            self.echo(f"[simpoint] {spec.label}: worst headline error "
                      f"vs cached full run {worst:.1%}")
        self.estimates.append(record)


def replay_interval(spec: CellSpec) -> IntervalRun:
    """The ``"interval"`` engine cell: replay one checkpointed interval
    and measure its telemetry delta.

    The snapshot bytes are digest-verified before restore, so a stale or
    rewritten checkpoint file fails loudly instead of silently replaying
    the wrong state.
    """
    data = Path(spec.checkpoint).read_bytes()
    if snapshot_digest(data) != spec.checkpoint_digest:
        raise SnapshotError(
            f"checkpoint {spec.checkpoint} content does not match the "
            f"cell's recorded digest; re-run the checkpoint pass")
    machine = Chex86Machine.restore(data)
    spans.attach_machine(
        machine,
        f"{spec.workload}/{spec.defense} interval {spec.interval_index}")
    base_metrics = machine.metrics_snapshot()
    base_instructions = machine.instructions
    machine.run_quantum(spec.interval_length)
    final_metrics = machine.metrics_snapshot()
    return IntervalRun(
        workload=spec.workload,
        defense=spec.defense,
        interval_index=spec.interval_index,
        instructions=machine.instructions - base_instructions,
        halted=machine.halted,
        flagged=machine.violations.count() > 0,
        metrics_delta=machine.telemetry.delta(base_metrics, final_metrics),
        final_metrics=final_metrics,
        rss_bytes=machine.system.memory.resident_bytes,
    )
