"""Shared experiment machinery for the per-figure/table drivers.

:func:`run_benchmark` executes one (benchmark, defense) cell and collects
every metric any figure needs into a :class:`BenchmarkRun`; the figure
drivers then slice those records into the paper's rows and series.

Defenses: the five CHEx86 variants plus ``"asan"`` (the program is
instrumented and run against the ASan runtime on the insecure pipeline).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Union

from ..core.machine import Chex86Machine
from ..core.variants import Variant
from ..isa.assembler import assemble
from ..pipeline.config import CoreConfig, DEFAULT_CONFIG
from ..pipeline.multicore import MulticoreMachine
from ..sanitizer import sanitize
from ..telemetry import spans
from ..workloads import build
from ..workloads.base import Workload

Defense = Union[Variant, str]

#: Labels in the order Figure 6 plots its bars.
FIG6_LABELS = (
    ("insecure", Variant.INSECURE),
    ("hw-only", Variant.HW_ONLY),
    ("binary-translation", Variant.BINARY_TRANSLATION),
    ("ucode-always-on", Variant.UCODE_ALWAYS_ON),
    ("ucode-prediction", Variant.UCODE_PREDICTION),
    ("asan", "asan"),
)


def defense_label(defense: Defense) -> str:
    return defense.value if isinstance(defense, Variant) else str(defense)


def _counter(metric: str) -> property:
    """A read-only ``int`` view of one registry counter in ``metrics``
    (rounded: sampled estimates extrapolate counters to floats)."""
    return property(lambda run: int(round(run.metrics.get(metric, 0))),
                    doc=f"``metrics[{metric!r}]`` as an int.")


class _Record:
    """JSON form of a result dataclass: its fields, as plain data."""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]):
        """Inverse of :meth:`to_dict` (keys that are not stored fields
        are ignored, so ``from_dict(run.to_dict()) == run`` round-trips
        exactly)."""
        names = {f.name for f in fields(cls)}
        missing = names - set(record)
        if missing:
            raise ValueError(f"{cls.__name__} record missing fields: "
                             f"{sorted(missing)}")
        return cls(**{k: v for k, v in record.items() if k in names})


@dataclass
class BenchmarkRun(_Record):
    """Every metric one (benchmark, defense) cell can be asked for.

    Only what the registry cannot give is stored: the cell identity,
    its outcome, the exact instruction count (exact even for sampled
    estimates), the slowest core's ``cycles``, the resident footprint
    and the clock.  Every other counter is a read-only view of
    ``metrics`` under its registry name.
    """

    benchmark: str
    suite: str
    defense: str
    threads: int
    halted: bool
    flagged: bool
    instructions: int
    cycles: int
    rss_bytes: int
    frequency_ghz: float
    #: Full telemetry-registry snapshot merged over cores (counters
    #: summed, system gauges kept once, ratio metrics recomputed) — the
    #: per-cell metrics sidecar the engine exports to
    #: ``results/metrics/<artifact>.json``.
    metrics: Dict[str, float] = field(default_factory=dict)

    uops = _counter("machine.uops")
    native_uops = _counter("machine.native_uops")
    injected_uops = _counter("machine.mcu.injected_uops")
    capcache_accesses = _counter("cache.cap.accesses")
    capcache_misses = _counter("cache.cap.misses")
    aliascache_accesses = _counter("cache.alias.accesses")
    aliascache_misses = _counter("cache.alias.misses")
    predictor_lookups = _counter("predictor.lookups")
    predictor_mispredicts = _counter("predictor.mispredictions")
    squash_cycles = _counter("timing.squash_cycles")
    alias_squash_cycles = _counter("timing.alias_squash_cycles")
    #: Per-core cycles summed (``cycles`` is the slowest core's).
    core_cycles_total = _counter("timing.cycles")
    dram_bytes = _counter("timing.dram_bytes")
    shadow_dram_bytes = _counter("timing.shadow_dram_bytes")
    shadow_rss_bytes = _counter("shadow.bytes")

    # -- derived metrics ----------------------------------------------------

    @property
    def capcache_miss_rate(self) -> float:
        if not self.capcache_accesses:
            return 0.0
        return self.capcache_misses / self.capcache_accesses

    @property
    def aliascache_miss_rate(self) -> float:
        if not self.aliascache_accesses:
            return 0.0
        return self.aliascache_misses / self.aliascache_accesses

    @property
    def predictor_misprediction_rate(self) -> float:
        if not self.predictor_lookups:
            return 0.0
        return self.predictor_mispredicts / self.predictor_lookups

    @property
    def squash_fraction(self) -> float:
        # Squash cycles are summed across cores, so normalize by the sum of
        # per-core cycles (equals ``cycles`` on a single core).
        if not self.core_cycles_total:
            return 0.0
        return self.squash_cycles / self.core_cycles_total

    @property
    def bandwidth_mb_per_s(self) -> float:
        if not self.cycles or not self.frequency_ghz:
            return 0.0
        seconds = self.cycles / (self.frequency_ghz * 1e9)
        return (self.dram_bytes + self.shadow_dram_bytes) / seconds / 1e6

    @property
    def total_rss_bytes(self) -> int:
        return self.rss_bytes + self.shadow_rss_bytes

    def normalized_performance(self, baseline: "BenchmarkRun") -> float:
        """Figure 6 top: runtime of baseline / runtime of this (<= 1.0
        means slowdown relative to the insecure baseline).

        A zero denominator (a run that never advanced) yields 0.0 — the
        repo-wide convention for undefined ratios.
        """
        return baseline.cycles / self.cycles if self.cycles else 0.0

    def uop_expansion_vs(self, baseline: "BenchmarkRun") -> float:
        """Figure 6 bottom: dynamic uops normalized to the baseline's
        (0.0 when the baseline executed no uops, per the repo-wide
        zero-denominator convention)."""
        return self.uops / baseline.uops if baseline.uops else 0.0


@dataclass
class IntervalRun(_Record):
    """Replay of one checkpointed SimPoint interval (an engine cell).

    Carries the telemetry *delta* over the interval (counters
    differenced, ratios recomputed — the registry's delta algebra) plus
    the machine's final cumulative snapshot and memory footprint, which
    the sampling layer (``eval/sampling.py``) combines into an estimated
    :class:`BenchmarkRun` via ``SimPointSelection.estimate``.
    """

    workload: str
    defense: str
    interval_index: int
    instructions: int          # executed in this interval
    halted: bool               # the program finished inside the interval
    flagged: bool              # cumulative: any violation so far
    metrics_delta: Dict[str, float]
    final_metrics: Dict[str, float]
    rss_bytes: int             # footprint at interval end


def benchmark_cell(spec) -> BenchmarkRun:
    """The ``"benchmark"`` engine cell: one full run of a
    :class:`~repro.eval.engine.CellSpec`."""
    defense = spec.defense if spec.defense == "asan" \
        else Variant(spec.defense)
    return run_benchmark(build(spec.workload, spec.scale), defense,
                         spec.config, spec.max_instructions)


def run_benchmark(workload: Workload, defense: Defense,
                  config: CoreConfig = DEFAULT_CONFIG,
                  max_instructions: int = 2_000_000) -> BenchmarkRun:
    """Execute one cell and collect its metrics."""
    if defense == "asan":
        return _run_asan(workload, config, max_instructions)
    assert isinstance(defense, Variant)
    if workload.threads > 1:
        runner = MulticoreMachine(workload, variant=defense, config=config,
                                  halt_on_violation=False)
        result = runner.run(max_instructions_per_core=max_instructions)
        return _collect(workload, defense_label(defense), runner.cores,
                        runner.system, result, config)
    program = assemble(workload.source, name=workload.name)
    machine = Chex86Machine(program, variant=defense, config=config,
                            halt_on_violation=False)
    # A no-op unless a traced / provenance-armed sweep is active.
    spans.attach_machine(machine, f"{workload.name}/{defense_label(defense)}")
    result = machine.run(max_instructions=max_instructions)
    return _collect(workload, defense_label(defense), [machine],
                    machine.system, result, config)


def _run_asan(workload: Workload, config: CoreConfig,
              max_instructions: int) -> BenchmarkRun:
    from ..pipeline.system import System

    program = assemble(workload.source, name=workload.name)
    system = System(config)
    if workload.threads > 1:
        sanitized, runtime, _ = sanitize(program, system.allocator)
        runner = MulticoreMachine(workload, variant=Variant.INSECURE,
                                  config=config, halt_on_violation=False,
                                  host_hooks=runtime.host_hooks(),
                                  program=sanitized, system=system)
        result = runner.run(max_instructions_per_core=max_instructions)
        return _collect(workload, "asan", runner.cores, runner.system,
                        result, config)
    sanitized, runtime, _ = sanitize(program, system.allocator)
    machine = Chex86Machine(sanitized, variant=Variant.INSECURE,
                            config=config, system=system,
                            host_hooks=runtime.host_hooks(),
                            halt_on_violation=False)
    spans.attach_machine(machine, f"{workload.name}/asan")
    result = machine.run(max_instructions=max_instructions)
    return _collect(workload, "asan", [machine], system, result, config)


def _collect(workload: Workload, label: str, cores: List[Chex86Machine],
             system, result, config: CoreConfig) -> BenchmarkRun:
    # Merge the per-core registry snapshots under the first core's merge
    # spec (every core wires the same metric tree).
    metrics = cores[0].telemetry.merge(
        [core.metrics_snapshot() for core in cores])
    return BenchmarkRun(
        benchmark=workload.name,
        suite=workload.suite,
        defense=label,
        threads=workload.threads,
        halted=result.halted,
        flagged=result.flagged,
        instructions=result.instructions,
        cycles=result.cycles,
        rss_bytes=system.memory.resident_bytes,
        frequency_ghz=config.frequency_ghz,
        metrics=metrics,
    )
