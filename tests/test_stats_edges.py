"""Zero-denominator edge cases for every derived-ratio accessor.

Repo-wide convention: a ratio whose denominator is zero (a run that
never advanced, decoded nothing, or has no cores) yields 0.0 — never
ZeroDivisionError.  The one exception is ``PredictorStats.accuracy``,
which reports 1.0 for zero lookups (no lookups means no mispredicts).
"""

import pytest

from repro.core import Variant, ViolationLog
from repro.core.machine import RunResult
from repro.eval.common import BenchmarkRun
from repro.pipeline.multicore import MulticoreResult
from repro.pipeline.timing import TimingStats


def empty_run_result():
    return RunResult(program="p", variant=Variant.INSECURE, halted=True,
                     instructions=0, uops=0, native_uops=0, injected_uops=0,
                     cycles=0, violations=ViolationLog(), machine=None)


#: Stored ``BenchmarkRun`` fields; any other override is a counter
#: property and goes into ``metrics`` under its registry name.
_COUNTER_METRICS = {"uops": "machine.uops",
                    "native_uops": "machine.native_uops",
                    "dram_bytes": "timing.dram_bytes"}


def empty_benchmark_run(**overrides):
    fields = dict(benchmark="lbm", suite="SPEC", defense="insecure",
                  threads=1, halted=True, flagged=False, instructions=0,
                  cycles=0, rss_bytes=0, frequency_ghz=0.0)
    metrics = {}
    for name, value in overrides.items():
        if name in _COUNTER_METRICS:
            metrics[_COUNTER_METRICS[name]] = value
        else:
            fields[name] = value
    return BenchmarkRun(metrics=metrics, **fields)


class TestRunResult:
    def test_empty_run_ratios_are_zero(self):
        result = empty_run_result()
        assert result.ipc == 0.0
        assert result.uop_expansion == 0.0
        assert result.normalized_performance(100) == 0.0


class TestMulticoreResult:
    def test_no_cores(self):
        result = MulticoreResult(program="p", variant=Variant.INSECURE,
                                 per_core=[], system=None)
        assert result.cycles == 0
        assert result.uop_expansion == 0.0
        assert result.normalized_performance(100) == 0.0
        assert result.halted  # vacuously: no core failed to halt

    def test_cores_that_did_nothing(self):
        result = MulticoreResult(program="p", variant=Variant.INSECURE,
                                 per_core=[empty_run_result()], system=None)
        assert result.uop_expansion == 0.0


class TestTimingStats:
    def test_fresh_stats(self):
        stats = TimingStats()
        assert stats.ipc() == 0.0
        assert stats.squash_fraction == 0.0
        assert stats.bandwidth_mb_per_s(3.2) == 0.0

    def test_zero_clock(self):
        stats = TimingStats(cycles=1000, dram_bytes=64)
        assert stats.bandwidth_mb_per_s(0.0) == 0.0
        assert stats.bandwidth_mb_per_s(3.2) > 0.0


class TestBenchmarkRun:
    def test_all_ratios_zero_on_empty_run(self):
        run = empty_benchmark_run()
        assert run.capcache_miss_rate == 0.0
        assert run.aliascache_miss_rate == 0.0
        assert run.predictor_misprediction_rate == 0.0
        assert run.squash_fraction == 0.0
        assert run.bandwidth_mb_per_s == 0.0
        assert run.normalized_performance(run) == 0.0
        assert run.uop_expansion_vs(run) == 0.0

    def test_zero_clock_bandwidth(self):
        run = empty_benchmark_run(cycles=500, dram_bytes=128)
        assert run.frequency_ghz == 0.0
        assert run.bandwidth_mb_per_s == 0.0

    def test_to_dict_survives_empty_run(self):
        record = empty_benchmark_run().to_dict()
        # Derived rates are recomputed on read, never stored.
        assert "bandwidth_mb_per_s" not in record
        revived = BenchmarkRun.from_dict(record)
        assert revived == empty_benchmark_run()
        assert revived.bandwidth_mb_per_s == 0.0

    def test_nonzero_path_unchanged(self):
        run = empty_benchmark_run(cycles=100, instructions=200, uops=300,
                                  native_uops=150, frequency_ghz=3.2)
        assert run.uop_expansion_vs(run) == pytest.approx(1.0)
        assert run.normalized_performance(run) == pytest.approx(1.0)
