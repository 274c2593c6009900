"""Tests for the shared evaluation engine (cells, cache, determinism)."""

import json
import re
from collections import Counter

import pytest

from repro.analysis.patterns import Pattern, PatternProfile
from repro.core.variants import Variant
from repro.eval import fig6, run_benchmark
from repro.eval.common import BenchmarkRun, IntervalRun
from repro.eval.engine import (
    CACHE_SCHEMA,
    CellSpec,
    EngineStats,
    EvalEngine,
    compute_cell,
    decode_result,
    encode_result,
)
from repro.fuzz.cell import FuzzCellResult
from repro.pipeline.config import DEFAULT_CONFIG
from repro.workloads import build

BUDGET = 200_000
SMALL = ("perlbench", "lbm")


def spec(workload="perlbench", defense="insecure", **kwargs):
    kwargs.setdefault("max_instructions", BUDGET)
    return CellSpec(workload=workload, defense=defense, **kwargs)


class TestCellSpec:
    def test_equal_configs_are_the_same_cell(self):
        # Figure 7's default-sized sweep point is literally Figure 6's cell.
        a = spec(config=DEFAULT_CONFIG.with_(capcache_entries=64))
        b = spec(config=DEFAULT_CONFIG)
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_config_change_changes_key(self):
        a = spec()
        b = spec(config=DEFAULT_CONFIG.with_(capcache_entries=16))
        assert a != b
        assert a.cache_key() != b.cache_key()

    def test_budget_and_scale_change_key(self):
        base = spec()
        assert spec(max_instructions=BUDGET + 1).cache_key() \
            != base.cache_key()
        assert spec(scale=2).cache_key() != base.cache_key()

    def test_payload_round_trip(self):
        original = spec(defense="ucode-prediction",
                        config=DEFAULT_CONFIG.with_(predictor_entries=1024))
        assert CellSpec.from_payload(original.payload()) == original

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError):
            spec(defense="nonsense")

    def test_patterns_cells_need_a_variant(self):
        # A pattern cell runs one Variant machine; "asan" is no variant.
        with pytest.raises(ValueError, match="need a variant"):
            spec(defense="asan", kind="patterns")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            spec(kind="nonsense")


#: One spec per cell kind, with the cache key and file name the engine
#: gave it before the cell-kind table existed, each key re-derived once
#: since as the hash of that same payload without the retired
#: ``alias_walkers`` config field: the key moves only with the simulated
#: configuration, and journal lines keep naming the same labels.
PINNED_SPECS = (
    (CellSpec(workload="mcf", defense="ucode-prediction",
              max_instructions=200_000),
     "ce291720e439ace50ba7a396", "mcf/ucode-prediction"),
    (CellSpec(workload="lbm", defense="asan", scale=2,
              config=DEFAULT_CONFIG.with_(capcache_entries=16)),
     "a6da24121a9bab9dc6f6040f", "lbm/asan"),
    (CellSpec(workload="perlbench", defense="ucode-prediction",
              kind="patterns", min_events=6),
     "18c9f79cf24937ac85b4e535", "perlbench/ucode-prediction [patterns]"),
    (CellSpec(workload="mcf", defense="insecure", kind="interval",
              interval_index=3, interval_length=50_000,
              checkpoint="/tmp/ckpt/mcf-3.snap",
              checkpoint_digest="ab" * 32),
     "a3e844be416d95c0c32cef88", "mcf/insecure [interval 3]"),
    (CellSpec(workload="fuzz7", defense="pointer", kind="fuzz", fuzz_seed=7,
              fuzz_profile="pointer", max_instructions=20_000),
     "2e7a8c126dd134f27ea83852", "fuzz7/pointer [fuzz]"),
)

#: Test ids from the labels, so that a key re-derived after a config
#: change moves no test name (the keys are asserted in the bodies).
PINNED_IDS = [re.sub(r"\W+", "-", label).strip("-")
              for _, _, label in PINNED_SPECS]


def _result_of_kind(kind):
    """A small result of each kind, built without simulating."""
    if kind == "benchmark":
        return BenchmarkRun(
            benchmark="mcf", suite="SPEC", defense="ucode-prediction",
            threads=1, halted=True, flagged=False, instructions=1234,
            cycles=5678, rss_bytes=4096, frequency_ghz=3.4,
            metrics={"machine.uops": 2000, "cache.cap.miss_rate": 0.25})
    if kind == "patterns":
        per_pc = {0x400010: Pattern.STRIDE, 0x400ABC: Pattern.BATCH_STRIDE}
        return PatternProfile(per_pc=per_pc,
                              histogram=Counter(per_pc.values()))
    if kind == "interval":
        return IntervalRun(
            workload="mcf", defense="insecure", interval_index=3,
            instructions=50_000, halted=False, flagged=False,
            metrics_delta={"machine.uops": 61_000},
            final_metrics={"machine.uops": 200_000}, rss_bytes=8192)
    return FuzzCellResult(
        seed=7, profile="pointer", budget=20_000, source_sha256="cd" * 32,
        statements=12, instructions=85, features=("alu", "load"),
        failures=(("snapshot", "state diverged"),))


class TestCacheCompatibility:
    @pytest.mark.parametrize("cell,key,label", PINNED_SPECS, ids=PINNED_IDS)
    def test_cache_key_and_label_pinned(self, cell, key, label):
        assert CACHE_SCHEMA == 5
        assert cell.cache_key() == key
        assert cell.cache_filename() == (
            f"{cell.workload}-{cell.defense}-{cell.kind}-{key}.json")
        assert cell.label == label
        assert CellSpec.from_payload(cell.payload()) == cell

    @pytest.mark.parametrize("cell,key,label", PINNED_SPECS, ids=PINNED_IDS)
    def test_result_round_trips_through_json(self, cell, key, label):
        result = _result_of_kind(cell.kind)
        encoded = json.loads(json.dumps(encode_result(cell, result)))
        assert decode_result(cell, encoded) == result

    def test_pattern_record_layout_pinned(self):
        cell = PINNED_SPECS[2][0]
        encoded = json.dumps(encode_result(cell, _result_of_kind("patterns")),
                             sort_keys=True)
        assert encoded == ('{"pattern_profile": {"4194320": "Stride", '
                           '"4197052": "Batch + Stride"}}')


class TestBenchmarkRunRoundTrip:
    def test_json_round_trip_equality(self):
        run = run_benchmark(build("perlbench", 1), Variant.UCODE_PREDICTION,
                            max_instructions=BUDGET)
        revived = BenchmarkRun.from_dict(
            json.loads(json.dumps(run.to_dict())))
        assert revived == run
        # Derived metrics recompute identically from the raw fields.
        assert revived.capcache_miss_rate == run.capcache_miss_rate
        assert revived.bandwidth_mb_per_s == run.bandwidth_mb_per_s

    def test_missing_field_rejected(self):
        record = run_benchmark(build("lbm", 1), Variant.INSECURE,
                               max_instructions=BUDGET).to_dict()
        del record["cycles"]
        with pytest.raises(ValueError, match="cycles"):
            BenchmarkRun.from_dict(record)

    def test_matches_direct_run(self):
        cell = spec(workload="lbm", defense="ucode-prediction")
        assert compute_cell(cell) == run_benchmark(
            build("lbm", 1), Variant.UCODE_PREDICTION,
            max_instructions=BUDGET)


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        cell = spec()
        cold = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        result = cold.get(cell)
        assert cold.stats.cells_computed == 1 and cold.stats.cells_cached == 0

        warm = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        assert warm.get(cell) == result
        assert warm.stats.cells_computed == 0 and warm.stats.cells_cached == 1

    def test_memo_dedupes_within_batch(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        cell = spec()
        engine.run_cells([cell, cell, cell])
        assert engine.stats.cells_computed == 1

    def test_config_change_invalidates(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        engine.get(spec())
        other = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        other.get(spec(config=DEFAULT_CONFIG.with_(capcache_entries=16)))
        assert other.stats.cells_computed == 1
        assert other.stats.cells_cached == 0

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        cell = spec()
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        expected = engine.get(cell)
        path = tmp_path / cell.cache_filename()
        path.write_text("{not json")
        again = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        assert again.get(cell) == expected
        assert again.stats.cells_computed == 1

    def test_schema_bump_is_a_miss(self, tmp_path):
        cell = spec()
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        engine.get(cell)
        path = tmp_path / cell.cache_filename()
        record = json.loads(path.read_text())
        assert record["schema"] == CACHE_SCHEMA
        record["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(record))
        again = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        again.get(cell)
        assert again.stats.cells_computed == 1
        assert again.stats.cells_cached == 0

    def test_no_cache_engine_writes_nothing(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path),
                            use_cache=False)
        engine.get(spec())
        assert list(tmp_path.iterdir()) == []


class TestPatternsCells:
    def test_round_trip(self, tmp_path):
        cell = spec(defense="ucode-prediction", kind="patterns",
                    min_events=6)
        profile = compute_cell(cell)
        assert profile.histogram  # perlbench has classified reload sites
        revived = decode_result(
            cell, json.loads(json.dumps(encode_result(cell, profile))))
        assert revived == profile

    def test_cached_patterns_cell(self, tmp_path):
        cell = spec(defense="ucode-prediction", kind="patterns",
                    min_events=6)
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        profile = engine.get(cell)
        warm = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        assert warm.get(cell) == profile
        assert warm.stats.cells_cached == 1


class TestDeterminism:
    def test_serial_and_parallel_identical(self, tmp_path):
        serial = fig6.run(scale=1, benchmarks=SMALL,
                          max_instructions=BUDGET,
                          engine=EvalEngine(jobs=1, use_cache=False))
        parallel = fig6.run(scale=1, benchmarks=SMALL,
                            max_instructions=BUDGET,
                            engine=EvalEngine(jobs=2,
                                              cache_dir=str(tmp_path)))
        assert serial.format_text() == parallel.format_text()
        assert serial.runs == parallel.runs

    def test_warm_rerun_renders_identically(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        cold = fig6.run(scale=1, benchmarks=("lbm",),
                        max_instructions=BUDGET, engine=engine)
        warm_engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        warm = fig6.run(scale=1, benchmarks=("lbm",),
                        max_instructions=BUDGET, engine=warm_engine)
        assert warm_engine.stats.cells_computed == 0
        assert warm.format_text() == cold.format_text()

    def test_engine_path_matches_legacy_direct_path(self):
        # The engine must change *when* cells are simulated, never what
        # they contain: compare against run_benchmark called directly.
        result = fig6.run(scale=1, benchmarks=("lbm",),
                          max_instructions=BUDGET)
        direct = {
            label: run_benchmark(build("lbm", 1), defense,
                                 max_instructions=BUDGET)
            for label, defense in fig6.FIG6_LABELS
        }
        assert result.runs["lbm"] == direct


class TestEngineStats:
    def test_summary_counts(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_cells([spec(), spec(defense="ucode-prediction")])
        assert engine.stats.cells_computed == 2
        assert engine.stats.simulated_instructions > 0
        assert "2 cell(s) simulated" in engine.stats.summary()

    def test_summary_rate_below_1k_is_not_rounded_to_zero(self):
        """A fuzz campaign's cells retire a few hundred instructions a
        second; the line shows them instead of ``0k``."""
        stats = EngineStats(cells_computed=8, simulated_instructions=500,
                            wall_seconds=2.0)
        assert stats.summary() == ("engine: 8 cell(s) simulated, 0 cached, "
                                   "2.0s wall, 250 simulated instr/s")

    @pytest.mark.parametrize("instructions, shown", [
        (0, "0.0"), (7, "3.5"), (19, "9.5"), (20, "10"),
        (1_998, "999"), (1_999, "1k"), (93_000, "46k")])
    def test_summary_rate_precision_suits_its_size(self, instructions,
                                                   shown):
        stats = EngineStats(simulated_instructions=instructions,
                            wall_seconds=2.0)
        assert stats.summary().endswith(f", {shown} simulated instr/s")

    def test_metric_names_are_the_int_fields(self):
        engine = EvalEngine(jobs=1, use_cache=False)
        gauges = {name for name in engine.telemetry.snapshot()
                  if not name.startswith("engine.cell_seconds.")}
        assert gauges == {f"engine.{name}" for name in (
            "cells_computed", "cells_cached", "cells_retried",
            "cells_crashed", "cells_timed_out", "transient_errors",
            "cache_quarantined", "journal_hits", "cells_failed",
            "simulated_instructions")}

    def test_progress_lines(self, tmp_path):
        lines = []
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path),
                            echo=lines.append)
        engine.get(spec())
        assert any("perlbench/insecure" in line for line in lines)
        assert any("engine:" in line for line in lines)
