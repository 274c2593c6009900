"""Tests for the experiment drivers (small-scale runs of each figure)."""

import pytest

from repro.core import Variant
from repro.eval import (
    fig1,
    fig3,
    fig6,
    fig7,
    fig8,
    fig9,
    run_benchmark,
    security,
    table1,
    table2,
    table3,
    table4,
)
from repro.workloads import build

SMALL = ("perlbench", "lbm")
BUDGET = 300_000


class TestRunBenchmark:
    def test_insecure_cell(self):
        run = run_benchmark(build("perlbench", 1), Variant.INSECURE,
                            max_instructions=BUDGET)
        assert run.halted and not run.flagged
        assert run.cycles > 0 and run.uops >= run.native_uops
        assert run.injected_uops == 0

    def test_prediction_cell_has_injections(self):
        run = run_benchmark(build("perlbench", 1), Variant.UCODE_PREDICTION,
                            max_instructions=BUDGET)
        assert run.injected_uops > 0
        assert run.uops > run.native_uops

    def test_asan_cell(self):
        run = run_benchmark(build("perlbench", 1), "asan",
                            max_instructions=BUDGET)
        assert run.defense == "asan"
        assert run.halted and not run.flagged

    def test_multicore_cell(self):
        run = run_benchmark(build("swaptions", 1), Variant.UCODE_PREDICTION,
                            max_instructions=BUDGET)
        assert run.threads == 4
        assert run.halted
        assert run.core_cycles_total >= run.cycles

    @pytest.mark.parametrize("workload,defense", [
        ("canneal", Variant.UCODE_PREDICTION),
        ("canneal", "asan"),
        ("perlbench", "asan"),
    ])
    def test_counter_views_equal_per_core_sums(self, workload, defense,
                                               monkeypatch):
        """The counter properties read the merged registry snapshot; on
        multicore and ASan cells they still equal the per-core stats
        sums the cell used to store field by field."""
        from repro.eval import common

        seen = {}
        collect = common._collect

        def spy(workload_, label, cores, system, result, config):
            seen.update(cores=cores, system=system)
            return collect(workload_, label, cores, system, result, config)

        monkeypatch.setattr(common, "_collect", spy)
        run = run_benchmark(build(workload, 1), defense,
                            max_instructions=100_000)
        cores, system = seen["cores"], seen["system"]
        timing = [core.timing.stats for core in cores]
        assert run.threads == len(cores)
        expected = {
            "uops": sum(c.total_uops for c in cores),
            "native_uops": sum(c.native_uops for c in cores),
            "injected_uops": sum(c.mcu.stats.injected_uops for c in cores),
            "capcache_accesses": sum(c.capcache.stats.accesses
                                     for c in cores),
            "capcache_misses": sum(c.capcache.stats.misses for c in cores),
            "aliascache_accesses": sum(c.alias_cache.stats.accesses
                                       for c in cores),
            "aliascache_misses": sum(c.alias_cache.stats.misses
                                     for c in cores),
            "predictor_lookups": sum(c.reload_predictor.stats.lookups
                                     for c in cores),
            "predictor_mispredicts": sum(
                c.reload_predictor.stats.mispredictions for c in cores),
            "squash_cycles": sum(t.squash_cycles for t in timing),
            "alias_squash_cycles": sum(t.alias_squash_cycles
                                       for t in timing),
            "core_cycles_total": sum(t.cycles for t in timing),
            "dram_bytes": sum(t.dram_bytes for t in timing),
            "shadow_dram_bytes": sum(t.shadow_dram_bytes for t in timing),
            "shadow_rss_bytes": system.shadow_bytes,
        }
        actual = {name: getattr(run, name) for name in expected}
        assert actual == expected
        assert all(type(value) is int for value in actual.values())
        assert run.instructions == sum(c.instructions for c in cores)
        assert run.cycles == max(t.cycles for t in timing)

    def test_normalization_identity(self):
        run = run_benchmark(build("lbm", 1), Variant.INSECURE,
                            max_instructions=BUDGET)
        assert run.normalized_performance(run) == pytest.approx(1.0)
        assert run.uop_expansion_vs(run) == pytest.approx(1.0)


class TestFigureDrivers:
    def test_fig1(self):
        result = fig1.run()
        assert len(result.years) == 13
        assert "Figure 1" in result.format_text()

    def test_fig3(self):
        result = fig3.run(scale=1, benchmarks=SMALL,
                          max_instructions=BUDGET)
        assert result.gaps_hold()
        assert "Figure 3" in result.format_text()

    def test_fig6(self):
        result = fig6.run(scale=1, benchmarks=SMALL,
                          max_instructions=BUDGET)
        perf = result.normalized_performance()
        assert set(perf) == set(SMALL)
        for cells in perf.values():
            assert cells["insecure"] == pytest.approx(1.0)
            assert cells["asan"] < 1.0
        assert result.speedup_over_asan("SPEC") > 1.0
        assert "Figure 6" in result.format_text()

    def test_fig7(self):
        result = fig7.run(scale=1, benchmarks=SMALL,
                          max_instructions=BUDGET)
        assert result.bigger_is_never_worse()
        assert 0 <= result.average_capcache_miss(64) <= 1
        assert "Figure 7" in result.format_text()

    def test_fig8(self):
        result = fig8.run(scale=1, benchmarks=SMALL,
                          max_instructions=BUDGET)
        assert 0.5 <= result.average_accuracy(1024) <= 1.0
        assert "Figure 8" in result.format_text()

    def test_fig9(self):
        result = fig9.run(scale=1, benchmarks=SMALL,
                          max_instructions=BUDGET)
        assert result.chex86_no_worse_than_asan()
        assert "Figure 9" in result.format_text()


class TestTableDrivers:
    def test_table1(self):
        result = table1.run(scale=1, max_instructions=50_000)
        assert result.converged
        assert {"ld", "st"} <= set(result.rules_learned)
        assert "Table I" in result.format_text()

    def test_table2(self):
        result = table2.run(scale=1, benchmarks=("perlbench",),
                            max_instructions=BUDGET)
        assert result.profiles["perlbench"].histogram
        assert "Table II" in result.format_text()

    def test_table3(self):
        result = table3.run()
        assert result.rows["ROB size"] == "224 entries"
        assert "Table III" in result.format_text()

    def test_table4(self):
        result = table4.run(scale=1, benchmarks=("lbm",),
                            max_instructions=BUDGET)
        assert all(result.claims().values())
        assert "Table IV" in result.format_text()

    def test_security_subsampled(self):
        result = security.run(ripe_limit=10)
        assert result.all_flagged()
        assert result.no_hijack_under_chex86()
        assert result.chex86["How2Heap"].total == 18
        assert "Security evaluation" in result.format_text()


class TestReproduceRunner:
    def test_reproduce_writes_artifacts(self, tmp_path, monkeypatch):
        """A scaled-down reproduce run must write every artifact + summary."""
        from repro.eval import runner

        # Shrink the benchmark set so this stays test-sized.
        def tiny_artifacts(scale, ripe_limit, engine):
            from repro.eval import fig1, fig3, security, table3
            return [
                ("fig1", lambda: fig1.run()),
                ("table3", lambda: table3.run()),
                ("fig3", lambda: fig3.run(scale=scale, benchmarks=("lbm",),
                                          max_instructions=200_000)),
                ("security", lambda: security.run(ripe_limit=ripe_limit)),
            ]

        monkeypatch.setattr(runner, "_artifacts", tiny_artifacts)
        # None of the tiny artifacts consume engine cells: skip prewarm.
        monkeypatch.setattr(runner, "shared_cell_specs", lambda scale: [])
        records = runner.reproduce(out_dir=str(tmp_path), scale=1,
                                   ripe_limit=4, echo=lambda _line: None,
                                   cache_dir=str(tmp_path / "cache"))
        assert [r.name for r in records] == ["fig1", "table3", "fig3",
                                             "security"]
        for record in records:
            assert (tmp_path / f"{record.name}.txt").exists()
        import json
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["artifacts"]["security"]["all_flagged"] is True
        assert summary["artifacts"]["fig1"]["avg_memory_safety_pct"] > 60
