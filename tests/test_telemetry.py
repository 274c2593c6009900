"""Tests for the telemetry layer: metrics registry, event tracer,
machine integration, and the eval-engine per-cell sidecars."""

import json
from collections import Counter

import pytest

from repro.core import Chex86Machine, Variant
from repro.eval.common import BenchmarkRun, run_benchmark
from repro.eval.engine import CellSpec, EvalEngine
from repro.telemetry import (
    EVENT_KINDS,
    EventTracer,
    MetricsRegistry,
    TraceEvent,
    write_snapshot,
)
from repro.telemetry.registry import MERGE_LAST
from repro.workloads import build

from conftest import assemble_main


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("a.gauge", lambda: 7)
        histogram = registry.histogram("a.hist", (1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        histogram.observe(50.0)
        snap = registry.snapshot()
        assert snap["a.gauge"] == 7
        assert snap["a.hist.count"] == 3
        assert snap["a.hist.sum"] == 55.5
        assert snap["a.hist.le_1"] == 1
        assert snap["a.hist.le_10"] == 2  # cumulative

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("dup", lambda: 0)
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("dup", (1.0,))

    def test_register_object_mapping_and_sequence(self):
        class Stats:
            hits = 3
            misses = 1

        registry = MetricsRegistry()
        registry.register_object("d", Stats(), {"bad": "misses"})
        snap = registry.snapshot()
        assert snap == {"d.bad": 1}

    def test_ratio_default_on_zero_denominator(self):
        registry = MetricsRegistry()
        registry.gauge("num", lambda: 0)
        registry.gauge("den", lambda: 0)
        registry.ratio("rate", "num", "den")
        registry.ratio("accuracy", "num", "den", default=1.0)
        snap = registry.snapshot()
        assert snap["rate"] == 0.0
        assert snap["accuracy"] == 1.0

    def test_snapshot_delta_round_trip(self):
        values = {"n": 0, "d": 0, "level": 100}
        registry = MetricsRegistry()
        registry.gauge("n", lambda: values["n"])
        registry.gauge("d", lambda: values["d"])
        registry.gauge("level", lambda: values["level"], merge=MERGE_LAST)
        registry.ratio("rate", "n", "d")
        older = registry.snapshot()
        values.update(n=3, d=6, level=42)
        newer = registry.snapshot()
        delta = registry.delta(older, newer)
        assert delta["n"] == 3
        assert delta["d"] == 6
        assert delta["level"] == 42          # last-gauge: newer value
        assert delta["rate"] == 0.5          # recomputed over the interval
        # Deltas compose: older + delta reproduces the newer counters.
        assert older["n"] + delta["n"] == newer["n"]

    def test_merge_sums_counters_keeps_system_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("core.n", lambda: 0)
        registry.gauge("core.d", lambda: 0)
        registry.gauge("shared", lambda: 0, merge=MERGE_LAST)
        registry.ratio("rate", "core.n", "core.d")
        snaps = [
            {"core.n": 1, "core.d": 4, "shared": 99, "rate": 0.25},
            {"core.n": 3, "core.d": 4, "shared": 99, "rate": 0.75},
        ]
        merged = registry.merge(snaps)
        assert merged["core.n"] == 4
        assert merged["core.d"] == 8
        assert merged["shared"] == 99        # one copy, not 198
        assert merged["rate"] == 0.5         # recomputed, not summed


class TestWriteSnapshot:
    def test_document_shape(self, tmp_path):
        path = tmp_path / "m.json"
        write_snapshot(path, {"b": 2, "a": 1}, meta={"k": "v"})
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["meta"] == {"k": "v"}
        assert list(doc["metrics"]) == ["a", "b"]  # sorted


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_emit_and_records_order(self):
        tracer = EventTracer(capacity=8)
        for i in range(3):
            tracer.emit(i, "capcheck", pc=0x400000 + i, pid=i)
        records = tracer.records()
        assert [e.ts for e in records] == [0, 1, 2]
        assert tracer.emitted == 3
        assert tracer.dropped == 0

    def test_ring_wraparound(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit(i, "capcheck")
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        # Oldest-first, and only the newest `capacity` survive.
        assert [e.ts for e in tracer.records()] == [6, 7, 8, 9]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_filtered_by_kind_and_pc(self):
        tracer = EventTracer()
        tracer.emit(1, "capcheck", pc=0x10)
        tracer.emit(2, "squash", pc=0x10, cause="branch", penalty=14)
        tracer.emit(3, "capcheck", pc=0x20)
        assert [e.ts for e in tracer.filtered(kinds=["capcheck"])] == [1, 3]
        assert [e.ts for e in tracer.filtered(pc=0x10)] == [1, 2]
        only = tracer.filtered(kinds=["capcheck"], pc=0x20)
        assert [e.ts for e in only] == [3]
        kinds = Counter(event.kind for event in tracer.records())
        assert kinds == {"capcheck": 2, "squash": 1}

    def test_jsonl_lines_parse(self):
        tracer = EventTracer()
        tracer.emit(5, "capgen", pc=0x30, pid=1, base=0x1000, size=64)
        (line,) = tracer.jsonl_lines()
        record = json.loads(line)
        assert record == {"ts": 5, "kind": "capgen", "pc": 0x30,
                          "pid": 1, "base": 0x1000, "size": 64}

    def test_chrome_trace_valid_json(self, tmp_path):
        tracer = EventTracer()
        tracer.emit(10, "capcheck", pc=0x40, pid=1, ok=True)
        tracer.emit(20, "squash", pc=0x44, cause="alias", penalty=14)
        path = tmp_path / "t.json"
        tracer.write_chrome(path, process_name="test")
        doc = json.loads(path.read_text())  # must round-trip as JSON
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata first
        by_name = {e["name"]: e for e in events[1:]}
        assert by_name["capcheck"]["ph"] == "i"
        assert by_name["squash"]["ph"] == "X"
        assert by_name["squash"]["dur"] == 14
        assert all("ts" in e for e in events[1:])

    def test_reloaded_events_list_as_recorded(self):
        # A JSONL export sorts each record's keys; the listing of the
        # reloaded event keeps the recording order all the same.
        tracer = EventTracer()
        tracer.on_capcheck(10, 0x40, 1, 0x1000, False)
        tracer.on_reload(12, 0x44, 0, 3, "P0AN")
        for event in tracer.records():
            record = json.loads(tracer.jsonl_lines([event])[0])
            fields = {key: value for key, value in record.items()
                      if key not in ("ts", "kind", "pc")}
            reloaded = TraceEvent(record["ts"], record["kind"],
                                  record["pc"], fields)
            assert list(fields) != list(event.fields)
            assert reloaded.format_text() == event.format_text()

    def test_write_jsonl_empty_buffer(self, tmp_path):
        tracer = EventTracer()
        path = tmp_path / "empty.jsonl"
        tracer.write_jsonl(path)
        assert path.read_text() == ""


class TestTracerExportEdgeCases:
    """Export edge cases: empty ring, exact-capacity boundary,
    interleaved kind/pc filtering, Chrome field validity."""

    def test_empty_ring_everywhere(self, tmp_path):
        tracer = EventTracer(capacity=4)
        assert tracer.records() == []
        assert tracer.filtered(kinds=["capcheck"], pc=0x10) == []
        assert Counter(event.kind for event in tracer.records()) == {}
        assert list(tracer.jsonl_lines()) == []
        doc = tracer.chrome_trace(process_name="empty")
        # Metadata only — and still a valid Chrome document.
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        from repro.telemetry.collate import validate_chrome_trace

        assert validate_chrome_trace(doc) == []
        target = tmp_path / "empty.json"
        tracer.write_chrome(target)
        assert json.loads(target.read_text())["traceEvents"] is not None

    def test_exact_capacity_boundary(self):
        tracer = EventTracer(capacity=4)
        for ts in range(4):                   # exactly capacity
            tracer.emit(ts, "capcheck", pc=ts)
        assert tracer.dropped == 0
        assert [e.ts for e in tracer.records()] == [0, 1, 2, 3]
        tracer.emit(4, "capcheck", pc=4)      # one past: oldest evicted
        assert tracer.dropped == 1
        assert [e.ts for e in tracer.records()] == [1, 2, 3, 4]
        # Kind counts/jsonl agree with the wrapped view, not emitted.
        kinds = Counter(event.kind for event in tracer.records())
        assert kinds == {"capcheck": 4}
        assert len(list(tracer.jsonl_lines())) == 4
        assert tracer.emitted == 5

    def test_interleaved_kinds_with_pc_filter(self):
        tracer = EventTracer(capacity=8)
        script = [(0, "capcheck", 0x10), (1, "squash", 0x10),
                  (2, "capcheck", 0x20), (3, "violation", 0x20),
                  (4, "squash", 0x20), (5, "capcheck", 0x10)]
        for ts, kind, pc in script:
            tracer.emit(ts, kind, pc=pc)
        both = tracer.filtered(kinds=["capcheck", "squash"])
        assert [e.ts for e in both] == [0, 1, 2, 4, 5]
        narrowed = tracer.filtered(kinds=["capcheck", "squash"], pc=0x10)
        assert [e.ts for e in narrowed] == [0, 1, 5]
        assert tracer.filtered(kinds=["violation"], pc=0x10) == []
        # Filtering after wraparound only sees surviving records: 6 new
        # capgens push out ts 0-3, leaving ts 5 as the only capcheck.
        for ts in range(6, 12):
            tracer.emit(ts, "capgen", pc=0x30)
        assert [e.ts for e in tracer.filtered(kinds=["capcheck"])] == [5]
        assert tracer.filtered(kinds=["violation"]) == []

    def test_chrome_export_field_validity(self, tmp_path):
        from repro.telemetry.collate import validate_chrome_trace

        tracer = EventTracer()
        tracer.emit(10, "capcheck", pc=0x400010, pid=3, ok=False)
        tracer.emit(25, "squash", pc=0x400020, cause="alias", penalty=14)
        tracer.emit(30, "violation", pc=0x400030, kind_detail="oob")
        doc = tracer.chrome_trace(process_name="fields")
        assert validate_chrome_trace(doc) == []
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], (int, float))
            assert event["ts"] >= 0
            assert event["args"]["pc"].startswith("0x")
        squash = [e for e in events if e["name"] == "squash"][0]
        assert squash["ph"] == "X" and squash["dur"] == 14
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e.get("s") == "t" for e in instants)

    def test_chrome_export_of_explicit_subset(self, tmp_path):
        tracer = EventTracer()
        tracer.emit(1, "capcheck", pc=0x10)
        tracer.emit(2, "squash", pc=0x20, cause="alias", penalty=3)
        subset = tracer.filtered(kinds=["squash"])
        target = tmp_path / "subset.json"
        tracer.write_chrome(target, events=subset)
        doc = json.loads(target.read_text())
        named = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert [e["name"] for e in named] == ["squash"]


# -- machine integration ------------------------------------------------------


MALLOC_BODY = """
    mov rdi, 64
    call malloc
    mov [rax], 7
    mov rdi, rax
    call free
"""


def run_machine(body=MALLOC_BODY, tracer=None):
    machine = Chex86Machine(assemble_main(body),
                            variant=Variant.UCODE_PREDICTION,
                            halt_on_violation=False)
    if tracer is not None:
        machine.attach(tracer)
    machine.run(max_instructions=100_000)
    return machine


class TestMachineMetrics:
    def test_snapshot_matches_stats(self):
        machine = run_machine()
        snap = machine.metrics_snapshot()
        assert snap["machine.instructions"] == machine.instructions
        assert snap["machine.mcu.injected_uops"] == \
            machine.mcu.stats.injected_uops
        assert snap["cache.cap.miss_rate"] == \
            machine.capcache.stats.miss_rate
        assert snap["heap.total_allocs"] == 1
        assert snap["heap.total_frees"] == 1
        assert snap["shadow.capabilities"] == len(machine.captable)
        assert snap["timing.cycles"] == machine.timing.stats.cycles

    def test_stats_summary_is_registry_rendering(self):
        machine = run_machine()
        summary = machine.stats_summary()
        snap = machine.metrics_snapshot()
        assert f"{int(snap['machine.instructions']):,}" in summary
        assert "violations    0" in summary

    def test_tracer_captures_capability_lifecycle(self):
        tracer = EventTracer()
        machine = run_machine(tracer=tracer)
        counts = Counter(event.kind for event in tracer.records())
        assert counts.get("capgen") == 1
        assert counts.get("capfree") == 1
        assert counts.get("capcheck", 0) >= 1
        assert counts.get("uop_inject", 0) >= 2
        assert set(counts) <= set(EVENT_KINDS)
        checks = tracer.filtered(kinds=["capcheck"])
        assert all(event.fields["ok"] for event in checks)
        assert machine.detach(tracer) is tracer
        assert machine.observers == ()

    def test_violation_event_emitted(self):
        tracer = EventTracer()
        run_machine("""
    mov rdi, 64
    call malloc
    mov [rax + 64], 7
""", tracer=tracer)
        (event,) = tracer.filtered(kinds=["violation"])
        assert event.fields["violation"] == "out-of-bounds"

    def test_quantum_deltas_sum_to_totals(self):
        machine = Chex86Machine(assemble_main(MALLOC_BODY),
                                variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        before = machine.metrics_snapshot()
        deltas = []
        while not machine.halted:
            machine.run_quantum(2)
            after = machine.metrics_snapshot()
            deltas.append(machine.telemetry.delta(before, after))
            before = after
        assert len(deltas) > 1
        total = sum(d["machine.instructions"] for d in deltas)
        assert total == machine.instructions


# -- eval integration ---------------------------------------------------------


class TestEvalMetrics:
    def test_benchmark_run_carries_metrics(self):
        run = run_benchmark(build("lbm", 1), Variant.UCODE_PREDICTION,
                            max_instructions=50_000)
        assert run.metrics["machine.instructions"] == run.instructions
        assert run.metrics["machine.mcu.injected_uops"] == run.injected_uops
        assert run.metrics["cache.cap.misses"] == run.capcache_misses
        # Round-trips through the cache encoding.
        clone = BenchmarkRun.from_dict(run.to_dict())
        assert clone.metrics == run.metrics

    def test_multicore_merge_sums_cores_once_for_heap(self):
        run = run_benchmark(build("blackscholes", 1),
                            Variant.UCODE_PREDICTION,
                            max_instructions=50_000)
        assert run.threads > 1
        # Per-core counter: the merged value covers all cores.
        assert run.metrics["machine.instructions"] == run.instructions
        # System-shared gauge: kept once, not multiplied by core count.
        assert run.metrics["shadow.bytes"] == run.shadow_rss_bytes

    def test_engine_writes_per_cell_sidecar(self, tmp_path):
        engine = EvalEngine(jobs=1, use_cache=False)
        specs = [CellSpec(workload="lbm", defense="insecure",
                          max_instructions=50_000),
                 CellSpec(workload="lbm", defense="ucode-prediction",
                          max_instructions=50_000)]
        engine.run_cells(specs)
        path = tmp_path / "sidecar.json"
        engine.write_metrics(path, specs, "figX")
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["artifact"] == "figX"
        assert doc["engine"]["engine.cells_computed"] == 2
        assert doc["engine"]["engine.cell_seconds.count"] == 2
        assert len(doc["cells"]) == 2
        for cell in doc["cells"]:
            assert cell["workload"] == "lbm"
            assert cell["metrics"]["machine.instructions"] > 0

    def test_pattern_cells_skipped_in_sidecar(self, tmp_path):
        engine = EvalEngine(jobs=1, use_cache=False)
        spec = CellSpec(workload="lbm", defense="ucode-prediction",
                        kind="patterns", max_instructions=50_000)
        engine.run_cells([spec])
        assert engine.cell_metrics([spec]) == []

    def test_cached_cells_counted_in_engine_telemetry(self, tmp_path):
        spec = CellSpec(workload="lbm", defense="insecure",
                        max_instructions=50_000)
        warm = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        warm.run_cells([spec])
        cold = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        cold.run_cells([spec])
        snap = cold.telemetry.snapshot()
        assert snap["engine.cells_cached"] == 1
        assert snap["engine.cells_computed"] == 0
