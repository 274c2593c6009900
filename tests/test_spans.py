"""Tests for the sweep-scope span layer and the trace collator.

Covers the :class:`SpanTracer` buffer semantics (nesting, bounded
buffers, spill-to-JSONL, destructive-but-idempotent drains), the clock
alignment the collator performs over multi-process shipments, the
Chrome ``trace_event`` schema validator, the one observer capture path
(``attach_machine``/``drain``), the engine integration (spans + worker
shipments + machine rings end to end), and round-trip recovery of
machine events from a merged trace.
"""

import gc
import json
import os
import time
import weakref

import pytest

from repro.core import Chex86Machine, Variant
from repro.eval.common import defense_label, run_benchmark
from repro.eval.engine import CellSpec, EvalEngine
from repro.telemetry import collate as _shadowed  # noqa: F401  (function)
from repro.telemetry.collate import (
    MACHINE_TID_BASE,
    collate,
    load_chrome,
    machine_trace_events,
    validate_chrome_trace,
    write_chrome,
)
from repro.telemetry.spans import (
    SPILL_FILENAME,
    SpanTracer,
    TraceOptions,
)
from repro.telemetry import spans as spans_mod
from repro.telemetry.provenance import PROVENANCE_SCHEMA
from repro.workloads import build

from conftest import assemble_main

BUDGET = 60_000

UAF_BODY = """
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rcx, [rbx]
"""


def spec(defense="insecure", **kwargs):
    kwargs.setdefault("max_instructions", BUDGET)
    return CellSpec(workload="lbm", defense=defense, **kwargs)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with no installed tracer."""
    spans_mod.uninstall()
    yield
    spans_mod.uninstall()


class TestTraceOptions:
    def test_defaults(self):
        options = TraceOptions()
        assert options.capacity == 65536
        assert options.machine_capacity == 4096

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceOptions(capacity=0)
        with pytest.raises(ValueError, match="machine ring"):
            TraceOptions(machine_capacity=-1)


class TestSpanTracer:
    def test_span_nesting_and_args(self):
        tracer = SpanTracer()
        with tracer.span("outer", cell="a"):
            with tracer.span("inner"):
                pass
            tracer.instant("tick", n=1)
        records = tracer.drain()
        assert [r["name"] for r in records] == ["inner", "tick", "outer"]
        outer = records[-1]
        assert outer["ph"] == "X"
        assert outer["args"] == {"cell": "a"}
        assert outer["dur_ns"] >= records[0]["dur_ns"]
        assert all(r["pid"] == os.getpid() for r in records)

    def test_end_merges_late_args_and_is_idempotent(self):
        tracer = SpanTracer()
        handle = tracer.begin("cell", attempt=1)
        tracer.end(handle, status="ok")
        tracer.end(handle, status="overwritten")  # ignored
        records = tracer.drain()
        assert len(records) == 1
        assert records[0]["args"] == {"attempt": 1, "status": "ok"}

    def test_explicit_lane_tid(self):
        tracer = SpanTracer()
        with tracer.span("cell", tid=7):
            pass
        tracer.instant("hit")  # thread-derived tid compresses to 0
        records = tracer.drain()
        assert records[0]["tid"] == 7
        assert records[1]["tid"] == 0

    def test_bounded_without_spill_drops_oldest(self):
        tracer = SpanTracer(capacity=8)
        for n in range(20):
            tracer.instant(f"i{n}")
        assert tracer.dropped > 0
        names = [r["name"] for r in tracer.drain()]
        assert "i19" in names          # newest survives
        assert "i0" not in names       # oldest dropped
        assert len(names) + tracer.dropped == 20

    def test_spill_to_jsonl(self, tmp_path):
        spill = tmp_path / "spans.jsonl"
        tracer = SpanTracer(capacity=4, spill_path=spill)
        for n in range(10):
            tracer.instant(f"i{n}")
        assert tracer.dropped == 0
        assert tracer.spilled >= 4
        lines = [json.loads(line) for line
                 in spill.read_text().splitlines()]
        assert lines[0]["name"] == "i0"
        # drain() returns spilled + buffered exactly once, in order.
        drained = tracer.drain()
        assert [r["name"] for r in drained] == [f"i{n}" for n in range(10)]
        assert tracer.drain() == []    # idempotent: nothing re-read
        assert spill.exists()          # the spill file itself survives

    def test_unwritable_spill_degrades_to_drop(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        tracer = SpanTracer(capacity=2,
                            spill_path=target / "spans.jsonl")
        for n in range(6):
            tracer.instant(f"i{n}")
        assert tracer.dropped >= 2

    def test_shipment_shape(self):
        tracer = SpanTracer(process_label="worker:lbm/insecure")
        tracer.instant("hello")
        shipment = tracer.shipment()
        assert shipment["clock"]["pid"] == os.getpid()
        assert shipment["clock"]["label"] == "worker:lbm/insecure"
        assert shipment["clock"]["wall_ns"] > 0
        assert [s["name"] for s in shipment["spans"]] == ["hello"]
        # Machine rings ride in the per-cell drain, not in the shipment.
        assert "machines" not in shipment


class TestModuleHelpers:
    def test_maybe_is_noop_without_tracer(self):
        assert spans_mod.current() is None
        with spans_mod.maybe("anything") as handle:
            assert handle is None
        spans_mod.instant("ignored")  # must not raise

    def test_install_uninstall(self):
        tracer = SpanTracer()
        spans_mod.install(tracer)
        assert spans_mod.current() is tracer
        with spans_mod.maybe("real", cell="x"):
            pass
        assert spans_mod.uninstall() is tracer
        assert spans_mod.current() is None
        assert [r["name"] for r in tracer.drain()] == ["real"]

    def test_attach_machine_tracer_noop_unarmed(self):
        class Unobservable:
            def attach(self, observer):
                raise AssertionError("must not attach when unarmed")

        # Nothing armed: off entirely, then a tracer without rings or
        # provenance.  Attach is a no-op and the drain is empty.
        spans_mod.attach_machine(Unobservable(), "x")
        spans_mod.install(SpanTracer(), machine_capacity=0)
        spans_mod.attach_machine(Unobservable(), "x")
        assert spans_mod.drain() == {"machines": [], "provenance": []}

    def test_attach_machine_is_the_one_capture_path(self):
        spans_mod.install(SpanTracer(), machine_capacity=64)
        machine = Chex86Machine(assemble_main(UAF_BODY),
                                variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        spans_mod.attach_machine(machine, "w/ring")
        machine.run(max_instructions=200_000)
        assert machine.provenance is None
        drained = spans_mod.drain()
        assert drained["provenance"] == []
        [ring] = drained["machines"]
        assert ring["label"] == "w/ring"
        assert ring["events"] and ring["cycles"] > 0
        assert ring["start_ns"] <= ring["end_ns"]

        # The drain emptied the registry: nothing is exported twice.
        assert spans_mod.drain() == {"machines": [], "provenance": []}

    @pytest.mark.parametrize("defense", [Variant.UCODE_PREDICTION, "asan"],
                             ids=defense_label)
    def test_every_core_of_a_benchmark_cell_is_observed(self, defense):
        workload = build("canneal", 1)
        plain = run_benchmark(workload, defense, max_instructions=BUDGET)
        spans_mod.install(None, 64, provenance=True)
        observed = run_benchmark(workload, defense, max_instructions=BUDGET)
        drained = spans_mod.drain()
        cell = f"canneal/{defense_label(defense)}"
        labels = [cell] + [f"{cell} core{index}"
                           for index in range(1, workload.threads)]
        assert workload.threads > 1
        assert [ring["label"] for ring in drained["machines"]] == labels
        assert all(ring["events"] for ring in drained["machines"])
        assert [export["label"] for export in drained["provenance"]] \
            == labels
        # Observing every core changes none of the cell's metrics.
        assert observed.metrics == plain.metrics
        assert observed == plain


class TestCollate:
    @staticmethod
    def _shipment(label, wall_ns, mono_ns, spans=(), machines=()):
        return {
            "schema": 1,
            "clock": {"pid": hash(label) % 1000 + 1,
                      "label": label,
                      "wall_ns": wall_ns, "mono_ns": mono_ns},
            "spans": list(spans),
            "machines": list(machines),
        }

    def test_clock_alignment_across_processes(self):
        # Two processes whose monotonic clocks disagree wildly but whose
        # wall anchors are 1 ms apart: the collator must order their
        # events by wall time, not by raw monotonic readings.
        parent = self._shipment("engine", wall_ns=1_000_000_000,
                                mono_ns=500)
        worker = self._shipment("worker", wall_ns=1_001_000_000,
                                mono_ns=9_000_000_000)
        parent["spans"].append({"ph": "i", "name": "first", "cat": "engine",
                                "start_ns": 500, "dur_ns": 0,
                                "pid": 1, "tid": 0, "args": {}})
        worker["spans"].append({"ph": "i", "name": "second",
                                "cat": "engine",
                                "start_ns": 9_000_000_000, "dur_ns": 0,
                                "pid": 2, "tid": 0, "args": {}})
        doc = collate([parent, worker])
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert [e["name"] for e in events] == ["first", "second"]
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] == pytest.approx(1000.0)  # 1 ms in µs

    def test_process_metadata_emitted(self):
        doc = collate([self._shipment("engine", 10, 10),
                       self._shipment("worker:a", 10, 10)])
        names = {(e["pid"], e["args"]["name"])
                 for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert len(names) == 2
        assert validate_chrome_trace(doc) == []

    def test_machine_ring_becomes_swimlane(self):
        machine = {
            "label": "lbm/insecure", "start_ns": 1000, "end_ns": 2000,
            "cycles": 100, "emitted": 2, "dropped": 0,
            "events": [
                {"ts": 10, "kind": "capcheck", "pc": 0x400010, "ok": True},
                {"ts": 50, "kind": "squash", "pc": 0x400020,
                 "cause": "alias", "penalty": 15},
            ],
        }
        doc = collate([self._shipment("worker", 0, 0,
                                      machines=[machine])])
        machine_events = [e for e in doc["traceEvents"]
                          if e.get("cat") == "machine"]
        assert len(machine_events) == 2
        assert all(e["tid"] >= MACHINE_TID_BASE for e in machine_events)
        squash = [e for e in machine_events if e["name"] == "squash"][0]
        assert squash["ph"] == "X" and squash["dur"] > 0
        assert validate_chrome_trace(doc) == []
        # Round trip: the events are recoverable from the document.
        recovered = machine_trace_events(doc)
        assert [(e.ts, e.kind, e.pc) for e in recovered] == \
            [(10, "capcheck", 0x400010), (50, "squash", 0x400020)]
        assert recovered[1].fields["penalty"] == 15

    def test_write_and_load_round_trip(self, tmp_path):
        doc = collate([self._shipment("engine", 5, 5)])
        target = tmp_path / "trace.json"
        write_chrome(target, doc)
        loaded = load_chrome(target)
        assert loaded["traceEvents"] == doc["traceEvents"]

    def test_load_rejects_non_trace(self, tmp_path):
        target = tmp_path / "not-a-trace.json"
        target.write_text('{"metrics": {}}')
        with pytest.raises(ValueError):
            load_chrome(target)


class TestValidator:
    def test_flags_unbalanced_and_nonmonotonic(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "open", "pid": 1, "tid": 1, "ts": 5},
            {"ph": "i", "name": "back", "pid": 1, "tid": 1, "ts": 1},
            {"ph": "E", "pid": 1, "tid": 2, "ts": 9},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("monotonic" in p or "ts" in p for p in problems)
        assert any("E" in p or "unclosed" in p.lower() or "B" in p
                   for p in problems)

    def test_accepts_metadata_anywhere(self):
        doc = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "x"}},
            {"ph": "X", "name": "s", "pid": 1, "tid": 0, "ts": 0,
             "dur": 2},
        ]}
        assert validate_chrome_trace(doc) == []


class TestEngineIntegration:
    def test_traced_supervised_sweep_merges_worker_shipments(
            self, tmp_path):
        engine = EvalEngine(jobs=2, cache_dir=str(tmp_path),
                            trace=TraceOptions(capacity=1024,
                                               machine_capacity=256))
        cells = [spec(), spec(defense="ucode-prediction")]
        engine.run_cells(cells, artifact="spantest")
        target = tmp_path / "trace.json"
        doc = engine.write_trace(target, label="spantest")
        assert validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        assert os.getpid() in pids
        assert len(pids) >= 3          # parent + two workers
        names = {e["name"] for e in events if e.get("cat") == "engine"}
        assert {"engine.batch", "engine.cell",
                "engine.cache.write"} <= names
        assert any(e.get("cat") == "machine" for e in events)
        # Lane tids: the two concurrent cells get distinct swimlanes.
        lanes = {e["tid"] for e in events
                 if e["name"] == "engine.cell"}
        assert len(lanes) == 2

    def test_traced_inline_sweep(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path),
                            trace=TraceOptions(capacity=1024,
                                               machine_capacity=0))
        engine.run_cells([spec()])
        doc = engine.write_trace(tmp_path / "trace.json")
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "worker.cell" in names  # inline compute is spanned too

    def test_inline_rings_close_with_their_cell_and_free_machines(
            self, tmp_path, monkeypatch):
        created = []
        init = Chex86Machine.__init__

        def tracking_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            created.append(weakref.ref(machine))

        monkeypatch.setattr(Chex86Machine, "__init__", tracking_init)
        engine = EvalEngine(jobs=1, use_cache=False, provenance=True,
                            trace=TraceOptions(capacity=4096,
                                               machine_capacity=256))
        cells = [CellSpec(workload="mcf", defense="ucode-prediction",
                          max_instructions=20_000),
                 spec(defense="ucode-prediction", max_instructions=20_000)]
        engine.run_cells(cells)
        gc.collect()
        assert created, "no machine was built"
        assert created[0]() is None, "the first cell's machine outlived it"
        time.sleep(0.2)  # a ring stamped at write time would stretch
        doc = engine.write_trace(tmp_path / "trace.json")
        events = doc["traceEvents"]
        cell_spans = {e["args"]["cell"]: e for e in events
                      if e["name"] == "worker.cell"}
        lanes = {e["tid"]: e["args"]["name"][len("machine: "):]
                 for e in events if e["name"] == "thread_name"
                 and e["args"]["name"].startswith("machine: ")}
        assert sorted(lanes.values()) == sorted(c.label for c in cells)
        for tid, label in lanes.items():
            span = cell_spans[label]
            stamps = [e["ts"] for e in events
                      if e.get("cat") == "machine" and e["tid"] == tid]
            assert stamps, f"no events on the {label} lane"
            # One nanosecond of slack for the microsecond rounding.
            assert span["ts"] - 0.001 <= min(stamps)
            assert max(stamps) <= span["ts"] + span["dur"] + 0.001, \
                f"{label} ring window outlives its worker.cell span"

    def test_untraced_engine_refuses_write_trace(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path))
        assert engine.spans is None
        with pytest.raises(ValueError, match="tracing was not enabled"):
            engine.write_trace(tmp_path / "trace.json")

    def test_parent_spill_lands_next_to_journal(self, tmp_path):
        engine = EvalEngine(jobs=1, cache_dir=str(tmp_path),
                            trace=TraceOptions(capacity=2))
        engine.run_cells([spec()])
        spill = tmp_path / SPILL_FILENAME
        assert spill.exists()
        assert engine.spans.spilled > 0
        # And the spilled records still reach the merged trace once.
        doc = engine.write_trace(tmp_path / "trace.json")
        probe_count = sum(1 for e in doc["traceEvents"]
                          if e["name"] == "engine.cache.probe")
        assert probe_count == 1
