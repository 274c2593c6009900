"""Context-sensitive provenance attribution: recorder, forensics, engine.

Three contracts anchor this suite:

* **Chain completeness** — replaying the committed violating corpus
  seeds with provenance armed must attach a full alloc → free → access
  chain to every violation (alloc context for capability-backed kinds,
  free context for temporal kinds), and every context frame must point
  at a real CALL instruction in the program text.
* **Transparency** — arming the recorder must not change *what*
  executes or *which executor* runs it: armed vs unarmed runs agree on
  architectural state, violations, and every metric, ``frontend.*``
  superblock coverage included.
* **Attribution identity** — the per-context capability-check counts
  sum to the aggregate ``machine.mcu.stats.capchecks`` counter, so the
  collapsed-stack export is a *decomposition* of the registry numbers,
  never a separate estimate.
"""

import json
from pathlib import Path

import pytest

from repro.core import Chex86Machine, Variant
from repro.core.snapshot import SNAPSHOT_SCHEMA, from_bytes
from repro.core.violations import ViolationKind
from repro.eval.engine import CellSpec, EvalEngine
from repro.fuzz import (
    Corpus,
    architectural_state,
    generate,
    install_protect_hook,
)
from repro.isa import Op, assemble
from repro.telemetry import spans as spans_mod
from repro.telemetry.spans import TraceOptions
from repro.telemetry.provenance import (
    PROVENANCE_SCHEMA,
    ProvenanceRecorder,
    ROOT_CONTEXT,
    cell_export,
    collapsed_lines,
    merge_cell_exports,
    symbolize,
    violation_json,
)
from repro.workloads import build

from conftest import assemble_main

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = Corpus(CORPUS_DIR)
VIOLATING = [entry for entry in CORPUS.ordered_entries()
             if entry.profile != "well-behaved"]

#: Kinds whose capability was minted by an observed allocation, so the
#: chain must carry an alloc entry.
ALLOC_KINDS = {ViolationKind.OUT_OF_BOUNDS, ViolationKind.USE_AFTER_FREE,
               ViolationKind.DOUBLE_FREE, ViolationKind.HEAP_SPRAY}
#: Temporal kinds: the chain must also carry the free that killed the
#: capability.
FREE_KINDS = {ViolationKind.USE_AFTER_FREE, ViolationKind.DOUBLE_FREE}

UAF_BODY = """
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rcx, [rbx]
"""


@pytest.fixture(autouse=True)
def _no_leaked_arming():
    """Every test starts and ends with module-level arming off."""
    spans_mod.uninstall()
    yield
    spans_mod.uninstall()


def armed_machine(program, budget=200_000, variant=Variant.UCODE_PREDICTION,
                  protect_hook=False):
    machine = Chex86Machine(program, variant=variant,
                            halt_on_violation=False)
    if protect_hook:
        # The permission profile's host escape (see fuzz oracles).
        install_protect_hook(machine)
    machine.attach(ProvenanceRecorder(program))
    machine.run(max_instructions=budget)
    return machine


class TestRecorderUnit:
    def test_context_interning_is_stable(self):
        recorder = ProvenanceRecorder()
        recorder.on_call(0, 0x10)
        first = recorder.current
        recorder.on_call(0, 0x20)
        inner = recorder.current
        recorder.on_ret(0, 0)
        recorder.on_ret(0, 0)
        assert recorder.current == ROOT_CONTEXT
        # Replaying the same call chain lands in the same interned ids.
        recorder.on_call(0, 0x10)
        assert recorder.current == first
        recorder.on_call(0, 0x20)
        assert recorder.current == inner
        assert recorder.frames(inner) == [0x10, 0x20]

    def test_distinct_call_sites_get_distinct_contexts(self):
        recorder = ProvenanceRecorder()
        recorder.on_call(0, 0x10)
        a = recorder.current
        recorder.on_ret(0, 0)
        recorder.on_call(0, 0x18)
        b = recorder.current
        assert a != b
        assert recorder.frames(a) == [0x10]
        assert recorder.frames(b) == [0x18]

    def test_unbalanced_ret_degrades_to_root(self):
        recorder = ProvenanceRecorder()
        recorder.on_ret(0, 0)
        assert recorder.current == ROOT_CONTEXT
        recorder.on_call(0, 0x10)
        recorder.on_ret(0, 0)
        recorder.on_ret(0, 0)  # one too many
        assert recorder.current == ROOT_CONTEXT
        assert recorder.depth() == 0

    def test_lifecycle_history_is_bounded_keeping_alloc(self):
        recorder = ProvenanceRecorder(history_limit=4)
        recorder.on_capgen_begin(1, 0x100, 7, 64)
        for n in range(10):
            recorder.on_capfree(2 + n, 0x200 + n, 7)
        history = recorder.lifecycles[7]
        assert len(history) == 4
        assert history[0][0] == "alloc"          # original alloc survives
        assert history[-1][2] == 0x200 + 9       # newest event kept
        assert recorder.truncated[7] == 7        # 11 events, limit 4

    def test_counter_tables_and_collapsed_roundtrip(self):
        recorder = ProvenanceRecorder()
        recorder.on_call(0, 0x10)
        recorder.on_capcheck(0, 0x40, 1, 0x1000, True)
        recorder.on_capcheck(0, 0x40, 1, 0x1000, True)
        recorder.on_walk(0, 0x48)
        recorder.on_inject(0, 0x40, 5)
        recorder.on_reload(0, 0x48, 1, 0, "PNA0")
        assert recorder.total("capchecks") == 2
        assert recorder.total("alias_walks") == 1
        assert recorder.total("uop_injections") == 5
        folded = recorder.collapsed("capchecks")
        assert folded == {"0x10;0x40": 2}
        assert collapsed_lines(folded) == ["0x10;0x40 2"]
        with pytest.raises(ValueError):
            recorder.total("not-a-counter")

    def test_symbolize_prefers_nearest_preceding_label(self):
        from repro.isa.instructions import INSTR_SLOT

        program = assemble_main("    mov rax, 1\n    mov rbx, 2")
        base = program.labels["main"]
        assert symbolize(program, base) == "main"
        assert symbolize(program, base + INSTR_SLOT) \
            == f"main+{INSTR_SLOT:#x}"
        assert symbolize(program, base - 8) == f"{base - 8:#x}"
        assert symbolize(None, 0x40) == "0x40"

    def test_export_shape(self):
        recorder = ProvenanceRecorder()
        recorder.on_call(0, 0x10)
        recorder.on_capcheck(0, 0x40, 1, 0x1000, True)
        export = recorder.export()
        assert export["schema"] == PROVENANCE_SCHEMA
        assert export["contexts"] == 2
        assert export["totals"]["capchecks"] == 1
        assert export["pcs"]["capchecks"] == {"0x40": 1}


class TestCorpusChainCompleteness:
    """Satellite: replay every committed violating seed armed and demand
    complete, resolvable provenance chains."""

    def test_corpus_reaches_every_violation_kind(self):
        profiles = {entry.profile for entry in VIOLATING}
        assert {kind.value for kind in ViolationKind} <= profiles

    @pytest.mark.parametrize(
        "entry", VIOLATING,
        ids=[entry.filename.removesuffix(".json") for entry in VIOLATING])
    def test_armed_replay_has_complete_chains(self, entry):
        fuzz_program = generate(entry.seed, entry.profile)
        program = assemble(fuzz_program.source, name=fuzz_program.name)
        machine = armed_machine(program, budget=entry.budget,
                                protect_hook=entry.profile == "permission")
        violations = machine.violations.violations
        assert violations, f"seed {entry.seed} ({entry.profile}) was benign"
        for violation in violations:
            chain = violation.provenance
            assert chain is not None, f"unenriched violation: {violation}"
            access = chain["access"]
            assert access is not None and access["pc"] \
                == violation.instr_address
            assert len(access["context"]) == len(access["frames"])
            if violation.kind in ALLOC_KINDS:
                assert chain["alloc"] is not None, (
                    f"{violation.kind.value}: no allocation context")
                assert chain["alloc"]["event"] == "alloc"
                assert chain["alloc"]["size"] > 0
            if violation.kind in FREE_KINDS:
                assert chain["free"] is not None, (
                    f"{violation.kind.value}: no free context")
                assert chain["free"]["cycle"] \
                    >= chain["alloc"]["cycle"]
            # Every context frame is a real CALL site in the text.
            for part in (chain["alloc"], chain["free"], access):
                if part is None:
                    continue
                for pc in part["context"]:
                    assert program.fetch(pc).op is Op.CALL, (
                        f"context pc {pc:#x} is not a call site")


class TestArmedUnarmedDifferential:
    """Satellite: arming provenance must be observationally invisible."""

    @pytest.mark.parametrize(
        "entry", VIOLATING[:4],
        ids=[entry.filename.removesuffix(".json")
             for entry in VIOLATING[:4]])
    def test_identical_run(self, entry):
        fuzz_program = generate(entry.seed, entry.profile)
        program = assemble(fuzz_program.source, name=fuzz_program.name)

        permission = entry.profile == "permission"
        plain = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                              halt_on_violation=False)
        if permission:
            install_protect_hook(plain)
        plain_result = plain.run(max_instructions=entry.budget)
        armed = armed_machine(program, budget=entry.budget,
                              protect_hook=permission)

        assert armed.instructions == plain_result.instructions
        assert armed.timing.finish().cycles == plain.timing.finish().cycles
        assert architectural_state(armed) == architectural_state(plain)
        # Violation.__str__ excludes provenance, so the logs compare
        # equal even though the armed run's records carry chains.
        assert [str(v) for v in armed.violations.violations] \
            == [str(v) for v in plain.violations.violations]

        def comparable(machine):
            # Every metric, frontend.* included: the armed run replays
            # the same superblocks the unarmed run does.
            return machine.metrics_snapshot()

        assert comparable(armed) == comparable(plain)

    def test_armed_run_replays_superblocks(self):
        workload = build("mcf", 1)
        program = assemble(workload.source, name=workload.name)
        machine = armed_machine(program)
        counters = machine.metrics_snapshot()
        assert counters["frontend.superblock_instructions"] > 0
        assert counters["frontend.superblock_bailouts"] == 0
        assert machine.provenance.total("capchecks") \
            == machine.mcu.stats.capchecks


class TestAttributionIdentity:
    """Acceptance: collapsed per-context check counts sum to the
    aggregate registry counter."""

    @pytest.mark.parametrize("variant", (Variant.UCODE_ALWAYS_ON,
                                         Variant.UCODE_PREDICTION))
    def test_capcheck_counts_sum_to_mcu_aggregate(self, variant):
        program = assemble_main(UAF_BODY)
        machine = armed_machine(program, variant=variant)
        recorder = machine.provenance
        assert machine.mcu.stats.capchecks > 0
        assert recorder.total("capchecks") == machine.mcu.stats.capchecks
        folded = recorder.collapsed("capchecks")
        assert sum(folded.values()) == machine.mcu.stats.capchecks

    def test_uop_injection_counts_sum_to_mcu_aggregate(self):
        program = assemble_main(UAF_BODY)
        machine = armed_machine(program)
        recorder = machine.provenance
        assert machine.mcu.stats.injected_uops > 0
        assert recorder.total("uop_injections") \
            == machine.mcu.stats.injected_uops


class TestViolationEnrichment:
    def test_uaf_chain_orders_alloc_free_access(self):
        machine = armed_machine(assemble_main(UAF_BODY))
        [violation] = machine.violations.violations
        assert violation.kind is ViolationKind.USE_AFTER_FREE
        chain = violation.provenance
        assert chain["alloc"]["cycle"] <= chain["free"]["cycle"]
        assert chain["alloc"]["size"] == 64
        # The faulting load sits at top level, so its context is empty;
        # the alloc/free events happened inside malloc/free.
        assert chain["access"]["frames"] == []
        assert chain["alloc"]["frames"][-1].startswith("main")
        # str() excludes provenance: diagnostics render it separately.
        assert "provenance" not in str(violation)

    def test_unarmed_violation_has_no_provenance(self):
        program = assemble_main(UAF_BODY)
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        machine.run(max_instructions=200_000)
        [violation] = machine.violations.violations
        assert violation.provenance is None

    def test_violation_json_carries_cwe_and_chain(self):
        machine = armed_machine(assemble_main(UAF_BODY))
        [violation] = machine.violations.violations
        record = violation_json(violation)
        assert record["kind"] == "use-after-free"
        assert record["cwe"] == "CWE-416"
        assert record["provenance"]["free"] is not None


class TestSnapshotRoundtrip:
    def test_armed_snapshot_restores_recorder_state(self):
        program = assemble_main(UAF_BODY)
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        machine.attach(ProvenanceRecorder(program))
        machine.run_quantum(6)
        blob = machine.snapshot()
        assert from_bytes(blob)["state"]["provenance"] is not None
        assert SNAPSHOT_SCHEMA == 11

        restored = Chex86Machine.restore(blob)
        assert restored.provenance is not None
        machine.run(max_instructions=200_000)
        restored.run(max_instructions=200_000)
        assert restored.provenance.collapsed("capchecks") \
            == machine.provenance.collapsed("capchecks")
        assert [v.provenance for v in restored.violations.violations] \
            == [v.provenance for v in machine.violations.violations]

    def test_unarmed_snapshot_restores_unarmed(self):
        program = assemble_main("    mov rax, 1")
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION)
        machine.run_quantum(1)
        restored = Chex86Machine.restore(machine.snapshot())
        assert restored.provenance is None


class TestModuleArming:
    def test_attach_is_noop_when_disarmed(self):
        program = assemble_main("    mov rax, 1")
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION)
        spans_mod.attach_machine(machine, "w/insecure")
        assert machine.provenance is None
        # A tracer alone does not arm provenance either.
        spans_mod.install(None, machine_capacity=64)
        spans_mod.attach_machine(machine, "w/insecure")
        assert machine.provenance is None
        assert spans_mod.drain()["provenance"] == []

    def test_armed_attach_collects_cells(self):
        spans_mod.install(None, provenance=True)
        machine = Chex86Machine(assemble_main(UAF_BODY),
                                variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        spans_mod.attach_machine(machine, "w/ucode-prediction")
        machine.run(max_instructions=200_000)
        assert machine.provenance is not None
        drained = spans_mod.drain()
        assert drained["machines"] == []
        [cell] = drained["provenance"]
        assert cell["label"] == "w/ucode-prediction"
        assert cell["export"]["schema"] == PROVENANCE_SCHEMA
        assert cell["violations"][0]["provenance"]["access"]
        assert spans_mod.drain()["provenance"] == []  # drained

    def test_merge_cell_exports_groups_by_workload(self):
        machine = armed_machine(assemble_main(UAF_BODY))
        cells = [cell_export(machine, "lbm/insecure"),
                 cell_export(machine, "lbm/ucode-prediction"),
                 cell_export(machine, "mcf/insecure")]
        merged = merge_cell_exports(cells)
        assert set(merged) == {"lbm", "mcf"}
        assert merged["lbm"]["cells"] == 2
        assert merged["lbm"]["totals"]["capchecks"] \
            == 2 * machine.provenance.total("capchecks")


#: Two short cells, one per workload, for the engine sweeps below.
ENGINE_CELLS = [
    CellSpec(workload="lbm", defense="ucode-prediction",
             max_instructions=50_000),
    CellSpec(workload="mcf", defense="ucode-prediction",
             max_instructions=20_000),
]


@pytest.fixture(scope="module")
def engine_sweep(tmp_path_factory):
    """``(jobs, traced) -> (write_provenance() report, merged trace or
    None)`` for one cold provenance sweep over ENGINE_CELLS, memoized so
    each configuration runs once per module."""
    done = {}

    def run(jobs, traced):
        if (jobs, traced) not in done:
            out = tmp_path_factory.mktemp(f"provenance-j{jobs}")
            trace = TraceOptions(capacity=4096, machine_capacity=256) \
                if traced else None
            engine = EvalEngine(jobs=jobs, use_cache=False,
                                provenance=True, trace=trace)
            engine.run_cells(ENGINE_CELLS)
            report = engine.write_provenance(str(out), "figX")
            document = engine.write_trace(out / "trace.json") \
                if traced else None
            done[(jobs, traced)] = (report, document)
        return done[(jobs, traced)]

    return run


class TestEngineIntegration:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["provenance", "trace+provenance"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_collects_and_writes(self, engine_sweep, jobs, traced):
        report, trace = engine_sweep(jobs, traced)
        assert report["cells"] == len(ENGINE_CELLS)
        document = json.loads(Path(report["json"]).read_text())
        assert document["schema"] == PROVENANCE_SCHEMA
        assert sorted(cell["label"] for cell in document["cells"]) \
            == sorted(spec.label for spec in ENGINE_CELLS)
        collapsed = Path(report["collapsed"]).read_text()
        assert collapsed.strip(), "no capability checks attributed"
        for line in collapsed.strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) > 0
        # Inline and supervised sweeps attribute the same cells alike.
        reference, _ = engine_sweep(1, False)
        assert document["workloads"] == json.loads(
            Path(reference["json"]).read_text())["workloads"]
        if traced:
            events = trace["traceEvents"]
            lanes = [e for e in events if e["name"] == "thread_name"
                     and e["args"]["name"].startswith("machine: ")]
            assert len(lanes) == report["cells"]
            names = {e["name"] for e in events}
            assert "worker.cell" in names
            if jobs > 1:
                assert "engine.cell" in names

    def test_write_provenance_requires_flag(self):
        engine = EvalEngine(jobs=1, use_cache=False)
        with pytest.raises(ValueError):
            engine.write_provenance(".", "figX")
