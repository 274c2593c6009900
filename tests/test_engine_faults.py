"""Fault-injection tests for the evaluation engine.

Under injected crash / hang / corrupt-cache / transient-exception
faults, the engine must retry per spec, quarantine bad cache entries,
and converge on artifacts byte-identical to a fault-free run; an
interrupted sweep resumed with ``resume=True`` recomputes only the
incomplete cells (asserted via the journal/cache hit counters).
"""

import json

import pytest

from repro.eval import fig6
from repro.eval.engine import (
    CellFailure,
    CellSpec,
    EvalEngine,
    SweepJournal,
    result_digest,
)
from repro.eval.faults import ENV_FAULT_SPEC, FaultPlan, FaultRule

BUDGET = 60_000
BACKOFF = 0.05


def spec(workload="lbm", defense="insecure", **kwargs):
    kwargs.setdefault("max_instructions", BUDGET)
    return CellSpec(workload=workload, defense=defense, **kwargs)


def engine(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path))
    kwargs.setdefault("retry_backoff", BACKOFF)
    return EvalEngine(**kwargs)


@pytest.fixture(scope="module")
def fault_free():
    """The ground-truth results every faulted run must reproduce."""
    clean = EvalEngine(jobs=1, use_cache=False)
    cells = [spec(), spec(defense="ucode-prediction")]
    return {cell: result for cell, result in clean.run_cells(cells).items()}


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("crash:lbm/insecure@2, hang:mcf/*, transient")
        assert plan.rules == [
            FaultRule("crash", "lbm/insecure", 2),
            FaultRule("hang", "mcf/*", 1),
            FaultRule("transient", "*", 1),
        ]
        assert FaultPlan.parse(plan.spec()).rules == plan.rules

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("meltdown:*")

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            FaultPlan.parse("crash:*@zero")
        with pytest.raises(ValueError, match="count"):
            FaultPlan.parse("crash:*@0")

    def test_count_limits_firings_per_label(self):
        plan = FaultPlan.parse("crash:*@2")
        assert plan.worker_fault("a/b") == "crash"
        assert plan.worker_fault("a/b") == "crash"
        assert plan.worker_fault("a/b") is None
        # Other labels have their own budget.
        assert plan.worker_fault("c/d") == "crash"

    def test_target_pattern(self):
        plan = FaultPlan.parse("hang:mcf/*")
        assert plan.worker_fault("lbm/insecure") is None
        assert plan.worker_fault("mcf/ucode-prediction") == "hang"

    def test_cache_faults_separate_from_worker_faults(self):
        plan = FaultPlan.parse("corrupt-cache:*")
        assert plan.worker_fault("a/b") is None
        assert plan.cache_fault("a/b")
        assert not plan.cache_fault("a/b")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_SPEC, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(ENV_FAULT_SPEC, "transient:lbm/*")
        plan = FaultPlan.from_env()
        assert plan.rules == [FaultRule("transient", "lbm/*", 1)]

    def test_engine_picks_up_env_spec(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_FAULT_SPEC, "transient:*@1")
        faulted = engine(tmp_path, jobs=2)
        assert faulted.fault_plan.spec() == "transient:*"


class TestTransientFaults:
    def test_retried_and_identical(self, tmp_path, fault_free):
        faulted = engine(tmp_path, jobs=2,
                         fault_plan=FaultPlan.parse("transient:*@1"))
        results = faulted.run_cells(list(fault_free))
        assert results == fault_free
        assert faulted.stats.cells_retried == len(fault_free)
        assert faulted.stats.transient_errors == len(fault_free)
        snapshot = faulted.telemetry.snapshot()
        assert snapshot["engine.cells_retried"] == len(fault_free)
        assert snapshot["engine.transient_errors"] == len(fault_free)

    def test_supervised_even_with_one_job(self, tmp_path, fault_free):
        """A fault plan forces supervision so the injected fault cannot
        take down the engine's own process."""
        faulted = engine(tmp_path, jobs=1,
                         fault_plan=FaultPlan.parse("transient:lbm/*@1"))
        assert faulted.get(spec()) == fault_free[spec()]
        assert faulted.stats.cells_retried == 1


class TestCrashFaults:
    def test_crash_fails_only_its_cell(self, tmp_path, fault_free):
        faulted = engine(tmp_path, jobs=2,
                         fault_plan=FaultPlan.parse("crash:lbm/insecure@1"))
        results = faulted.run_cells(list(fault_free))
        assert results == fault_free
        assert faulted.stats.cells_crashed == 1
        assert faulted.stats.cells_retried == 1
        assert faulted.telemetry.snapshot()["engine.cells_crashed"] == 1

    def test_retries_exhausted_raises_cell_failure(self, tmp_path):
        faulted = engine(tmp_path, jobs=2, max_retries=1,
                         fault_plan=FaultPlan.parse("crash:*@99"))
        with pytest.raises(CellFailure, match="lbm/insecure"):
            faulted.get(spec())
        assert faulted.stats.cells_failed == 1
        journal = SweepJournal(tmp_path)
        events = [json.loads(line) for line
                  in journal.path.read_text().splitlines()]
        # The full attempt history is journaled: batch announcement,
        # one start per dispatch, a retry, and the terminal failure.
        kinds = [e["event"] for e in events]
        assert kinds == ["batch", "start", "retry", "start", "failed"]
        assert events[-1]["label"] == "lbm/insecure"
        assert [e["attempt"] for e in events if e["event"] == "start"] \
            == [1, 2]
        assert all(isinstance(e["ts"], float) for e in events)

    def test_other_cells_survive_a_permanent_failure(self, tmp_path,
                                                     fault_free):
        faulted = engine(tmp_path, jobs=2, max_retries=0,
                         fault_plan=FaultPlan.parse("crash:lbm/insecure@99"))
        good = spec(defense="ucode-prediction")
        with pytest.raises(CellFailure):
            faulted.run_cells([spec(), good])
        # The healthy cell completed, was cached, and is journaled done —
        # a resume run recomputes only the failure.
        assert faulted.memoized()[good] == fault_free[good]
        resumed = engine(tmp_path, jobs=2, resume=True)
        results = resumed.run_cells([spec(), good])
        assert results == fault_free
        assert resumed.stats.cells_computed == 1
        assert resumed.stats.journal_hits == 1


class TestHangFaults:
    def test_hung_worker_killed_and_retried(self, tmp_path, fault_free):
        faulted = engine(tmp_path, jobs=2, cell_timeout=3.0,
                         fault_plan=FaultPlan.parse("hang:lbm/insecure@1"))
        results = faulted.run_cells(list(fault_free))
        assert results == fault_free
        assert faulted.stats.cells_timed_out == 1
        assert faulted.stats.cells_retried == 1
        assert faulted.telemetry.snapshot()["engine.cells_timed_out"] == 1


class TestCorruptCache:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path,
                                                      fault_free):
        writer = engine(tmp_path, jobs=1,
                        fault_plan=FaultPlan.parse("corrupt-cache:*@1"))
        writer.get(spec())
        entry = tmp_path / spec().cache_filename()
        with pytest.raises(ValueError):
            json.loads(entry.read_text())  # really corrupt on disk

        reader = engine(tmp_path, jobs=1)
        assert reader.get(spec()) == fault_free[spec()]
        assert reader.stats.cache_quarantined == 1
        assert reader.stats.cells_computed == 1
        assert reader.stats.cells_cached == 0
        assert reader.telemetry.snapshot()["engine.cache_quarantined"] == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [spec().cache_filename()]
        # The recompute healed the cache: a third engine hits cleanly.
        healed = engine(tmp_path, jobs=1)
        assert healed.get(spec()) == fault_free[spec()]
        assert healed.stats.cells_cached == 1
        assert healed.stats.cache_quarantined == 0

    def test_hash_mismatch_detected(self, tmp_path, fault_free):
        """A bit-rotted but well-formed record fails hash verification."""
        writer = engine(tmp_path, jobs=1)
        writer.get(spec())
        entry = tmp_path / spec().cache_filename()
        record = json.loads(entry.read_text())
        record["result"]["benchmark_run"]["cycles"] += 1
        entry.write_text(json.dumps(record))
        assert record["sha256"] != result_digest(record["result"])

        reader = engine(tmp_path, jobs=1)
        assert reader.get(spec()) == fault_free[spec()]
        assert reader.stats.cache_quarantined == 1

    def test_stale_version_is_a_plain_miss(self, tmp_path):
        """An old-version record is legitimate, not corruption: it is
        recomputed silently, never quarantined."""
        writer = engine(tmp_path, jobs=1)
        writer.get(spec())
        entry = tmp_path / spec().cache_filename()
        record = json.loads(entry.read_text())
        record["version"] = "0.0.0-previous"
        entry.write_text(json.dumps(record))
        reader = engine(tmp_path, jobs=1)
        reader.get(spec())
        assert reader.stats.cells_computed == 1
        assert reader.stats.cache_quarantined == 0
        assert not (tmp_path / "quarantine").exists()


class TestInlineRetry:
    def test_inline_path_retries_transient_exceptions(self, tmp_path,
                                                      monkeypatch,
                                                      fault_free):
        """jobs=1 without a fault plan computes inline; a flaky
        exception still gets the retry/backoff treatment in-process."""
        from repro.eval import engine as engine_module

        real_worker = engine_module._cell_worker
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("injected flaky I/O")
            return real_worker(payload)

        monkeypatch.setattr(engine_module, "_cell_worker", flaky)
        inline = engine(tmp_path, jobs=1)
        assert inline.get(spec()) == fault_free[spec()]
        assert calls["n"] == 2
        assert inline.stats.cells_retried == 1
        assert inline.stats.transient_errors == 1

    def test_inline_path_exhausts_retries(self, tmp_path, monkeypatch):
        from repro.eval import engine as engine_module

        def always_broken(payload):
            raise OSError("injected permanent failure")

        monkeypatch.setattr(engine_module, "_cell_worker", always_broken)
        inline = engine(tmp_path, jobs=1, max_retries=1)
        with pytest.raises(CellFailure, match="injected permanent"):
            inline.get(spec())
        assert inline.stats.cells_retried == 1
        assert inline.stats.cells_failed == 1


class TestResume:
    CELLS = ("insecure", "ucode-prediction", "hardware-only")

    def test_resumed_sweep_recomputes_only_incomplete_cells(self, tmp_path):
        partial = engine(tmp_path, jobs=1)
        partial.run_cells([spec(defense=d) for d in self.CELLS[:2]],
                          artifact="fig6")
        resumed = engine(tmp_path, jobs=1, resume=True)
        resumed.run_cells([spec(defense=d) for d in self.CELLS],
                          artifact="fig6")
        assert resumed.stats.journal_hits == 2
        assert resumed.stats.cells_computed == 1
        assert resumed.stats.cells_cached == 2
        assert resumed.telemetry.snapshot()["engine.journal_hits"] == 2

    def test_fresh_sweep_truncates_the_journal(self, tmp_path):
        first = engine(tmp_path, jobs=1)
        first.run_cells([spec(defense=d) for d in self.CELLS])
        fresh = engine(tmp_path, jobs=1)
        fresh.run_cells([spec()])
        journal = SweepJournal(tmp_path)
        events = [json.loads(line) for line
                  in journal.path.read_text().splitlines()]
        # Only the fresh sweep's events survive: its batch note and one
        # cache-served done — the first sweep's three cells are gone.
        assert [e["event"] for e in events] == ["batch", "done"]
        assert events[-1]["source"] == "cached"
        assert journal.done_keys() == {spec().cache_key()}

    def test_journal_tolerates_partial_trailing_line(self, tmp_path):
        done = engine(tmp_path, jobs=1)
        done.run_cells([spec()])
        journal = SweepJournal(tmp_path)
        with journal.path.open("a") as handle:
            handle.write('{"event": "done", "key": "trunc')  # killed mid-write
        assert journal.done_keys() == {spec().cache_key()}

    def test_resume_without_cache_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="resume requires"):
            EvalEngine(jobs=1, use_cache=False, resume=True)

    def test_journal_records_artifact_and_attempts(self, tmp_path):
        faulted = engine(tmp_path, jobs=2,
                         fault_plan=FaultPlan.parse("transient:*@1"))
        faulted.run_cells([spec()], artifact="fig6")
        events = [json.loads(line) for line
                  in SweepJournal(tmp_path).path.read_text().splitlines()]
        assert events[-1]["event"] == "done"
        assert events[-1]["artifact"] == "fig6"
        assert events[-1]["attempts"] == 2


class TestArtifactsByteIdentical:
    def test_faulted_fig6_renders_identically(self, tmp_path):
        """The acceptance bar: with crash + hang + transient + corrupt
        cache faults all injected, a figure renders byte-identically to
        a fault-free serial run."""
        benchmarks = ("lbm",)
        clean = fig6.run(scale=1, benchmarks=benchmarks,
                         max_instructions=BUDGET,
                         engine=EvalEngine(jobs=1, use_cache=False))
        plan = FaultPlan.parse("crash:lbm/insecure@1,"
                               "hang:lbm/ucode-prediction@1,"
                               "transient:lbm/asan@1,"
                               "corrupt-cache:lbm/hardware-only@1")
        faulted_engine = engine(tmp_path, jobs=2, cell_timeout=5.0,
                                fault_plan=plan)
        faulted = fig6.run(scale=1, benchmarks=benchmarks,
                           max_instructions=BUDGET, engine=faulted_engine)
        assert faulted.format_text() == clean.format_text()
        assert faulted.runs == clean.runs
        assert faulted_engine.stats.cells_crashed == 1
        assert faulted_engine.stats.cells_timed_out == 1
        assert faulted_engine.stats.transient_errors == 1
