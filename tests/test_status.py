"""Tests for ``repro status`` (``repro.eval.status``).

The status reader must reconstruct correct cell counts from whatever an
interrupted sweep left in the journal — including the
killed-then-resumed scenario the fault-injection suite exercises: a
sweep that announced N cells, completed some, and died mid-cell leaves
a ``start`` with no terminal event; the resumed sweep's journal then
shows the cache-served completions and the recomputed stragglers.
"""

import json

from repro.eval.engine import CellSpec, EvalEngine, SweepJournal
from repro.eval.status import ETA_WINDOW, RunningCell, SweepStatus, \
    read_status

BUDGET = 60_000
DEFENSES = ("insecure", "ucode-prediction", "hardware-only")


def spec(defense="insecure"):
    return CellSpec(workload="lbm", defense=defense,
                    max_instructions=BUDGET)


def engine(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path))
    kwargs.setdefault("retry_backoff", 0.05)
    return EvalEngine(**kwargs)


class TestReadStatus:
    def test_missing_journal_is_empty_status(self, tmp_path):
        status = read_status(tmp_path / "nowhere")
        assert status.total == 0 and status.done == 0
        assert status.running == []
        assert "0 total" in status.format_text()

    def test_completed_sweep(self, tmp_path):
        partial = engine(tmp_path, jobs=1)
        partial.run_cells([spec(d) for d in DEFENSES[:2]],
                          artifact="fig6")
        status = read_status(tmp_path)
        assert status.artifacts == ["fig6"]
        assert status.total == 2
        assert status.done == 2 and status.cached == 0
        assert status.remaining == 0
        assert status.running == []
        assert status.last_event_ts is not None
        assert "eta:         complete" in status.format_text()

    def test_killed_then_resumed_sweep(self, tmp_path):
        """The acceptance scenario: 3-cell sweep killed mid-third-cell,
        then resumed to completion."""
        # Phase 1 — the sweep completes two cells, then is killed while
        # the third is in flight: its journal ends with a bare start.
        partial = engine(tmp_path, jobs=1)
        partial.run_cells([spec(d) for d in DEFENSES[:2]],
                          artifact="fig6")
        journal = SweepJournal(tmp_path)
        with journal.path.open("a") as handle:
            # What a 3-cell batch + SIGKILL mid-cell actually leaves:
            # the batch re-announcement and the orphaned start.
            handle.write(json.dumps({
                "event": "batch", "artifact": "fig6", "requested": 3,
                "cells": 3, "jobs": 2, "ts": 1000.0}) + "\n")
            handle.write(json.dumps({
                "event": "start", "key": spec(DEFENSES[2]).cache_key(),
                "label": spec(DEFENSES[2]).label, "artifact": "fig6",
                "attempt": 1, "pid": 4242, "ts": 1001.0}) + "\n")

        killed = read_status(tmp_path)
        assert killed.total == 3
        assert killed.done == 2
        assert killed.remaining == 1
        assert [cell.label for cell in killed.running] \
            == [spec(DEFENSES[2]).label]
        assert killed.running[0].pid == 4242
        assert killed.running[0].attempt == 1
        assert killed.jobs == 2
        assert killed.eta_seconds() is not None  # extrapolates from done
        text = killed.format_text()
        assert "3 total, 2 done" in text
        assert "1 running" in text
        assert "lbm/hardware-only" in text

        # Phase 2 — resume recomputes only the straggler; status now
        # reports a fully complete 3-cell sweep with 2 cache hits.
        resumed = engine(tmp_path, jobs=1, resume=True)
        resumed.run_cells([spec(d) for d in DEFENSES], artifact="fig6")
        assert resumed.stats.cells_computed == 1
        final = read_status(tmp_path)
        assert final.total == 3
        assert final.done == 3
        assert final.cached == 2
        assert final.running == []
        assert final.remaining == 0
        assert final.cache_hit_rate == 2 / 3

    def test_resumed_batch_not_double_counted(self, tmp_path):
        first = engine(tmp_path, jobs=1)
        first.run_cells([spec()], artifact="fig6")
        resumed = engine(tmp_path, jobs=1, resume=True)
        resumed.run_cells([spec()], artifact="fig6")
        status = read_status(tmp_path)
        assert status.total == 1      # latest batch wins, not 1 + 1
        assert status.done == 1 and status.cached == 1

    def test_failed_and_retry_counters(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            {"event": "batch", "artifact": "fig6", "cells": 2,
             "jobs": 1, "ts": 1.0},
            {"event": "start", "key": "k1", "label": "a/b",
             "attempt": 1, "ts": 2.0},
            {"event": "retry", "key": "k1", "label": "a/b",
             "attempt": 2, "ts": 3.0},
            {"event": "start", "key": "k1", "label": "a/b",
             "attempt": 2, "ts": 4.0},
            {"event": "failed", "key": "k1", "label": "a/b", "ts": 5.0},
            {"event": "quarantine", "key": "k2", "label": "c/d",
             "ts": 6.0},
            {"event": "done", "key": "k2", "label": "c/d",
             "seconds": 2.5, "attempts": 1, "ts": 7.0},
        ]
        journal.path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n")
        status = read_status(tmp_path)
        assert status.total == 2
        assert status.done == 1 and status.failed == 1
        assert status.retries == 1 and status.quarantined == 1
        assert status.running == []
        assert status.recent_seconds == [2.5]
        assert status.last_event_ts == 7.0
        assert "1 failed" in status.format_text()

    def test_truncated_trailing_line_skipped(self, tmp_path):
        done = engine(tmp_path, jobs=1)
        done.run_cells([spec()])
        journal = SweepJournal(tmp_path)
        with journal.path.open("a") as handle:
            handle.write('{"event": "start", "key": "trunc')
        status = read_status(tmp_path)
        assert status.done == 1 and status.running == []

    def test_spilled_spans_counted(self, tmp_path):
        from repro.telemetry.spans import SPILL_FILENAME

        done = engine(tmp_path, jobs=1)
        done.run_cells([spec()])
        (tmp_path / SPILL_FILENAME).write_text(
            '{"name": "a"}\n\n{"name": "b"}\n')
        status = read_status(tmp_path)
        assert status.spilled_spans == 2
        assert SPILL_FILENAME in status.format_text()


class TestEtaMath:
    def _status(self, **kwargs):
        kwargs.setdefault("cache_dir", "x")
        return SweepStatus(**kwargs)

    def test_eta_window_and_division_by_jobs(self):
        status = self._status(total=10, done=4, jobs=2,
                              recent_seconds=[2.0, 4.0])
        assert status.remaining == 6
        assert status.eta_seconds() == 6 * 3.0 / 2

    def test_no_eta_without_recent_durations(self):
        status = self._status(total=5, done=1)
        assert status.eta_seconds() is None

    def test_recent_window_is_bounded(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [{"event": "done", "key": f"k{n}", "seconds": float(n),
                  "ts": float(n)} for n in range(ETA_WINDOW + 5)]
        journal.path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n")
        status = read_status(tmp_path)
        assert len(status.recent_seconds) == ETA_WINDOW
        assert status.recent_seconds[-1] == float(ETA_WINDOW + 4)

    def test_running_cell_age(self):
        cell = RunningCell(label="a/b", attempt=1, pid=1, since=100.0)
        assert cell.age_seconds(now=103.5) == 3.5
        assert RunningCell("a/b", 1, None, None).age_seconds() is None

    def test_to_dict_round_trips_through_json(self):
        status = self._status(total=3, done=1, jobs=2,
                              running=[RunningCell("a/b", 2, 7, None)],
                              recent_seconds=[1.0])
        document = json.loads(json.dumps(status.to_dict()))
        assert document["total"] == 3
        assert document["running"][0]["label"] == "a/b"
        assert document["eta_seconds"] == 2 * 1.0 / 2
