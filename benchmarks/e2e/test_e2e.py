"""Checks on the end-to-end benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e`` (about two minutes: the smoke runs regenerate Figure 6
three times).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import LAYER_OF, layer_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "repro"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_repo_module_maps_to_one_layer():
    files = sorted(p.relative_to(PACKAGE).as_posix()
                   for p in PACKAGE.rglob("*.py"))
    unmapped = [f for f in files if layer_of(f) in (None, "host")]
    assert not unmapped, f"files with no layer: {unmapped}"
    stale = [key for key in LAYER_OF if not (PACKAGE / key).exists()]
    assert not stale, f"layer table names missing paths: {stale}"


def test_compare_claims_gains_only_from_alternating_pairs():
    import run

    def runs(starts):
        return [{"seed": seed, "started": started}
                for seed, started in enumerate(starts)]

    parent = runs(2 * s + s % 2 for s in range(10))
    change = runs(2 * s + 1 - s % 2 for s in range(10))
    assert run.interleaved(parent, change)
    assert not run.interleaved(runs(2 * s for s in range(10)),
                               runs(2 * s + 1 for s in range(10)))
    assert not run.interleaved(parent, runs(100 + s for s in range(10)))

    slow = [10.0 + 0.01 * i for i in range(10)]
    fast = [9.0 + 0.01 * i for i in range(10)]
    pairs = list(zip(slow, fast))
    assert run.verdict(slow, fast, pairs, "lower", 0.2) == "better"
    assert run.verdict(slow, fast, [], "lower", 0.2) == "unresolved"
    assert run.verdict(slow, fast, pairs[:9], "lower", 0.2) == "unresolved"
    assert run.verdict(fast, slow, pairs, "lower", 0.05) == "worse"
    assert run.verdict(slow, slow, pairs, "lower", 0.05) == "unchanged"


def _run(tmp_path: Path, name: str, *args: str) -> dict:
    out = tmp_path / name
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--out", str(out), *args], cwd=ROOT, capture_output=True,
        text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced_record(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("e2e"), "traced.json", "--trace")


def test_smoke_record_has_every_metric_and_workload(traced_record):
    runs = {run["workload"]: run for run in traced_record["runs"]}
    assert sorted(runs) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, run in runs.items():
        assert run["correct"], run["problems"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            measured = run["metrics"].get(metric["name"])
            assert measured is not None, (workload, metric["name"])
            assert measured["unit"] == metric["unit"], (workload, metric)
        fracs = sum(value["value"] for name, value in run["metrics"].items()
                    if name.startswith("layer.") and name.endswith(".frac"))
        assert abs(fracs - 1.0) < 0.01, (workload, fracs)


def test_tracing_keeps_fig6_superblock_coverage(traced_record, tmp_path):
    untraced = _run(tmp_path, "untraced.json", "--workload", "fig6-cold")
    name = "frontend.superblock_coverage"
    traced = {run["workload"]: run for run in traced_record["runs"]}
    assert untraced["runs"][0]["metrics"][name] \
        == traced["fig6-cold"]["metrics"][name]
