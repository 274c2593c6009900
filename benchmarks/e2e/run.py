#!/usr/bin/env python3
"""End-to-end benchmark of the CHEx86 simulator: four workloads, end-to-end
and per-layer metrics, output checks, and a sampled layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--runs K] [--trace] [--out R]
    python3 benchmarks/e2e/run.py --workload fuzz-cold --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --runs 10 --out B.json \\
        --parent ../parent --parent-out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Without ``--workload`` every workload runs ``--runs`` times (seeds N,
N+1, ...), each run in its own fresh Python process.  With ``--parent``
each of those runs is paired with a run of the same workload and seed in
the parent checkout, alternating which side goes first.  With
``--workload`` one run happens in this process; its last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or its
``per_layer`` metrics under ``--trace 1``).  The exit status is 1 when
any output check fails and 2 when the benchmark cannot run at all.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: This directory, relative to the root of a checkout.
BENCH_DIR = HERE.relative_to(ROOT)
#: Alternating pairs of parent and change runs needed to claim a gain.
MIN_PAIRS = 10


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


def format_metrics(run: dict) -> str:
    lines = []
    for name in sorted(run["metrics"]):
        metric = run["metrics"][name]
        lines.append(f"{run['workload']:16s} {name:34s} "
                     f"{metric['value']:>16.6g} {metric['unit']}")
    return "\n".join(lines)


# -- one workload, in this process --------------------------------------------


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    started = time.time()
    result = suite.WORKLOADS[args.workload](args.seed, args.seconds,
                                            bool(args.trace), args.smoke)
    run = result.to_dict()
    run["started"] = started  # lets --compare check that runs alternated
    print(format_metrics(run))
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.out:
        write_record(args.out, args, [run])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: run["metrics"][m["name"]] for m in listed
               if m["name"] in run["metrics"]}
    if run["correct"] and len(metrics) != len(listed):
        missing = sorted({m["name"] for m in listed} - set(metrics))
        return fail(f"{args.workload} did not measure {missing}")
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if run["correct"] else 1


def write_record(path: str, args, runs: list) -> None:
    record = {"schema": 1, "seconds": args.seconds, "trace": bool(args.trace),
              "smoke": args.smoke, "host": host_info(), "runs": runs}
    Path(path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


# -- every workload, each run in a fresh process ------------------------------


def bench_digest(root: Path) -> str:
    """sha256 of the benchmark's code and settings in the checkout at
    ``root``: ``BENCHMARK.json`` and the files this directory holds."""
    digest = hashlib.sha256()
    for path in [root / "BENCHMARK.json",
                 *sorted((root / BENCH_DIR).glob("*.py")),
                 root / BENCH_DIR / "expected.json"]:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_in_child(root: Path, workload: str, seed: int, args) -> tuple:
    """One run of ``workload`` in a fresh process of the checkout at
    ``root``; returns the runs it recorded and whether it succeeded."""
    out = HERE / ".work" / f"{os.getpid()}-{workload}.json"
    argv = [sys.executable, str(root / BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]
    if args.smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
    ok = done.returncode == 0 and out.exists()
    if not ok:
        print(f"{workload} ({root}): run failed with exit status "
              f"{done.returncode}", file=sys.stderr)
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    out.unlink(missing_ok=True)
    return runs, ok


def run_all(args, spec: dict) -> int:
    """Every workload ``--runs`` times.  With ``--parent``, each run is
    paired with one of the same workload and seed in the parent checkout,
    and the side that goes first alternates from pair to pair, so that a
    drift in the host's speed weighs on both sides alike."""
    (HERE / ".work").mkdir(exist_ok=True)
    sides = {"change": ROOT}
    if args.parent:
        parent = Path(args.parent).resolve()
        if not (parent / BENCH_DIR / "run.py").is_file():
            return fail(f"{parent / BENCH_DIR} not found")
        if bench_digest(parent) != bench_digest(ROOT):
            return fail(f"the benchmark in {parent} differs from this one: "
                        f"copy {BENCH_DIR}/ and BENCHMARK.json into it")
        sides["parent"] = parent
    runs = {side: [] for side in sides}
    status = 0
    for index in range(args.runs):
        for position, workload in enumerate(w["name"] for w in
                                            spec["workloads"]):
            order = list(sides)
            if (index + position) % 2:
                order.reverse()
            for side in order:
                got, ok = run_in_child(sides[side], workload,
                                       args.seed + index, args)
                runs[side].extend(got)
                status |= not ok
    for side, path in (("change", args.out), ("parent", args.parent_out)):
        if path and side in runs:
            write_record(path, args, runs[side])
    for side, side_runs in runs.items():
        label = f" ({side})" if len(runs) > 1 else ""
        correct = sum(run["correct"] for run in side_runs)
        print(f"e2e{label}: {correct}/{len(side_runs)} run(s) correct")
    return status


# -- comparing two records ----------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def interleaved(parent: list, change: list) -> bool:
    """Whether two sides' runs of one workload were taken in alternating
    pairs: in order of start time the runs come two at a time, one of each
    side with the same seed, and each side went first in half the pairs
    (give or take one)."""
    if len(parent) != len(change) or not all(
            "started" in run for run in parent + change):
        return False
    timeline = sorted([(run["started"], True, run["seed"]) for run in parent]
                      + [(run["started"], False, run["seed"])
                         for run in change])
    parent_first = 0
    for first, second in zip(timeline[0::2], timeline[1::2]):
        if first[1] == second[1] or first[2] != second[2]:
            return False
        parent_first += first[1]
    return abs(2 * parent_first - len(parent)) <= 1


def verdict(parent: list, change: list, pairs: list, better: str,
            bound: float) -> str:
    """Verdict on one metric of one workload, from runs of the parent
    commit and of the change.  ``pairs`` holds the (parent, change) values
    of runs taken in alternating pairs, and is empty when the records were
    not taken that way.

    ``worse``: the change's median is worse by more than ``bound``.
    ``better``: there are at least ``MIN_PAIRS`` pairs, the change wins at
    least nine tenths of them (ties count for neither) and the medians
    differ by more than the parent's interquartile range.
    ``unresolved``: the medians differ by that much but there are too few
    pairs, so a drift of the host between the two records cannot be told
    from a gain; or either side's interquartile range is wider than
    ``bound`` and not every change run beats every parent run.
    ``unchanged``: none of these.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, _, p3 = quartiles(parent)
    c1, _, c3 = quartiles(change)
    mp, mc = statistics.median(parent), statistics.median(change)
    if sign * (mc - mp) / abs(mp) < -bound:
        return "worse"
    if sign * (mc - mp) > p3 - p1:
        if len(pairs) < MIN_PAIRS:
            return "unresolved"
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        if wins >= 0.9 * len(pairs):
            return "better"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = max((p3 - p1) / abs(mp), (c3 - c1) / abs(mc))
    return "unresolved" if spread > bound and not all_better else "unchanged"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    records = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    print(f"parent: {path_a}\nchange: {path_b}")
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'change':>8s}  verdict")
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [[run for run in record["runs"] if run["workload"] == workload]
                for record in records]
        paired = interleaved(*runs)
        if not paired or len(runs[0]) < MIN_PAIRS:
            print(f"{workload}: runs not taken in at least {MIN_PAIRS} "
                  f"alternating pairs (run.py --parent), so no gain can "
                  f"be claimed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [[run["metrics"][name]["value"] for run in side
                      if name in run["metrics"]] for side in runs]
            if not all(sides):
                print(f"{workload:16s} {name:12s} missing")
                worse += 1
                continue
            pairs = []
            if paired:
                by_seed = {run["seed"]: run["metrics"][name]["value"]
                           for run in runs[1] if name in run["metrics"]}
                pairs = [(run["metrics"][name]["value"], by_seed[run["seed"]])
                         for run in runs[0]
                         if name in run["metrics"] and run["seed"] in by_seed]
            result = verdict(sides[0], sides[1], pairs, metric["better"],
                             metric["bound"])
            worse += result == "worse"
            cells = []
            for values in sides:
                q1, _, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.5g} "
                             f"[{q1:.5g}, {q3:.5g}]")
            mp, mc = (statistics.median(v) for v in sides)
            print(f"{workload:16s} {name:12s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {(mc - mp) / abs(mp):>+8.1%}  {result}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (fuzz-cold's first generator seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced phase and report the "
                             "per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds N, N+1, ... "
                             "(without --workload)")
    parser.add_argument("--out", default=None,
                        help="write every measured metric to this record")
    parser.add_argument("--parent", default=None, metavar="DIR",
                        help="pair every run with one in the checkout DIR, "
                             "alternating which goes first (without "
                             "--workload)")
    parser.add_argument("--parent-out", default=None, metavar="R",
                        help="write the --parent runs to this record")
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and the minimum timed work "
                             "(for tests)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare record B against parent record A")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin the steady workloads' outputs in "
                             "expected.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"{ROOT / 'src' / 'repro'} not found: run from a "
                    f"checkout of the repository")
    if not SPEC_PATH.is_file():
        return fail(f"{SPEC_PATH} not found")
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.write_expected:
        sys.path.insert(0, str(ROOT / "src"))
        import suite

        print(json.dumps(suite.write_expected(), indent=2, sort_keys=True))
        return 0
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if bool(args.parent) != bool(args.parent_out) or (
            args.parent and args.workload):
        return fail("--parent and --parent-out go together, without "
                    "--workload")
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in (w["name"] for w in spec["workloads"]):
        return fail(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
