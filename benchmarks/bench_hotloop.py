#!/usr/bin/env python
"""Hot-loop throughput microbenchmark: simulated MIPS of the step loop.

Measures how many simulated instructions per wall-clock second the
simulator sustains on three representative workloads (a pointer-chasing
SPEC analogue, a branchy SPEC analogue, and a PARSEC analogue) under the
default prediction-driven variant, and writes the results to
``BENCH_hotloop.json``.  This is the perf-trajectory seed for the
decoded-block fast path and the flat timing scoreboard: CI runs it at
scale 1 and fails when the aggregate simulated-MIPS regresses more than
``--max-regression`` against the committed baseline file.

The timer wraps *only* ``Chex86Machine.run_quantum`` — workload
generation and assembly are front-end costs paid once per program, not
hot-loop throughput.  Standalone usage::

    PYTHONPATH=src python benchmarks/bench_hotloop.py \
        --baseline benchmarks/bench_hotloop_baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import __version__  # noqa: E402
from repro.core.machine import Chex86Machine  # noqa: E402
from repro.core.variants import Variant  # noqa: E402
from repro.isa.assembler import assemble  # noqa: E402
from repro.telemetry import (  # noqa: E402
    EventTracer, ProvenanceRecorder, write_snapshot)
from repro.workloads import build  # noqa: E402

#: The three representative workloads (SPEC pointer-heavy, SPEC branchy,
#: PARSEC numeric) the trajectory tracks.
WORKLOADS = ("mcf", "deepsjeng", "blackscholes")

DEFAULT_OUT = "BENCH_hotloop.json"
DEFAULT_METRICS_OUT = "BENCH_hotloop_metrics.json"
DEFAULT_BASELINE = "benchmarks/bench_hotloop_baseline.json"


def measure(name: str, scale: int, budget: int, repeats: int,
            passes=("default",), metrics_out: str = None) -> dict:
    """Best-of-``repeats`` stepping throughput for one workload, per pass.

    Each repeat runs every pass in ``passes`` once, one after another,
    so an observed pass and the default pass it is compared with run
    at the same time and see the same host load.  The order rotates by
    one pass per repeat, so no pass always runs first (and pays the
    repeat's warm-up) or always runs last.  Each record keeps the
    run time of every repeat under ``seconds``, in repeat order, for
    :func:`overhead_fraction`.  The ``telemetry``
    pass attaches the event tracer, the ``provenance`` pass the
    provenance recorder; observed runs replay superblocks with the
    hooks compiled in, so their coverage matches the default run's.
    The regression gate only ever reads the default pass.  Each record
    reads the counters of the pass's last run; the telemetry pass's
    ``metrics_snapshot()`` is written to ``metrics_out``.
    """
    workload = build(name, scale)
    program = assemble(workload.source, name=workload.name)
    best_mips = dict.fromkeys(passes, 0.0)
    seconds_by_repeat = {mode: [] for mode in passes}
    last = {}
    for repeat in range(repeats):
        turn = repeat % len(passes)
        for mode in passes[turn:] + passes[:turn]:
            machine = Chex86Machine(program,
                                    variant=Variant.UCODE_PREDICTION,
                                    halt_on_violation=False)
            if mode == "telemetry":
                machine.attach(EventTracer())
            elif mode == "provenance":
                machine.attach(ProvenanceRecorder(program))
            started = time.perf_counter()
            machine.run_quantum(budget)
            seconds = time.perf_counter() - started
            seconds_by_repeat[mode].append(seconds)
            mips = machine.instructions / seconds / 1e6 if seconds > 0 \
                else 0.0
            best_mips[mode] = max(best_mips[mode], mips)
            last[mode] = machine.metrics_snapshot()
    if metrics_out and "telemetry" in last:
        write_snapshot(metrics_out, last["telemetry"],
                       meta={"benchmark": "hotloop", "workload": name,
                             "scale": scale, "budget": budget})
    records = {}
    for mode, metrics in last.items():
        instructions = int(metrics["machine.instructions"])
        bailouts_per_kilo = (1000.0 * metrics["frontend.superblock_bailouts"]
                             / instructions if instructions else 0.0)
        records[mode] = {
            "workload": name,
            "instructions": instructions,
            "cycles": int(metrics["timing.cycles"]),
            "simulated_mips": round(best_mips[mode], 4),
            "superblock_coverage": round(
                metrics["frontend.superblock_coverage"], 4),
            "superblock_bailouts_per_kinstr": round(bailouts_per_kilo, 4),
        }
    return records, seconds_by_repeat


def aggregate_mips(results: list) -> float:
    """Aggregate throughput: total instructions at each workload's rate.

    The instruction-weighted harmonic-style aggregate (total instructions
    over total time) keeps one fast workload from masking a regression in
    a slow one.
    """
    total_instructions = sum(r["instructions"] for r in results)
    total_seconds = sum(
        r["instructions"] / (r["simulated_mips"] * 1e6)
        for r in results if r["simulated_mips"] > 0)
    if not total_seconds:
        return 0.0
    return total_instructions / total_seconds / 1e6


def overhead_fraction(runs: list, mode: str) -> float:
    """The median, over repeats, of ``mode``'s slowdown against the
    default pass of the same repeat.

    ``runs`` holds each workload's seconds by pass and repeat.  A
    repeat's aggregate is total instructions over total time, as in
    :func:`aggregate_mips`, and every pass retires the same
    instructions, so its ratio to the default is a ratio of times.
    Pairing a pass with the default run beside it cancels host load
    that a ratio of two best-of aggregates, taken from different
    repeats, lets through.
    """
    ratios = []
    for repeat in range(len(runs[0]["default"])):
        default = sum(seconds["default"][repeat] for seconds in runs)
        observed = sum(seconds[mode][repeat] for seconds in runs)
        if observed > 0:
            ratios.append(default / observed)
    return 1.0 - statistics.median(ratios) if ratios else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale (default 1, the CI size)")
    parser.add_argument("--budget", type=int, default=2_000_000,
                        help="instruction budget per run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per workload (best is kept)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--metrics-out", default=DEFAULT_METRICS_OUT,
                        help="telemetry snapshot of the last instrumented "
                             f"run (default {DEFAULT_METRICS_OUT})")
    parser.add_argument("--no-telemetry-bench", action="store_true",
                        help="skip the telemetry-enabled overhead pass")
    parser.add_argument("--no-provenance-bench", action="store_true",
                        help="skip the provenance-armed overhead pass")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to compare against "
                             f"(e.g. {DEFAULT_BASELINE})")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="fail when aggregate simulated-MIPS drops by "
                             "more than this fraction vs the baseline "
                             "(default 0.30)")
    args = parser.parse_args(argv)

    passes = ["default"]
    if not args.no_telemetry_bench:
        passes.append("telemetry")
    if not args.no_provenance_bench:
        passes.append("provenance")
    rows = {mode: [] for mode in passes}
    runs = []
    for name in WORKLOADS:
        records, seconds = measure(name, args.scale, args.budget,
                                   args.repeats, passes,
                                   metrics_out=args.metrics_out)
        runs.append(seconds)
        for mode in passes:
            rows[mode].append(records[mode])
        record = records["default"]
        print(f"{name:14s} {record['instructions']:>9,} instr  "
              f"{record['cycles']:>9,} cycles  "
              f"{record['simulated_mips']:.4f} simulated-MIPS  "
              f"{record['superblock_coverage']:.2%} superblock coverage  "
              f"{record['superblock_bailouts_per_kinstr']:.2f} "
              f"bailouts/kinstr")
        for mode in passes[1:]:
            print(f"{name:14s} {records[mode]['simulated_mips']:.4f} "
                  f"simulated-MIPS with {mode} attached")

    results = rows["default"]
    aggregate = round(aggregate_mips(results), 4)
    report = {
        "version": __version__,
        "scale": args.scale,
        "budget": args.budget,
        "workloads": results,
        "aggregate_simulated_mips": aggregate,
    }
    # The observed passes are informational: the regression gate below
    # compares the default aggregate only.
    for mode in passes[1:]:
        observed = round(aggregate_mips(rows[mode]), 4)
        overhead = overhead_fraction(runs, mode)
        report[mode] = {
            "workloads": rows[mode],
            "aggregate_simulated_mips": observed,
            "overhead_fraction": round(overhead, 4),
        }
        print(f"{mode}: {observed:.4f} simulated-MIPS attached "
              f"({overhead:.1%} overhead)")
    # Record the armed-pass overhead in the metrics sidecar's meta so
    # BENCH_hotloop_metrics.json carries the full overhead story.
    metrics_path = Path(args.metrics_out)
    if "provenance" in report and metrics_path.exists():
        snapshot = json.loads(metrics_path.read_text())
        snapshot.setdefault("meta", {})["provenance_overhead_fraction"] \
            = report["provenance"]["overhead_fraction"]
        metrics_path.write_text(json.dumps(snapshot, indent=2,
                                           sort_keys=True) + "\n")

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"aggregate: {aggregate:.4f} simulated-MIPS -> {args.out}")

    if args.baseline:
        try:
            baseline = json.loads(Path(args.baseline).read_text())
        except (OSError, ValueError) as error:
            print(f"error: cannot read baseline {args.baseline!r}: {error}",
                  file=sys.stderr)
            return 2
        reference = float(baseline.get("aggregate_simulated_mips", 0.0))
        floor = reference * (1.0 - args.max_regression)
        print(f"baseline:  {reference:.4f} simulated-MIPS "
              f"(floor {floor:.4f} at -{args.max_regression:.0%})")
        if reference > 0 and aggregate < floor:
            print(f"FAIL: aggregate {aggregate:.4f} < floor {floor:.4f}",
                  file=sys.stderr)
            return 1
        print("OK: within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
