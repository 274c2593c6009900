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
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import __version__  # noqa: E402
from repro.core.machine import Chex86Machine  # noqa: E402
from repro.core.variants import Variant  # noqa: E402
from repro.isa.assembler import assemble  # noqa: E402
from repro.telemetry import EventTracer, write_snapshot  # noqa: E402
from repro.workloads import build  # noqa: E402

#: The three representative workloads (SPEC pointer-heavy, SPEC branchy,
#: PARSEC numeric) the trajectory tracks.
WORKLOADS = ("mcf", "deepsjeng", "blackscholes")

DEFAULT_OUT = "BENCH_hotloop.json"
DEFAULT_METRICS_OUT = "BENCH_hotloop_metrics.json"
DEFAULT_BASELINE = "benchmarks/bench_hotloop_baseline.json"


def measure(name: str, scale: int, budget: int, repeats: int,
            telemetry: bool = False, provenance: bool = False,
            metrics_out: str = None) -> dict:
    """Best-of-``repeats`` stepping throughput for one workload.

    ``telemetry=True`` attaches the event tracer and per-quantum
    snapshotting, ``provenance=True`` arms the provenance recorder
    (forcing exact per-instruction replay) — the *enabled*-path
    overhead measurements; the regression gate only ever reads the
    default (disabled) runs.
    """
    workload = build(name, scale)
    program = assemble(workload.source, name=workload.name)
    best_mips = 0.0
    instructions = cycles = 0
    for _ in range(repeats):
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        if telemetry:
            machine.attach_tracer(EventTracer())
            machine.enable_quantum_metrics()
        if provenance:
            machine.enable_provenance()
        started = time.perf_counter()
        machine.run_quantum(budget)
        seconds = time.perf_counter() - started
        instructions = machine.instructions
        cycles = machine.timing.finish().cycles
        mips = instructions / seconds / 1e6 if seconds > 0 else 0.0
        if mips > best_mips:
            best_mips = mips
    metrics = machine.metrics_snapshot()
    if metrics_out:
        write_snapshot(metrics_out, metrics,
                       meta={"benchmark": "hotloop", "workload": name,
                             "scale": scale, "budget": budget})
    bailouts_per_kilo = (1000.0 * metrics["frontend.superblock_bailouts"]
                         / instructions if instructions else 0.0)
    return {
        "workload": name,
        "instructions": instructions,
        "cycles": cycles,
        "simulated_mips": round(best_mips, 4),
        "superblock_coverage": round(
            metrics["frontend.superblock_coverage"], 4),
        "superblock_bailouts_per_kinstr": round(bailouts_per_kilo, 4),
    }


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

    results = []
    for name in WORKLOADS:
        record = measure(name, args.scale, args.budget, args.repeats)
        results.append(record)
        print(f"{name:14s} {record['instructions']:>9,} instr  "
              f"{record['cycles']:>9,} cycles  "
              f"{record['simulated_mips']:.4f} simulated-MIPS  "
              f"{record['superblock_coverage']:.2%} superblock coverage  "
              f"{record['superblock_bailouts_per_kinstr']:.2f} "
              f"bailouts/kinstr")

    aggregate = round(aggregate_mips(results), 4)
    report = {
        "version": __version__,
        "scale": args.scale,
        "budget": args.budget,
        "workloads": results,
        "aggregate_simulated_mips": aggregate,
    }

    if not args.no_telemetry_bench:
        # Telemetry-*enabled* overhead trajectory (tracer attached +
        # per-quantum snapshots).  Informational only: the regression
        # gate below compares the default disabled-path aggregate.
        enabled = []
        for name in WORKLOADS:
            record = measure(name, args.scale, args.budget, args.repeats,
                             telemetry=True,
                             metrics_out=args.metrics_out)
            enabled.append(record)
            print(f"{name:14s} {record['simulated_mips']:.4f} "
                  f"simulated-MIPS with telemetry enabled")
        enabled_aggregate = round(aggregate_mips(enabled), 4)
        overhead = (1.0 - enabled_aggregate / aggregate) if aggregate else 0.0
        report["telemetry"] = {
            "workloads": enabled,
            "aggregate_simulated_mips": enabled_aggregate,
            "overhead_fraction": round(overhead, 4),
        }
        print(f"telemetry: {enabled_aggregate:.4f} simulated-MIPS enabled "
              f"({overhead:.1%} overhead) -> {args.metrics_out}")

    if not args.no_provenance_bench:
        # Provenance-*armed* overhead trajectory (recorder enabled, so
        # superblock replay bails out to exact stepping).  Informational
        # only, like the telemetry pass: the gate reads the default runs.
        armed = []
        for name in WORKLOADS:
            record = measure(name, args.scale, args.budget, args.repeats,
                             provenance=True)
            armed.append(record)
            print(f"{name:14s} {record['simulated_mips']:.4f} "
                  f"simulated-MIPS with provenance armed")
        armed_aggregate = round(aggregate_mips(armed), 4)
        prov_overhead = (1.0 - armed_aggregate / aggregate) \
            if aggregate else 0.0
        report["provenance"] = {
            "workloads": armed,
            "aggregate_simulated_mips": armed_aggregate,
            "overhead_fraction": round(prov_overhead, 4),
        }
        # Record the armed-pass overhead in the metrics sidecar's meta
        # so BENCH_hotloop_metrics.json carries the full overhead story.
        metrics_path = Path(args.metrics_out)
        if metrics_path.exists():
            snapshot = json.loads(metrics_path.read_text())
            snapshot.setdefault("meta", {})["provenance_overhead_fraction"] \
                = round(prov_overhead, 4)
            metrics_path.write_text(json.dumps(snapshot, indent=2,
                                               sort_keys=True) + "\n")
        print(f"provenance: {armed_aggregate:.4f} simulated-MIPS armed "
              f"({prov_overhead:.1%} overhead)")

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
