"""Command-line interface: ``python -m repro <command>``.

Commands
========

``run FILE``
    Assemble and run an assembly program under a chosen variant::

        python -m repro run prog.s --variant ucode-prediction --trap

``workload NAME``
    Run one of the 14 built-in benchmark analogues and print its
    statistics summary::

        python -m repro workload mcf --variant hw-only --scale 2

``figure {1,3,6,7,8,9}`` / ``table {1,2,3,4}``
    Regenerate one of the paper's figures/tables and print it.

``security``
    Run the three exploit suites (RIPE / ASan suite / How2Heap).

``trace FILE``
    Run a program with the event tracer attached and print/export the
    capability events (uop injections, capchecks, predictor outcomes,
    squashes, violations)::

        python -m repro trace prog.s --kind capcheck --pc 0x400010

    ``FILE`` may also be a previously exported trace — a machine-ring
    JSONL/Chrome export or a sweep-level merged trace from
    ``figure/table/reproduce --trace-out`` — which is filtered and
    re-exported instead of re-run.

``status``
    Show live (or resumable) sweep progress read from the journal under
    the cell-cache directory — works from another terminal while a
    sweep runs.

``bench history``
    Compare the committed ``BENCH_*.json`` performance records against
    the checked-in baseline and print a trend table with a regression
    verdict (``--check`` exits 1 for CI).

``metrics diff A B``
    Structured, tolerance-aware diff of two metrics exports.

``list``
    List benchmarks, variants, and exploit suites.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .core import Chex86Machine, Variant
from .eval import fig1, fig3, fig6, fig7, fig8, fig9, security
from .eval import table1, table2, table3, table4
from .eval.engine import (CellFailure, DEFAULT_CACHE_DIR,
                          DEFAULT_MAX_RETRIES, DEFAULT_RETRY_BACKOFF,
                          EvalEngine)
from .fuzz import (DEFAULT_BUDGET as FUZZ_DEFAULT_BUDGET,
                   DEFAULT_CORPUS_DIR)
from .heap import heap_library_asm
from .isa import assemble
from .telemetry import (EVENT_KINDS, EventTracer, ProvenanceRecorder,
                        write_snapshot)
from .workloads import BENCHMARK_ORDER, build

_VARIANTS = {v.value: v for v in Variant}

_FIGURES = {"1": fig1, "3": fig3, "6": fig6, "7": fig7, "8": fig8, "9": fig9}
_TABLES = {"1": table1, "2": table2, "3": table3, "4": table4}


class CliError(Exception):
    """A user-facing CLI failure: one line on stderr, exit status 2."""


def _add_variant_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", default="ucode-prediction",
                        choices=sorted(_VARIANTS),
                        help="CHEx86 design point (default: the paper's "
                             "prediction-driven microcode variant)")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel simulation workers "
                             "(default: all CPUs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk cell cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"cell cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry any single simulation cell "
                             "running longer than this (default: no limit)")
    parser.add_argument("--max-retries", type=int,
                        default=DEFAULT_MAX_RETRIES, metavar="N",
                        help="re-dispatch a crashed/hung/raising cell up to "
                             f"N times (default: {DEFAULT_MAX_RETRIES})")
    parser.add_argument("--retry-backoff", type=float,
                        default=DEFAULT_RETRY_BACKOFF, metavar="SECONDS",
                        help="base delay before a retry, doubled on every "
                             "further attempt of the same cell "
                             f"(default: {DEFAULT_RETRY_BACKOFF})")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep: skip cells the "
                             "journal under the cache directory marks "
                             "complete")
    parser.add_argument("--simpoint", action="store_true",
                        help="sampled simulation: estimate eligible "
                             "benchmark cells from checkpointed SimPoint "
                             "intervals instead of full runs "
                             "(docs/sampling.md)")
    parser.add_argument("--interval", type=int, default=None, metavar="N",
                        help="SimPoint profiling/replay interval in "
                             "instructions (requires --simpoint; "
                             "default: 50000)")
    parser.add_argument("--max-k", type=int, default=None, metavar="K",
                        help="maximum number of simulation points per "
                             "workload (requires --simpoint; default: 8)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="trace the sweep: collect engine spans from "
                             "the parent and every worker (plus machine "
                             "capability events) and write one merged "
                             "Chrome trace_event file (Perfetto-loadable)")
    parser.add_argument("--trace-capacity", type=int, default=65536,
                        metavar="N",
                        help="per-process span buffer size for --trace-out "
                             "(default: 65536; the parent spills to "
                             "spans.jsonl under the cache directory)")
    parser.add_argument("--trace-machine-capacity", type=int, default=4096,
                        metavar="N",
                        help="per-machine event ring shipped back with "
                             "--trace-out; 0 disables machine events "
                             "(default: 4096)")


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="profile the simulation: write a cProfile "
                             "dump and print the metrics snapshot")
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="cProfile dump path (default: derived from "
                             "the program/workload name, e.g. mcf.prof)")


def _profile_out(args, stem: str) -> str:
    """Resolve ``--profile-out``: an explicit path wins; otherwise the
    dump is named after what was profiled, so back-to-back profiling
    runs of different programs do not clobber one file."""
    if args.profile_out:
        return args.profile_out
    return f"{stem}.prof"


def _start_profiler(args):
    if not args.profile:
        if args.profile_out:
            raise CliError("--profile-out requires --profile")
        return None
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _finish_profiler(profiler, path: str) -> None:
    profiler.disable()
    profiler.dump_stats(path)
    print(f"profile: wrote {path} "
          f"(inspect with `python -m pstats {path}`)", file=sys.stderr)


def _print_metrics(metrics) -> None:
    # Sorted so the report is deterministic regardless of registration
    # order (and of core order in merged multicore snapshots).
    print("metrics:")
    for name in sorted(metrics):
        value = metrics[name]
        text = f"{value:,.4f}" if isinstance(value, float) else f"{value:,}"
        print(f"  {name:42s} {text:>14}")


def _validate_engine_args(args) -> None:
    """Reject bad engine flags on *every* command that parses them —
    including figures/tables that happen not to use the engine, so
    ``figure 1 --jobs 0`` fails loudly instead of being ignored."""
    if args.jobs is not None and args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        raise CliError(f"--cell-timeout must be > 0, got {args.cell_timeout}")
    if args.max_retries < 0:
        raise CliError(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.retry_backoff < 0:
        raise CliError(f"--retry-backoff must be >= 0, "
                       f"got {args.retry_backoff}")
    if args.resume and args.no_cache:
        raise CliError("--resume needs the cell cache (drop --no-cache)")
    if args.interval is not None and not args.simpoint:
        raise CliError("--interval requires --simpoint")
    if args.max_k is not None and not args.simpoint:
        raise CliError("--max-k requires --simpoint")
    if args.interval is not None and args.interval <= 0:
        raise CliError(f"--interval must be > 0, got {args.interval}")
    if args.max_k is not None and args.max_k <= 0:
        raise CliError(f"--max-k must be > 0, got {args.max_k}")
    if args.trace_capacity < 1:
        raise CliError(f"--trace-capacity must be >= 1, "
                       f"got {args.trace_capacity}")
    if args.trace_machine_capacity < 0:
        raise CliError(f"--trace-machine-capacity must be >= 0, "
                       f"got {args.trace_machine_capacity}")


def _engine_from(args, echo) -> EvalEngine:
    _validate_engine_args(args)
    trace = None
    if args.trace_out:
        from .telemetry.spans import TraceOptions

        trace = TraceOptions(capacity=args.trace_capacity,
                             machine_capacity=args.trace_machine_capacity)
    engine = EvalEngine(jobs=args.jobs, cache_dir=args.cache_dir,
                        use_cache=not args.no_cache, echo=echo,
                        cell_timeout=args.cell_timeout,
                        max_retries=args.max_retries,
                        retry_backoff=args.retry_backoff,
                        resume=args.resume, trace=trace,
                        provenance=getattr(args, "provenance", False))
    if not args.simpoint:
        return engine
    from .eval.sampling import (DEFAULT_INTERVAL, DEFAULT_MAX_K,
                                SamplingEngine, SimPointPlan)

    plan = SimPointPlan(
        interval=args.interval if args.interval is not None
        else DEFAULT_INTERVAL,
        max_k=args.max_k if args.max_k is not None else DEFAULT_MAX_K)
    return SamplingEngine(engine, plan=plan, echo=echo)


def _read_program(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise CliError(f"cannot read assembly file {path!r}: "
                       f"{error.strerror or error}") from error


def _file_source(path: str, no_heap_library: bool,
                 source: Optional[str] = None) -> str:
    """The program text at ``path``, with the heap library appended
    unless ``no_heap_library`` is set or the program defines ``malloc``
    itself.  ``source`` is the file's text when the caller has already
    read it."""
    if source is None:
        source = _read_program(path)
    if not no_heap_library and "malloc:" not in source:
        source += "\n" + heap_library_asm()
    return source


def _assemble_file(path: str, no_heap_library: bool,
                   source: Optional[str] = None):
    """Assemble the program at ``path`` (see :func:`_file_source`),
    named by its path."""
    return assemble(_file_source(path, no_heap_library, source), name=path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CHEx86 (ISCA 2020) reproduction: microcode-enabled "
                    "capabilities for x86 memory safety.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="assemble and run a program file")
    run_p.add_argument("file", help="assembly source (mini-x86 dialect)")
    _add_variant_arg(run_p)
    run_p.add_argument("--trap", action="store_true",
                       help="halt at the first violation")
    run_p.add_argument("--max-instructions", type=int, default=2_000_000)
    run_p.add_argument("--no-heap-library", action="store_true",
                       help="do not append the standard heap library")
    run_p.add_argument("--translate", action="store_true",
                       help="statically instrument with capchk instructions "
                            "and run under the bt-isa-extension variant")
    _add_profile_args(run_p)
    run_p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the full telemetry-registry snapshot "
                            "as JSON")
    run_p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="attach the event tracer and write the "
                            "retained events")
    run_p.add_argument("--trace-format", default="jsonl",
                       choices=("jsonl", "chrome"),
                       help="trace export format: JSON lines or Chrome "
                            "trace_event (Perfetto / chrome://tracing)")
    run_p.add_argument("--trace-capacity", type=int, default=65536,
                       metavar="N",
                       help="event ring-buffer size; oldest events are "
                            "dropped past this (default: 65536)")
    run_p.add_argument("--provenance", action="store_true",
                       help="record context-sensitive provenance: "
                            "violations gain alloc/free/access chains and "
                            "an attribution report is written")
    run_p.add_argument("--provenance-dir", default="results/provenance",
                       metavar="DIR",
                       help="directory for provenance reports "
                            "(default: results/provenance)")

    wl_p = sub.add_parser("workload", help="run a built-in benchmark")
    wl_p.add_argument("name", choices=BENCHMARK_ORDER)
    _add_variant_arg(wl_p)
    wl_p.add_argument("--scale", type=int, default=1)
    _add_profile_args(wl_p)
    wl_p.add_argument("--metrics-out", default=None, metavar="FILE",
                      help="write the merged per-core telemetry snapshot "
                           "as JSON")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("number", choices=sorted(_FIGURES))
    fig_p.add_argument("--scale", type=int, default=1)
    _add_engine_args(fig_p)
    fig_p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the per-cell metrics sidecar "
                            "(engine-backed figures only)")
    fig_p.add_argument("--provenance", action="store_true",
                       help="arm provenance recording in every cell and "
                            "write per-workload attribution reports "
                            "(engine-backed figures only)")
    fig_p.add_argument("--provenance-dir", default="results/provenance",
                       metavar="DIR",
                       help="directory for provenance reports "
                            "(default: results/provenance)")

    tab_p = sub.add_parser("table", help="regenerate a paper table")
    tab_p.add_argument("number", choices=sorted(_TABLES))
    tab_p.add_argument("--scale", type=int, default=1)
    _add_engine_args(tab_p)
    tab_p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the per-cell metrics sidecar "
                            "(engine-backed tables only)")
    tab_p.add_argument("--provenance", action="store_true",
                       help="arm provenance recording in every cell and "
                            "write per-workload attribution reports "
                            "(engine-backed tables only)")
    tab_p.add_argument("--provenance-dir", default="results/provenance",
                       metavar="DIR",
                       help="directory for provenance reports "
                            "(default: results/provenance)")

    trace_p = sub.add_parser(
        "trace", help="run a program with the event tracer attached and "
                      "inspect/export the capability events")
    trace_p.add_argument("file", help="assembly source (mini-x86 dialect)")
    _add_variant_arg(trace_p)
    trace_p.add_argument("--kind", action="append", choices=EVENT_KINDS,
                         metavar="KIND", default=None,
                         help="only show these event kinds (repeatable; "
                              f"choices: {', '.join(EVENT_KINDS)})")
    trace_p.add_argument("--pc", type=lambda s: int(s, 0), default=None,
                         metavar="ADDR",
                         help="only events at this instruction address "
                              "(accepts 0x hex)")
    trace_p.add_argument("--limit", type=int, default=50, metavar="N",
                         help="print at most the last N matching events "
                              "(default: 50; 0 = all retained)")
    trace_p.add_argument("--capacity", type=int, default=65536, metavar="N",
                         help="event ring-buffer size (default: 65536)")
    trace_p.add_argument("--out", default=None, metavar="FILE",
                         help="also write the matching events to FILE")
    trace_p.add_argument("--format", default="text",
                         choices=("text", "jsonl", "chrome"),
                         help="--out format (default: text)")
    trace_p.add_argument("--max-instructions", type=int, default=2_000_000)
    trace_p.add_argument("--no-heap-library", action="store_true",
                         help="do not append the standard heap library")

    att_p = sub.add_parser(
        "attribute", help="context-sensitive cost attribution: run with "
                          "provenance armed and report which call chains "
                          "pay for capability checks")
    att_p.add_argument("target",
                       help="assembly source file, or a built-in workload "
                            f"name ({', '.join(BENCHMARK_ORDER)})")
    _add_variant_arg(att_p)
    att_p.add_argument("--top", type=int, default=20, metavar="N",
                       help="show the N hottest entries (0 = all; "
                            "default: 20)")
    att_p.add_argument("--format", default="collapsed",
                       choices=("json", "collapsed", "annotate"),
                       help="collapsed: flamegraph folded stacks; "
                            "annotate: disassembly heatmap; json: the "
                            "full structured report (default: collapsed)")
    att_p.add_argument("--counter", default="capchecks",
                       choices=("capchecks", "alias_walks",
                                "uop_injections"),
                       help="cost family to attribute (default: capchecks)")
    att_p.add_argument("--scale", type=int, default=1,
                       help="workload scale (workload targets only)")
    att_p.add_argument("--max-instructions", type=int, default=2_000_000)
    att_p.add_argument("--no-heap-library", action="store_true",
                       help="do not append the standard heap library "
                            "(file targets only)")
    att_p.add_argument("--out", default=None, metavar="FILE",
                       help="also write the rendered output to FILE")

    sec_p = sub.add_parser("security", help="run the exploit suites")
    sec_p.add_argument("--ripe-limit", type=int, default=None,
                       help="subsample RIPE to this many cases")

    dbg_p = sub.add_parser("debug", help="interactive machine debugger")
    dbg_p.add_argument("file", help="assembly source (mini-x86 dialect)")
    _add_variant_arg(dbg_p)
    dbg_p.add_argument("--no-heap-library", action="store_true")

    rep_p = sub.add_parser(
        "reproduce", help="regenerate every artifact into a directory")
    rep_p.add_argument("--out", default="results")
    rep_p.add_argument("--scale", type=int, default=1)
    rep_p.add_argument("--ripe-limit", type=int, default=None)
    _add_engine_args(rep_p)
    rep_p.add_argument("--profile", action="store_true",
                       help="write profile.prof and a \"profile\" section "
                            "(top functions) in summary.json")

    status_p = sub.add_parser(
        "status", help="show live/resumable sweep progress from the "
                       "journal under the cell-cache directory")
    status_p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                          help=f"cell cache directory to inspect "
                               f"(default: {DEFAULT_CACHE_DIR})")
    status_p.add_argument("--json", action="store_true",
                          help="emit the status as JSON instead of text")
    status_p.add_argument("--watch", type=float, default=None,
                          metavar="SECONDS",
                          help="refresh every SECONDS until interrupted")

    bench_p = sub.add_parser(
        "bench", help="benchmark-record tooling (perf-regression history)")
    bench_p.add_argument("action", choices=("history",),
                         help="history: compare committed BENCH_*.json "
                              "records against the checked-in baseline")
    bench_p.add_argument("--dir", default=".", metavar="DIR",
                         help="directory holding the BENCH_*.json records "
                              "(default: repo root)")
    bench_p.add_argument("--baseline", default=None, metavar="FILE",
                         help="hotloop baseline JSON (default: "
                              "benchmarks/bench_hotloop_baseline.json "
                              "under --dir)")
    bench_p.add_argument("--max-regression", type=float, default=None,
                         metavar="FRACTION",
                         help="throughput-regression gate as a fraction "
                              "(default: 0.30, matching CI's perf-smoke)")
    bench_p.add_argument("--max-error", type=float, default=None,
                         metavar="FRACTION",
                         help="SimPoint worst-case relative-error gate "
                              "(default: 0.10)")
    bench_p.add_argument("--check", action="store_true",
                         help="exit 1 if any metric regressed beyond its "
                              "gate (for CI)")
    bench_p.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of text")

    fuzz_p = sub.add_parser(
        "fuzz", help="coverage-guided differential fuzzing campaign")
    fuzz_p.add_argument("--seeds", type=int, default=50, metavar="N",
                        help="number of generator seeds to sweep "
                             "(default: 50)")
    fuzz_p.add_argument("--seed-base", type=int, default=0, metavar="BASE",
                        help="first seed of the range (default: 0)")
    fuzz_p.add_argument("--budget", type=int, default=FUZZ_DEFAULT_BUDGET,
                        metavar="N",
                        help="instruction budget per oracle machine "
                             f"(default: {FUZZ_DEFAULT_BUDGET})")
    fuzz_p.add_argument("--corpus-dir", default=DEFAULT_CORPUS_DIR,
                        metavar="DIR",
                        help="persistent corpus directory; interesting "
                             "seeds and shrunk reproducers accumulate "
                             f"here (default: {DEFAULT_CORPUS_DIR})")
    fuzz_p.add_argument("--shrink", action="store_true", default=True,
                        dest="shrink",
                        help="minimize failing programs before reporting "
                             "(default)")
    fuzz_p.add_argument("--no-shrink", action="store_false", dest="shrink",
                        help="report failures without minimizing them")
    fuzz_p.add_argument("--bug", default="", metavar="SPEC",
                        help="oracle-sensitivity mode: inject a known bug "
                             "(kind[:role][@index], e.g. "
                             "'skip-capcheck:diff:superblock'); the "
                             "campaign must then FAIL — used by the "
                             "sensitivity tests and CI, see "
                             "docs/fuzzing.md")
    _add_engine_args(fuzz_p)

    met_p = sub.add_parser(
        "metrics", help="metrics-export tooling (structured diffing)")
    met_p.add_argument("action", choices=("diff",),
                       help="diff: compare two metrics exports")
    met_p.add_argument("files", nargs=2, metavar="FILE",
                       help="two metrics files: --metrics-out snapshots, "
                            "engine per-cell sidecars, or bare "
                            "name->value JSON")
    met_p.add_argument("--tolerance", type=float, default=0.0,
                       metavar="T",
                       help="allowed drift per changed metric: absolute "
                            "for ratio-like metrics, relative otherwise "
                            "(default: 0 = exact)")
    met_p.add_argument("--json", action="store_true",
                       help="emit the diff as JSON instead of text")

    sub.add_parser("list", help="list benchmarks, variants, suites")
    return parser


def cmd_run(args) -> int:
    from pathlib import Path

    program = _assemble_file(args.file, args.no_heap_library)
    variant = _VARIANTS[args.variant]
    if args.translate:
        from .translator import translate

        program, report = translate(program)
        variant = Variant.BT_ISA_EXTENSION
        print(f"binary translation: {report.instrumented} accesses "
              f"instrumented (+{report.code_growth} instructions)")
    machine = Chex86Machine(program, variant=variant,
                            halt_on_violation=args.trap)
    if args.provenance:
        machine.attach(ProvenanceRecorder(program))
    tracer = None
    if args.trace_out:
        if args.trace_capacity < 1:
            raise CliError(f"--trace-capacity must be >= 1, "
                           f"got {args.trace_capacity}")
        tracer = machine.attach(EventTracer(capacity=args.trace_capacity))
    profiler = _start_profiler(args)
    result = machine.run(max_instructions=args.max_instructions)
    if profiler is not None:
        _finish_profiler(profiler, _profile_out(args, Path(args.file).stem))
        _print_metrics(machine.metrics_snapshot())
    print(machine.stats_summary())
    for violation in result.violations.violations:
        print(f"VIOLATION: {violation}")
    if result.flagged:
        from .analysis.diagnostics import explain_all_violations

        print()
        print(explain_all_violations(machine))
    if args.metrics_out:
        write_snapshot(args.metrics_out, machine.metrics_snapshot(),
                       meta={"program": args.file, "variant": args.variant})
        print(f"metrics: wrote {args.metrics_out}", file=sys.stderr)
    if tracer is not None:
        if args.trace_format == "chrome":
            tracer.write_chrome(args.trace_out,
                                process_name=Path(args.file).stem)
        else:
            tracer.write_jsonl(args.trace_out)
        print(f"trace: wrote {len(tracer)} event(s) to {args.trace_out} "
              f"({tracer.dropped} dropped)", file=sys.stderr)
    if args.provenance:
        from .telemetry import provenance as prov_mod

        stem = Path(args.file).stem
        cell = prov_mod.cell_export(machine, f"{stem}/{args.variant}")
        json_path, collapsed_path = prov_mod.write_report(
            args.provenance_dir, stem, [cell])
        print(f"provenance: wrote {json_path} + {collapsed_path}",
              file=sys.stderr)
    return 1 if result.flagged else 0


def cmd_workload(args) -> int:
    from .eval.common import run_benchmark

    workload = build(args.name, args.scale)
    profiler = _start_profiler(args)
    run = run_benchmark(workload, _VARIANTS[args.variant])
    if profiler is not None:
        _finish_profiler(profiler, _profile_out(args, workload.name))
        _print_metrics(run.metrics)
    if args.metrics_out:
        write_snapshot(args.metrics_out, run.metrics,
                       meta={"workload": workload.name,
                             "variant": args.variant,
                             "scale": args.scale})
        print(f"metrics: wrote {args.metrics_out}", file=sys.stderr)
    print(f"{workload.name} ({workload.suite}, {workload.threads} thread(s)) "
          f"under {args.variant}:")
    print(f"  instructions      {run.instructions:>12,}")
    print(f"  uops              {run.uops:>12,} "
          f"({run.injected_uops:,} injected)")
    print(f"  cycles            {run.cycles:>12,}")
    print(f"  capability$ miss  {run.capcache_miss_rate:>11.1%}")
    print(f"  alias$ miss       {run.aliascache_miss_rate:>11.1%}")
    print(f"  reload mispredict {run.predictor_misprediction_rate:>11.1%}")
    print(f"  squash time       {run.squash_fraction:>11.1%}")
    print(f"  shadow storage    {run.shadow_rss_bytes:>12,} B")
    print(f"  bandwidth         {run.bandwidth_mb_per_s:>10.1f} MB/s")
    return 0


def _echo_stderr(message: str) -> None:
    # Engine progress goes to stderr so stdout stays exactly the
    # rendered figure/table (pipeable, byte-comparable).
    print(message, file=sys.stderr)


def _write_cell_sidecar(engine: EvalEngine, module, args,
                        artifact: str) -> None:
    engine.write_metrics(args.metrics_out,
                         module.cell_specs(scale=args.scale), artifact)
    print(f"metrics: wrote {args.metrics_out}", file=sys.stderr)


def _write_sweep_trace(engine, args, label: str) -> None:
    document = engine.write_trace(args.trace_out, label=label)
    print(f"trace: wrote {len(document['traceEvents'])} trace event(s) "
          f"to {args.trace_out}", file=sys.stderr)


def cmd_artifact(args) -> int:
    """``figure N`` / ``table N``.  An artifact is engine-backed when its
    driver names its cells (``cell_specs``)."""
    artifacts, stem = ((_FIGURES, "fig") if args.command == "figure"
                       else (_TABLES, "table"))
    module = artifacts[args.number]
    _validate_engine_args(args)
    engine_backed = hasattr(module, "cell_specs")
    for flag, value in (("--metrics-out", args.metrics_out),
                        ("--trace-out", args.trace_out),
                        ("--provenance", args.provenance)):
        if value and not engine_backed:
            numbers = sorted(number for number, other in artifacts.items()
                             if hasattr(other, "cell_specs"))
            raise CliError(f"{flag} requires an engine-backed "
                           f"{args.command} ({', '.join(numbers)})")
    if module in (fig1, table3):
        result = module.run()
    elif engine_backed:
        artifact = f"{stem}{args.number}"
        engine = _engine_from(args, _echo_stderr)
        result = module.run(scale=args.scale, engine=engine)
        if args.metrics_out:
            _write_cell_sidecar(engine, module, args, artifact)
        if args.trace_out:
            _write_sweep_trace(engine, args, artifact)
        if args.provenance:
            engine.write_provenance(args.provenance_dir, artifact)
    else:
        result = module.run(scale=args.scale)
    print(result.format_text())
    return 0


def cmd_attribute(args) -> int:
    import json as json_mod
    from pathlib import Path

    from .pipeline.multicore import MulticoreMachine
    from .telemetry import provenance as prov_mod
    from .workloads.base import Workload

    if args.target in BENCHMARK_ORDER:
        workload = build(args.target, args.scale)
    else:
        workload = Workload(
            name=Path(args.target).stem, suite="file",
            source=_file_source(args.target, args.no_heap_library),
            description=args.target)
    process = MulticoreMachine(workload, _VARIANTS[args.variant],
                               halt_on_violation=False)
    recorders = [core.attach(ProvenanceRecorder(core.program))
                 for core in process.cores]
    process.run(max_instructions_per_core=args.max_instructions)
    # Each core records alone; the cores merge as an engine cell's do.
    label = f"{workload.name}/{args.variant}"
    cells = [prov_mod.cell_export(core, label + (f" core{index}"
                                                 if index else ""))
             for index, core in enumerate(process.cores)]
    document = prov_mod.report(label, cells)
    merged = document["workloads"][workload.name]
    folded = merged["collapsed"][args.counter]
    if args.format == "json":
        rendered = json_mod.dumps(document, indent=2, sort_keys=True)
    elif args.format == "annotate":
        rendered = "\n".join(prov_mod.annotated_disassembly(
            recorders, args.counter, top=args.top))
    else:
        rendered = "\n".join(prov_mod.collapsed_lines(folded, top=args.top))
    print(rendered)
    print(f"attribute: {merged['totals'][args.counter]:,} {args.counter} "
          f"event(s) across {len(folded)} context(s) on "
          f"{len(process.cores)} core(s); {len(merged['violations'])} "
          f"violation(s)", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"attribute: wrote {args.out}", file=sys.stderr)
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import BugSpecError, BugInjection, FuzzOptions, run_campaign

    _validate_engine_args(args)
    if args.simpoint:
        raise CliError("fuzz cells are not samplable (drop --simpoint)")
    if args.seeds < 1:
        raise CliError(f"--seeds must be >= 1, got {args.seeds}")
    if args.seed_base < 0:
        raise CliError(f"--seed-base must be >= 0, got {args.seed_base}")
    if args.budget < 1:
        raise CliError(f"--budget must be >= 1, got {args.budget}")
    if args.bug:
        try:
            BugInjection.parse(args.bug)
        except BugSpecError as error:
            raise CliError(str(error)) from error

    engine = _engine_from(args, _echo_stderr)
    options = FuzzOptions(seeds=args.seeds, seed_base=args.seed_base,
                          budget=args.budget, corpus_dir=args.corpus_dir,
                          shrink=args.shrink, bug=args.bug)
    report = run_campaign(engine, options, echo=_echo_stderr)
    if args.trace_out:
        _write_sweep_trace(engine, args, "fuzz")
    print(report.format_text())
    return 0 if report.ok else 1


def cmd_security(args) -> int:
    result = security.run(ripe_limit=args.ripe_limit)
    print(result.format_text())
    return 0 if result.all_flagged() else 1


def _load_trace_events(path: str, text: str):
    """Load ``path``, whose contents are ``text``, as a trace export if
    it looks like one.

    Returns a list of :class:`TraceEvent` for (a) engine-produced merged
    Chrome traces (``--trace-out`` on figure/table/reproduce — machine
    events are recovered from their pid 1000+ swimlanes), (b)
    machine-ring Chrome exports (``run --trace-format chrome``), and
    (c) machine-ring JSONL exports.  Returns ``None`` when the file is
    not JSON-shaped at all (an assembly program).  A ``.json``/
    ``.jsonl`` file that fails to parse raises :class:`CliError` rather
    than being fed to the assembler.
    """
    import json as json_mod
    from pathlib import Path

    from .telemetry import TraceEvent
    from .telemetry.collate import chrome_document, machine_trace_events

    explicit = Path(path).suffix.lower() in (".json", ".jsonl")
    head = text.lstrip()[:1]
    if not explicit and head not in ("{", "["):
        return None

    try:
        document = json_mod.loads(text)
    except ValueError:
        document = None
    if document is not None:
        # Whole-file JSON: a Chrome trace_event document (merged sweep
        # trace or machine-ring chrome export), possibly bare-array.
        try:
            return machine_trace_events(chrome_document(document, path))
        except ValueError as error:
            raise CliError(f"{path}: {error}") from error

    # JSON lines: one machine event object per line (write_jsonl).
    events = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json_mod.loads(line)
        except ValueError as error:
            if explicit:
                raise CliError(f"{path}:{number}: not valid JSONL: "
                               f"{error}") from error
            return None
        if not isinstance(record, dict) or "kind" not in record:
            if explicit:
                raise CliError(f"{path}:{number}: not a trace record "
                               f"(missing \"kind\")")
            return None
        fields = {name: value for name, value in record.items()
                  if name not in ("ts", "kind", "pc")}
        pc = record.get("pc", 0)
        if isinstance(pc, str):
            pc = int(pc, 0)
        events.append(TraceEvent(ts=int(record.get("ts", 0)),
                                 kind=str(record["kind"]),
                                 pc=int(pc), fields=fields))
    return events


def _inspect_trace_events(events, args, tracer=None) -> int:
    """The filter/print/export tail of ``repro trace``.

    ``events`` come from a loaded trace file, or are the ring ``tracer``
    retained in a live run; the live summary counts every retained event
    (not only the matching ones) and reports the emitted and dropped
    totals.
    """
    from pathlib import Path

    retained = events
    if args.kind:
        wanted = set(args.kind)
        events = [event for event in events if event.kind in wanted]
    if args.pc is not None:
        events = [event for event in events if event.pc == args.pc]
    shown = events if not args.limit else events[-args.limit:]
    for event in shown:
        print(event.format_text())
    if len(shown) < len(events):
        print(f"... showing last {len(shown)} of {len(events)} matching "
              f"event(s); raise --limit for more", file=sys.stderr)

    counts: dict = {}
    for event in (events if tracer is None else retained):
        counts[event.kind] = counts.get(event.kind, 0) + 1
    summary = ", ".join(f"{kind}={counts[kind]}" for kind in EVENT_KINDS
                        if kind in counts) or "none"
    totals = (f"{len(events)} loaded" if tracer is None
              else f"{tracer.emitted} emitted, {tracer.dropped} dropped")
    print(f"events: {totals} ({summary})", file=sys.stderr)

    if args.out:
        exporter = EventTracer(capacity=1)
        if args.format == "chrome":
            exporter.write_chrome(args.out,
                                  process_name=Path(args.file).stem,
                                  events=events)
        elif args.format == "jsonl":
            exporter.write_jsonl(args.out, events=events)
        else:
            Path(args.out).write_text(
                "\n".join(event.format_text() for event in events)
                + ("\n" if events else ""))
        print(f"trace: wrote {len(events)} event(s) to {args.out}",
              file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    if args.capacity < 1:
        raise CliError(f"--capacity must be >= 1, got {args.capacity}")
    if args.limit < 0:
        raise CliError(f"--limit must be >= 0, got {args.limit}")
    text = _read_program(args.file)
    loaded = _load_trace_events(args.file, text)
    if loaded is not None:
        return _inspect_trace_events(loaded, args)
    program = _assemble_file(args.file, args.no_heap_library, source=text)
    machine = Chex86Machine(program, variant=_VARIANTS[args.variant],
                            halt_on_violation=False)
    tracer = machine.attach(EventTracer(capacity=args.capacity))
    machine.run(max_instructions=args.max_instructions)
    return _inspect_trace_events(tracer.records(), args, tracer)


def cmd_debug(args) -> int:
    from .debugger import debug_program

    program = _assemble_file(args.file, args.no_heap_library)
    debug_program(program, variant=_VARIANTS[args.variant])
    return 0


def cmd_reproduce(args) -> int:
    from .eval.runner import reproduce

    engine = _engine_from(args, print)
    reproduce(out_dir=args.out, scale=args.scale,
              ripe_limit=args.ripe_limit, engine=engine,
              profile=args.profile)
    if args.trace_out:
        _write_sweep_trace(engine, args, "reproduce")
    return 0


def cmd_status(args) -> int:
    import json as json_mod
    import time

    from .eval.status import read_status

    while True:
        status = read_status(args.cache_dir)
        if args.json:
            print(json_mod.dumps(status.to_dict(), indent=2, sort_keys=True))
        else:
            print(status.format_text())
        if args.watch is None:
            return 0
        if args.watch <= 0:
            raise CliError(f"--watch must be > 0, got {args.watch}")
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0
        print()


def cmd_bench(args) -> int:
    import json as json_mod

    from .analysis import benchtrack

    if args.max_regression is not None and args.max_regression < 0:
        raise CliError(f"--max-regression must be >= 0, "
                       f"got {args.max_regression}")
    if args.max_error is not None and args.max_error < 0:
        raise CliError(f"--max-error must be >= 0, got {args.max_error}")
    report = benchtrack.collect(
        record_dir=args.dir, baseline_path=args.baseline,
        max_regression=(args.max_regression
                        if args.max_regression is not None
                        else benchtrack.DEFAULT_MAX_REGRESSION),
        max_error=(args.max_error if args.max_error is not None
                   else benchtrack.DEFAULT_MAX_ERROR))
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    if args.check and report.regressions():
        return 1
    return 0


def cmd_metrics(args) -> int:
    import json as json_mod

    from .telemetry.diffs import diff_snapshots, load_metrics

    if args.tolerance < 0:
        raise CliError(f"--tolerance must be >= 0, got {args.tolerance}")
    try:
        a = load_metrics(args.files[0])
        b = load_metrics(args.files[1])
    except ValueError as error:
        raise CliError(str(error)) from error
    diff = diff_snapshots(a, b, tolerance=args.tolerance)
    if args.json:
        print(json_mod.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.format_text())
    return 0 if diff.clean else 1


def cmd_list(_args) -> int:
    print("benchmarks:", ", ".join(BENCHMARK_ORDER))
    print("variants:  ", ", ".join(sorted(_VARIANTS)))
    print("figures:   ", ", ".join(sorted(_FIGURES)))
    print("tables:    ", ", ".join(sorted(_TABLES)))
    print("suites:     RIPE (850), ASan suite (15), How2Heap (18)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "workload": cmd_workload,
        "figure": cmd_artifact,
        "table": cmd_artifact,
        "attribute": cmd_attribute,
        "security": cmd_security,
        "fuzz": cmd_fuzz,
        "trace": cmd_trace,
        "debug": cmd_debug,
        "reproduce": cmd_reproduce,
        "status": cmd_status,
        "bench": cmd_bench,
        "metrics": cmd_metrics,
        "list": cmd_list,
    }[args.command]
    try:
        return handler(args)
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
    except CellFailure as error:
        # Simulation cells exhausted their retry budget: not a usage
        # mistake (exit 1, not 2).  Completed cells stay cached and
        # journaled, so re-running with --resume recomputes only these.
        for spec, reason in error.failures:
            print(f"error: cell {spec.label} failed permanently: {reason}",
                  file=sys.stderr)
        print("error: fix the cause and re-run with --resume to recompute "
              "only the failed cells", file=sys.stderr)
        sys.exit(1)
    except FileNotFoundError as error:
        # Anything the handlers did not anticipate (argparse already
        # rejects unknown workload/figure/table names with status 2).
        print(f"error: no such file: {error.filename}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    sys.exit(main())
