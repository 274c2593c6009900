"""The four end-to-end workloads: set-up, timed phase, traced phase, checks.

Each workload function returns a :class:`Result` holding every metric it
measured (end-to-end, per-layer and informational), the number of
operations attempted and failed, and a description of each failure.
``run.py`` decides which of those metrics go into the one-line JSON
result.

Host times come from ``time.perf_counter`` and are scaled to a reference
host by the reference kernel (``hostspeed.py``); simulated quantities come
from the simulator's own telemetry registry and repeat exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Sequence

from hostspeed import REFERENCE_KERNEL_S, HostProbe
from layers import LAYERS, StackSampler

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
FIG6_REFERENCE = ROOT / "results" / "fig6.txt"

#: The steady workloads' programs: pointer chasing (mcf), branchy integer
#: code (deepsjeng), streaming floating point (lbm) and a four-thread
#: PARSEC run whose multicore quanta also take the per-instruction
#: ``step()`` path (canneal).
STEADY_PROGRAMS = ("mcf", "deepsjeng", "lbm", "canneal")
STEADY_SCALE = 2

#: fuzz-cold's corpus: generator seeds ``[0, FUZZ_CORPUS)``, run in an
#: order the benchmark seed shuffles.  The seed does not choose the
#: programs: over ~250 programs, which programs run moves the mean program
#: time by several percent, more than the bounds are meant to resolve.
FUZZ_CORPUS = 250
#: Every tenth program is re-run on the reference (per-instruction) path.
FUZZ_EVERY = 10

#: Set-up repetitions: three of the steady workloads' (each a cold pass
#: of a few seconds), five of the others' (each well under a second).
SETUP_REPEATS = 3
CHEAP_SETUP_REPEATS = 5
CLI_TIMEOUT_S = 170

#: Percentile reported as ``op_ms.tail``, fixed per workload so that it
#: means the same thing whatever the run length: fig6-cold has 84 cells
#: (12 beyond p85), fuzz-cold 250 programs (12 beyond p95).  The steady
#: workloads report over their four programs' median run times.
TAIL_PCT = {"steady": 90.0, "fig6-cold": 85.0, "fuzz-cold": 95.0}

#: Modules each in-process workload imports; their import time, in a
#: fresh interpreter, is part of ``setup_s``.
STEADY_IMPORTS = ("repro.eval.common", "repro.workloads",
                  "repro.core.sbcompile")
FUZZ_IMPORTS = ("repro.fuzz.generator", "repro.fuzz.oracles",
                "repro.core.machine", "repro.isa.assembler")

#: Registry counters the per-layer count metrics sum over a unit of work.
COUNTERS = (
    "machine.instructions", "timing.cycles", "timing.uops",
    "frontend.superblock_instructions", "frontend.superblock_bailouts",
    "frontend.superblocks_compiled", "frontend.blocks_compiled",
    "timing.rob_stall_events", "timing.squash_cycles",
    "machine.mcu.capchecks", "machine.mcu.injected_uops",
    "cache.cap.accesses", "cache.cap.misses",
    "cache.alias.accesses", "cache.alias.misses",
    "predictor.lookups", "predictor.mispredictions",
    "timing.l1d_misses", "timing.l2_misses",
)

now = time.perf_counter


class Result:
    """Metrics and outcome counts of one workload run.

    ``kernel_s`` holds the reference-kernel times taken between the
    run's operations.  An operation's time is scaled by
    ``REFERENCE_KERNEL_S`` over the kernel times around it (see
    :func:`scaled`), and a time made of operations is made of their
    scaled times.  The unscaled values are kept as ``raw.<name>``.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.kernel_s: List[float] = []
        self._probe = HostProbe()

    @property
    def probe_rss_mb(self) -> float:
        return self._probe.rss_mb

    def probe_host(self) -> None:
        """Time one kernel run into ``kernel_s``."""
        self.kernel_s.append(self._probe.time())

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def put_host(self, name: str, raw: float, fair: float,
                 unit: str) -> None:
        """A host time or rate, raw and scaled to the reference host."""
        self.put(name, fair, unit)
        self.put(f"raw.{name}", raw, unit)
        self.put("host.kernel_s", statistics.median(self.kernel_s), "s")

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; record ``problem`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def to_dict(self) -> Dict[str, object]:
        return {"workload": self.workload, "seed": self.seed,
                "correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "problems": self.problems,
                "metrics": self.metrics}


# -- shared helpers -----------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def stripped_digest(metrics: Dict[str, float]) -> str:
    """sha256 of a registry snapshot without the ``frontend.*`` meters,
    which measure the simulator's own caches rather than the model."""
    from repro.fuzz.oracles import strip_frontend

    text = json.dumps(strip_frontend(metrics), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sum_counters(snapshots: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: sum(snap.get(key, 0) for snap in snapshots)
            for key in COUNTERS}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def put_counts(result: Result, counts: Dict[str, float]) -> None:
    """The exact per-layer counts over one unit of work."""
    instructions = counts["machine.instructions"]
    result.put("frontend.superblock_coverage",
               ratio(counts["frontend.superblock_instructions"],
                     instructions), "fraction")
    result.put("frontend.bailouts_per_kinstr",
               ratio(1000.0 * counts["frontend.superblock_bailouts"],
                     instructions), "1/kinstr")
    result.put("sim.instructions", instructions, "count")
    result.put("compile.superblocks_compiled",
               counts["frontend.superblocks_compiled"], "count")
    result.put("compile.blocks_compiled",
               counts["frontend.blocks_compiled"], "count")
    result.put("timing.uops", counts["timing.uops"], "count")
    result.put("timing.rob_stall_events", counts["timing.rob_stall_events"],
               "count")
    result.put("timing.squash_cycles", counts["timing.squash_cycles"],
               "count")
    result.put("capability.capchecks", counts["machine.mcu.capchecks"],
               "count")
    result.put("capability.injected_uops",
               counts["machine.mcu.injected_uops"], "count")
    result.put("capability.capcache_miss_ratio",
               ratio(counts["cache.cap.misses"], counts["cache.cap.accesses"]),
               "ratio")
    result.put("tracker.aliascache_miss_ratio",
               ratio(counts["cache.alias.misses"],
                     counts["cache.alias.accesses"]), "ratio")
    result.put("predictor.lookups", counts["predictor.lookups"], "count")
    result.put("predictor.mispredict_ratio",
               ratio(counts["predictor.mispredictions"],
                     counts["predictor.lookups"]), "ratio")
    result.put("memory.l1d_misses", counts["timing.l1d_misses"], "count")
    result.put("memory.l2_misses", counts["timing.l2_misses"], "count")
    result.put("sim.ipc", ratio(instructions, counts["timing.cycles"]),
               "instr/cycle")


def put_layers(result: Result, cpu_s: Dict[str, float], units: float,
               counts: Dict[str, float]) -> None:
    """Layer self time (CPU seconds, unscaled) per unit of work and its
    share, plus host cost per simulated event.  ``counts`` covers the
    same traced work as ``cpu_s``."""
    total = sum(cpu_s.values())
    for layer in LAYERS:
        result.put(f"layer.{layer}.self_s", cpu_s[layer] / units, "s")
        result.put(f"layer.{layer}.frac", ratio(cpu_s[layer], total),
                   "fraction")
    result.put("timing.host_ns_per_uop",
               ratio(1e9 * cpu_s["timing"], counts["timing.uops"]), "ns")
    result.put("replay.host_ns_per_instr",
               ratio(1e9 * cpu_s["replay"],
                     counts["frontend.superblock_instructions"]), "ns")
    result.put("compile.ms_per_superblock",
               ratio(1e3 * cpu_s["compile"],
                     counts["frontend.superblocks_compiled"]), "ms")


def put_trace(result: Result, samples: int, overhead: float) -> None:
    result.put("trace.samples", samples, "count")
    result.put("trace.overhead_frac", overhead, "fraction")


def paired(sampler: StackSampler, operation, traced_first: bool,
           prepare=None) -> tuple:
    """Run ``operation()`` twice back to back, once sampled and once not,
    in the order ``traced_first`` gives; returns the ratio of the sampled
    run's time to the other's, and the sampled run's result.  The host's
    speed barely changes between two adjacent runs, so the ratio measures
    the sampler rather than the host.  Each run starts on a collected heap,
    after ``prepare()``."""
    seconds = {}
    value = None
    for traced in (traced_first, not traced_first):
        if prepare is not None:
            prepare()
        gc.collect()
        if traced:
            sampler.resume()
        begun = now()
        outcome = operation()
        seconds[traced] = now() - begun
        if traced:
            sampler.pause()
            value = outcome
    return seconds[True] / seconds[False], value


def scaled(raw_s: Sequence[float], kernel_s: Sequence[float]) -> List[float]:
    """Operation times scaled by the kernel times around them.

    ``kernel_s`` has one more entry than ``raw_s``: operation ``j`` ran
    between kernel runs ``j`` and ``j + 1``.  Each operation is scaled by
    the median of the two kernel runs on either side of it, which follows
    the host's speed from one operation to the next without passing on
    the jitter of a single kernel run.
    """
    return [raw * REFERENCE_KERNEL_S
            / statistics.median(kernel_s[max(0, j - 1):j + 3])
            for j, raw in enumerate(raw_s)]


def put_ops(result: Result, raw_s: Sequence[float],
            scaled_s: Sequence[float], tail_pct: float) -> None:
    """Operation latency: median and tail of the operations' times, raw
    and scaled by the kernel times around each operation."""
    for name, pct in (("op_ms.p50", 50.0), ("op_ms.tail", tail_pct)):
        result.put(name, 1000.0 * percentile(scaled_s, pct), "ms")
        result.put(f"raw.{name}", 1000.0 * percentile(raw_s, pct), "ms")
    result.put("op_ms.tail_pct", tail_pct, "%")
    result.put("op_ms.n", len(raw_s), "count")


def more_passes(pass_s: Sequence[float], minimum: int, started: float,
                seconds: float) -> bool:
    """Whole passes: at least ``minimum``, then more while one more pass
    is expected to end within ``seconds`` of ``started``."""
    if len(pass_s) < minimum:
        return True
    return now() - started + statistics.median(pass_s) <= seconds


def put_peak_rss(result: Result, with_children: bool = False) -> None:
    """``peak_rss_mb``: the process's ``ru_maxrss``, plus the largest
    child's, each without the reference kernel's memory, which every
    process that ran a workload holds from start to end."""
    probe_mb = result.probe_rss_mb
    peaks_mb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    if with_children:
        peaks_mb.append(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    result.put("peak_rss_mb", sum(peak - probe_mb for peak in peaks_mb), "MB")
    result.put("raw.peak_rss_mb", sum(peaks_mb), "MB")
    result.put("host.probe_rss_mb", probe_mb, "MB")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: List[str],
              stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run a Python child in its own session; on timeout the whole process
    group (the engine's workers too) is killed and reaped."""
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                            env=child_env(), stdout=stdout,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def pin_to_one_cpu() -> set:
    """Run this process, and the children it starts from now on, on one
    CPU; returns the CPUs it could run on before.  The host's other
    tenants load each CPU differently, so a kernel run measures the speed
    of the CPU it ran on only."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def timed_repeats(result: Result, operation, repeats: int,
                  prepare=None) -> tuple:
    """Time ``operation()`` ``repeats`` times, each after an untimed
    ``prepare()``, with a kernel run before the first and after each;
    returns the raw seconds and the seconds scaled by the kernel times
    around each."""
    raw = []
    result.probe_host()
    for _ in range(repeats):
        if prepare is not None:
            prepare()
        started = now()
        operation()
        raw.append(now() - started)
        result.probe_host()
    return raw, scaled(raw, result.kernel_s[-repeats - 1:])


def put_setup(result: Result, *steps: tuple) -> None:
    """``setup_s``: the sum of the set-up steps' medians over repeats.
    Each step is a pair of raw and scaled times, as from
    :func:`timed_repeats`."""
    result.put_host("setup_s",
                    sum(statistics.median(raw) for raw, _ in steps),
                    sum(statistics.median(fair) for _, fair in steps), "s")


def start_child(argv: List[str]) -> None:
    """Run a Python child to completion; raise if it fails."""
    done = run_child(argv, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise RuntimeError(f"{argv} failed:\n{done.stderr.decode()}")


def import_seconds(result: Result, modules: Sequence[str],
                   repeats: int) -> tuple:
    """Raw and scaled wall times of a fresh interpreter importing
    ``modules``."""
    return timed_repeats(
        result, partial(start_child, ["-c", "import " + ", ".join(modules)]),
        repeats)


def expected_key(program: str, variant: str, scale: int) -> str:
    return f"{program}/{variant}/{scale}"


def run_fingerprint(run) -> Dict[str, object]:
    """What ``expected.json`` pins for one ``BenchmarkRun``."""
    return {"instructions": run.instructions, "cycles": run.cycles,
            "violations": int(run.metrics.get("violations.count", 0)),
            "digest": stripped_digest(run.metrics)}


# -- steady-ucode / steady-insecure -------------------------------------------


def steady(workload: str, variant_name: str, seed: int, seconds: float,
           trace: bool, smoke: bool) -> Result:
    """``run_benchmark`` passes over :data:`STEADY_PROGRAMS` (the seed
    changes nothing: these inputs are fixed).

    Set-up (repeated, median reported): a fresh interpreter's imports,
    building the programs, and one untimed warm-up pass on an empty
    superblock code cache.  Timed: whole passes for ``seconds`` (at least
    three); an operation is one program's ``run_benchmark`` call, and
    ``wall_s`` is the sum of the programs' median times.
    """
    pin_to_one_cpu()
    result = Result(workload, seed)
    repeats = 1 if smoke else SETUP_REPEATS
    imports = import_seconds(result, STEADY_IMPORTS, repeats)
    from repro.core import sbcompile
    from repro.core.machine import Chex86Machine
    from repro.core.variants import Variant
    from repro.eval.common import run_benchmark
    from repro.isa.assembler import assemble
    from repro.workloads import build

    variant = Variant(variant_name)
    expected = json.loads(EXPECTED.read_text())

    def check(runs) -> None:
        for run in runs:
            key = expected_key(run.benchmark, variant_name, STEADY_SCALE)
            got = run_fingerprint(run)
            want = expected.get(key)
            result.check(got == want, f"{key}: got {got}, expected {want}")

    built: list = []
    build_s: List[float] = []

    def prepare() -> None:
        sbcompile._CODE_CACHE.clear()
        gc.collect()

    def set_up() -> None:
        started = now()
        built[:] = [build(name, STEADY_SCALE) for name in STEADY_PROGRAMS]
        build_s.append((now() - started) / len(built))
        check([run_benchmark(w, variant) for w in built])

    warm = timed_repeats(result, set_up, repeats, prepare)
    # Public-call probes, outside the set-up time.
    assemble_s, init_s = [], []
    for _ in range(repeats):
        started = now()
        programs = [assemble(w.source, name=w.name) for w in built]
        assemble_s.append((now() - started) / len(programs))
        started = now()
        for program in programs:
            Chex86Machine(program, variant=variant, halt_on_violation=False)
        init_s.append((now() - started) / len(programs))

    # Whole passes.  The kernel runs between programs, and each program's
    # time is scaled by the kernel times around it.  A typical pass is the
    # sum of the programs' median times, so that a slow spell during one
    # program's run does not choose the pass.
    pass_s: List[float] = []
    raw: Dict[str, List[float]] = {name: [] for name in STEADY_PROGRAMS}
    fair: Dict[str, List[float]] = {name: [] for name in STEADY_PROGRAMS}
    result.probe_host()
    started = now()
    while more_passes(pass_s, 1 if smoke else 3, started, seconds):
        runs, took = [], []
        for workload_obj in built:
            # A collected heap before each program, outside its time.
            gc.collect()
            begun = now()
            runs.append(run_benchmark(workload_obj, variant))
            took.append(now() - begun)
            result.probe_host()
        fair_took = scaled(took, result.kernel_s[-len(built) - 1:])
        for workload_obj, t, f in zip(built, took, fair_took):
            raw[workload_obj.name].append(t)
            fair[workload_obj.name].append(f)
        pass_s.append(sum(took))
        check(runs)

    counts = sum_counters([run.metrics for run in runs])
    program_raw = [statistics.median(v) for v in raw.values()]
    program_fair = [statistics.median(v) for v in fair.values()]
    wall, fair_wall = sum(program_raw), sum(program_fair)
    instructions = counts["machine.instructions"]
    result.put_host("sim_mips", instructions / wall / 1e6,
                    instructions / fair_wall / 1e6, "MIPS")
    result.put_host("wall_s", wall, fair_wall, "s")
    put_setup(result, imports, warm)
    put_ops(result, program_raw, program_fair, TAIL_PCT["steady"])
    result.put("passes", len(pass_s), "count")
    result.put("workload.build_s", statistics.median(build_s), "s")
    result.put("workload.assemble_s", statistics.median(assemble_s), "s")
    result.put("frontend.machine_init_s", statistics.median(init_s), "s")
    put_counts(result, counts)
    put_peak_rss(result)

    if trace:
        # As many passes as the untraced phase made, each program run
        # sampled and unsampled back to back.
        sampler = StackSampler(PACKAGE)
        sampler.start()
        sampler.pause()
        ratios = []
        for pass_index in range(len(pass_s)):
            for position, workload_obj in enumerate(built):
                traced_ratio, run = paired(
                    sampler, partial(run_benchmark, workload_obj, variant),
                    traced_first=(pass_index + position) % 2 == 1)
                ratios.append(traced_ratio)
                check([run])
        sampler.stop()
        traced_counts = {key: value * len(pass_s)
                         for key, value in counts.items()}
        put_layers(result, sampler.cpu_s, len(pass_s), traced_counts)
        put_trace(result, sampler.samples, statistics.median(ratios) - 1.0)
    return result


# -- fuzz-cold ----------------------------------------------------------------


def fuzz_cold(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    """The fuzz corpus, each program assembled and run once per pass on a
    fresh trapping ``ucode-prediction`` machine with an empty superblock
    code cache.

    Set-up (repeated, median reported): a fresh interpreter's imports and
    generating the corpus.  Timed: whole passes over the corpus, in the
    seed's order, for ``seconds`` (at least one); an operation is
    assemble + machine construction + run of one program.
    """
    pin_to_one_cpu()
    result = Result("fuzz-cold", seed)
    repeats = 1 if smoke else CHEAP_SETUP_REPEATS
    imports = import_seconds(result, FUZZ_IMPORTS, repeats)
    from repro.core import sbcompile
    from repro.core.machine import Chex86Machine
    from repro.core.variants import Variant
    from repro.fuzz.generator import DEFAULT_BUDGET, generate
    from repro.fuzz.oracles import (architectural_state,
                                    install_protect_hook, strip_frontend)
    from repro.isa.assembler import assemble

    variant = Variant.UCODE_PREDICTION
    corpus_size = 20 if smoke else FUZZ_CORPUS
    order = list(range(corpus_size))
    random.Random(seed).shuffle(order)

    corpus: list = []
    sources: List[str] = []

    def set_up() -> None:
        corpus[:] = [generate(s) for s in range(corpus_size)]
        sources[:] = [program.source for program in corpus]

    generated = timed_repeats(result, set_up, repeats)

    def machine(program, assembled, fast: bool = True):
        built = Chex86Machine(assembled, variant=variant,
                              halt_on_violation=True)
        built.block_cache_enabled = fast
        if program.uses_protect_hook:
            install_protect_hook(built)
        return built

    def observed(built):
        return (built.halted, built.instructions,
                architectural_state(built),
                [str(v) for v in built.violations.violations],
                strip_frontend(built.metrics_snapshot()))

    def check_kinds(program, built) -> None:
        kinds = {kind.value for kind in built.violations.kinds()}
        if program.expected_kinds:
            ok = set(program.expected_kinds) <= kinds
        else:
            ok = built.halted and not kinds
        result.check(ok, f"{program.name}: violations {sorted(kinds)}, "
                         f"expected {list(program.expected_kinds)}")

    def one_pass(raw: List[float], fair: List[float], split: List[tuple],
                 keep=None) -> float:
        """Run the corpus once in the seed's order; returns the sum of the
        programs' times.  The kernel runs between programs, and each
        program's time is scaled by the kernel times around it.  With
        ``keep``, each program's counters and every tenth program's
        outcome are appended to it."""
        total = 0.0
        for position, index in enumerate(order):
            program, source = corpus[index], sources[index]
            # Each program starts cold: no compiled superblocks and a
            # collected heap, so that a full collection owed to earlier
            # programs does not land inside its time.
            sbcompile._CODE_CACHE.clear()
            gc.collect()
            begun = now()
            assembled = assemble(source, name=program.name)
            assembled_at = now()
            built = machine(program, assembled)
            built_at = now()
            built.run(max_instructions=DEFAULT_BUDGET)
            took = now() - begun
            result.probe_host()
            total += took
            raw.append(took)
            split.append((assembled_at - begun, built_at - assembled_at))
            check_kinds(program, built)
            if keep is not None:
                snapshot = built.metrics_snapshot()
                counters = {k: snapshot.get(k, 0) for k in COUNTERS}
                outcome = observed(built) \
                    if position % FUZZ_EVERY == 0 else None
                keep.append((program, assembled, counters, outcome))
        fair.extend(scaled(raw[-len(order):],
                           result.kernel_s[-len(order) - 1:]))
        return total

    pass_s: List[float] = []
    fair_pass_s: List[float] = []
    raw: List[float] = []
    fair: List[float] = []
    split: List[tuple] = []
    kept: List[tuple] = []
    result.probe_host()
    started = now()
    while more_passes(pass_s, 1, started, seconds):
        pass_s.append(one_pass(raw, fair, split,
                               keep=None if pass_s else kept))
        fair_pass_s.append(sum(fair[-len(order):]))
    for program, assembled, _, fast in kept:
        if fast is not None:
            reference = machine(program, assembled, fast=False)
            reference.run(max_instructions=DEFAULT_BUDGET)
            result.check(observed(reference) == fast,
                         f"{program.name}: the per-instruction path "
                         f"diverges from superblock replay")

    counts = sum_counters([counters for _, _, counters, _ in kept])
    wall = statistics.median(pass_s)
    fair_wall = statistics.median(fair_pass_s)
    instructions = counts["machine.instructions"]
    result.put_host("sim_mips", instructions / wall / 1e6,
                    instructions / fair_wall / 1e6, "MIPS")
    result.put_host("wall_s", wall, fair_wall, "s")
    put_setup(result, imports, generated)
    put_ops(result, raw, fair, TAIL_PCT["fuzz-cold"])
    result.put_host("programs_per_s", corpus_size / wall,
                    corpus_size / fair_wall, "1/s")
    result.put("passes", len(pass_s), "count")
    result.put("workload.build_s",
               statistics.median(generated[0]) / corpus_size, "s")
    result.put("workload.assemble_s",
               statistics.median(a for a, _ in split), "s")
    result.put("frontend.machine_init_s",
               statistics.median(b for _, b in split), "s")
    put_counts(result, counts)
    put_peak_rss(result)

    if trace:
        # One pass, each program run sampled and unsampled back to back.
        sampler = StackSampler(PACKAGE)
        sampler.start()
        sampler.pause()
        ratios = []
        for position, index in enumerate(order):
            program, source = corpus[index], sources[index]

            def operation():
                built = machine(program, assemble(source, name=program.name))
                built.run(max_instructions=DEFAULT_BUDGET)
                return built

            traced_ratio, built = paired(
                sampler, operation, traced_first=position % 2 == 1,
                prepare=sbcompile._CODE_CACHE.clear)
            ratios.append(traced_ratio)
            check_kinds(program, built)
        sampler.stop()
        put_layers(result, sampler.cpu_s, 1.0, counts)
        put_trace(result, sampler.samples, statistics.median(ratios) - 1.0)
    return result


# -- fig6-cold ----------------------------------------------------------------


def _fig6_pass(result: Result, tag: str, mode: str,
               extra: Sequence[str] = ()) -> Dict[str, object]:
    """One ``figure 6 --jobs 2`` run into a fresh cache directory, through
    ``cli.py`` so that every cell worker times the reference kernel."""
    cache = WORK / f"{os.getpid()}-{tag}-cache"
    probes = WORK / f"{os.getpid()}-{tag}-probes"
    metrics_path = WORK / f"{os.getpid()}-{tag}-metrics.json"
    for directory in (cache, probes):
        shutil.rmtree(directory, ignore_errors=True)
    argv = [str(HERE / "cli.py"), str(probes), mode, "figure", "6",
            "--jobs", "2", "--cache-dir", str(cache),
            "--metrics-out", str(metrics_path), *extra]
    started = now()
    done = run_child(argv)
    wall = now() - started
    identical = done.returncode == 0 \
        and done.stdout == FIG6_REFERENCE.read_bytes()
    result.check(identical, f"fig6 ({tag}): exit {done.returncode}, output "
                            f"differs from results/fig6.txt\n"
                            f"{done.stderr.decode()[-2000:]}")
    outcome: Dict[str, object] = {"wall": wall, "ok": identical}
    if identical:
        document = json.loads(metrics_path.read_text())
        outcome["cells"] = [cell["metrics"] for cell in document["cells"]]
        outcome["engine"] = document["engine"]
        kernel_by_pid = {int(path.stem.split("-")[1]):
                         json.loads(path.read_text())
                         for path in probes.glob("kernel-*.json")}
        outcome["kernel_s"] = [k for pair in kernel_by_pid.values()
                               for k in pair]
        # Each cell's compute time, with the kernel times its worker took
        # just before and just after it.
        journal = [json.loads(line) for line in
                   (cache / "journal.jsonl").read_text().splitlines()]
        worker = {r["key"]: r["pid"] for r in journal
                  if r.get("event") == "start"}
        outcome["cells_s"] = [(r["seconds"], kernel_by_pid[worker[r["key"]]])
                              for r in journal if r.get("event") == "done"]
        outcome["layer_dumps"] = [json.loads(path.read_text())
                                  for path in probes.glob("layers-*.json")]
    for directory in (cache, probes):
        shutil.rmtree(directory, ignore_errors=True)
    metrics_path.unlink(missing_ok=True)
    return outcome


def _span_durations(trace_path: Path) -> Dict[str, List[tuple]]:
    """``(cell label, seconds)`` of every complete span, by span name."""
    spans: Dict[str, List[tuple]] = {}
    events = json.loads(trace_path.read_text())["traceEvents"]
    for event in events:
        if event.get("ph") == "X":
            spans.setdefault(event["name"], []).append(
                (event.get("args", {}).get("cell", ""),
                 event["dur"] / 1e6))
    return spans


def _fig6_scaled(outcome: Dict[str, object]) -> tuple:
    """A figure run's cell times, raw and scaled by the kernel times their
    worker took around them, and its scaled wall time.  The cells are
    nearly all of the figure's work, so the figure is scaled by their
    scaled-to-raw ratio: a slow spell weighs in by the cell time it
    slowed."""
    raw = [s for s, _ in outcome["cells_s"]]
    fair = [t for s, around in outcome["cells_s"]
            for t in scaled([s], around)]
    return raw, fair, outcome["wall"] * sum(fair) / sum(raw)


def fig6_cold(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    """``python -m repro figure 6 --jobs 2`` into a fresh cell cache (the
    seed changes nothing: the figure's inputs are fixed).

    Set-up (repeated, median reported): starting the CLI as far as
    argument parsing (``figure 6 --help``), which every figure command
    pays before its first cell.  Timed: whole figure runs for ``seconds``
    (at least one); an operation is one cell's simulation as the engine's
    journal times it.  Host times are scaled by the kernel times the cell
    workers take.
    """
    result = Result("fig6-cold", seed)
    WORK.mkdir(exist_ok=True)
    allowed = pin_to_one_cpu()
    cli_start = timed_repeats(
        result, partial(start_child, ["-m", "repro", "figure", "6", "--help"]),
        1 if smoke else CHEAP_SETUP_REPEATS)
    os.sched_setaffinity(0, allowed)  # the figure runs on every CPU

    passes: List[Dict[str, object]] = []
    started = now()
    while more_passes([p["wall"] for p in passes], 1, started, seconds):
        passes.append(_fig6_pass(result, f"pass{len(passes)}", "timed"))
        if not passes[-1]["ok"]:
            return result
    raw_cells, fair_cells, fair_walls = [], [], []
    for p in passes:
        result.kernel_s.extend(p["kernel_s"])
        raw, fair, fair_figure = _fig6_scaled(p)
        raw_cells.extend(raw)
        fair_cells.extend(fair)
        fair_walls.append(fair_figure)
    wall = statistics.median(p["wall"] for p in passes)
    fair_wall = statistics.median(fair_walls)
    cells = passes[0]["cells"]
    counts = sum_counters(cells)
    instructions = counts["machine.instructions"]
    result.put_host("sim_mips", instructions / wall / 1e6,
                    instructions / fair_wall / 1e6, "MIPS")
    result.put_host("wall_s", wall, fair_wall, "s")
    put_setup(result, cli_start)
    put_ops(result, raw_cells, fair_cells, TAIL_PCT["fig6-cold"])
    result.put("passes", len(passes), "count")
    result.put("engine.cells", len(cells), "count")
    result.put("engine.cells_retried",
               passes[0]["engine"].get("engine.cells_retried", 0), "count")
    result.put("engine.cells_failed",
               passes[0]["engine"].get("engine.cells_failed", 0), "count")
    put_counts(result, counts)
    put_peak_rss(result, with_children=True)

    if trace:
        trace_path = WORK / f"{os.getpid()}-trace.json"
        traced = _fig6_pass(
            result, "traced", "sampled",
            ["--trace-out", str(trace_path), "--trace-machine-capacity", "0"])
        if not traced["ok"]:
            return result
        cpu_s = {layer: 0.0 for layer in LAYERS}
        for dump in traced["layer_dumps"]:
            for layer, value in dump["cpu_s"].items():
                cpu_s[layer] += value
        result.check(len(traced["layer_dumps"]) > len(cells),
                     f"fig6 (traced): layer samples from "
                     f"{len(traced['layer_dumps'])} process(es), expected "
                     f"the CLI and one per cell")
        traced_counts = sum_counters(traced["cells"])
        # Tracing must not change the code path it observes.
        result.check(traced_counts == counts,
                     "fig6 (traced): counters differ from the untraced run")
        put_counts(result, traced_counts)  # what the traced run observed
        put_layers(result, cpu_s, 1.0, traced_counts)
        put_trace(result, sum(d["samples"] for d in traced["layer_dumps"]),
                  _fig6_scaled(traced)[2] / fair_wall - 1.0)
        spans = _span_durations(trace_path)
        trace_path.unlink(missing_ok=True)
        _put_engine_spans(result, spans)
    return result


def _put_engine_spans(result: Result, spans: Dict[str, List[tuple]]) -> None:
    """Engine costs from the traced run's spans: per-cell latency, the
    engine's overhead around each cell (``engine.cell`` minus
    ``worker.cell``), cache writes, and superblock compilation."""
    engine_cell: Dict[str, float] = {}
    worker_cell: Dict[str, float] = {}
    for label, seconds in spans.get("engine.cell", ()):
        engine_cell[label] = engine_cell.get(label, 0.0) + seconds
    for label, seconds in spans.get("worker.cell", ()):
        worker_cell[label] = worker_cell.get(label, 0.0) + seconds
    cell_s = list(engine_cell.values())
    overhead_ms = [1000.0 * (engine_cell[label] - worker_cell[label])
                   for label in engine_cell if label in worker_cell]
    writes_ms = [1000.0 * s for _, s in spans.get("engine.cache.write", ())]
    tail = TAIL_PCT["fig6-cold"]
    result.put("engine.cell_s.p50", statistics.median(cell_s), "s")
    result.put("engine.cell_s.tail", percentile(cell_s, tail), "s")
    result.put("engine.overhead_ms.p50", statistics.median(overhead_ms), "ms")
    result.put("engine.overhead_ms.tail", percentile(overhead_ms, tail), "ms")
    result.put("engine.cache_write_ms.p50", statistics.median(writes_ms),
               "ms")
    result.put("engine.compute_s.sum", sum(worker_cell.values()), "s")
    result.put("compile.sbcompile_s",
               sum(s for _, s in spans.get("sbcompile.compile", ())), "s")


WORKLOADS = {
    "steady-ucode": lambda seed, seconds, trace, smoke: steady(
        "steady-ucode", "ucode-prediction", seed, seconds, trace, smoke),
    "steady-insecure": lambda seed, seconds, trace, smoke: steady(
        "steady-insecure", "insecure", seed, seconds, trace, smoke),
    "fig6-cold": fig6_cold,
    "fuzz-cold": fuzz_cold,
}


def write_expected() -> Dict[str, Dict[str, object]]:
    """Pin the steady workloads' outputs (run once per program and
    variant) into ``expected.json``."""
    from repro.core.variants import Variant
    from repro.eval.common import run_benchmark
    from repro.workloads import build

    expected = {}
    for variant in ("ucode-prediction", "insecure"):
        for name in STEADY_PROGRAMS:
            run = run_benchmark(build(name, STEADY_SCALE), Variant(variant))
            expected[expected_key(name, variant, STEADY_SCALE)] = \
                run_fingerprint(run)
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return expected
