"""Shared cell-oriented evaluation engine.

Every figure/table driver needs the same kind of raw material: the
metrics of one (workload, defense, scale) *cell*, simulated under one
:class:`~repro.pipeline.config.CoreConfig`.  Before this engine existed
each driver re-simulated its cells independently, so ``python -m repro
reproduce`` paid for the overlapping cells of Figures 6-9 and Tables
II/IV many times over.

The engine turns that inside out:

* :class:`CellSpec` names one cell (workload, defense label, scale,
  instruction budget, core configuration, and the cell *kind*);
* :data:`CELL_KINDS` says what each kind is — the function that
  computes it, its result type and record key, the spec fields only it
  carries — so nothing else in the engine branches on a kind;
* :class:`EvalEngine` computes a batch of specs, deduplicated, fanned
  out across supervised worker processes (``jobs`` workers, default
  ``os.cpu_count()``), memoized in-process for the engine's lifetime,
  and — unless caching is disabled — persisted as JSON under
  ``results/.cellcache/`` keyed by a content hash of the spec plus the
  package version, so warm re-runs are near-instant;
* the drivers slice the shared records into the paper's rows/series.

The engine is fault-tolerant end to end (``docs/robustness.md``):

* a worker that **crashes** or raises fails only its own cell; the cell
  is re-dispatched up to ``max_retries`` times with exponential backoff
  and a fresh worker process replaces the dead one;
* a worker that **hangs** past ``cell_timeout`` seconds is killed and
  its cell retried the same way;
* cache writes are **crash-safe** (write-to-temp + atomic rename) and
  **self-verifying** (a content hash over the encoded result is checked
  on read; corrupt entries are quarantined under
  ``<cache_dir>/quarantine/`` and recomputed, never a hard failure);
* sweeps are **resumable**: every cell outcome is appended to a
  ``journal.jsonl`` under the cache directory (one flushed JSON line per
  cell, so an interrupt leaves a consistent journal) and
  ``resume=True`` skips cells the journal marks complete;
* every degradation is counted (``engine.cells_retried``,
  ``engine.cells_timed_out``, ``engine.cells_crashed``,
  ``engine.cache_quarantined``, ``engine.journal_hits``, …) through the
  engine's :class:`~repro.telemetry.registry.MetricsRegistry`;
* the failure paths are testable: a :class:`~repro.eval.faults.FaultPlan`
  (or the ``REPRO_FAULT_SPEC`` environment variable) deterministically
  injects crash / hang / transient / corrupt-cache faults.

A fault-free run produces byte-identical artifacts to a faulted one:
faults only ever change *when* a cell is computed, never what it
contains.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from .. import __version__
from ..core.variants import Variant
from ..pipeline.config import CoreConfig, DEFAULT_CONFIG
from ..telemetry import spans as spans_mod
from ..telemetry.provenance import write_report
from ..telemetry.registry import METRICS_SCHEMA, MetricsRegistry
from ..telemetry.spans import SPILL_FILENAME, SpanTracer, TraceOptions
from ..telemetry.state import Counters
from .common import BenchmarkRun
from .faults import FaultPlan

#: Bumped whenever the cache record layout (not the simulated behaviour)
#: changes; old records are silently recomputed.  3: BenchmarkRun grew
#: the ``metrics`` telemetry snapshot.  4: records carry a ``sha256``
#: content hash over the encoded result (verified on read).  5: the
#: counters a ``BenchmarkRun`` can read from ``metrics`` are no longer
#: stored beside it, and interval records carry no per-phase deltas.
CACHE_SCHEMA = 5

#: Default location of the on-disk cell cache.
DEFAULT_CACHE_DIR = "results/.cellcache"

#: Default retry budget for a crashed/hung/raising cell.
DEFAULT_MAX_RETRIES = 2

#: Default base delay (seconds) before re-dispatching a failed cell;
#: doubled on every further attempt of the same cell.
DEFAULT_RETRY_BACKOFF = 1.0

#: How long an injected ``hang`` fault sleeps; pair it with a
#: ``cell_timeout`` well below this or the sweep will genuinely wait.
HANG_SECONDS = 600.0

#: Exit status an injected ``crash`` fault dies with (visible in the
#: supervisor's diagnostic line).
CRASH_EXIT_STATUS = 23

_VARIANTS = {variant.value for variant in Variant}
_DEFENSES = _VARIANTS | {"asan"}


def _default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


class CellFailure(RuntimeError):
    """One or more cells exhausted their retry budget.

    Completed cells stay journaled and cached, so fixing the cause and
    re-running with ``resume=True`` recomputes only the failures.
    """

    def __init__(self, failures: Sequence[Tuple["CellSpec", str]]) -> None:
        self.failures = list(failures)
        detail = "; ".join(f"{spec.label}: {reason}"
                           for spec, reason in self.failures)
        super().__init__(
            f"{len(self.failures)} cell(s) failed permanently ({detail})")


# -- cell kinds ---------------------------------------------------------------


def _check_defense(spec: "CellSpec") -> None:
    if spec.defense not in _DEFENSES:
        raise ValueError(f"unknown defense {spec.defense!r}")


def _check_variant(spec: "CellSpec") -> None:
    if spec.defense not in _VARIANTS:
        raise ValueError(f"{spec.kind} cells need a variant, "
                         f"not {spec.defense!r}")


def _check_interval(spec: "CellSpec") -> None:
    _check_defense(spec)
    if spec.interval_index < 0 or spec.interval_length <= 0:
        raise ValueError(
            "interval cells need interval_index >= 0 and "
            "interval_length > 0")
    if not spec.checkpoint or not spec.checkpoint_digest:
        raise ValueError(
            "interval cells need a checkpoint path and digest")


def _check_fuzz(spec: "CellSpec") -> None:
    if spec.fuzz_seed < 0:
        raise ValueError("fuzz cells need fuzz_seed >= 0")


@dataclass(frozen=True)
class CellKind:
    """What one cell kind is.

    ``compute`` (``CellSpec -> result``) and ``result`` (a type with
    ``to_dict``/``from_dict``) are ``"module:name"`` references imported
    on first use, so a kind's module loads only when its cells run.
    """

    compute: str
    result: str
    record: str                           # key of the encoded result
    payload_fields: Tuple[str, ...] = ()  # spec fields only this kind has
    suffix: str = ""                      # label suffix, given spec=
    check: Optional[Callable[["CellSpec"], None]] = None


#: Every cell kind, by ``CellSpec.kind``.  A kind's own fields enter the
#: payload (and so the cache key) of its cells only, which keeps the
#: keys of the other kinds unchanged when a kind is added.
CELL_KINDS: Dict[str, CellKind] = {
    "benchmark": CellKind(
        compute=".common:benchmark_cell", result=".common:BenchmarkRun",
        record="benchmark_run", check=_check_defense),
    "patterns": CellKind(
        compute="..analysis.patterns:pattern_cell",
        result="..analysis.patterns:PatternProfile",
        record="pattern_profile", suffix=" [patterns]",
        check=_check_variant),
    "interval": CellKind(
        compute=".sampling:replay_interval", result=".common:IntervalRun",
        record="interval_run",
        payload_fields=("interval_index", "interval_length",
                        "checkpoint", "checkpoint_digest"),
        suffix=" [interval {spec.interval_index}]", check=_check_interval),
    "fuzz": CellKind(
        compute="..fuzz.cell:compute_fuzz_cell",
        result="..fuzz.cell:FuzzCellResult", record="fuzz_result",
        payload_fields=("fuzz_seed", "fuzz_profile", "fuzz_bug"),
        suffix=" [fuzz]", check=_check_fuzz),
}

#: The payload fields of every kind (besides ``config``).
_SHARED_FIELDS = ("workload", "defense", "scale", "max_instructions", "kind",
                  "min_events")


@lru_cache(maxsize=None)
def _load(reference: str):
    module, _, name = reference.partition(":")
    return getattr(importlib.import_module(module, __package__), name)


@dataclass(frozen=True)
class CellSpec:
    """One unit of simulation work, addressable and hashable.

    ``defense`` is a *label* (``Variant.value`` or ``"asan"``) so specs
    serialize naturally; ``config`` is the frozen ``CoreConfig``, which
    makes equal sweeps (e.g. Figure 7's 64-entry capability cache and
    Figure 6's default configuration) literally the same cell.
    """

    workload: str
    defense: str
    scale: int = 1
    max_instructions: int = 2_000_000
    kind: str = "benchmark"      # a key of CELL_KINDS
    min_events: int = 0          # patterns cells: minimum reloads per PC
    config: CoreConfig = DEFAULT_CONFIG
    # Interval cells only (checkpointed SimPoint replay, docs/sampling.md):
    interval_index: int = -1     # which profiled interval this cell replays
    interval_length: int = 0     # instructions to execute from the snapshot
    checkpoint: str = ""         # snapshot file path (volatile, not hashed)
    checkpoint_digest: str = ""  # sha256 of the snapshot bytes (hashed)
    # Fuzz cells only (oracle sweeps, docs/fuzzing.md); ``defense`` holds
    # the generator profile, not a variant label:
    fuzz_seed: int = -1          # generator seed (the cell's identity)
    fuzz_profile: str = ""       # generator profile ("" = seed rotation)
    fuzz_bug: str = ""           # oracle-sensitivity bug injection spec

    def __post_init__(self) -> None:
        kind = CELL_KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if kind.check is not None:
            kind.check(self)

    # -- identity ------------------------------------------------------------

    @property
    def label(self) -> str:
        suffix = CELL_KINDS[self.kind].suffix.format(spec=self)
        return f"{self.workload}/{self.defense}{suffix}"

    def payload(self) -> Dict[str, object]:
        """Plain-data form: hashed for the cache key and shipped to
        worker processes (picklable under any start method)."""
        payload: Dict[str, object] = {
            name: getattr(self, name) for name in _SHARED_FIELDS}
        payload["config"] = asdict(self.config)
        for name in CELL_KINDS[self.kind].payload_fields:
            payload[name] = getattr(self, name)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CellSpec":
        config_fields = {f.name for f in fields(CoreConfig)}
        config = CoreConfig(**{k: v for k, v in payload["config"].items()
                               if k in config_fields})
        names = _SHARED_FIELDS \
            + CELL_KINDS[payload.get("kind", "benchmark")].payload_fields
        return cls(config=config, **{name: payload[name] for name in names
                                     if name in payload})

    def cache_key(self) -> str:
        """Content hash over the spec and the package version, so any
        change to the simulated configuration invalidates the cell.

        The checkpoint *path* is excluded: it names a temp-dir location
        that varies run to run, while the content digest (which is
        hashed) pins what the replay actually executes.
        """
        canonical_payload = self.payload()
        canonical_payload.pop("checkpoint", None)
        canonical = json.dumps(
            {"schema": CACHE_SCHEMA, "version": __version__,
             **canonical_payload},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]

    def cache_filename(self) -> str:
        safe = f"{self.workload}-{self.defense}-{self.kind}".replace("/", "_")
        return f"{safe}-{self.cache_key()}.json"


# -- cell computation (runs in worker processes) ------------------------------


def compute_cell(spec: CellSpec):
    """Simulate one cell from scratch; pure function of the spec."""
    return _load(CELL_KINDS[spec.kind].compute)(spec)


def encode_result(spec: CellSpec, result) -> Dict[str, object]:
    """JSON-serializable form of a cell result, under its kind's key."""
    return {CELL_KINDS[spec.kind].record: result.to_dict()}


def decode_result(spec: CellSpec, encoded: Dict[str, object]):
    """Inverse of :func:`encode_result`; raises ``KeyError``/``ValueError``
    on malformed records (callers treat that as a cache miss)."""
    kind = CELL_KINDS[spec.kind]
    return _load(kind.result).from_dict(encoded[kind.record])


def result_digest(encoded: Dict[str, object]) -> str:
    """Content hash of an encoded result — stored in every cache record
    and re-verified on read, so silent on-disk corruption is caught."""
    canonical = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cell_worker(payload: Dict[str, object]) -> Tuple[Dict[str, object], int,
                                                      float]:
    """Top-level (picklable) pool entry point: compute one cell and
    return ``(encoded result, simulated instructions, seconds)``."""
    spec = CellSpec.from_payload(payload)
    started = time.perf_counter()
    result = compute_cell(spec)
    seconds = time.perf_counter() - started
    instructions = getattr(result, "instructions", 0)
    return encode_result(spec, result), instructions, seconds


def _supervised_entry(payload: Dict[str, object], fault: Optional[str],
                      conn, trace: Optional[Dict[str, object]] = None,
                      provenance: bool = False) -> None:
    """Worker-process entry point under supervision.

    Sends ``("ok", outcome, sidecar)`` or ``("error", message, None)``
    back over the pipe; a crash (injected or real) sends nothing, which
    the supervisor detects as EOF on the connection.  ``sidecar`` is
    ``None`` unless the sweep observes its cells (``trace`` carries the
    span and ring capacities, ``provenance`` arms the recorder); then it
    is the worker's :func:`~repro.telemetry.spans.drain` taken at the end
    of the cell, merged, when traced, with the worker's span
    :meth:`~repro.telemetry.spans.SpanTracer.shipment`, which makes it a
    collator shipment of its own.
    """
    trace = trace or {}
    tracer: Optional[SpanTracer] = None
    if trace:
        tracer = SpanTracer(
            capacity=int(trace.get("capacity", 65536)),
            process_label=f"worker:{trace.get('label', '?')}")
    # Always install: a forked worker must not inherit the parent's.
    spans_mod.install(tracer, int(trace.get("machine_capacity", 0)),
                      provenance)
    try:
        if fault == "crash":
            os._exit(CRASH_EXIT_STATUS)
        if fault == "hang":
            time.sleep(HANG_SECONDS)
            raise RuntimeError("injected hang outlived the supervisor")
        if fault == "transient":
            raise RuntimeError("injected transient fault")
        sidecar = None
        with spans_mod.maybe("worker.cell", cell=str(trace.get("label", ""))):
            outcome = _cell_worker(payload)
            if tracer is not None or provenance:
                sidecar = spans_mod.drain()
        if tracer is not None:
            sidecar.update(tracer.shipment())
        conn.send(("ok", outcome, sidecar))
    except BaseException as exc:  # noqa: BLE001 — report, parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}", None))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


# -- the sweep journal --------------------------------------------------------


class SweepJournal:
    """Append-only JSONL record of per-cell outcomes.

    One flushed line per event, so a sweep killed at any instant leaves
    at most one truncated trailing line — which the reader skips.  A
    fresh (non-resume) sweep truncates the journal; ``resume`` reads the
    completed keys first and appends.
    """

    FILENAME = "journal.jsonl"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.path = Path(directory) / self.FILENAME

    def done_keys(self) -> Set[str]:
        """Cache keys of every cell the journal marks complete."""
        keys: Set[str] = set()
        try:
            text = self.path.read_text()
        except OSError:
            return keys
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # partial trailing line from an interrupt
            if record.get("event") == "done" and record.get("key"):
                keys.add(record["key"])
        return keys

    def start(self, resume: bool) -> Set[str]:
        """Begin a sweep: truncate (fresh) or load completed keys."""
        if resume:
            return self.done_keys()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")
        except OSError:
            pass
        return set()

    def record(self, event: str, spec: CellSpec, **extra: object) -> None:
        """Journal one cell's event, under its cache key and label."""
        self.note(event, key=spec.cache_key(), label=spec.label, **extra)

    def note(self, event: str, **extra: object) -> None:
        """Journal one event.  Sweep-level events (e.g. ``batch``) name
        no cell; ``repro status`` reads them for totals."""
        entry: Dict[str, object] = {
            "event": event,
            "ts": round(time.time(), 3),
        }
        entry.update({k: v for k, v in extra.items() if v not in ("", None)})
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
                handle.flush()
        except OSError:
            pass  # a read-only cache directory degrades to journal-less


# -- the engine ---------------------------------------------------------------


@dataclass
class EngineStats(Counters):
    """What one engine instance did.  Every int field is the
    ``engine.<field>`` gauge and the ``summary.json`` engine key of the
    same name."""

    cells_computed: int = 0
    cells_cached: int = 0
    cells_retried: int = 0
    cells_crashed: int = 0
    cells_timed_out: int = 0
    transient_errors: int = 0
    cache_quarantined: int = 0
    journal_hits: int = 0
    cells_failed: int = 0
    simulated_instructions: int = 0
    wall_seconds: float = 0.0

    @property
    def instructions_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_instructions / self.wall_seconds

    @property
    def simulated_mips(self) -> float:
        """Simulated instructions per wall-clock second, in millions —
        the hot-loop throughput figure ``bench_hotloop.py`` tracks."""
        return self.instructions_per_second / 1e6

    def summary(self) -> str:
        rate = self.instructions_per_second
        # Artifact sweeps run at tens of thousands of instructions per
        # second; a fuzz campaign at hundreds (its cells count only the
        # differential reference run), which a "k" figure rounds to 0.
        shown = (f"{rate / 1e3:.0f}k" if rate >= 999.5
                 else f"{rate:.0f}" if rate >= 9.95 else f"{rate:.1f}")
        base = (f"engine: {self.cells_computed} cell(s) simulated, "
                f"{self.cells_cached} cached, {self.wall_seconds:.1f}s wall, "
                f"{shown} simulated instr/s")
        extras = [f"{count} {what}" for count, what in (
            (self.cells_retried, "retried"),
            (self.cells_crashed, "crashed"),
            (self.cells_timed_out, "timed out"),
            (self.transient_errors, "transient error(s)"),
            (self.cache_quarantined, "cache entr(ies) quarantined"),
            (self.journal_hits, "journal hit(s)"),
            (self.cells_failed, "failed permanently")) if count]
        return base + (", " + ", ".join(extras) if extras else "")


@dataclass
class _Task:
    """One in-flight supervised worker."""

    spec: CellSpec
    attempt: int                      # 0-based
    process: multiprocessing.Process
    conn: object                      # parent end of the result pipe
    deadline: Optional[float]         # monotonic, None = no timeout
    lane: int = 0                     # trace swimlane (traced sweeps only)
    span: object = None               # open engine.cell span handle


class EvalEngine:
    """Computes cells at most once: in-memory memo, on-disk cache,
    supervised process fan-out for the misses.

    ``jobs=1`` computes inline (deterministic, no subprocess overhead)
    unless a ``cell_timeout`` or ``fault_plan`` demands supervision;
    ``use_cache=False`` skips the on-disk layer but keeps the in-memory
    memo, so a batch still simulates each unique cell once.

    Fault tolerance: ``cell_timeout`` kills and retries a hung worker;
    crashed or raising workers are retried up to ``max_retries`` times
    with exponential backoff starting at ``retry_backoff`` seconds; a
    cell that exhausts its budget raises :class:`CellFailure` *after*
    the rest of the batch has been given its chance (so a later
    ``resume=True`` run recomputes only the failures).
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: str = DEFAULT_CACHE_DIR,
                 use_cache: bool = True,
                 echo: Optional[Callable[[str], None]] = None,
                 cell_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 resume: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 trace: Optional[TraceOptions] = None,
                 provenance: bool = False) -> None:
        self.jobs = _default_jobs() if jobs is None else max(1, int(jobs))
        self.cache_dir = Path(cache_dir)
        self.use_cache = use_cache
        self.echo = echo if echo is not None else (lambda message: None)
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be > 0, got {cell_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}")
        if resume and not use_cache:
            raise ValueError("resume requires the on-disk cell cache")
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.resume = resume
        self.fault_plan = fault_plan if fault_plan is not None \
            else FaultPlan.from_env()
        self.stats = EngineStats()
        self._memo: Dict[CellSpec, object] = {}
        # Observed sweeps (docs/observability.md): a parent-side span
        # tracer, machine event rings and provenance recorders, armed
        # per batch by _tracing() and drained at the end of every cell
        # into one sidecar that _absorb() folds in.  Sidecars are NOT
        # cached — cache hits contribute no rings and no provenance.
        # Unobserved (the default), every instrumentation site is a
        # single module-global test — the hot paths are unchanged.
        self._trace = trace
        self.spans: Optional[SpanTracer] = None
        self.provenance = bool(provenance)
        self._shipments: List[Dict[str, object]] = []  # one per worker
        self._machines: List[Dict[str, object]] = []   # inline cells' rings
        self._prov_cells: List[Dict[str, object]] = []
        self._lane_pool: List[int] = []
        self._next_lane = 1
        if trace is not None:
            spill = trace.spill_path
            if spill is None and use_cache:
                spill = str(self.cache_dir / SPILL_FILENAME)
            if spill is not None and not resume:
                try:  # a fresh traced sweep starts with a fresh spill
                    Path(spill).unlink()
                except OSError:
                    pass
            self.spans = SpanTracer(capacity=trace.capacity,
                                    spill_path=spill,
                                    process_label="engine")
        self.journal = SweepJournal(self.cache_dir) if use_cache else None
        self._journal_started = False
        self._journal_done: Set[str] = set()
        self._artifact = ""
        self._done = 0
        self._total = 0
        # Engine-side accounting: the EngineStats counters are gauges
        # over self.stats, plus a latency histogram per cell.
        self.telemetry = MetricsRegistry()
        self.stats.register_metrics(self.telemetry, "engine")
        self._cell_seconds = self.telemetry.histogram(
            "engine.cell_seconds",
            (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0))

    @classmethod
    def serial(cls) -> "EvalEngine":
        """Inline, cache-less engine — the drivers' standalone default."""
        return cls(jobs=1, use_cache=False)

    # -- public API ----------------------------------------------------------

    def get(self, spec: CellSpec):
        return self.run_cells([spec])[spec]

    def memoized(self) -> Dict[CellSpec, object]:
        """Snapshot of every (spec, result) resolved so far."""
        return dict(self._memo)

    def cell_metrics(self, specs: Sequence[CellSpec]
                     ) -> List[Dict[str, object]]:
        """Per-cell metrics records for every resolved *benchmark* spec.

        Each record carries the cell address (workload, defense, scale,
        kind) plus the full merged telemetry snapshot the worker
        collected (``BenchmarkRun.metrics``).  Unresolved specs and
        pattern cells (which carry no registry) are skipped.
        """
        records: List[Dict[str, object]] = []
        seen = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            result = self._memo.get(spec)
            if not isinstance(result, BenchmarkRun):
                continue
            records.append({
                "workload": spec.workload,
                "defense": spec.defense,
                "scale": spec.scale,
                "kind": spec.kind,
                "metrics": {name: result.metrics[name]
                            for name in sorted(result.metrics)},
            })
        return records

    def write_metrics(self, path: Union[str, Path],
                      specs: Sequence[CellSpec], artifact: str) -> None:
        """Write the per-cell metrics sidecar for one figure/table.

        The document pairs every benchmark cell's merged registry
        snapshot with the engine's own accounting snapshot, so a single
        file answers both "what did the simulator count in this cell"
        and "what did it cost to produce".
        """
        document = {
            "schema": METRICS_SCHEMA,
            "artifact": artifact,
            "engine": self.telemetry.snapshot(),
            "cells": self.cell_metrics(specs),
        }
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")

    def write_trace(self, path: Union[str, Path],
                    label: str = "sweep") -> Dict[str, object]:
        """Collate the sweep's spans — parent + every worker shipment,
        each with its machine rings — into one Chrome ``trace_event``
        file.

        Requires the engine to have been built with ``trace=``; call
        once after the drivers finish (draining is destructive).
        """
        if self.spans is None:
            raise ValueError(
                "tracing was not enabled on this engine (pass trace=)")
        from ..telemetry.collate import collate, write_chrome

        parent = self.spans.shipment()
        parent["machines"], self._machines = self._machines, []
        shipments = [parent] + self._shipments
        self._shipments = []
        document = collate(shipments, sweep_label=label)
        write_chrome(path, document)
        return document

    def write_provenance(self, directory: Union[str, Path],
                         artifact: str) -> Dict[str, object]:
        """Merge the sweep's per-cell provenance sidecars into the
        per-workload attribution report ``<directory>/<artifact>.json``
        plus the flamegraph-ready ``<artifact>.collapsed`` (capability
        checks folded by context).

        Requires the engine to have been built with ``provenance=True``;
        call once after the drivers finish (draining is destructive).
        Cells served from the on-disk cache contribute no sidecars — run
        against a cold or separate cache for full coverage.
        """
        if not self.provenance:
            raise ValueError(
                "provenance was not enabled on this engine "
                "(pass provenance=True)")
        cells, self._prov_cells = self._prov_cells, []
        json_path, collapsed_path = write_report(
            directory, artifact, cells)
        self.echo(f"provenance: {len(cells)} cell sidecar(s) -> "
                  f"{json_path} + {collapsed_path}")
        return {"cells": len(cells), "json": str(json_path),
                "collapsed": str(collapsed_path)}

    def run_cells(self, specs: Sequence[CellSpec],
                  artifact: str = "") -> Dict[CellSpec, object]:
        """Resolve every spec, computing each unique cell at most once.

        Returns a dict covering every requested spec (duplicates share
        one record).  Emits one progress line per resolved cell and a
        timing summary for the batch.  ``artifact`` labels the journal
        entries with the figure/table that asked for the cells.

        Raises :class:`CellFailure` if any cell exhausts its retry
        budget — after every other cell in the batch has been resolved,
        so completed work survives in the cache and journal.
        """
        with self._tracing():
            with spans_mod.maybe("engine.batch",
                                 artifact=artifact or "(batch)",
                                 requested=len(specs)):
                return self._run_batch(specs, artifact)

    def _run_batch(self, specs: Sequence[CellSpec],
                   artifact: str) -> Dict[CellSpec, object]:
        if self.journal is not None and not self._journal_started:
            with spans_mod.maybe("engine.journal.replay",
                                 resume=self.resume):
                self._journal_done = self.journal.start(self.resume)
            self._journal_started = True
        self._artifact = artifact
        unique: List[CellSpec] = []
        seen = set()
        for spec in specs:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)
        misses = [spec for spec in unique if spec not in self._memo]
        self._total = len(misses)
        started = time.perf_counter()
        self._done = 0
        if self.journal is not None and misses:
            self.journal.note("batch", artifact=artifact,
                              requested=len(unique), cells=len(misses),
                              jobs=self.jobs)

        still_missing: List[CellSpec] = []
        for spec in misses:
            with spans_mod.maybe("engine.cache.probe", cell=spec.label):
                cached = self._cache_load(spec)
            if cached is not None:
                spans_mod.instant("engine.cache.hit", cell=spec.label)
                self._memo[spec] = cached
                self.stats.cells_cached += 1
                if self.resume and spec.cache_key() in self._journal_done:
                    self.stats.journal_hits += 1
                if self.journal is not None:
                    self.journal.record("done", spec, artifact=artifact,
                                        source="cached")
                self._done += 1
                self.echo(f"[cell {self._done}/{self._total}] "
                          f"{spec.label} cached")
            else:
                still_missing.append(spec)

        failures: List[Tuple[CellSpec, str]] = []
        if still_missing:
            supervised = self.jobs > 1 or self.cell_timeout is not None \
                or bool(self.fault_plan)
            if supervised:
                failures = self._run_supervised(still_missing)
            else:
                failures = self._run_inline(still_missing)

        if misses:
            self.stats.wall_seconds += time.perf_counter() - started
            self.echo(self.stats.summary())
        if failures:
            raise CellFailure(failures)
        return {spec: self._memo[spec] for spec in unique}

    # -- internals -----------------------------------------------------------

    @contextmanager
    def _tracing(self):
        """Arm this engine's observers — span tracer, machine rings,
        provenance — for the dynamic extent of a batch.  Reentrant:
        nested batches (e.g. the SimPoint wrapper's inner replay batch)
        run under the observers already armed."""
        if (self.spans is None and not self.provenance) \
                or spans_mod.armed():
            yield
            return
        machine_capacity = self._trace.machine_capacity \
            if self._trace is not None else 0
        spans_mod.install(self.spans, machine_capacity, self.provenance)
        try:
            yield
        finally:
            spans_mod.uninstall()

    def _absorb(self, sidecar: Optional[Dict[str, object]]) -> None:
        """Fold one cell's observer sidecar into the sweep.  A worker's
        sidecar carries its own clock and collates as its own process;
        inline cells' rings join the parent's shipment."""
        if sidecar is None:
            return
        self._prov_cells.extend(sidecar.pop("provenance"))
        if "clock" in sidecar:
            self._shipments.append(sidecar)
        else:
            self._machines.extend(sidecar["machines"])

    def _acquire_lane(self) -> int:
        """Smallest free trace swimlane (tid) for an in-flight cell, so
        concurrent cells render as parallel tracks in Perfetto."""
        if self._lane_pool:
            lane = min(self._lane_pool)
            self._lane_pool.remove(lane)
            return lane
        lane = self._next_lane
        self._next_lane += 1
        return lane

    def _close_task_span(self, task: _Task, status: str) -> None:
        if task.span is None or self.spans is None:
            return
        self.spans.end(task.span, status=status)
        self._lane_pool.append(task.lane)
        task.span = None

    def _run_inline(self, specs: List[CellSpec]
                    ) -> List[Tuple[CellSpec, str]]:
        """Serial, same-process path: no hang supervision (a timeout
        cannot interrupt inline work), but transient exceptions still
        get the retry/backoff treatment."""
        failures: List[Tuple[CellSpec, str]] = []
        for spec in specs:
            attempt = 0
            while True:
                if self.journal is not None:
                    self.journal.record("start", spec,
                                        artifact=self._artifact,
                                        attempt=attempt + 1,
                                        pid=os.getpid())
                try:
                    with spans_mod.maybe("worker.cell", cell=spec.label,
                                         attempt=attempt + 1):
                        try:
                            encoded, instructions, seconds = _cell_worker(
                                spec.payload())
                        finally:
                            sidecar = spans_mod.drain()
                except Exception as error:  # noqa: BLE001 — retried
                    reason = f"{type(error).__name__}: {error}"
                    self.stats.transient_errors += 1
                    if not self._schedule_retry(spec, attempt, reason):
                        failures.append((spec, reason))
                        break
                    time.sleep(self._backoff(attempt))
                    attempt += 1
                    continue
                self._absorb(sidecar)
                self._finish_cell(spec, encoded, instructions, seconds,
                                  attempts=attempt + 1)
                break
        return failures

    def _run_supervised(self, specs: List[CellSpec]
                        ) -> List[Tuple[CellSpec, str]]:
        """Fan cells out across supervised worker processes.

        Each cell runs in its own process (so a crash or kill loses only
        that cell and the "pool" replenishes by construction); the
        supervisor multiplexes result pipes, enforces per-cell
        deadlines, and re-dispatches failures with backoff.
        """
        ctx = multiprocessing.get_context()
        workers = min(self.jobs, len(specs))
        # (spec, attempt, not_before): retries carry a monotonic time
        # before which they must not be re-dispatched (the backoff).
        queue: Deque[Tuple[CellSpec, int, float]] = deque(
            (spec, 0, 0.0) for spec in specs)
        running: Dict[object, _Task] = {}
        failures: List[Tuple[CellSpec, str]] = []
        try:
            while queue or running:
                now = time.monotonic()
                deferred: List[Tuple[CellSpec, int, float]] = []
                while queue and len(running) < workers:
                    spec, attempt, not_before = queue.popleft()
                    if not_before > now:
                        deferred.append((spec, attempt, not_before))
                        continue
                    task = self._dispatch(ctx, spec, attempt)
                    running[task.conn] = task
                queue.extend(deferred)
                if not running:
                    # Everything runnable is backing off; sleep until the
                    # earliest retry becomes due.
                    wake = min(item[2] for item in queue)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue
                timeout = self._next_wake(running, queue)
                ready = mp_connection.wait(list(running), timeout)
                for conn in ready:
                    task = running.pop(conn)
                    self._reap(task, queue, failures)
                now = time.monotonic()
                for conn, task in list(running.items()):
                    if task.deadline is not None and now >= task.deadline:
                        del running[conn]
                        self._kill(task)
                        self._close_task_span(task, "timeout")
                        reason = (f"timed out after "
                                  f"{self.cell_timeout:.1f}s")
                        self.stats.cells_timed_out += 1
                        self._retry_or_fail(task, reason, queue, failures)
        except BaseException:
            # Ctrl-C or an internal error: kill the workers; the journal
            # holds one complete line per finished cell, so a later
            # resume run picks up exactly where this one stopped.
            for task in running.values():
                self._kill(task)
            raise
        return failures

    def _dispatch(self, ctx, spec: CellSpec, attempt: int) -> _Task:
        fault = self.fault_plan.worker_fault(spec.label) \
            if self.fault_plan else None
        trace = None
        if self._trace is not None:
            trace = {"capacity": self._trace.capacity,
                     "machine_capacity": self._trace.machine_capacity,
                     "label": spec.label}
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_supervised_entry,
                              args=(spec.payload(), fault, child_conn,
                                    trace, self.provenance),
                              daemon=True)
        process.start()
        child_conn.close()
        deadline = None if self.cell_timeout is None \
            else time.monotonic() + self.cell_timeout
        if self.journal is not None:
            self.journal.record("start", spec, artifact=self._artifact,
                                attempt=attempt + 1, pid=process.pid)
        task = _Task(spec=spec, attempt=attempt, process=process,
                     conn=parent_conn, deadline=deadline)
        if self.spans is not None:
            task.lane = self._acquire_lane()
            task.span = self.spans.begin("engine.cell", tid=task.lane,
                                         cell=spec.label,
                                         attempt=attempt + 1,
                                         worker_pid=process.pid)
        return task

    def _next_wake(self, running: Dict[object, _Task],
                   queue: Deque[Tuple[CellSpec, int, float]]
                   ) -> Optional[float]:
        """Longest safe sleep: until the nearest deadline or pending
        retry, or indefinitely when neither exists."""
        now = time.monotonic()
        marks = [task.deadline for task in running.values()
                 if task.deadline is not None]
        marks.extend(item[2] for item in queue if item[2] > now)
        if not marks:
            return None
        return max(0.0, min(marks) - now)

    def _reap(self, task: _Task,
              queue: Deque[Tuple[CellSpec, int, float]],
              failures: List[Tuple[CellSpec, str]]) -> None:
        """A worker's pipe became readable: collect its result, or
        diagnose the crash if it died without reporting."""
        try:
            status, value, sidecar = task.conn.recv()
        except (EOFError, OSError):
            status, value, sidecar = "crashed", None, None
        finally:
            task.conn.close()
        task.process.join()
        self._close_task_span(task, status)
        if status == "ok":
            self._absorb(sidecar)
            encoded, instructions, seconds = value
            self._finish_cell(task.spec, encoded, instructions, seconds,
                              attempts=task.attempt + 1)
            return
        if status == "crashed":
            reason = (f"worker crashed "
                      f"(exit status {task.process.exitcode})")
            self.stats.cells_crashed += 1
        else:
            reason = f"worker error: {value}"
            self.stats.transient_errors += 1
        self._retry_or_fail(task, reason, queue, failures)

    def _retry_or_fail(self, task: _Task, reason: str,
                       queue: Deque[Tuple[CellSpec, int, float]],
                       failures: List[Tuple[CellSpec, str]]) -> None:
        if self._schedule_retry(task.spec, task.attempt, reason):
            queue.append((task.spec, task.attempt + 1,
                          time.monotonic() + self._backoff(task.attempt)))
        else:
            failures.append((task.spec, reason))

    def _schedule_retry(self, spec: CellSpec, attempt: int,
                        reason: str) -> bool:
        """Account for a failed attempt; True if the cell may retry.

        (The supervised path queues the retry itself; the inline path
        just loops.)  On exhaustion the cell is journaled as failed.
        """
        if attempt < self.max_retries:
            self.stats.cells_retried += 1
            if self.journal is not None:
                self.journal.record("retry", spec, artifact=self._artifact,
                                    attempt=attempt + 1, error=reason)
            spans_mod.instant("engine.retry", cell=spec.label,
                              attempt=attempt + 1, reason=reason)
            self.echo(f"[cell] {spec.label} {reason}; "
                      f"retry {attempt + 1}/{self.max_retries} "
                      f"in {self._backoff(attempt):.1f}s")
            return True
        self.stats.cells_failed += 1
        if self.journal is not None:
            self.journal.record("failed", spec, artifact=self._artifact,
                                attempts=attempt + 1, error=reason)
        self.echo(f"[cell] {spec.label} {reason}; retries exhausted "
                  f"({self.max_retries})")
        return False

    def _backoff(self, attempt: int) -> float:
        """Exponential: ``retry_backoff * 2**attempt`` seconds."""
        return self.retry_backoff * (2 ** attempt)

    def _kill(self, task: _Task) -> None:
        try:
            task.conn.close()
        except OSError:
            pass
        task.process.terminate()
        task.process.join(timeout=5.0)
        if task.process.is_alive():
            task.process.kill()
            task.process.join()

    def _finish_cell(self, spec: CellSpec, encoded: Dict[str, object],
                     instructions: int, seconds: float,
                     attempts: int = 1) -> None:
        result = decode_result(spec, encoded)
        self._memo[spec] = result
        self.stats.cells_computed += 1
        self._cell_seconds.observe(seconds)
        self.stats.simulated_instructions += instructions
        self._done += 1
        self.echo(f"[cell {self._done}/{self._total}] {spec.label} "
                  f"{seconds:.2f}s ({instructions:,} instr)")
        with spans_mod.maybe("engine.cache.write", cell=spec.label):
            self._cache_store(spec, encoded, instructions, seconds)
        if self.journal is not None:
            self.journal.record("done", spec, artifact=self._artifact,
                                attempts=attempts,
                                seconds=round(seconds, 4))

    # -- the on-disk cache ----------------------------------------------------

    def _cache_path(self, spec: CellSpec) -> Path:
        return self.cache_dir / spec.cache_filename()

    def _cache_load(self, spec: CellSpec):
        if not self.use_cache:
            return None
        path = self._cache_path(spec)
        try:
            text = path.read_text()
        except OSError:
            return None  # no entry: a plain miss
        try:
            record = json.loads(text)
            if record.get("schema") != CACHE_SCHEMA \
                    or record.get("version") != __version__:
                return None  # stale but well-formed: silently recompute
            if record.get("sha256") != result_digest(record["result"]):
                raise ValueError("content hash mismatch")
            return decode_result(spec, record["result"])
        except (ValueError, KeyError, TypeError) as error:
            self._quarantine(spec, path, error)
            return None

    def _quarantine(self, spec: CellSpec, path: Path,
                    error: Exception) -> None:
        """Move a corrupt cache entry aside (never delete: the bytes may
        matter for diagnosing how they rotted) and count the event."""
        self.stats.cache_quarantined += 1
        reason = f"{type(error).__name__}: {error}" if str(error) \
            else type(error).__name__
        if self.journal is not None:
            self.journal.record("quarantine", spec, artifact=self._artifact,
                                error=reason)
        spans_mod.instant("engine.cache.quarantine", cell=spec.label,
                          reason=reason)
        try:
            quarantine_dir = self.cache_dir / "quarantine"
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            path.replace(quarantine_dir / path.name)
            self.echo(f"[cache] quarantined corrupt entry for "
                      f"{spec.label} ({reason})")
        except OSError:
            self.echo(f"[cache] corrupt entry for {spec.label} ({reason}); "
                      f"quarantine failed, treating as a miss")

    def _cache_store(self, spec: CellSpec, encoded: Dict[str, object],
                     instructions: int, seconds: float) -> None:
        if not self.use_cache:
            return
        record = {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "spec": spec.payload(),
            "sha256": result_digest(encoded),
            "result": encoded,
            "instructions": instructions,
            "seconds": round(seconds, 4),
        }
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._cache_path(spec)
            # Unique temp name (pid-suffixed) + atomic rename: concurrent
            # engines never interleave writes, and a crash mid-write
            # leaves only a stray .tmp, never a half-written entry.
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
            tmp.replace(path)
        except OSError:
            return  # a read-only cache directory degrades to cache-less
        if self.fault_plan is not None \
                and self.fault_plan.cache_fault(spec.label):
            # Injected corruption: truncate the entry mid-record so the
            # next read exercises the quarantine path.
            try:
                text = path.read_text()
                path.write_text(text[:max(1, len(text) // 2)])
            except OSError:
                pass
