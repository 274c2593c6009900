"""Sweep-scope span tracing: what the *engine* spends its wall-clock on.

The machine-level :class:`~repro.telemetry.tracer.EventTracer` answers
"what did the simulated core do"; this layer answers "where did the
sweep's wall-clock go" — batch scheduling, cache probes, worker
lifetimes, retries, checkpoint passes, superblock compiles — across the
parent process *and* every supervised worker.

One :class:`SpanTracer` lives per process.  It records **spans**
(begin/end with nesting) and **instants** as plain dicts:

* timestamps come from ``time.perf_counter_ns()`` (monotonic, immune to
  wall-clock steps); each tracer also records a one-shot *clock anchor*
  pairing a monotonic reading with ``time.time_ns()``, which is how
  :mod:`repro.telemetry.collate` aligns per-worker clocks onto one
  sweep timeline;
* every record carries ``pid`` and a small ``tid`` — either the
  recording thread (compressed to 0, 1, 2, …) or an explicit *lane*
  (the engine gives each in-flight cell attempt its own lane so
  concurrent cells render as parallel swimlanes in Perfetto);
* the buffer is **bounded**: past ``capacity`` completed spans, the
  tracer either spills the buffer to a JSONL file (``spill_path`` set —
  one JSON object per line, append-only, crash-tolerant) or drops the
  oldest records and counts them in :attr:`SpanTracer.dropped`.

Workers ship their buffers home with :meth:`SpanTracer.shipment` — a
plain picklable dict carrying the clock anchor and the drained spans.

Instrumented subsystems never hold a tracer reference.  They call the
module-level helpers, which are no-ops until someone *installs* the
process's observers (:func:`install`/:func:`uninstall`):

``with spans.maybe("snapshot.capture", pages=n): ...``
    Records a span iff a tracer is installed; otherwise the context
    manager is shared, allocation-free, and does nothing.

``spans.attach_machine(machine, label)``
    The one capture path for per-machine observers.  Depending on what
    :func:`install` armed, it gives the machine a bounded
    :class:`EventTracer` ring, a provenance recorder, both, or nothing.
    :func:`drain` — called at the end of every cell — exports what the
    attached machines captured (``{"machines": [...], "provenance":
    [...]}``) and forgets them, so each ring's wall-clock window closes
    with its cell and no machine outlives the cell that built it.

The disabled path — nothing installed, the default — is one module
global test per site.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .provenance import ProvenanceRecorder, cell_export
from .tracer import EventTracer

#: Bumped when the span record / shipment layout changes.
SPAN_SCHEMA = 1

#: The engine's default name for the span spill file (lives next to the
#: sweep journal under the cell-cache directory).
SPILL_FILENAME = "spans.jsonl"


@dataclass(frozen=True)
class TraceOptions:
    """How one traced sweep collects: buffer sizes and spill location."""

    capacity: int = 65536          # per-process span buffer (records)
    machine_capacity: int = 4096   # per-machine event ring shipped back
    spill_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(
                f"span capacity must be >= 1, got {self.capacity}")
        if self.machine_capacity < 0:
            raise ValueError(f"machine ring capacity must be >= 0, "
                             f"got {self.machine_capacity}")


class _SpanHandle:
    """An open span returned by :meth:`SpanTracer.begin`."""

    __slots__ = ("name", "category", "start_ns", "tid", "args", "closed")

    def __init__(self, name: str, category: str, start_ns: int, tid: int,
                 args: Dict[str, object]) -> None:
        self.name = name
        self.category = category
        self.start_ns = start_ns
        self.tid = tid
        self.args = args
        self.closed = False


class SpanTracer:
    """Bounded per-process buffer of engine spans and instants."""

    def __init__(self, capacity: int = 65536,
                 spill_path: Optional[Union[str, Path]] = None,
                 process_label: str = "engine") -> None:
        if capacity < 1:
            raise ValueError(f"span capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spill_path = Path(spill_path) if spill_path else None
        self.process_label = process_label
        self.pid = os.getpid()
        # The clock anchor: one (wall, monotonic) pair taken atomically
        # enough for trace purposes.  Collation maps any monotonic span
        # timestamp from this process to the wall clock via
        # ``wall_ns + (t - mono_ns)``.
        self.anchor_wall_ns = time.time_ns()
        self.anchor_mono_ns = time.perf_counter_ns()
        self._records: List[Dict[str, object]] = []
        self.spilled = 0
        self.dropped = 0
        self._spill_drained = 0  # spilled lines already returned by drain()
        self._thread_tids: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def _tid(self, tid: Optional[int]) -> int:
        if tid is not None:
            return tid
        ident = threading.get_ident()
        known = self._thread_tids.get(ident)
        if known is None:
            known = self._thread_tids[ident] = len(self._thread_tids)
        return known

    def begin(self, name: str, category: str = "engine",
              tid: Optional[int] = None, **args) -> _SpanHandle:
        """Open a span; close it with :meth:`end` (any order, any time)."""
        return _SpanHandle(name, category, time.perf_counter_ns(),
                           self._tid(tid), dict(args))

    def end(self, handle: _SpanHandle, **args) -> None:
        """Close an open span, merging any late-arriving args."""
        if handle.closed:
            return
        handle.closed = True
        if args:
            handle.args.update(args)
        now = time.perf_counter_ns()
        self._append({
            "ph": "X",
            "name": handle.name,
            "cat": handle.category,
            "start_ns": handle.start_ns,
            "dur_ns": max(0, now - handle.start_ns),
            "pid": self.pid,
            "tid": handle.tid,
            "args": handle.args,
        })

    @contextmanager
    def span(self, name: str, category: str = "engine",
             tid: Optional[int] = None, **args):
        handle = self.begin(name, category, tid, **args)
        try:
            yield handle
        finally:
            self.end(handle)

    def instant(self, name: str, category: str = "engine",
                tid: Optional[int] = None, **args) -> None:
        self._append({
            "ph": "i",
            "name": name,
            "cat": category,
            "start_ns": time.perf_counter_ns(),
            "dur_ns": 0,
            "pid": self.pid,
            "tid": self._tid(tid),
            "args": dict(args),
        })

    def _append(self, record: Dict[str, object]) -> None:
        self._records.append(record)
        if len(self._records) < self.capacity:
            return
        if self.spill_path is not None:
            self._spill()
        else:
            # No spill target: keep the newest half, count the rest.
            keep = self.capacity // 2
            self.dropped += len(self._records) - keep
            del self._records[:len(self._records) - keep]

    def _spill(self) -> None:
        """Append the buffered records to the spill file and clear."""
        records, self._records = self._records, []
        try:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            with self.spill_path.open("a") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
            self.spilled += len(records)
        except OSError:
            # Unwritable spill target degrades to drop-oldest.
            self.dropped += len(records)

    # -- introspection / export ----------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def clock(self) -> Dict[str, object]:
        """The clock anchor the collator aligns this process with."""
        return {
            "pid": self.pid,
            "label": self.process_label,
            "wall_ns": self.anchor_wall_ns,
            "mono_ns": self.anchor_mono_ns,
        }

    def drain(self) -> List[Dict[str, object]]:
        """All retained records (spilled ones first, re-read from disk),
        clearing the in-memory buffer."""
        records: List[Dict[str, object]] = []
        if self.spilled > self._spill_drained and self.spill_path is not None:
            try:
                lines = self.spill_path.read_text().splitlines()
            except OSError:
                lines = []
            # The spill file survives (repro status tails it); remember
            # how far this drain read so a later drain never duplicates.
            for line in lines[self._spill_drained:]:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # truncated trailing line
            self._spill_drained = len(lines)
        records.extend(self._records)
        self._records = []
        return records

    def shipment(self) -> Dict[str, object]:
        """The picklable per-process bundle the collator consumes."""
        return {
            "schema": SPAN_SCHEMA,
            "clock": self.clock(),
            "spans": self.drain(),
        }


# -- module-level plumbing (the instrumented subsystems' view) ----------------


_CURRENT: Optional[SpanTracer] = None
#: What :func:`attach_machine` captures: (event-ring capacity, provenance).
_CAPTURE: Tuple[int, bool] = (0, False)
#: Machines attached since the last :func:`drain` (install clears it):
#: ``(label, machine, ring or None, start_ns)``.
_ATTACHED: List[tuple] = []


@contextmanager
def _noop():
    yield None


_NOOP = _noop


def install(tracer: Optional[SpanTracer], machine_capacity: int = 0,
            provenance: bool = False) -> None:
    """Arm this process's observers.

    ``tracer`` (may be ``None``) becomes the current span tracer.  Every
    machine later passed to :func:`attach_machine` gets a bounded
    :class:`EventTracer` ring when ``machine_capacity > 0`` and a
    provenance recorder when ``provenance`` is set.
    """
    global _CURRENT, _CAPTURE
    _CURRENT = tracer
    _CAPTURE = (machine_capacity, provenance)
    _ATTACHED.clear()


def uninstall() -> Optional[SpanTracer]:
    global _CURRENT, _CAPTURE
    tracer, _CURRENT = _CURRENT, None
    _CAPTURE = (0, False)
    _ATTACHED.clear()
    return tracer


def current() -> Optional[SpanTracer]:
    return _CURRENT


def armed() -> bool:
    """True while :func:`install` has anything to observe."""
    return _CURRENT is not None or any(_CAPTURE)


def maybe(name: str, category: str = "engine", **args):
    """A span iff a tracer is installed; a shared no-op otherwise."""
    tracer = _CURRENT
    if tracer is None:
        return _NOOP()
    return tracer.span(name, category, **args)


def instant(name: str, category: str = "engine", **args) -> None:
    tracer = _CURRENT
    if tracer is not None:
        tracer.instant(name, category, **args)


def attach_machine(machine, label: str) -> None:
    """Attach whatever :func:`install` armed to ``machine``.

    No-op (one global test) when neither rings nor provenance are armed.
    Both attach through ``machine.attach``; an observed machine still
    replays superblocks, with the hooks compiled in, so the cell runs
    the executor an unobserved cell runs.
    """
    capacity, provenance = _CAPTURE
    if not (capacity or provenance):
        return
    ring = None
    if capacity:
        ring = machine.attach(EventTracer(capacity=capacity))
    if provenance and machine.provenance is None:
        machine.attach(ProvenanceRecorder(machine.program))
    _ATTACHED.append((label, machine, ring, time.perf_counter_ns()))


def drain() -> Dict[str, List[Dict[str, object]]]:
    """Export every machine attached since the last drain, then forget
    them: ``machines`` holds the captured rings (collator input) and
    ``provenance`` the per-cell provenance sidecars."""
    end_ns = time.perf_counter_ns()
    provenance = _CAPTURE[1]
    machines: List[Dict[str, object]] = []
    cells: List[Dict[str, object]] = []
    for label, machine, ring, start_ns in _ATTACHED:
        if ring is not None:
            cycles = int(getattr(machine.timing, "now", 0))
            events = [event.to_json_obj() for event in ring.records()]
            if cycles <= 0:
                cycles = max((event["ts"] for event in events), default=0)
            machines.append({
                "label": label,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "cycles": cycles,
                "emitted": ring.emitted,
                "dropped": ring.dropped,
                "events": events,
            })
        if provenance:
            cells.append(cell_export(machine, label))
    _ATTACHED.clear()
    return {"machines": machines, "provenance": cells}
