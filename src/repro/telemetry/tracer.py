"""Bounded ring-buffer event tracer with JSONL / Chrome trace export.

The tracer records *discrete* machine events — the things the paper's
mechanism narrative is made of — as fixed-shape tuples:

======================  ====================================================
kind                    payload fields
======================  ====================================================
``uop_inject``          ``uops`` — injected micro-ops at a heap-interception
                        site (capGen/capFree begin/end pairs)
``capcheck``            ``pid``, ``address``, ``ok`` — one executed
                        ``capCheck`` micro-op
``capgen``              ``pid``, ``base``, ``size`` — a capability was
                        generated (allocation interception completed)
``capfree``             ``pid`` — a capability was freed/invalidated
``predictor``           ``predicted``, ``actual``, ``outcome`` — one
                        pointer-reload prediction resolution (outcome is
                        ``correct`` / ``P0AN`` / ``PNA0`` / ``PMAN``)
``squash``              ``cause`` (``branch`` | ``alias``), ``penalty`` —
                        a pipeline flush was charged
``violation``           ``violation`` (kind label), ``pid``, ``address`` —
                        a memory-safety violation was flagged
======================  ====================================================

Every record also carries ``ts`` (the core's current commit cycle) and
``pc`` (the macro instruction's address); the machine reports them
through the :class:`Observer` protocol.  The buffer is a preallocated
ring: once ``capacity`` events have been emitted the oldest are
overwritten and counted in :attr:`EventTracer.dropped`, so tracing a
long run costs bounded memory.

Exports:

* :meth:`EventTracer.write_jsonl` — one JSON object per line, ordered
  oldest-to-newest (grep/jq-friendly);
* :meth:`EventTracer.chrome_trace` / :meth:`EventTracer.write_chrome` —
  the Chrome ``trace_event`` JSON object format, loadable in Perfetto or
  ``chrome://tracing`` for timeline viewing (``squash`` events become
  duration slices, everything else instant events).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

#: Every kind the machine emits, with its payload fields in the order
#: the machine records them.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "uop_inject": ("uops",),
    "capcheck": ("pid", "address", "ok"),
    "capgen": ("pid", "base", "size"),
    "capfree": ("pid",),
    "predictor": ("predicted", "actual", "outcome"),
    "squash": ("cause", "penalty"),
    "violation": ("violation", "pid", "address"),
}
#: The ``repro trace --kind`` choices.
EVENT_KINDS = tuple(EVENT_FIELDS)


class TraceEvent(NamedTuple):
    """One structured trace record."""

    ts: int
    kind: str
    pc: int
    fields: Dict[str, object]

    def to_json_obj(self) -> Dict[str, object]:
        record: Dict[str, object] = {"ts": self.ts, "kind": self.kind,
                                     "pc": self.pc}
        record.update(self.fields)
        return record

    def format_text(self) -> str:
        """One listing line; known fields print in recording order, so a
        trace reloaded from an export (JSONL sorts its keys) lists as the
        live run did."""
        fields = self.fields
        order = EVENT_FIELDS.get(self.kind, ())
        keys = [key for key in order if key in fields] \
            + [key for key in fields if key not in order]
        payload = " ".join(f"{key}={_fmt(key, fields[key])}" for key in keys)
        return f"{self.ts:>10}  {self.kind:<10} pc={self.pc:#x}" \
               + (f"  {payload}" if payload else "")


def _fmt(key: str, value: object) -> str:
    if key in ("address", "base") and isinstance(value, int):
        return f"{value:#x}"
    return str(value)


class Observer:
    """The machine's one observer protocol; every hook is a no-op.

    ``Chex86Machine.attach(observer)`` fills the machine's one observer
    slot.  ``step()`` calls these hooks, and superblock replay compiled
    while observers are attached makes the same calls (to the hooks they
    override) at the same points relative to the timing model, so a
    stepped and a replayed run report identical events.  ``ts`` is the
    core's commit cycle (``timing.now``), ``pc`` the instruction's address.
    """

    __slots__ = ()

    def on_intercept(self, ts, pc, uops):
        """A heap-interception site injected ``uops`` micro-ops."""

    def on_inject(self, ts, pc, uops):
        """The MCU injected a check (or a PNA0 ghost check) micro-op."""

    def on_capcheck(self, ts, pc, pid, address, ok):
        """One capability check: a ``capCheck`` micro-op, or the
        hardware-only variant's check in the load/store unit."""

    def on_capgen_begin(self, ts, pc, pid, size):
        """An allocation interception minted ``pid`` (before any flag)."""

    def on_capgen(self, ts, pc, pid, base, size):
        """Capability generation completed at ``base``."""

    def on_capfree(self, ts, pc, pid):
        """A capability was freed."""

    def on_walk(self, ts, pc):
        """The alias-table walker ran for a pointer reload."""

    def on_reload(self, ts, pc, predicted, actual, outcome):
        """A pointer-reload prediction resolved (``correct``/``P0AN``/
        ``PNA0``/``PMAN``)."""

    def on_squash(self, ts, pc, cause, penalty):
        """A ``branch`` or ``alias`` flush was charged."""

    def on_call(self, ts, pc):
        """A CALL retired."""

    def on_ret(self, ts, pc):
        """A RET retired."""

    def on_violation(self, ts, pc, violation):
        """A violation is being flagged; returns the provenance chain to
        freeze into the logged ``Violation``, or None."""

    def on_result(self, ts, pc, uop, pid, value):
        """A LIMM/MOV/LEA/ALU/LD ``uop`` wrote ``value``, which the
        tracker tags ``pid`` (pointer-tracking variants only)."""

    def on_instr(self, ts, pc):
        """The macro instruction at ``pc`` is about to execute."""


#: Every hook of the protocol.
HOOKS = tuple(name for name in vars(Observer) if name.startswith("on_"))


class FanOut(Observer):
    """Several observers in the machine's one slot, each hook called on
    them in attach order; ``on_violation`` returns the first chain any
    of them gives."""

    __slots__ = ("observers",)

    def __init__(self, observers: Sequence[Observer]) -> None:
        self.observers = tuple(observers)


def _fan_out(name: str):
    """The :class:`FanOut` form of hook ``name``: call it on each observer
    and return the first non-None result."""
    def hook(self, *args):
        result = None
        for observer in self.observers:
            value = getattr(observer, name)(*args)
            if result is None:
                result = value
        return result
    hook.__name__ = name
    return hook


for _name in HOOKS:
    setattr(FanOut, _name, _fan_out(_name))


class ExecutionTrace(Observer):
    """The pcs of the first ``limit`` instructions a machine executes."""

    __slots__ = ("limit", "pcs")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.pcs: List[int] = []

    def on_instr(self, ts, pc):
        if len(self.pcs) < self.limit:
            self.pcs.append(pc)

    def format_trace(self, program) -> str:
        """One ``pc:  [label: ]instruction`` line per recorded step."""
        from ..isa.disasm import format_instr

        labels = {address: name for name, address in program.labels.items()}
        lines = []
        for pc in self.pcs:
            instr = program.fetch(pc)
            label = labels.get(pc)
            prefix = f"{label}: " if label and instr.label == label else ""
            lines.append(f"{pc:#x}:  {prefix}{format_instr(instr, labels)}")
        return "\n".join(lines)


class EventTracer(Observer):
    """Preallocated ring buffer of :class:`TraceEvent` records."""

    __slots__ = ("capacity", "_ring", "_emitted")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._emitted = 0

    # -- recording -----------------------------------------------------------

    def emit(self, ts: int, kind: str, pc: int = 0, **fields) -> None:
        self._ring[self._emitted % self.capacity] = \
            TraceEvent(ts, kind, pc, fields)
        self._emitted += 1

    # -- the observer hooks that record an event -----------------------------

    def on_intercept(self, ts, pc, uops):
        self.emit(ts, "uop_inject", pc, uops=uops)

    def on_capcheck(self, ts, pc, pid, address, ok):
        self.emit(ts, "capcheck", pc, pid=pid, address=address, ok=ok)

    def on_capgen(self, ts, pc, pid, base, size):
        self.emit(ts, "capgen", pc, pid=pid, base=base, size=size)

    def on_capfree(self, ts, pc, pid):
        self.emit(ts, "capfree", pc, pid=pid)

    def on_reload(self, ts, pc, predicted, actual, outcome):
        self.emit(ts, "predictor", pc, predicted=predicted, actual=actual,
                  outcome=outcome)

    def on_squash(self, ts, pc, cause, penalty):
        self.emit(ts, "squash", pc, cause=cause, penalty=penalty)

    def on_violation(self, ts, pc, violation):
        self.emit(ts, "violation", pc, violation=violation.kind.value,
                  pid=violation.pid, address=violation.address)

    # -- introspection -------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including overwritten ones)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound."""
        return max(0, self._emitted - self.capacity)

    def __len__(self) -> int:
        return min(self._emitted, self.capacity)

    def records(self) -> List[TraceEvent]:
        """Retained events, oldest first (wraparound-corrected)."""
        count = len(self)
        if self._emitted <= self.capacity:
            return [event for event in self._ring[:count]
                    if event is not None]
        pivot = self._emitted % self.capacity
        ordered = self._ring[pivot:] + self._ring[:pivot]
        return [event for event in ordered if event is not None]

    def filtered(self, kinds: Optional[Sequence[str]] = None,
                 pc: Optional[int] = None) -> List[TraceEvent]:
        """Retained events restricted to ``kinds`` and/or one ``pc``."""
        wanted = set(kinds) if kinds else None
        return [event for event in self.records()
                if (wanted is None or event.kind in wanted)
                and (pc is None or event.pc == pc)]

    # -- export --------------------------------------------------------------

    def jsonl_lines(self, events: Optional[Iterable[TraceEvent]] = None
                    ) -> List[str]:
        source = self.records() if events is None else events
        return [json.dumps(event.to_json_obj(), sort_keys=True)
                for event in source]

    def write_jsonl(self, path: Union[str, Path],
                    events: Optional[Iterable[TraceEvent]] = None) -> None:
        lines = self.jsonl_lines(events)
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    def chrome_trace(self, process_name: str = "chex86",
                     events: Optional[Iterable[TraceEvent]] = None
                     ) -> Dict[str, object]:
        """The Chrome ``trace_event`` JSON object form of the buffer.

        ``ts`` is in microseconds by spec; we map one simulated cycle to
        one microsecond, which keeps relative spacing exact and renders
        readably in Perfetto / ``chrome://tracing``.
        """
        trace_events: List[Dict[str, object]] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": process_name},
        }]
        source = self.records() if events is None else events
        for event in source:
            args = dict(event.fields)
            args["pc"] = f"{event.pc:#x}"
            record: Dict[str, object] = {
                "name": event.kind,
                "cat": "chex86",
                "ts": event.ts,
                "pid": 0,
                "tid": 0,
                "args": args,
            }
            if event.kind == "squash":
                record["ph"] = "X"
                record["dur"] = max(1, int(event.fields.get("penalty", 1)))
            else:
                record["ph"] = "i"
                record["s"] = "t"
            trace_events.append(record)
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def write_chrome(self, path: Union[str, Path],
                     process_name: str = "chex86",
                     events: Optional[Iterable[TraceEvent]] = None) -> None:
        document = self.chrome_trace(process_name, events)
        Path(path).write_text(json.dumps(document) + "\n")
