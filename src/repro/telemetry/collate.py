"""Collate per-process span shipments into one Chrome ``trace_event`` file.

A traced sweep produces one :meth:`~repro.telemetry.spans.SpanTracer.
shipment` per process: the parent engine plus every supervised worker.
Each shipment carries its own monotonic span timestamps, a clock anchor
(one ``(wall_ns, mono_ns)`` pair), and any captured machine event rings.
:func:`collate` merges them — **clock-aligned per worker** — into a
single Chrome ``trace_event`` JSON object that opens in Perfetto or
``chrome://tracing`` with engine spans and machine events on the same
timeline:

* every span becomes a complete (``ph: "X"``) event; instants become
  ``ph: "i"``;
* each process renders as its own track (``process_name`` metadata from
  the shipment's clock label), with the engine's per-cell *lanes* as
  named threads, so concurrent cell attempts appear as parallel
  swimlanes;
* machine events (capchecks, squashes, violations, …) are measured in
  simulated cycles, not wall time; the collator scales each captured
  ring linearly onto the wall-clock window its machine actually ran in
  (``start_ns``/``end_ns`` from the capture), preserving relative
  spacing, and keeps the exact ``cycle`` in the event args.

Timestamp alignment: for a shipment with anchor ``(wall_ns, mono_ns)``,
a monotonic reading ``t`` maps to the wall clock as
``wall_ns + (t - mono_ns)``; the trace origin is the earliest anchor
across shipments, and Chrome ``ts`` is microseconds since that origin.

:func:`validate_chrome_trace` is the schema check CI runs over the
merged file: required field types, every ``B`` matched by an ``E``, and
timestamps monotonic per ``(pid, tid)``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

#: Bumped when the merged-trace layout changes.
COLLATED_TRACE_SCHEMA = 1

#: The tid machine-event tracks start at inside a worker's process
#: track (far above any span lane).
MACHINE_TID_BASE = 1000


def _wall_ns(clock: Dict[str, object], mono_ns: int) -> int:
    return int(clock["wall_ns"]) + (mono_ns - int(clock["mono_ns"]))


def collate(shipments: Sequence[Dict[str, object]],
            sweep_label: str = "sweep") -> Dict[str, object]:
    """Merge span shipments into one Chrome ``trace_event`` document."""
    shipments = [s for s in shipments if s]
    events: List[Dict[str, object]] = []
    origin: Optional[int] = None
    for shipment in shipments:
        clock = shipment["clock"]
        anchor = int(clock["wall_ns"])
        if origin is None or anchor < origin:
            origin = anchor
    if origin is None:
        origin = 0

    def ts_us(clock: Dict[str, object], mono_ns: int) -> float:
        return round((_wall_ns(clock, mono_ns) - origin) / 1000.0, 3)

    seen_pids = set()
    for shipment in shipments:
        clock = shipment["clock"]
        pid = int(clock["pid"])
        if pid not in seen_pids:
            seen_pids.add(pid)
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0,
                           "args": {"name": str(clock.get("label", pid))}})
        for span in shipment.get("spans", ()):
            record: Dict[str, object] = {
                "name": span["name"],
                "cat": span.get("cat", "engine"),
                "ph": "X" if span.get("ph", "X") == "X" else "i",
                "ts": ts_us(clock, int(span["start_ns"])),
                "pid": pid,
                "tid": int(span.get("tid", 0)),
                "args": dict(span.get("args", {})),
            }
            if record["ph"] == "X":
                record["dur"] = round(int(span.get("dur_ns", 0)) / 1000.0, 3)
            else:
                record["s"] = "t"
            events.append(record)
        for index, ring in enumerate(shipment.get("machines", ())):
            events.extend(_machine_events(clock, pid, index, ring, ts_us))

    events.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": COLLATED_TRACE_SCHEMA,
            "generator": "repro sweep tracer",
            "label": sweep_label,
            "origin_wall_ns": origin,
            "processes": len(shipments),
        },
    }


def _machine_events(clock: Dict[str, object], pid: int, index: int,
                    ring: Dict[str, object], ts_us) -> List[Dict[str, object]]:
    """Scale one captured machine ring onto its wall-clock window."""
    tid = MACHINE_TID_BASE + index
    label = ring.get("label", f"machine {index}")
    out: List[Dict[str, object]] = [{
        "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
        "args": {"name": f"machine: {label}"},
    }]
    start_ns = int(ring.get("start_ns", 0))
    end_ns = int(ring.get("end_ns", start_ns))
    cycles = max(1, int(ring.get("cycles", 0)))
    scale = max(0, end_ns - start_ns) / cycles  # ns per simulated cycle
    for event in ring.get("events", ()):
        cycle = int(event.get("ts", 0))
        args = {key: value for key, value in event.items()
                if key not in ("ts", "kind")}
        args["cycle"] = cycle
        if isinstance(args.get("pc"), int):
            args["pc"] = f"{args['pc']:#x}"
        record: Dict[str, object] = {
            "name": str(event.get("kind", "event")),
            "cat": "machine",
            "ts": ts_us(clock, start_ns + int(cycle * scale)),
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if event.get("kind") == "squash":
            record["ph"] = "X"
            record["dur"] = round(
                max(1, int(event.get("penalty", 1))) * scale / 1000.0, 3)
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    return out


def write_chrome(path: Union[str, Path], document: Dict[str, object]) -> None:
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document) + "\n")


def load_chrome(path: Union[str, Path]) -> Dict[str, object]:
    """Read a Chrome trace file (object form or bare event array)."""
    return chrome_document(json.loads(Path(path).read_text()), path)


def chrome_document(document: object,
                    path: Union[str, Path]) -> Dict[str, object]:
    """The object form of a parsed Chrome trace read from ``path``."""
    if isinstance(document, list):  # the JSON-array flavour of the format
        document = {"traceEvents": document}
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a Chrome trace_event document")
    return document


def validate_chrome_trace(document: Dict[str, object]) -> List[str]:
    """Schema-check a merged trace; returns problems (empty == valid).

    Checks the invariants the CI gate relies on: ``traceEvents`` is a
    list of well-typed events (``ph`` a string, ``ts`` numeric and
    non-negative, ``pid``/``tid`` integers), every ``B`` has a matching
    ``E`` on its ``(pid, tid)``, and non-metadata timestamps are
    monotonically non-decreasing per ``(pid, tid)`` track.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    open_begins: Dict[tuple, List[str]] = {}
    last_ts: Dict[tuple, float] = {}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: ph {ph!r} is not a non-empty string")
            continue
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid {event.get('pid')!r} is not int")
            continue
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: tid {event.get('tid')!r} is not int")
            continue
        if ph == "M":
            continue  # metadata carries no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: ts {ts!r} is not a non-negative "
                            f"number")
            continue
        track = (event["pid"], event["tid"])
        if ts < last_ts.get(track, 0):
            problems.append(
                f"{where}: ts {ts} goes backwards on pid/tid {track}")
        last_ts[track] = ts
        if ph == "X":
            dur = event.get("dur", 0)
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event dur {dur!r} invalid")
        elif ph == "B":
            open_begins.setdefault(track, []).append(
                str(event.get("name", "")))
        elif ph == "E":
            stack = open_begins.get(track)
            if not stack:
                problems.append(f"{where}: E without a matching B on "
                                f"pid/tid {track}")
            else:
                stack.pop()
    for track, stack in open_begins.items():
        for name in stack:
            problems.append(f"B {name!r} on pid/tid {track} never closed "
                            f"by an E")
    return problems


def machine_trace_events(document: Dict[str, object]):
    """The machine-level events of a *merged* trace, as
    :class:`~repro.telemetry.tracer.TraceEvent` records (cycle
    timestamps restored) — what ``repro trace`` filters."""
    from .tracer import TraceEvent

    out = []
    for event in document.get("traceEvents", ()):
        if not isinstance(event, dict) or event.get("cat") not in (
                "machine", "chex86"):
            continue
        if event.get("ph") == "M":
            continue
        args = dict(event.get("args", {}))
        cycle = args.pop("cycle", None)
        ts = int(cycle) if cycle is not None else int(event.get("ts", 0))
        pc = args.pop("pc", 0)
        if isinstance(pc, str):
            pc = int(pc, 0)
        if event.get("name") == "squash" and "penalty" not in args \
                and "dur" in event:
            args["penalty"] = event["dur"]
        out.append(TraceEvent(ts=ts, kind=str(event.get("name", "event")),
                              pc=pc, fields=args))
    return out
