"""Context-sensitive provenance attribution.

CHEx86's enforcement is *context sensitive* — capabilities are minted
per allocation context — yet the aggregate counters in
``MetricsRegistry`` and the flat pc-tagged events in ``EventTracer``
cannot answer questions like "which call chain pays for most capability
checks?" or "which allocation site produced the capability behind this
use-after-free?".  This module closes that gap with an opt-in
:class:`ProvenanceRecorder`:

* **Shadow call stack.**  The machine reports CALL/RET retirement; the
  recorder folds the live stack into interned *context ids* using a
  calling-context tree (one node per ``(parent, call-site pc)`` pair),
  so hot-path bookkeeping is two dict operations, not a stack copy.
* **Capability lifecycles.**  Every capability generation and free
  (realloc decomposes into free+gen) is tagged ``(context, pc, cycle)``
  and kept in a bounded per-capability history.
* **Violation forensics.**  :meth:`ProvenanceRecorder.on_violation`
  assembles the allocation → free → faulting-access chain for a
  violation; the machine attaches it to the frozen ``Violation`` so
  diagnostics and JSON reports can render an ASan-style provenance
  section.
* **Cost attribution.**  Capability checks, alias-tree walks, MCU uop
  injections, and reload-predictor outcomes are bucketed by
  ``(context, pc)`` and exported as flamegraph-compatible collapsed
  stacks and annotated-disassembly heatmaps.

The recorder is an :class:`~repro.telemetry.tracer.Observer`:
``machine.attach(ProvenanceRecorder(program))`` arms a machine, and it
hears the same hooks whether a member is stepped or replayed from a
compiled superblock, so an armed run executes exactly as an unarmed one.
Eval-engine sweeps arm every cell machine through the one observer
capture path in :mod:`repro.telemetry.spans` (``install(...,
provenance=True)``, ``attach_machine``, and a per-cell ``drain`` that
turns each attached machine into a :func:`cell_export` sidecar).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .tracer import Observer

#: Version stamp for provenance exports and on-disk reports.  Bump when
#: the export tree shape changes incompatibly.
PROVENANCE_SCHEMA = 1

#: The interned id of the empty call stack.
ROOT_CONTEXT = 0

#: Cost-attribution counter families tracked per ``(context, pc)``.
COUNTERS = ("capchecks", "alias_walks", "uop_injections")


def symbolize(program, pc: int) -> str:
    """Resolve ``pc`` to ``label`` or ``label+0xoff`` using the nearest
    preceding program label; falls back to the raw hex address."""
    if program is None or not getattr(program, "labels", None):
        return f"{pc:#x}"
    pairs = sorted((address, name) for name, address in program.labels.items())
    addresses = [address for address, _ in pairs]
    index = bisect_right(addresses, pc) - 1
    if index < 0:
        return f"{pc:#x}"
    address, name = pairs[index]
    offset = pc - address
    return name if offset == 0 else f"{name}+{offset:#x}"


class ProvenanceRecorder(Observer):
    """Per-machine provenance state.

    The observer hooks (``on_call``/``on_ret``/``on_capcheck``/...) are
    dict-increment cheap; everything expensive (symbolization, stack
    unfolding, report assembly) happens at export time.
    """

    def __init__(self, program=None, history_limit: int = 16) -> None:
        self.program = program
        self.history_limit = max(2, int(history_limit))
        # Calling-context tree: context id -> (parent context, call pc).
        # Node 0 is the root (empty stack).
        self._parents: List[Tuple[int, int]] = [(-1, -1)]
        self._children: Dict[Tuple[int, int], int] = {}
        self._ctx_stack: List[int] = []
        self.current = ROOT_CONTEXT
        # pid -> bounded [(event, context, pc, cycle, size), ...]
        self.lifecycles: Dict[int, List[Tuple[str, int, int, int, int]]] = {}
        self.truncated: Dict[int, int] = {}
        # (context, pc) -> count, one table per cost family.
        self.capchecks: Dict[Tuple[int, int], int] = {}
        self.alias_walks: Dict[Tuple[int, int], int] = {}
        self.uop_injections: Dict[Tuple[int, int], int] = {}
        # (context, pc, outcome) -> count for reload-predictor outcomes.
        self.reload_outcomes: Dict[Tuple[int, int, str], int] = {}
        self._symbols: Optional[Tuple[List[int], List[str]]] = None

    # -- shadow call stack ---------------------------------------------------

    def on_call(self, ts: int, pc: int) -> None:
        """A CALL retired at ``pc``: descend into (or intern) the child
        context."""
        key = (self.current, pc)
        context = self._children.get(key)
        if context is None:
            context = len(self._parents)
            self._parents.append(key)
            self._children[key] = context
        self._ctx_stack.append(self.current)
        self.current = context

    def on_ret(self, ts: int, pc: int) -> None:
        """A RET retired: pop back to the caller's context.  Unbalanced
        stacks (longjmp-style control flow, mid-function entry after a
        snapshot restore) degrade gracefully to the root context."""
        if self._ctx_stack:
            self.current = self._ctx_stack.pop()
        else:
            self.current = ROOT_CONTEXT

    def depth(self) -> int:
        return len(self._ctx_stack)

    # -- capability lifecycles -----------------------------------------------

    def on_capgen_begin(self, ts: int, pc: int, pid: int, size: int) -> None:
        self._record(pid, "alloc", pc, ts, size)

    def on_capfree(self, ts: int, pc: int, pid: int) -> None:
        self._record(pid, "free", pc, ts, 0)

    def _record(self, pid: int, event: str, pc: int, cycle: int,
                size: int) -> None:
        history = self.lifecycles.setdefault(pid, [])
        if len(history) >= self.history_limit:
            del history[1]  # keep the original allocation, drop oldest rest
            self.truncated[pid] = self.truncated.get(pid, 0) + 1
        history.append((event, self.current, pc, cycle, size))

    # -- cost attribution ----------------------------------------------------

    def on_capcheck(self, ts: int, pc: int, pid: int, address: int,
                    ok: bool) -> None:
        key = (self.current, pc)
        table = self.capchecks
        table[key] = table.get(key, 0) + 1

    def on_walk(self, ts: int, pc: int) -> None:
        key = (self.current, pc)
        table = self.alias_walks
        table[key] = table.get(key, 0) + 1

    def on_inject(self, ts: int, pc: int, uops: int) -> None:
        key = (self.current, pc)
        table = self.uop_injections
        table[key] = table.get(key, 0) + uops

    on_intercept = on_inject

    def on_reload(self, ts: int, pc: int, predicted: int, actual: int,
                  outcome: str) -> None:
        key = (self.current, pc, outcome)
        table = self.reload_outcomes
        table[key] = table.get(key, 0) + 1

    # -- context resolution --------------------------------------------------

    def frames(self, context: int) -> List[int]:
        """The call-site pcs of ``context``, outermost first."""
        pcs: List[int] = []
        while context > ROOT_CONTEXT:
            parent, pc = self._parents[context]
            pcs.append(pc)
            context = parent
        pcs.reverse()
        return pcs

    def _symbol(self, pc: int) -> str:
        if self._symbols is None:
            labels = getattr(self.program, "labels", None) or {}
            pairs = sorted((address, name) for name, address in labels.items())
            self._symbols = ([address for address, _ in pairs],
                             [name for _, name in pairs])
        addresses, names = self._symbols
        index = bisect_right(addresses, pc) - 1
        if index < 0:
            return f"{pc:#x}"
        offset = pc - addresses[index]
        return names[index] if offset == 0 else f"{names[index]}+{offset:#x}"

    def frame_names(self, context: int) -> List[str]:
        """Symbolized frames for ``context`` (nearest preceding label)."""
        return [self._symbol(pc) for pc in self.frames(context)]

    # -- violation forensics -------------------------------------------------

    def on_violation(self, ts: int, pc: int, violation) -> Dict[str, object]:
        """Build the alloc → free → faulting-access provenance chain for
        ``violation`` flagged at ``pc``.  Plain data only, so the chain
        pickles inside the frozen ``Violation`` and survives snapshots."""

        def entry(record) -> Dict[str, object]:
            event, context, event_pc, cycle, size = record
            return {"event": event,
                    "context": self.frames(context),
                    "frames": self.frame_names(context),
                    "pc": event_pc, "cycle": cycle, "size": size}

        history = self.lifecycles.get(violation.pid, [])
        alloc = next((r for r in history if r[0] == "alloc"), None)
        free = next((r for r in reversed(history) if r[0] == "free"), None)
        return {
            "alloc": entry(alloc) if alloc is not None else None,
            "free": entry(free) if free is not None else None,
            "access": {"context": self.frames(self.current),
                       "frames": self.frame_names(self.current),
                       "pc": pc},
        }

    # -- exports -------------------------------------------------------------

    def _table(self, counter: str) -> Dict[Tuple[int, int], int]:
        if counter not in COUNTERS:
            raise ValueError(f"unknown provenance counter: {counter!r}")
        return getattr(self, counter)

    def collapsed(self, counter: str = "capchecks") -> Dict[str, int]:
        """Flamegraph-compatible folded stacks: ``frame;frame;leaf`` →
        count, where the leaf frame is the costed pc's enclosing label."""
        folded: Dict[str, int] = {}
        for (context, pc), count in self._table(counter).items():
            stack = ";".join(self.frame_names(context) + [self._symbol(pc)])
            folded[stack] = folded.get(stack, 0) + count
        return folded

    def pc_counts(self, counter: str = "capchecks") -> Dict[int, int]:
        """Context-collapsed per-pc totals (heatmap input)."""
        totals: Dict[int, int] = {}
        for (_, pc), count in self._table(counter).items():
            totals[pc] = totals.get(pc, 0) + count
        return totals

    def total(self, counter: str = "capchecks") -> int:
        return sum(self._table(counter).values())

    def export(self) -> Dict[str, object]:
        """JSON-safe per-cell export: collapsed stacks and per-pc totals
        for every cost family, reload outcomes, lifecycle summary."""
        outcomes: Dict[str, Dict[str, int]] = {}
        for (context, pc, outcome), count in self.reload_outcomes.items():
            stack = ";".join(self.frame_names(context) + [self._symbol(pc)])
            bucket = outcomes.setdefault(outcome, {})
            bucket[stack] = bucket.get(stack, 0) + count
        return {
            "schema": PROVENANCE_SCHEMA,
            "contexts": len(self._parents),
            "collapsed": {counter: self.collapsed(counter)
                          for counter in COUNTERS},
            "pcs": {counter: {f"{pc:#x}": count
                              for pc, count in sorted(
                                  self.pc_counts(counter).items())}
                    for counter in COUNTERS},
            "totals": {counter: self.total(counter) for counter in COUNTERS},
            "reload_outcomes": outcomes,
            "capabilities": len(self.lifecycles),
            "lifecycle_truncated": sum(self.truncated.values()),
        }

    # -- snapshot support ----------------------------------------------------

    def state(self) -> Dict[str, object]:
        """Plain-data state for machine snapshots (SNAPSHOT_SCHEMA >= 3)."""
        return {
            "history_limit": self.history_limit,
            "current": self.current,
            "parents": [list(pair) for pair in self._parents],
            "ctx_stack": list(self._ctx_stack),
            "lifecycles": {pid: [list(record) for record in history]
                           for pid, history in self.lifecycles.items()},
            "truncated": dict(self.truncated),
            "capchecks": [[context, pc, count] for (context, pc), count
                          in self.capchecks.items()],
            "alias_walks": [[context, pc, count] for (context, pc), count
                            in self.alias_walks.items()],
            "uop_injections": [[context, pc, count] for (context, pc), count
                               in self.uop_injections.items()],
            "reload_outcomes": [[context, pc, outcome, count]
                                for (context, pc, outcome), count
                                in self.reload_outcomes.items()],
        }

    def load(self, state: Dict[str, object]) -> None:
        self.history_limit = state["history_limit"]
        self._parents[:] = [tuple(pair) for pair in state["parents"]]
        self._children = {
            pair: context for context, pair in enumerate(self._parents)
            if context != ROOT_CONTEXT}
        self._ctx_stack[:] = state["ctx_stack"]
        self.current = state["current"]
        self.lifecycles = {
            int(pid): [tuple(record) for record in history]
            for pid, history in state["lifecycles"].items()}
        self.truncated = {int(pid): count
                          for pid, count in state["truncated"].items()}
        for counter in COUNTERS:
            table = self._table(counter)
            table.clear()
            for context, pc, count in state[counter]:
                table[(context, pc)] = count
        self.reload_outcomes = {
            (context, pc, outcome): count
            for context, pc, outcome, count in state["reload_outcomes"]}


# -- structured violation reports ------------------------------------------


def violation_json(violation) -> Dict[str, object]:
    """Structured (JSON-safe) forensic record for one violation."""
    return {
        "kind": violation.kind.value,
        "cwe": violation.kind.cwe,
        "pid": violation.pid,
        "address": violation.address,
        "size": violation.size,
        "pc": violation.instr_address,
        "detail": violation.detail,
        "provenance": violation.provenance,
    }


def cell_export(machine, label: str) -> Dict[str, object]:
    """One eval-engine cell's provenance sidecar: the recorder export
    plus every enriched violation the run produced."""
    recorder = machine.provenance
    export = recorder.export() if recorder is not None else None
    return {
        "label": label,
        "export": export,
        "violations": [violation_json(v)
                       for v in machine.violations.violations],
    }


def merge_cell_exports(cells: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-cell sidecars into per-workload attribution tables.
    Context ids are process-local, so merging happens on the resolved
    folded-stack strings, which are stable across processes."""
    workloads: Dict[str, Dict[str, object]] = {}
    for cell in cells:
        label = str(cell.get("label", ""))
        workload = label.split("/", 1)[0] if label else "<unknown>"
        bucket = workloads.setdefault(workload, {
            "cells": 0,
            "collapsed": {counter: {} for counter in COUNTERS},
            "totals": {counter: 0 for counter in COUNTERS},
            "reload_outcomes": {},
            "violations": [],
        })
        bucket["cells"] += 1
        bucket["violations"].extend(cell.get("violations") or [])
        export = cell.get("export")
        if not export:
            continue
        for counter in COUNTERS:
            folded = bucket["collapsed"][counter]
            for stack, count in export["collapsed"].get(counter, {}).items():
                folded[stack] = folded.get(stack, 0) + count
            bucket["totals"][counter] += export["totals"].get(counter, 0)
        for outcome, stacks in export.get("reload_outcomes", {}).items():
            folded = bucket["reload_outcomes"].setdefault(outcome, {})
            for stack, count in stacks.items():
                folded[stack] = folded.get(stack, 0) + count
    return workloads


def annotated_disassembly(recorders: List[ProvenanceRecorder],
                          counter: str = "capchecks",
                          top: int = 20) -> List[str]:
    """Heatmap lines for the ``top`` hottest pcs, summed over the
    recorders of one program's cores: count, share, address, symbol, and
    (when the program is available) the disassembled instruction."""
    from ..isa.disasm import format_instr

    totals: Dict[int, int] = {}
    for recorder in recorders:
        for pc, count in recorder.pc_counts(counter).items():
            totals[pc] = totals.get(pc, 0) + count
    grand = sum(totals.values())
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    if top > 0:
        ranked = ranked[:top]
    first = recorders[0]
    lines = []
    for pc, count in ranked:
        share = count / grand if grand else 0.0
        text = ""
        if first.program is not None:
            try:
                text = format_instr(first.program.fetch(pc))
            except Exception:
                text = "<outside text section>"
        lines.append(f"{count:>10}  {share:6.1%}  {pc:#08x}  "
                     f"{first._symbol(pc):<24}  {text}".rstrip())
    return lines


def collapsed_lines(folded: Dict[str, int], top: int = 0) -> List[str]:
    """Render a folded-stack table as ``stack count`` lines, hottest
    first (the format flamegraph.pl and speedscope ingest)."""
    ranked = sorted(folded.items(), key=lambda item: (-item[1], item[0]))
    if top > 0:
        ranked = ranked[:top]
    return [f"{stack} {count}" for stack, count in ranked]


def report(artifact: str, cells: List[Dict[str, object]]) -> Dict[str, object]:
    """The full provenance report of ``artifact``: its cell sidecars and
    their per-workload merge."""
    return {
        "schema": PROVENANCE_SCHEMA,
        "artifact": artifact,
        "cells": cells,
        "workloads": merge_cell_exports(cells),
    }


def write_report(directory, artifact: str,
                 cells: List[Dict[str, object]]) -> Tuple[Path, Path]:
    """Write ``<artifact>.json`` (full merged report) and
    ``<artifact>.collapsed`` (capability-check folded stacks) under
    ``directory``; returns both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    document = report(artifact, cells)
    json_path = directory / f"{artifact}.json"
    json_path.write_text(json.dumps(document, indent=2, sort_keys=True)
                         + "\n")
    merged: Dict[str, int] = {}
    for bucket in document["workloads"].values():
        for stack, count in bucket["collapsed"]["capchecks"].items():
            merged[stack] = merged.get(stack, 0) + count
    collapsed_path = directory / f"{artifact}.collapsed"
    collapsed_path.write_text(
        "\n".join(collapsed_lines(merged)) + ("\n" if merged else ""))
    return json_path, collapsed_path
