"""Versioned machine checkpoint/restore (sampled-simulation substrate).

A snapshot is a *curated*, schema-versioned capture of everything one
:class:`~repro.core.machine.Chex86Machine` needs to resume mid-run:
architectural registers and flags, simulated memory, the shadow
capability and alias tables, tracker/predictor/branch state, every stats
counter the telemetry registry reads, and the timing scoreboard.  The
restored machine is observationally indistinguishable from one that ran
uninterrupted — same architectural state, same violation log, same
``metrics_snapshot()`` — which is the property the checkpoint-fidelity
differential suite (``tests/test_snapshot.py``) pins for seeded random
programs.

Design rules (why this is not a naive ``pickle(machine)``):

* **Plain-data tree.**  Only builtins, enums, and a few small dataclasses
  (``Program``, ``CoreConfig``, ``Violation``) are serialized.  Bound
  methods, closures, and the telemetry registry never enter the snapshot;
  a restore constructs a *fresh* machine (rebuilding all of those) and
  then overwrites its mutable state.
* **Stats identity.**  The metrics registry holds gauge closures over the
  live stats objects (``mcu.stats``, ``timing.stats``, each cache's
  ``CacheStats``, the system allocator's ``HeapStats``...).  Restore
  therefore assigns fields *in place* on the fresh machine's stats
  objects instead of replacing them, so every registered gauge keeps
  reading the right object.
* **Shared-object aliasing.**  System-owned state (memory, allocator,
  capability/alias tables, L2, the alias-hosting page set that the TLB
  aliases) is mutated in place for the same reason.
* **Decoded blocks and superblocks are dropped.**  ``DecodedBlock`` and
  ``Superblock`` entries carry bound execute handlers; the restored
  machine recompiles both lazily.  The compile *counts* are restored,
  and re-decoding charges nothing (the per-dynamic-instance accounting
  lives in ``step()``/``_retire_members``), so nothing is
  double-charged.

Not captured (a :class:`SnapshotError` is raised where silence would be a
lie): multicore systems, attached observers other than the provenance
recorder (such as the event tracer or the hardware checker), and custom
host hooks (the ASan runtime).  A custom ``RuleDatabase`` is not
serialized either — restored machines use the fresh machine's rules.

Schema discipline: ``SNAPSHOT_SCHEMA`` is bumped on any layout change,
and :func:`from_bytes` refuses a mismatched snapshot loudly with
:class:`SnapshotSchemaError` — a stale checkpoint must never be replayed
as if it matched the current machine.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
from collections import deque
from pathlib import Path
from typing import Dict, Union

from ..isa.registers import Flag
from ..telemetry import spans
from .violations import ViolationLog

#: Bumped whenever the snapshot layout changes incompatibly.
#: v2: superblock fast-path counters (superblocks_compiled,
#: superblock_instructions, superblock_bailouts, fallback_instructions).
#: v3: provenance recorder state (shadow call stack, capability
#: lifecycles, per-context cost tables) — None when disarmed.
#: v4: no ``decode_stats`` section (the decoder keeps no counters).
#: v5: no ``trace_limit`` (the execution trace is an observer).
#: v6: the timing scoreboard's commit rings are one ``commit_used``
#: count, and the TAGE tables are flat ``tags``/``ctrs``/``useful`` lists.
SNAPSHOT_SCHEMA = 6


class SnapshotError(Exception):
    """The machine state cannot be captured or restored."""


class SnapshotSchemaError(SnapshotError):
    """The snapshot's schema version does not match this code."""


# Stats field lists, by subsystem: the counter attributes restore writes
# back in place on the fresh machine's stats objects.  A new counter added
# to a stats dataclass must be added here and SNAPSHOT_SCHEMA bumped.
_MCU_FIELDS = ("injected_uops", "capchecks", "capchecks_suppressed_context",
               "capgen_events", "capfree_events", "entry_intercepts",
               "exit_intercepts", "zero_idioms")
_TRACKER_FIELDS = ("transfers", "wild_assignments", "zeroed", "commits",
                   "squashes", "squashed_tags")
_RELOAD_PRED_FIELDS = ("lookups", "predictions", "correct", "pna0", "p0an",
                       "pman", "blacklist_filtered")
_BRANCH_FIELDS = ("cond_predictions", "cond_mispredictions",
                  "indirect_predictions", "indirect_mispredictions",
                  "ras_overflows")
_CACHE_FIELDS = ("hits", "misses", "evictions", "invalidations",
                 "victim_hits")
_TLB_FIELDS = ("hits", "misses", "alias_walks_filtered")
_TIMING_FIELDS = ("cycles", "uops", "macro_ops", "squash_cycles",
                  "branch_squash_cycles", "alias_squash_cycles",
                  "hostop_cycles", "fetch_groups", "icache_misses", "loads",
                  "stores", "l1d_misses", "l2_misses", "dram_bytes",
                  "shadow_dram_bytes", "rob_stall_events")
_MEMORY_FIELDS = ("reads", "writes", "bytes_read", "bytes_written")
_HEAP_FIELDS = ("total_allocs", "total_frees", "failed_allocs", "live",
                "max_live", "bytes_allocated")
_CAPTABLE_FIELDS = ("lookups", "generated", "freed")
_ALIAS_TABLE_FIELDS = ("walks", "levels_touched", "entries_set",
                       "entries_cleared")
_COHERENCE_FIELDS = ("cap_invalidate_messages", "alias_invalidate_messages",
                     "cap_invalidate_hits", "alias_invalidate_hits")


def _fields(obj, names) -> Dict[str, int]:
    return {name: getattr(obj, name) for name in names}


def _assign(obj, values: Dict[str, int]) -> None:
    for name, value in values.items():
        setattr(obj, name, value)


# ---------------------------------------------------------------- capture

def _check_snapshotable(machine) -> None:
    """v1 restrictions: refuse state the snapshot cannot represent."""
    if len(machine.system.cores) != 1:
        raise SnapshotError(
            "only single-core machines are snapshotable (the system has "
            f"{len(machine.system.cores)} registered cores)")
    if any(observer is not machine.provenance
           for observer in machine.observers):
        raise SnapshotError(
            "detach the event tracer and other observers before "
            "snapshotting (only the provenance recorder is serializable)")
    from ..heap.library import host_dispatch_table
    default_hooks = set(host_dispatch_table(machine.allocator))
    if set(machine.host_table) != default_hooks:
        raise SnapshotError(
            "machines with custom host hooks (e.g. the ASan runtime) are "
            "not snapshotable")


def _capture_cache(cache) -> Dict[str, object]:
    state = {
        "sets": [list(s.items()) for s in cache._sets],
        "victim": (list(cache._victim.items())
                   if cache._victim is not None else None),
        "stats": _fields(cache.stats, _CACHE_FIELDS),
    }
    return state


def _restore_cache(cache, state: Dict[str, object]) -> None:
    saved_sets = state["sets"]
    if len(saved_sets) != len(cache._sets):
        raise SnapshotError(
            f"cache {cache.name}: snapshot has {len(saved_sets)} sets, "
            f"machine has {len(cache._sets)} (config mismatch)")
    for set_, items in zip(cache._sets, saved_sets):
        set_.clear()
        set_.update(items)
    if cache._victim is not None and state["victim"] is not None:
        cache._victim.clear()
        cache._victim.update(state["victim"])
    _assign(cache.stats, state["stats"])


def capture(machine) -> Dict[str, object]:
    """Build the versioned plain-data snapshot tree for ``machine``.

    The tree shares no mutable structure with the machine — it stays
    valid even if the machine keeps running afterwards.
    """
    with spans.maybe("snapshot.capture", category="core",
                     instructions=machine.instructions):
        return _capture(machine)


def _capture(machine) -> Dict[str, object]:
    _check_snapshotable(machine)
    from .. import __version__

    predictors = machine.predictors
    cond = predictors.cond
    tracker = machine.tracker
    reload_pred = machine.reload_predictor
    timing = machine.timing
    system = machine.system
    allocator = system.allocator
    captable = system.captable
    alias_table = system.alias_table

    state = {
        # Architectural + bookkeeping.
        "regs": list(machine.regs),
        "flags": int(machine.flags),
        "rip": machine.rip,
        "halted": machine.halted,
        "instructions": machine.instructions,
        "native_uops": machine.native_uops,
        "total_uops": machine.total_uops,
        "seq": machine._seq,
        "pending_gens": list(machine._pending_gens),
        "pending_frees": list(machine._pending_frees),
        "global_pids": dict(machine._global_pids),
        "violations": list(machine.violations.violations),
        # Provenance recorder state (None when disarmed); plain data so
        # restored machines resume recording in the same call context.
        "provenance": (machine.provenance.state_tree()
                       if machine.provenance is not None else None),
        # Profiling state.
        "profile_interval": machine.profile_interval,
        "interval_pids": set(machine._interval_pids),
        "interval_pid_counts": list(machine.interval_pid_counts),
        "trace_reloads": machine.trace_reloads,
        "reload_trace": list(machine.reload_trace),
        "bbv_interval": machine.bbv_interval,
        "bbv_vectors": [dict(v) for v in machine.bbv_vectors],
        "bbv_current": dict(machine._bbv_current),
        # Fast-path metadata (blocks and superblocks themselves are
        # recompiled lazily).
        "block_cache_enabled": machine.block_cache_enabled,
        "blocks_compiled": machine._blocks_compiled,
        "superblocks_compiled": machine._superblocks_compiled,
        "superblock_instructions": machine._superblock_instructions,
        "superblock_bailouts": machine._superblock_bailouts,
        "fallback_instructions": machine._fallback_instructions,
        # Quantum-metrics bookkeeping (plain snapshot dicts).
        "quantum_metrics": machine._quantum_metrics,
        "quantum_base": (dict(machine._quantum_base)
                         if machine._quantum_base is not None else None),
        "quantum_deltas": [dict(d) for d in machine.quantum_deltas],
        # Front end.
        "predictors": {
            "bimodal": list(cond._bimodal),
            "tags": [list(table) for table in cond._tags],
            "ctrs": [list(table) for table in cond._ctrs],
            "useful": [list(table) for table in cond._useful],
            "history": cond._history,
            "stats": _fields(cond.stats, _BRANCH_FIELDS),
            "btb": _capture_cache(predictors.btb),
            "ras_stack": list(predictors.ras._stack),
            "ras_overflows": predictors.ras.overflows,
        },
        "tracker": {
            "tags": [(tag.committed, list(tag.transient))
                     for tag in tracker._tags],
            "dirty": set(tracker._dirty),
            "stats": _fields(tracker.stats, _TRACKER_FIELDS),
        },
        "reload_predictor": {
            "table": [None if e is None
                      else (e.tag, e.last_pid, e.stride, e.conf, e.useful)
                      for e in reload_pred._table],
            "blacklist": list(reload_pred._blacklist),
            "stats": _fields(reload_pred.stats, _RELOAD_PRED_FIELDS),
        },
        "mcu_stats": _fields(machine.mcu.stats, _MCU_FIELDS),
        # Per-core shadow caches, store buffer, TLB.
        "capcache": _capture_cache(machine.capcache),
        "alias_cache": _capture_cache(machine.alias_cache.cache),
        "store_buffer": {
            "pending": [(p.seq, p.address, p.pid)
                        for p in machine.store_buffer._pending],
            "peak_occupancy": machine.store_buffer.peak_occupancy,
            "total_buffered": machine.store_buffer.total_buffered,
            "overflows": machine.store_buffer.overflows,
        },
        "tlb": {
            "cache": _capture_cache(machine.tlb._cache),
            "stats": _fields(machine.tlb.stats, _TLB_FIELDS),
        },
        # Timing scoreboard.
        "timing": {
            "stats": _fields(timing.stats, _TIMING_FIELDS),
            "fu_uops": list(timing.stats.fu_uops),
            "l1i": _capture_cache(timing.l1i),
            "l1d": _capture_cache(timing.l1d),
            "pools": [pool._free if pool._single else list(pool._free)
                      for pool in timing._pools],
            "reg_ready": list(timing._reg_ready),
            "rob": list(timing._rob),
            "lq": list(timing._lq),
            "sq": list(timing._sq),
            "issue_tags": list(timing._issue_tags),
            "issue_counts": list(timing._issue_counts),
            "fetch_cycle": timing._fetch_cycle,
            "group_used": timing._group_used,
            "last_iline": timing._last_iline,
            "last_commit": timing._last_commit,
            "commit_used": timing._commit_used,
        },
        # System-shared state (single-core: owned by this machine's run).
        "system": {
            "memory_pages": {page: list(words)
                             for page, words in system.memory._pages.items()},
            "memory_stats": _fields(system.memory.stats, _MEMORY_FIELDS),
            "allocator": {
                "top": allocator._top,
                "bins": dict(allocator._bins),
                "stats": _fields(allocator.stats, _HEAP_FIELDS),
                "records": [(r.serial, r.address, r.size, r.freed)
                            for r in allocator.records],
            },
            "captable": {
                "table": [(c.pid, c.base, c.bounds, c.perms)
                          for c in captable._table.values()],
                "next_pid": captable._next_pid,
                "bases": list(captable._bases),
                "stats": _fields(captable.stats, _CAPTABLE_FIELDS),
            },
            "alias_table": {
                "root": copy.deepcopy(alias_table._root),
                "nodes": alias_table._nodes,
                "stats": _fields(alias_table.stats, _ALIAS_TABLE_FIELDS),
            },
            "l2": _capture_cache(system.l2),
            "coherence": _fields(system.coherence, _COHERENCE_FIELDS),
            "hosting_pages": set(system.alias_hosting_pages),
        },
    }
    return {
        "schema": SNAPSHOT_SCHEMA,
        "version": __version__,
        "variant": machine.variant,
        "config": machine.config,
        "halt_on_violation": machine.halt_on_violation,
        "critical_ranges": (list(machine.mcu.critical_ranges)
                            if machine.mcu.critical_ranges is not None
                            else None),
        "program": machine.program,
        "state": state,
    }


# ---------------------------------------------------------------- restore

def restore(source: Union[bytes, Dict[str, object]]):
    """Reconstruct a machine from snapshot bytes (or a captured tree).

    The returned machine owns a fresh :class:`System` and continues the
    run exactly where the snapshot was taken.
    """
    with spans.maybe("snapshot.restore", category="core"):
        return _restore(source)


def _restore(source: Union[bytes, Dict[str, object]]):
    if isinstance(source, (bytes, bytearray, memoryview)):
        tree = from_bytes(bytes(source))
    else:
        tree = _check_tree(copy.deepcopy(source))
    from .machine import Chex86Machine

    machine = Chex86Machine(
        tree["program"],
        variant=tree["variant"],
        config=tree["config"],
        critical_ranges=tree["critical_ranges"],
        halt_on_violation=tree["halt_on_violation"],
    )
    _apply_state(machine, tree["state"])
    return machine


def _apply_state(machine, state: Dict[str, object]) -> None:
    # Architectural + bookkeeping.  List contents are replaced in place
    # where other objects may hold the list; plain attributes are assigned.
    machine.regs[:] = state["regs"]
    machine.flags = Flag(state["flags"])
    machine.rip = state["rip"]
    machine.halted = state["halted"]
    machine.instructions = state["instructions"]
    machine.native_uops = state["native_uops"]
    machine.total_uops = state["total_uops"]
    machine._seq = state["seq"]
    machine._pending_gens = list(state["pending_gens"])
    machine._pending_frees = list(state["pending_frees"])
    machine._global_pids = dict(state["global_pids"])
    # The violation log is replaced wholesale: the registry gauge reads
    # ``machine.violations`` through the machine attribute at call time.
    log = ViolationLog()
    for violation in state["violations"]:
        log.record(violation)
    machine.violations = log

    if state["provenance"] is not None:
        from ..telemetry.provenance import ProvenanceRecorder
        machine.attach(ProvenanceRecorder.from_state(machine.program,
                                                     state["provenance"]))

    machine.profile_interval = state["profile_interval"]
    machine._interval_pids = set(state["interval_pids"])
    machine.interval_pid_counts = list(state["interval_pid_counts"])
    machine.trace_reloads = state["trace_reloads"]
    machine.reload_trace = [tuple(t) for t in state["reload_trace"]]
    machine.bbv_interval = state["bbv_interval"]
    machine.bbv_vectors = [dict(v) for v in state["bbv_vectors"]]
    machine._bbv_current = dict(state["bbv_current"])

    block_cache = state["block_cache_enabled"]
    if not isinstance(block_cache, bool):
        raise SnapshotError(
            f"snapshot block_cache_enabled={block_cache!r} is not a bool; "
            "re-create the checkpoint with this version of the simulator")
    machine.block_cache_enabled = block_cache
    machine._blocks_compiled = state["blocks_compiled"]
    machine._superblocks_compiled = state["superblocks_compiled"]
    machine._superblock_instructions = state["superblock_instructions"]
    machine._superblock_bailouts = state["superblock_bailouts"]
    machine._fallback_instructions = state["fallback_instructions"]
    # Recompiled lazily against the new program: DecodedBlock entries and
    # superblock member tables carry bound execute handlers.
    machine._blocks.clear()
    machine._superblocks.clear()
    machine._sb_entries.clear()

    machine._quantum_metrics = state["quantum_metrics"]
    machine._quantum_base = (dict(state["quantum_base"])
                             if state["quantum_base"] is not None else None)
    machine.quantum_deltas = [dict(d) for d in state["quantum_deltas"]]

    # Front end.  Stats objects are kept and written in place: the
    # telemetry registry's gauges close over them.
    machine.decoder._cache.clear()

    saved = state["predictors"]
    cond = machine.predictors.cond
    cond._bimodal[:] = saved["bimodal"]
    for tables, saved_tables in ((cond._tags, saved["tags"]),
                                 (cond._ctrs, saved["ctrs"]),
                                 (cond._useful, saved["useful"])):
        for table, values in zip(tables, saved_tables):
            table[:] = values
    cond._history = saved["history"]
    cond._refold()
    # In place: FrontEndPredictors.stats aliases cond.stats.
    _assign(cond.stats, saved["stats"])
    _restore_cache(machine.predictors.btb, saved["btb"])
    machine.predictors.ras._stack = list(saved["ras_stack"])
    machine.predictors.ras.overflows = saved["ras_overflows"]

    saved = state["tracker"]
    for tag, (committed, transient) in zip(machine.tracker._tags,
                                           saved["tags"]):
        tag.committed = committed
        tag.transient = [tuple(t) for t in transient]
    machine.tracker._dirty = set(saved["dirty"])
    _assign(machine.tracker.stats, saved["stats"])

    saved = state["reload_predictor"]
    from .predictor import _Entry
    table = []
    for item in saved["table"]:
        if item is None:
            table.append(None)
        else:
            entry = _Entry(item[0])
            entry.last_pid, entry.stride, entry.conf, entry.useful = item[1:]
            table.append(entry)
    machine.reload_predictor._table = table
    machine.reload_predictor._blacklist = [tuple(t)
                                           for t in saved["blacklist"]]
    _assign(machine.reload_predictor.stats, saved["stats"])

    _assign(machine.mcu.stats, state["mcu_stats"])

    _restore_cache(machine.capcache, state["capcache"])
    _restore_cache(machine.alias_cache.cache, state["alias_cache"])

    saved = state["store_buffer"]
    from .alias import _PendingStore
    machine.store_buffer._pending = deque(
        _PendingStore(*entry) for entry in saved["pending"])
    machine.store_buffer.peak_occupancy = saved["peak_occupancy"]
    machine.store_buffer.total_buffered = saved["total_buffered"]
    machine.store_buffer.overflows = saved["overflows"]

    # ``tlb._hosting`` IS ``system.alias_hosting_pages`` — restored below.
    _restore_cache(machine.tlb._cache, state["tlb"]["cache"])
    _assign(machine.tlb.stats, state["tlb"]["stats"])

    # Timing scoreboard.
    saved = state["timing"]
    timing = machine.timing
    _assign(timing.stats, saved["stats"])
    timing.stats.fu_uops[:] = saved["fu_uops"]
    _restore_cache(timing.l1i, saved["l1i"])
    _restore_cache(timing.l1d, saved["l1d"])
    for pool, free in zip(timing._pools, saved["pools"]):
        # A multi-unit pool's free list was captured heap-ordered; copying
        # it verbatim preserves the heap invariant.
        pool._free = free if pool._single else list(free)
    timing._reg_ready[:] = saved["reg_ready"]
    timing._rob = deque(saved["rob"])
    # In place: ``timing._queues`` holds the LQ and SQ.
    for queue, values in ((timing._lq, saved["lq"]),
                          (timing._sq, saved["sq"])):
        queue.clear()
        queue.extend(values)
    timing._issue_tags[:] = saved["issue_tags"]
    timing._issue_counts[:] = saved["issue_counts"]
    timing._fetch_cycle = saved["fetch_cycle"]
    timing._group_used = saved["group_used"]
    timing._last_iline = saved["last_iline"]
    timing._last_commit = saved["last_commit"]
    timing._commit_used = saved["commit_used"]

    # System-shared state: every object is mutated in place (the machine,
    # allocator closures, and TLB all hold references into it).
    saved = state["system"]
    system = machine.system
    system.memory._pages = {page: list(words)
                            for page, words in saved["memory_pages"].items()}
    _assign(system.memory.stats, saved["memory_stats"])

    from ..heap.allocator import AllocationRecord
    alloc_state = saved["allocator"]
    allocator = system.allocator
    allocator._top = alloc_state["top"]
    allocator._bins = dict(alloc_state["bins"])
    _assign(allocator.stats, alloc_state["stats"])  # registered MERGE_LAST
    allocator.records = [AllocationRecord(serial, address, size, freed)
                         for serial, address, size, freed
                         in alloc_state["records"]]
    # Serial-order rebuild reproduces _record_alloc's last-wins semantics
    # for reused addresses, with identity shared against ``records``.
    allocator._by_address = {}
    for record in allocator.records:
        allocator._by_address[record.address] = record

    from .capability import Capability
    cap_state = saved["captable"]
    captable = system.captable
    captable._table = {
        pid: Capability(pid=pid, base=base, bounds=bounds, perms=perms)
        for pid, base, bounds, perms in cap_state["table"]
    }
    captable._next_pid = cap_state["next_pid"]
    captable._bases = [tuple(t) for t in cap_state["bases"]]
    _assign(captable.stats, cap_state["stats"])

    alias_state = saved["alias_table"]
    alias_table = system.alias_table
    alias_table._root = copy.deepcopy(alias_state["root"])
    alias_table._nodes = alias_state["nodes"]
    _assign(alias_table.stats, alias_state["stats"])

    _restore_cache(system.l2, saved["l2"])
    _assign(system.coherence, saved["coherence"])

    # In place: the TLB's ``_hosting`` set is this very object.
    system.alias_hosting_pages.clear()
    system.alias_hosting_pages.update(saved["hosting_pages"])

    # The program object was re-created by unpickling: re-key the load
    # registry so a second core attaching later sees the restored PIDs.
    system.loaded_programs.clear()
    system.loaded_programs[id(machine.program)] = machine._global_pids


# ------------------------------------------------------------- wire format

def to_bytes(tree: Dict[str, object]) -> bytes:
    """Serialize a captured snapshot tree."""
    return pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)


def from_bytes(data: bytes) -> Dict[str, object]:
    """Deserialize and schema-check snapshot bytes."""
    try:
        tree = pickle.loads(data)
    except Exception as exc:
        raise SnapshotError(f"not a machine snapshot: {exc}") from exc
    return _check_tree(tree)


def _check_tree(tree) -> Dict[str, object]:
    if not isinstance(tree, dict) or "schema" not in tree:
        raise SnapshotError("not a machine snapshot (no schema field)")
    if tree["schema"] != SNAPSHOT_SCHEMA:
        raise SnapshotSchemaError(
            f"snapshot schema {tree['schema']!r} does not match the "
            f"supported schema {SNAPSHOT_SCHEMA}; re-create the checkpoint "
            f"with this version of the simulator")
    return tree


def snapshot_digest(data: bytes) -> str:
    """Content hash of snapshot bytes (engine cache keys, integrity)."""
    return hashlib.sha256(data).hexdigest()


def save(machine, path: Union[str, Path]) -> str:
    """Snapshot ``machine`` to ``path`` atomically; returns the digest."""
    data = to_bytes(capture(machine))
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, target)
    return snapshot_digest(data)


def load(path: Union[str, Path], expected_digest: str = ""):
    """Restore a machine from a snapshot file.

    ``expected_digest`` (when given) must match the file content — a
    checkpoint that was rewritten since its cell spec was built is
    rejected rather than silently replayed.
    """
    data = Path(path).read_bytes()
    if expected_digest and snapshot_digest(data) != expected_digest:
        raise SnapshotError(
            f"checkpoint {path} content does not match its recorded "
            f"digest; the file changed since the cell was scheduled")
    return restore(data)
