"""Versioned machine checkpoint/restore (sampled-simulation substrate).

A snapshot is the machine's own state tree (``Chex86Machine.state()``,
which gathers every component's ``state()``; see
:mod:`repro.telemetry.state`) in a schema-versioned envelope that also
carries what a fresh machine is built from: the program, variant,
config, trap mode and critical ranges.
Restore builds a fresh machine and calls its ``load``.  The restored
machine is observationally indistinguishable from one that ran
uninterrupted (``tests/test_snapshot.py`` compares whole state trees).
This module keeps only the envelope: schema, refusals, the wire format,
the digest, and file save/load.

Refused (a :class:`SnapshotError` is raised where silence would be a
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
from pathlib import Path
from typing import Dict, Union

from ..telemetry import spans

#: Bumped whenever the snapshot layout changes incompatibly.  v7: the
#: tree is ``Chex86Machine.state()``, without the reload trace and
#: ``BranchStats.ras_overflows``.  v8: one PID per tracker tag, and no
#: dirty set or store buffer.  v9: no sequence number and no profiling
#: state (interval PIDs, BBVs and quantum deltas live in observers).  v10:
#: the ``frontend.partial_replays`` counter.  v11: the live issue window
#: instead of the whole issue ring, and no alias-walker pool.
SNAPSHOT_SCHEMA = 11


class SnapshotError(Exception):
    """The machine state cannot be captured or restored."""


class SnapshotSchemaError(SnapshotError):
    """The snapshot's schema version does not match this code."""


def _check_snapshotable(machine) -> None:
    """Refuse state the snapshot cannot represent."""
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


def capture(machine) -> Dict[str, object]:
    """Build the versioned snapshot tree for ``machine``.

    The tree shares no mutable structure with the machine — it stays
    valid even if the machine keeps running afterwards.
    """
    with spans.maybe("snapshot.capture", category="core",
                     instructions=machine.instructions):
        _check_snapshotable(machine)
        from .. import __version__

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
            "state": machine.state(),
        }


def restore(source: Union[bytes, Dict[str, object]]):
    """Reconstruct a machine from snapshot bytes (or a captured tree).

    The returned machine owns a fresh :class:`System` and continues the
    run exactly where the snapshot was taken.
    """
    with spans.maybe("snapshot.restore", category="core"):
        if isinstance(source, (bytes, bytearray, memoryview)):
            tree = from_bytes(bytes(source))
        else:
            tree = _check_tree(copy.deepcopy(source))
        block_cache = tree["state"]["block_cache_enabled"]
        if not isinstance(block_cache, bool):
            raise SnapshotError(
                f"snapshot block_cache_enabled={block_cache!r} is not a "
                "bool; re-create the checkpoint with this version of the "
                "simulator")
        from .machine import Chex86Machine

        machine = Chex86Machine(
            tree["program"],
            variant=tree["variant"],
            config=tree["config"],
            critical_ranges=tree["critical_ranges"],
            halt_on_violation=tree["halt_on_violation"],
        )
        machine.load(tree["state"])
        return machine


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
