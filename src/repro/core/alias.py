"""Spilled-pointer alias tracking: shadow alias table, alias cache, store
buffer PID extension (paper Section V-C).

When a register holding a pointer is spilled to memory, CHEx86 must
remember which PID that memory word carries so a later reload can be
re-tagged.  The authoritative record is a **5-level hierarchical shadow
alias table** structured like an x86-64 page table and traversed by a
hardware walker; a small 2-way **alias cache** (plus a fully associative
victim cache) makes the common lookups cheap.  In the paper, PIDs of
not-yet-committed stores ride in the **store buffer** so wrong-path
stores never pollute the cache.  This simulator runs no wrong path, so
the store buffer's PID extension is one deferred ``(address, pid)``
slot: a store's alias update is made when its instruction ends.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..memory.cache import SetAssocCache
from ..telemetry.state import Counters

#: Levels of the hierarchical table (mirrors 5-level x86-64 paging).
WALK_LEVELS = 5
#: Bits consumed per level over the 48-bit word-index space.
_LEVEL_BITS = (9, 9, 9, 9, 9)
#: Bytes per table node, for shadow-storage accounting: 512 entries x 8 B.
NODE_BYTES = 512 * 8


def _shift_masks(bits: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    pairs = []
    shift = sum(bits)
    for width in bits:
        shift -= width
        pairs.append((shift, (1 << width) - 1))
    return tuple(pairs)


#: Per-level (shift, mask) pairs over the word index, precomputed: the
#: table traversals run on the load/store hot path.
_UPPER_SHIFT_MASKS = _shift_masks(_LEVEL_BITS)[:-1]
_LEAF_MASK = (1 << _LEVEL_BITS[-1]) - 1


@dataclass
class AliasTableStats(Counters):
    walks: int = 0
    levels_touched: int = 0
    entries_set: int = 0
    entries_cleared: int = 0


class ShadowAliasTable:
    """The 5-level hierarchical alias table.

    Maps a 64-bit (word-aligned) virtual address to the PID of the pointer
    spilled there.  Unlike page tables whose leaves hold physical page
    numbers, the lowest-level entries hold PIDs (Section V-C).  The nested
    dict structure mirrors the radix levels so that the storage accounting
    (Figure 9: overhead scales with the number of *references*, not with
    total memory) and the walk-latency accounting are both faithful.
    """

    def __init__(self) -> None:
        self._root: Dict = {}
        self._nodes = 1  # the root node always exists
        self.stats = AliasTableStats()

    def state(self) -> Dict[str, object]:
        return {"root": copy.deepcopy(self._root), "nodes": self._nodes,
                "stats": self.stats.state()}

    def load(self, state: Dict[str, object]) -> None:
        self._root.clear()
        self._root.update(copy.deepcopy(state["root"]))
        self._nodes = state["nodes"]
        self.stats.load(state["stats"])

    def set(self, address: int, pid: int) -> None:
        """Record that the word at ``address`` holds a spilled PID."""
        if pid == 0:
            self.clear(address)
            return
        word = address >> 3
        node = self._root
        for shift, mask in _UPPER_SHIFT_MASKS:
            index = (word >> shift) & mask
            nxt = node.get(index)
            if nxt is None:
                nxt = {}
                node[index] = nxt
                self._nodes += 1
            node = nxt
        leaf_index = word & _LEAF_MASK
        if leaf_index not in node:
            self.stats.entries_set += 1
        node[leaf_index] = pid

    def clear(self, address: int) -> None:
        """A non-pointer value overwrote the word: drop any alias entry."""
        word = address >> 3
        node = self._root
        for shift, mask in _UPPER_SHIFT_MASKS:
            node = node.get((word >> shift) & mask)
            if node is None:
                return
        leaf_index = word & _LEAF_MASK
        if leaf_index in node:
            del node[leaf_index]
            self.stats.entries_cleared += 1

    def walk(self, address: int) -> int:
        """Hardware table walk; returns the PID (0 if absent).

        Touches up to :data:`WALK_LEVELS` levels; the level count feeds the
        walk-latency model.
        """
        stats = self.stats
        stats.walks += 1
        word = address >> 3
        node = self._root
        touched = 1
        for shift, mask in _UPPER_SHIFT_MASKS:
            node = node.get((word >> shift) & mask)
            if node is None:
                stats.levels_touched += touched
                return 0
            touched += 1
        stats.levels_touched += touched
        return node.get(word & _LEAF_MASK, 0)

    def peek(self, address: int) -> int:
        """Walk without stats (checker / debugging)."""
        word = address >> 3
        node = self._root
        for shift, mask in _UPPER_SHIFT_MASKS:
            node = node.get((word >> shift) & mask)
            if node is None:
                return 0
        return node.get(word & _LEAF_MASK, 0)

    @property
    def shadow_bytes(self) -> int:
        """Shadow storage consumed by the table nodes (Figure 9)."""
        return self._nodes * NODE_BYTES

    @property
    def live_entries(self) -> int:
        return self.stats.entries_set - self.stats.entries_cleared


class AliasCache:
    """The in-processor alias cache: 256-entry 2-way + 32-entry victim.

    Keyed by word address, holding PIDs.  Misses fall back to the hardware
    walker over the shadow alias table.  Coherence: a remote store to a
    spilled alias invalidates the line in every other core's alias cache
    (modelled by :class:`repro.pipeline.system.System`).
    """

    def __init__(self, entries: int = 256, ways: int = 2,
                 victim_entries: int = 32) -> None:
        self.cache = SetAssocCache(entries, ways, line_shift=3,
                                   victim_entries=victim_entries,
                                   name="alias-cache")

    def lookup(self, address: int, table: ShadowAliasTable) -> Tuple[int, bool]:
        """PID at ``address``; returns (pid, cache-hit?).

        Only real aliases are installed on a miss: caching negative results
        would let plain data loads sharing a page with spilled pointers
        evict the aliases the cache exists for.
        """
        cached = self.cache.lookup(address)
        if cached is not None:
            self.cache.access(address, cached)  # count the hit, refresh LRU
            return cached, True
        pid = table.walk(address)
        if pid:
            self.cache.access(address, pid)  # miss + install
        else:
            self.cache.stats.misses += 1     # miss, nothing to cache
        return pid, False

    def install(self, address: int, pid: int) -> None:
        """Committed store path: update/insert without a table walk."""
        if self.cache.lookup(address) is not None:
            self.cache.update(address, pid)
        else:
            self.cache.access(address, pid)

    def invalidate(self, address: int) -> bool:
        return self.cache.invalidate(address)

    @property
    def stats(self):
        return self.cache.stats


class StoreBufferPids:
    """PID extension of the store buffer (Section V-C).

    A store that may spill a pointer leaves its ``(address, pid)`` here;
    the update reaches the alias table and cache only when the store's
    instruction ends (``step()`` calls :meth:`commit`), and an
    instruction that traps never ends, so its update is never made.
    One slot is enough: an instruction makes at most one store, and the
    decoder emits no alias-reading or trapping uop after it
    (``tests/test_decoder.py``), so the slot is empty at every
    instruction boundary and is not machine state.
    """

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending: Optional[Tuple[int, int]] = None

    def record(self, address: int, pid: int) -> None:
        self.pending = (address, pid)

    def commit(self, table: ShadowAliasTable,
               cache: AliasCache) -> Tuple[int, int]:
        """Apply the pending update to the alias table and cache and
        return it, so the system layer can broadcast invalidations."""
        address, pid = self.pending
        self.pending = None
        table.set(address, pid)
        if pid:
            cache.install(address, pid)
        else:
            cache.invalidate(address)
        return address, pid
