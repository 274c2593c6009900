"""Shared system state for single- and multi-core simulations.

The PARSEC experiments run multithreaded: cores share the process address
space (memory, heap allocator, shadow capability table, shadow alias table,
L2), while each core keeps private L1s, a private capability cache, alias
cache, tracker, and predictors.  Frees and alias stores broadcast
invalidations to the other cores' in-processor caches (Sections IV-C and
V-C); the message counters here feed the multithreaded overhead accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.alias import ShadowAliasTable
from ..core.capability import ShadowCapabilityTable
from ..heap.allocator import HeapAllocator
from ..memory.cache import SetAssocCache
from ..memory.memory import Memory
from ..telemetry.state import Counters
from .config import CoreConfig, DEFAULT_CONFIG


@dataclass
class CoherenceStats(Counters):
    """Invalidate-message traffic between cores."""

    cap_invalidate_messages: int = 0
    alias_invalidate_messages: int = 0
    cap_invalidate_hits: int = 0
    alias_invalidate_hits: int = 0


class System:
    """Process-wide shared state plus the core roster."""

    def __init__(self, config: CoreConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.memory = Memory()
        self.allocator = HeapAllocator(self.memory)
        self.captable = ShadowCapabilityTable(config.max_alloc_bytes)
        self.alias_table = ShadowAliasTable()
        line_shift = config.line_bytes.bit_length() - 1
        self.l2 = SetAssocCache(config.l2_bytes // config.line_bytes,
                                config.l2_ways, line_shift, name="l2")
        self.cores: List = []  # Machine instances register themselves
        self.coherence = CoherenceStats()
        # Program-load bookkeeping: a shared program's globals/capabilities
        # are initialized once per process, not once per core.
        self.loaded_programs: dict = {}
        # Shared page-table alias-hosting bits (see repro.memory.tlb).
        self.alias_hosting_pages: set = set()

    def state(self) -> Dict[str, object]:
        """The process-wide shared state (the core roster and the
        program-load registry are wiring, rebuilt by construction)."""
        return {
            "memory": self.memory.state(),
            "allocator": self.allocator.state(),
            "captable": self.captable.state(),
            "alias_table": self.alias_table.state(),
            "l2": self.l2.state(),
            "coherence": self.coherence.state(),
            "hosting_pages": set(self.alias_hosting_pages),
        }

    def load(self, state: Dict[str, object]) -> None:
        self.memory.load(state["memory"])
        self.allocator.load(state["allocator"])
        self.captable.load(state["captable"])
        self.alias_table.load(state["alias_table"])
        self.l2.load(state["l2"])
        self.coherence.load(state["coherence"])
        # In place: every core's TLB holds this very set.
        self.alias_hosting_pages.clear()
        self.alias_hosting_pages.update(state["hosting_pages"])

    def register_core(self, core) -> int:
        self.cores.append(core)
        return len(self.cores) - 1

    # -- invalidation broadcast -----------------------------------------------

    def broadcast_cap_invalidate(self, pid: int, origin_core: int) -> None:
        """A capability was freed on ``origin_core``: invalidate everywhere.

        Thanks to unforgeability these are sent exactly once per free."""
        for core in self.cores:
            if core.core_id == origin_core:
                continue
            self.coherence.cap_invalidate_messages += 1
            if core.capcache.invalidate(pid):
                self.coherence.cap_invalidate_hits += 1

    def broadcast_alias_invalidate(self, address: int, origin_core: int) -> None:
        """A spilled alias was (re)written on ``origin_core``."""
        for core in self.cores:
            if core.core_id == origin_core:
                continue
            self.coherence.alias_invalidate_messages += 1
            if core.alias_cache.invalidate(address):
                self.coherence.alias_invalidate_hits += 1

    @property
    def shadow_bytes(self) -> int:
        """Total shadow storage: capability table + alias table (Figure 9)."""
        return self.captable.shadow_bytes + self.alias_table.shadow_bytes
