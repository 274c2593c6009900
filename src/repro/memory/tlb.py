"""TLB model extended with the CHEx86 *alias-hosting* bit.

Section V-C: "we extend the metadata bits in the TLB and the page tables to
include an alias-hosting bit that indicates if a page contains a spilled
pointer, to further minimize the number of lookups."  A load whose page has
the bit clear can skip the shadow alias table walk entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from .cache import SetAssocCache
from ..telemetry.state import Counters
from .memory import PAGE_SHIFT


@dataclass
class TlbStats(Counters):
    hits: int = 0
    misses: int = 0
    alias_walks_filtered: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Tlb:
    """Data TLB with per-page alias-hosting bits.

    The page-table side of the alias-hosting bit is the ``_hosting`` set:
    conceptually part of the in-memory page tables, consulted on TLB refill.
    """

    def __init__(self, entries: int = 64, ways: int = 4,
                 hosting: Set[int] = None) -> None:
        self._cache = SetAssocCache(entries, ways, line_shift=0, name="dtlb")
        # The page-table side of the alias-hosting bit lives in the (shared)
        # process page tables; multicore systems pass one shared set so all
        # cores observe new alias-hosting pages.
        self._hosting: Set[int] = hosting if hosting is not None else set()
        self.stats = TlbStats()

    def access(self, address: int) -> bool:
        """Translate ``address``; returns TLB hit?

        The hit path is inlined against the backing cache (the dtlb is
        built with ``line_shift=0`` and no victim array, so the key *is*
        the line): one dict probe and an LRU touch.  A miss calls
        :meth:`refill`.
        """
        page = address >> PAGE_SHIFT
        cache = self._cache
        set_ = cache._sets[page % cache.num_sets]
        if page in set_:
            set_.move_to_end(page)
            cache.stats.hits += 1
            self.stats.hits += 1
            return True
        self.refill(address)
        return False

    def refill(self, address: int) -> None:
        """The miss path of :meth:`access`, which both executors call.

        ``step()`` reaches it through :meth:`access`; compiled superblock
        replay inlines the hit probe and calls this when the probe failed.
        The refill picks up the current page-table alias-hosting bit.
        """
        page = address >> PAGE_SHIFT
        cache = self._cache
        cache.stats.misses += 1
        cache._install(cache._sets[page % cache.num_sets], page,
                       page in self._hosting)
        self.stats.misses += 1

    def mark_alias_hosting(self, address: int) -> None:
        """A spilled pointer was stored into this page (set the bit)."""
        page = address >> PAGE_SHIFT
        self._hosting.add(page)
        self._cache.update(page, True)

    def page_hosts_aliases(self, address: int) -> bool:
        """Consult the alias-hosting bit for a load at ``address``.

        On a TLB hit this is free; a miss would have paid the page walk
        anyway.  Records a filtered walk when the bit is clear.
        """
        page = address >> PAGE_SHIFT
        cached = self._cache.lookup(page)
        hosts = (page in self._hosting) if cached is None else bool(cached)
        if not hosts:
            self.stats.alias_walks_filtered += 1
        return hosts

    def state(self) -> Dict[str, object]:
        """The cached translations and the stats; the page-table
        alias-hosting bits belong to whoever passed ``hosting`` in (the
        system), and are that owner's state."""
        return {"cache": self._cache.state(), "stats": self.stats.state()}

    def load(self, state: Dict[str, object]) -> None:
        self._cache.load(state["cache"])
        self.stats.load(state["stats"])

    @property
    def hosting_pages(self) -> int:
        return len(self._hosting)
