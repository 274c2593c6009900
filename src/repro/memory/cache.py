"""Generic set-associative cache with LRU replacement and victim-cache hook.

One model serves every cache-shaped structure in CHEx86:

* the L1 instruction and data caches (Table III),
* the 64-entry fully associative in-processor *capability cache*,
* the 256-entry 2-way *alias cache* augmented with a 32-entry fully
  associative *victim cache* (Section V-C),

because they all share the same behaviours under study: hit/miss rates,
LRU churn, and invalidation traffic in multicore runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..telemetry.state import Counters

#: The set that holds no line.  Sets start as this shared empty tuple and
#: get their ``OrderedDict`` on first install (a machine builds seven
#: caches, about 2,300 sets, and a short run touches few of them); an
#: invalidation that empties a set puts it back.  Lookups need no
#: special case: ``line in _EMPTY`` is simply false.
_EMPTY = ()


@dataclass
class CacheStats(Counters):
    """Hit/miss/invalidation counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    victim_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose these counters as ``<prefix>.*`` pull gauges.

        The counters stay plain ``int`` attributes the access path
        increments directly; ``accesses`` and ``miss_rate`` are derived
        at snapshot time (``miss_rate`` as a re-derivable ratio so
        multi-core merges recompute it over the summed counters).
        """
        super().register_metrics(registry, prefix)
        registry.gauge(f"{prefix}.accesses",
                       lambda stats=self: stats.hits + stats.misses)
        registry.ratio(f"{prefix}.miss_rate",
                       f"{prefix}.misses", f"{prefix}.accesses")


class SetAssocCache:
    """A set-associative tag cache with true-LRU replacement.

    ``entries`` is total capacity; ``ways`` the associativity (``ways ==
    entries`` gives a fully associative cache); ``line_shift`` how many low
    address bits fall inside a line (0 for PID-keyed structures like the
    capability cache, 6 for 64-byte memory lines).

    An optional fully associative ``victim`` cache catches conflict evictions;
    a victim hit refills the main cache (Section V-C's 32-entry victim cache
    behind the alias cache).
    """

    def __init__(
        self,
        entries: int,
        ways: int,
        line_shift: int = 0,
        victim_entries: int = 0,
        name: str = "cache",
    ) -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ValueError(f"{name}: entries={entries} not divisible by ways={ways}")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.line_shift = line_shift
        self.num_sets = entries // ways
        self.stats = CacheStats()
        # Each set: OrderedDict keyed by line tag, most-recently-used
        # last; a set that holds no line is the shared ``_EMPTY``.
        self._sets: List[OrderedDict] = [_EMPTY] * self.num_sets
        self._victim: Optional[OrderedDict] = OrderedDict() if victim_entries else None
        self._victim_capacity = victim_entries

    # -- core operations ------------------------------------------------------

    def access(self, key: int, value=True) -> bool:
        """Look up ``key``; install it on a miss.  Returns hit?"""
        line = key >> self.line_shift
        set_ = self._sets[line % self.num_sets]
        if line in set_:
            set_.move_to_end(line)
            self.stats.hits += 1
            return True
        if self._victim is not None and line in self._victim:
            # Victim hit: swap back into the main array, count as a hit.
            value = self._victim.pop(line)
            self.stats.hits += 1
            self.stats.victim_hits += 1
            self._install(set_, line, value)
            return True
        self.stats.misses += 1
        self._install(set_, line, value)
        return False

    def probe(self, key: int) -> bool:
        """Non-allocating lookup, no stats (used by invalidation filters)."""
        line = key >> self.line_shift
        if line in self._sets[line % self.num_sets]:
            return True
        return self._victim is not None and line in self._victim

    def lookup(self, key: int):
        """Return the stored value on a (non-allocating) hit, else None."""
        line = key >> self.line_shift
        set_ = self._sets[line % self.num_sets]
        if line in set_:
            set_.move_to_end(line)
            return set_[line]
        if self._victim is not None and line in self._victim:
            return self._victim[line]
        return None

    def update(self, key: int, value) -> None:
        """Overwrite the value for ``key`` if present (no allocation)."""
        line = key >> self.line_shift
        set_ = self._sets[line % self.num_sets]
        if line in set_:
            set_[line] = value
        elif self._victim is not None and line in self._victim:
            self._victim[line] = value

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` (coherence invalidation).  Returns whether present."""
        line = key >> self.line_shift
        set_ = self._sets[line % self.num_sets]
        present = False
        if line in set_:
            del set_[line]
            if not set_:
                self._sets[line % self.num_sets] = _EMPTY
            present = True
        if self._victim is not None and line in self._victim:
            del self._victim[line]
            present = True
        if present:
            self.stats.invalidations += 1
        return present

    def flush(self) -> None:
        """Empty the cache (keeps statistics)."""
        # In place: compiled replay binds ``_sets`` itself.
        self._sets[:] = [_EMPTY] * self.num_sets
        if self._victim is not None:
            self._victim.clear()

    # -- state -------------------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """Every set's lines in LRU order, the victim array, the stats."""
        return {
            "sets": [list(set_.items()) if set_ else []
                     for set_ in self._sets],
            "victim": (list(self._victim.items())
                       if self._victim is not None else None),
            "stats": self.stats.state(),
        }

    def load(self, state: Dict[str, object]) -> None:
        saved_sets = state["sets"]
        if len(saved_sets) != len(self._sets):
            raise ValueError(
                f"cache {self.name}: state has {len(saved_sets)} sets, "
                f"this cache has {len(self._sets)} (config mismatch)")
        self._sets[:] = [OrderedDict(items) if items else _EMPTY
                         for items in saved_sets]
        if self._victim is not None:
            self._victim.clear()
            self._victim.update(state["victim"] or ())
        self.stats.load(state["stats"])

    # -- introspection -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- internals -----------------------------------------------------------------

    def _install(self, set_: OrderedDict, line: int, value) -> None:
        """Install ``line`` in ``set_`` (the set it maps to), evicting
        the LRU line of a full set."""
        if set_ is _EMPTY:
            set_ = self._sets[line % self.num_sets] = OrderedDict()
        elif len(set_) >= self.ways:
            victim_line, victim_value = set_.popitem(last=False)
            self.stats.evictions += 1
            if self._victim is not None:
                self._victim[victim_line] = victim_value
                if len(self._victim) > self._victim_capacity:
                    self._victim.popitem(last=False)
        set_[line] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SetAssocCache {self.name}: {self.entries}x{self.ways}-way, "
            f"miss_rate={self.stats.miss_rate:.2%}>"
        )
