"""Unit tests for the generic set-associative cache model."""

import pytest

from repro.memory import SetAssocCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = SetAssocCache(4, 2)
        assert cache.access(10) is False
        assert cache.access(10) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache(6, 4)

    def test_fully_associative(self):
        cache = SetAssocCache(4, 4)
        for key in range(4):
            cache.access(key)
        assert all(cache.probe(k) for k in range(4))
        cache.access(99)  # evicts LRU = key 0
        assert not cache.probe(0)
        assert cache.probe(99)

    def test_lru_refresh_on_hit(self):
        cache = SetAssocCache(2, 2)
        cache.access(0)
        cache.access(2)   # same set (2 sets? no: 1 set of 2 ways... )
        cache.access(0)   # refresh 0
        cache.access(4)   # evicts 2, not 0
        assert cache.probe(0)
        assert not cache.probe(2)

    def test_line_shift_groups_addresses(self):
        cache = SetAssocCache(8, 2, line_shift=6)
        cache.access(0x100)
        assert cache.access(0x13F) is True  # same 64-byte line
        assert cache.access(0x140) is False


class TestValuesAndInvalidation:
    def test_lookup_returns_value(self):
        cache = SetAssocCache(4, 2)
        cache.access(5, value="payload")
        assert cache.lookup(5) == "payload"
        assert cache.lookup(6) is None

    def test_update_in_place(self):
        cache = SetAssocCache(4, 2)
        cache.access(5, value=1)
        cache.update(5, 2)
        assert cache.lookup(5) == 2

    def test_invalidate(self):
        cache = SetAssocCache(4, 2)
        cache.access(5)
        assert cache.invalidate(5) is True
        assert not cache.probe(5)
        assert cache.invalidate(5) is False
        assert cache.stats.invalidations == 1

    def test_flush_keeps_stats(self):
        cache = SetAssocCache(4, 2)
        cache.access(1)
        cache.flush()
        assert cache.occupancy == 0
        assert cache.stats.misses == 1


class TestVictimCache:
    def test_eviction_lands_in_victim(self):
        cache = SetAssocCache(2, 2, victim_entries=2)
        cache.access(0)
        cache.access(2)
        cache.access(4)  # evicts 0 into the victim cache
        assert cache.access(0) is True  # victim hit counts as hit
        assert cache.stats.victim_hits == 1

    def test_victim_capacity_bounded(self):
        cache = SetAssocCache(1, 1, victim_entries=1)
        cache.access(0)
        cache.access(1)  # 0 -> victim
        cache.access(2)  # 1 -> victim, 0 dropped
        assert cache.access(0) is False

    def test_miss_rate_property(self):
        cache = SetAssocCache(4, 2)
        cache.access(1)
        cache.access(1)
        cache.access(1)
        assert cache.stats.miss_rate == pytest.approx(1 / 3)
