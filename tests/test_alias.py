"""Unit tests for the shadow alias table, alias cache, and store-buffer PIDs."""

import pytest

from repro.core import AliasCache, ShadowAliasTable, StoreBufferPids, WALK_LEVELS
from repro.core.alias import NODE_BYTES


@pytest.fixture
def table():
    return ShadowAliasTable()


class TestShadowAliasTable:
    def test_set_walk_roundtrip(self, table):
        table.set(0x7FFF_0000, 42)
        assert table.walk(0x7FFF_0000) == 42

    def test_absent_is_zero(self, table):
        assert table.walk(0x1234_5678 & ~7) == 0

    def test_overwrite(self, table):
        table.set(0x1000, 1)
        table.set(0x1000, 2)
        assert table.walk(0x1000) == 2

    def test_set_zero_clears(self, table):
        table.set(0x1000, 5)
        table.set(0x1000, 0)
        assert table.walk(0x1000) == 0
        assert table.live_entries == 0

    def test_clear_untracked_is_noop(self, table):
        table.clear(0x5000)
        assert table.stats.entries_cleared == 0

    def test_distinct_words_distinct_entries(self, table):
        table.set(0x1000, 1)
        table.set(0x1008, 2)
        assert table.walk(0x1000) == 1
        assert table.walk(0x1008) == 2

    def test_walk_touches_levels(self, table):
        table.set(0x1000, 1)
        table.walk(0x1000)
        assert table.stats.walks == 1
        assert table.stats.levels_touched == WALK_LEVELS

    def test_failed_walk_stops_early(self, table):
        table.walk(0xDEAD_BEEF_0000 & ~7)
        assert table.stats.levels_touched < WALK_LEVELS

    def test_storage_scales_with_spread(self, table):
        table.set(0x1000, 1)
        one_region = table.shadow_bytes
        table.set(0x7FFF_0000_0000, 2)  # far away: new intermediate nodes
        assert table.shadow_bytes > one_region
        assert table.shadow_bytes % NODE_BYTES == 0

    def test_peek_does_not_count(self, table):
        table.set(0x1000, 3)
        assert table.peek(0x1000) == 3
        assert table.stats.walks == 0


class TestAliasCache:
    def test_miss_walks_then_hit(self, table):
        cache = AliasCache()
        table.set(0x2000, 9)
        pid, hit = cache.lookup(0x2000, table)
        assert (pid, hit) == (9, False)
        pid, hit = cache.lookup(0x2000, table)
        assert (pid, hit) == (9, True)
        assert table.stats.walks == 1

    def test_install_avoids_walk(self, table):
        cache = AliasCache()
        cache.install(0x3000, 4)
        pid, hit = cache.lookup(0x3000, table)
        assert (pid, hit) == (4, True)

    def test_invalidate(self, table):
        cache = AliasCache()
        cache.install(0x3000, 4)
        assert cache.invalidate(0x3000)
        table.set(0x3000, 5)
        pid, hit = cache.lookup(0x3000, table)
        assert (pid, hit) == (5, False)

    def test_victim_cache_catches_conflicts(self, table):
        cache = AliasCache(entries=4, ways=1, victim_entries=4)
        stride = 4 * 8  # map to the same set
        for i in range(3):
            cache.install(i * stride, i + 1)
        pid, hit = cache.lookup(0, table)
        assert (pid, hit) == (1, True)
        assert cache.stats.victim_hits >= 1


class TestStoreBufferPids:
    def test_record_leaves_table_and_cache_alone(self, table):
        cache = AliasCache()
        buffer = StoreBufferPids()
        buffer.record(0x1000, 7)
        assert buffer.pending == (0x1000, 7)
        assert table.peek(0x1000) == 0
        assert cache.cache.lookup(0x1000) is None

    def test_commit_updates_table_and_cache(self, table):
        cache = AliasCache()
        buffer = StoreBufferPids()
        buffer.record(0x1000, 7)
        assert buffer.commit(table, cache) == (0x1000, 7)
        assert buffer.pending is None
        assert table.peek(0x1000) == 7
        assert cache.lookup(0x1000, table) == (7, True)

    def test_zero_pid_commit_clears_alias(self, table):
        cache = AliasCache()
        buffer = StoreBufferPids()
        table.set(0x1000, 7)
        cache.install(0x1000, 7)
        buffer.record(0x1000, 0)  # data overwrote the spilled pointer
        buffer.commit(table, cache)
        assert table.peek(0x1000) == 0
        assert cache.lookup(0x1000, table) == (0, False)
