"""Property-based tests for the shadow alias table and alias cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AliasCache, ShadowAliasTable, StoreBufferPids

word_addresses = st.integers(min_value=0, max_value=(1 << 47) - 8).map(
    lambda a: a & ~7)
pids = st.integers(min_value=1, max_value=1 << 30)


class TestAliasTableProperties:
    @given(st.dictionaries(word_addresses, pids, max_size=60))
    def test_table_behaves_like_a_mapping(self, mapping):
        table = ShadowAliasTable()
        for address, pid in mapping.items():
            table.set(address, pid)
        for address, pid in mapping.items():
            assert table.walk(address) == pid

    @given(st.lists(st.tuples(word_addresses, st.integers(0, 1 << 20)),
                    min_size=1, max_size=80))
    def test_last_write_wins(self, writes):
        table = ShadowAliasTable()
        expected = {}
        for address, pid in writes:
            table.set(address, pid)
            if pid:
                expected[address] = pid
            else:
                expected.pop(address, None)
        for address, pid in expected.items():
            assert table.peek(address) == pid

    @given(st.sets(word_addresses, min_size=1, max_size=50))
    def test_clear_removes_everything_set(self, addresses):
        table = ShadowAliasTable()
        for address in addresses:
            table.set(address, 7)
        for address in addresses:
            table.clear(address)
        assert table.live_entries == 0
        for address in addresses:
            assert table.peek(address) == 0

    @given(st.sets(word_addresses, min_size=1, max_size=50))
    def test_storage_nondecreasing_and_node_aligned(self, addresses):
        table = ShadowAliasTable()
        previous = table.shadow_bytes
        for address in addresses:
            table.set(address, 3)
            assert table.shadow_bytes >= previous
            previous = table.shadow_bytes
        from repro.core.alias import NODE_BYTES
        assert table.shadow_bytes % NODE_BYTES == 0


class TestAliasCacheCoherence:
    @given(st.dictionaries(word_addresses, pids, min_size=1, max_size=40))
    def test_cache_never_contradicts_table(self, mapping):
        """Through any access pattern, a cached PID equals the table's."""
        table = ShadowAliasTable()
        cache = AliasCache(entries=8, ways=2, victim_entries=2)
        for address, pid in mapping.items():
            table.set(address, pid)
        for address, pid in mapping.items():
            got, _ = cache.lookup(address, table)
            assert got == pid
        # Second pass (mixed hits/misses after evictions) must still agree.
        for address, pid in mapping.items():
            got, _ = cache.lookup(address, table)
            assert got == pid


class TestStoreBufferProperties:
    @given(st.lists(st.tuples(word_addresses, pids), min_size=1, max_size=50))
    def test_commit_everything_equals_direct_writes(self, stores):
        """Each store committed at its instruction's end leaves the table
        a direct write would."""
        buffered = ShadowAliasTable()
        direct = ShadowAliasTable()
        cache = AliasCache()
        buffer = StoreBufferPids()
        for address, pid in stores:
            buffer.record(address, pid)
            buffer.commit(buffered, cache)
            direct.set(address, pid)
        for address, _ in stores:
            assert buffered.peek(address) == direct.peek(address)
            cached = cache.cache.lookup(address)
            assert cached is None or cached == direct.peek(address)
