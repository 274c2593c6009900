"""Property-based tests for the heap allocator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heap import ALIGN, HEADER_BYTES, HeapAllocator
from repro.memory import Memory

sizes = st.integers(min_value=1, max_value=512)


def interval_overlap(a_start, a_end, b_start, b_end):
    return a_start < b_end and b_start < a_end


class TestAllocatorProperties:
    @given(st.lists(sizes, min_size=1, max_size=60))
    def test_live_allocations_never_overlap(self, requests):
        heap = HeapAllocator(Memory())
        live = []
        for size in requests:
            user = heap.malloc(size)
            assert user != 0
            for other_user, other_size in live:
                assert not interval_overlap(user, user + size,
                                            other_user,
                                            other_user + other_size)
            live.append((user, size))

    @given(st.lists(sizes, min_size=1, max_size=60))
    def test_alignment_always_holds(self, requests):
        heap = HeapAllocator(Memory())
        for size in requests:
            user = heap.malloc(size)
            assert (user - HEADER_BYTES) % ALIGN == 0

    @given(st.lists(st.tuples(sizes, st.booleans()), min_size=1, max_size=60))
    def test_malloc_free_sequences_keep_stats_consistent(self, script):
        heap = HeapAllocator(Memory())
        live = []
        allocs = frees = 0
        for size, do_free in script:
            user = heap.malloc(size)
            allocs += 1
            if do_free:
                heap.free(user)
                frees += 1
            else:
                live.append(user)
        assert heap.stats.total_allocs == allocs
        assert heap.stats.total_frees == frees
        assert heap.stats.live == allocs - frees
        assert heap.stats.max_live <= allocs

    @given(st.lists(sizes, min_size=1, max_size=30))
    def test_free_all_then_realloc_reuses_memory(self, requests):
        """Freeing everything and re-requesting the same sizes must not
        grow the wilderness (perfect reuse through the bins)."""
        heap = HeapAllocator(Memory())
        users = [heap.malloc(size) for size in requests]
        top_before = heap.wilderness
        for user in users:
            heap.free(user)
        for size in requests:
            assert heap.malloc(size) != 0
        assert heap.wilderness == top_before

    @given(st.lists(sizes, min_size=1, max_size=40))
    def test_records_track_every_allocation(self, requests):
        heap = HeapAllocator(Memory())
        for size in requests:
            user = heap.malloc(size)
            record = heap.record_for(user)
            assert record is not None
            assert record.address == user
            assert record.size == size

    @given(data=st.data())
    def test_contents_survive_realloc(self, data):
        heap = HeapAllocator(Memory())
        size = data.draw(st.integers(min_value=8, max_value=128))
        words = data.draw(st.lists(
            st.integers(0, (1 << 64) - 1),
            min_size=1, max_size=size // 8))
        user = heap.malloc(size)
        heap.memory.fill_words(user, words)
        new_size = data.draw(st.integers(min_value=size, max_value=1024))
        moved = heap.realloc(user, new_size)
        assert [heap.memory.peek_word(moved + 8 * i)
                for i in range(len(words))] == words
