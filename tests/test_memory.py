"""Unit tests for the sparse simulated memory."""

import pytest

from repro.memory import Memory, MemoryError_, PAGE_SIZE


class TestWordAccess:
    def test_read_uninitialized_is_zero(self):
        assert Memory().read_word(0x1000) == 0

    def test_write_read_roundtrip(self):
        memory = Memory()
        memory.write_word(0x2000, 0xDEADBEEF)
        assert memory.read_word(0x2000) == 0xDEADBEEF

    def test_values_truncate_to_64_bits(self):
        memory = Memory()
        memory.write_word(0x2000, 1 << 64)
        assert memory.read_word(0x2000) == 0

    def test_unaligned_rejected(self):
        memory = Memory()
        with pytest.raises(MemoryError_):
            memory.read_word(0x2001)
        with pytest.raises(MemoryError_):
            memory.write_word(0x2004, 1)  # word-aligned means 8 bytes

    def test_adjacent_words_independent(self):
        memory = Memory()
        memory.write_word(0x3000, 1)
        memory.write_word(0x3008, 2)
        assert memory.read_word(0x3000) == 1
        assert memory.read_word(0x3008) == 2


class TestMeters:
    def test_metered_traffic(self):
        memory = Memory()
        memory.write_word(0x1000, 1)
        memory.read_word(0x1000)
        assert memory.stats.reads == 1
        assert memory.stats.writes == 1
        assert memory.stats.bytes_read + memory.stats.bytes_written == 16

    def test_peek_poke_unmetered(self):
        memory = Memory()
        memory.poke_word(0x1000, 9)
        assert memory.peek_word(0x1000) == 9
        assert memory.stats.reads == 0
        assert memory.stats.writes == 0

    def test_resident_pages_grow_on_write(self):
        memory = Memory()
        assert memory.resident_bytes == 0
        memory.write_word(0x0, 1)
        memory.write_word(PAGE_SIZE, 1)
        assert memory.resident_bytes == 2 * PAGE_SIZE

    def test_reads_do_not_materialize_pages(self):
        memory = Memory()
        memory.read_word(0x5000)
        assert memory.resident_bytes == 0


class TestBulkHelpers:
    def test_fill_and_read_words(self):
        memory = Memory()
        memory.fill_words(0x4000, [5, 6, 7])
        assert [memory.peek_word(0x4000 + 8 * i) for i in range(3)] \
            == [5, 6, 7]

    def test_fill_metered_flag(self):
        memory = Memory()
        memory.fill_words(0x4000, [1], metered=True)
        assert memory.stats.writes == 1
