"""Tests for the heap library's host dispatch and ABI."""

import pytest

from repro.heap import HeapAllocator, host_dispatch_table
from repro.isa import Reg
from repro.memory import Memory
from repro.microop.uops import NUM_UREGS


@pytest.fixture
def regs_and_table():
    allocator = HeapAllocator(Memory())
    return [0] * NUM_UREGS, host_dispatch_table(allocator), allocator


class TestHostDispatch:
    def test_malloc_abi(self, regs_and_table):
        regs, table, allocator = regs_and_table
        regs[Reg.RDI] = 64
        table["heap_malloc"](regs)
        assert regs[Reg.RAX] != 0
        assert allocator.stats.total_allocs == 1

    def test_calloc_abi_zeroes(self, regs_and_table):
        regs, table, allocator = regs_and_table
        regs[Reg.RDI], regs[Reg.RSI] = 4, 8
        table["heap_calloc"](regs)
        user = regs[Reg.RAX]
        assert [allocator.memory.peek_word(user + 8 * i)
                for i in range(4)] == [0, 0, 0, 0]

    def test_free_abi(self, regs_and_table):
        regs, table, allocator = regs_and_table
        regs[Reg.RDI] = 64
        table["heap_malloc"](regs)
        regs[Reg.RDI] = regs[Reg.RAX]
        table["heap_free"](regs)
        assert allocator.stats.total_frees == 1
        assert regs[Reg.RAX] == 0

    def test_realloc_abi(self, regs_and_table):
        regs, table, allocator = regs_and_table
        regs[Reg.RDI] = 16
        table["heap_malloc"](regs)
        old = regs[Reg.RAX]
        allocator.memory.write_word(old, 4242)
        regs[Reg.RDI], regs[Reg.RSI] = old, 256
        table["heap_realloc"](regs)
        assert allocator.memory.read_word(regs[Reg.RAX]) == 4242

    def test_table_covers_all_routines(self, regs_and_table):
        _, table, _ = regs_and_table
        assert set(table) == {"heap_malloc", "heap_calloc", "heap_realloc",
                              "heap_free"}


class TestAblationsDriver:
    def test_small_ablation_run(self):
        from repro.eval import ablations

        result = ablations.run(scale=1, benchmarks=("lbm",),
                               max_instructions=120_000)
        text = result.format_text()
        assert "context-sensitive enforcement" in text
        assert "capability-cache size" in text
        assert result.context["lbm"]["allocs_tracked_equal"] == 1.0
        # Bigger capability caches never (meaningfully) miss more.
        rates = [result.capcache_sweep["lbm"][s]
                 for s in sorted(result.capcache_sweep["lbm"])]
        for small, large in zip(rates, rates[1:]):
            assert large <= small + 0.02
