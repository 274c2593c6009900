"""Sparse 64-bit little-endian simulated memory with usage meters.

Everything the simulated programs touch lives here: the text-adjacent data
section, the heap (including the allocator's own chunk metadata), and the
stack.  CHEx86's shadow structures (capability table, alias table) live in a
*separate* shadow address space (their storage is accounted separately — see
:class:`~repro.core.capability.ShadowCapabilityTable`), matching the paper's
requirement that shadow state is not user-addressable.

The meters feed Figure 9: resident set size (pages touched) and bytes moved
(bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..telemetry.state import Counters

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
WORD = 8
MASK64 = (1 << 64) - 1


class MemoryError_(Exception):
    """Access to simulated memory that the machine cannot perform."""


@dataclass
class MemoryStats(Counters):
    """Traffic and footprint counters."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class Memory:
    """Sparse page-granular memory of 64-bit words.

    Words are stored per-page in plain lists (index arithmetic on small
    ints), which profiles much faster than bytearray packing in CPython
    while keeping the footprint proportional to pages touched.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, List[int]] = {}
        self.stats = MemoryStats()

    def state(self) -> Dict[str, object]:
        return {"pages": {page: list(words)
                          for page, words in self._pages.items()},
                "stats": self.stats.state()}

    def load(self, state: Dict[str, object]) -> None:
        self._pages.clear()
        self._pages.update((page, list(words))
                           for page, words in state["pages"].items())
        self.stats.load(state["stats"])

    # -- word access ---------------------------------------------------------

    def read_word(self, address: int) -> int:
        """Read the 64-bit word at ``address`` (must be 8-byte aligned)."""
        self._check_aligned(address)
        self.stats.reads += 1
        self.stats.bytes_read += WORD
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[(address & (PAGE_SIZE - 1)) >> 3]

    def write_word(self, address: int, value: int) -> None:
        """Write the 64-bit word at ``address`` (must be 8-byte aligned)."""
        self._check_aligned(address)
        self.stats.writes += 1
        self.stats.bytes_written += WORD
        page = self._page(address >> PAGE_SHIFT)
        page[(address & (PAGE_SIZE - 1)) >> 3] = value & MASK64

    def peek_word(self, address: int) -> int:
        """Read without touching the traffic meters (host/debug access)."""
        self._check_aligned(address)
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[(address & (PAGE_SIZE - 1)) >> 3]

    def poke_word(self, address: int, value: int) -> None:
        """Write without touching the traffic meters (loader/host access)."""
        self._check_aligned(address)
        page = self._page(address >> PAGE_SHIFT)
        page[(address & (PAGE_SIZE - 1)) >> 3] = value & MASK64

    # -- bulk helpers ----------------------------------------------------------

    def fill_words(self, address: int, values, metered: bool = False) -> None:
        """Write consecutive words starting at ``address``."""
        for offset, value in enumerate(values):
            if metered:
                self.write_word(address + offset * WORD, value)
            else:
                self.poke_word(address + offset * WORD, value)

    # -- footprint -------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes of the pages materialized so far (resident set size)."""
        return len(self._pages) * PAGE_SIZE

    # -- internals ---------------------------------------------------------------

    def _page(self, page_no: int) -> List[int]:
        page = self._pages.get(page_no)
        if page is None:
            page = [0] * (PAGE_SIZE >> 3)
            self._pages[page_no] = page
        return page

    @staticmethod
    def _check_aligned(address: int) -> None:
        if address & 7:
            raise MemoryError_(f"unaligned word access at {address:#x}")
        if not 0 <= address <= MASK64:
            raise MemoryError_(f"address {address:#x} outside 64-bit space")
