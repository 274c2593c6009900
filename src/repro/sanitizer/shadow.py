"""AddressSanitizer shadow-memory model.

The comparison baseline in Figure 6/9 is LLVM's AddressSanitizer: a
software tripwire that maintains shadow memory describing which application
words are addressable, poisons *redzones* around every allocation, and
instruments every memory access with an inlined shadow check.

This model uses word-granularity shadow (one shadow word per application
word) living at :data:`SHADOW_BASE` inside the simulated address space, so
the *instrumented check instructions really load it* — its cache footprint,
bandwidth, and residency costs are paid the same way real ASan pays them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.memory import Memory

#: Base of the shadow region (above all application segments).
SHADOW_BASE = 0x4000_0000_0000

#: Poison values (modelled after ASan's shadow byte encodings).
POISON_NONE = 0
POISON_REDZONE = 0xF1       # heap left/right redzone -> out-of-bounds
POISON_FREED = 0xFD         # freed heap region -> use-after-free
POISON_GLOBAL_REDZONE = 0xF9

#: Redzone size on each side of an allocation, in bytes.
REDZONE_BYTES = 32


def shadow_address(address: int) -> int:
    """Shadow word guarding the application word containing ``address``."""
    return SHADOW_BASE + (address & ~7)


@dataclass
class ShadowStats:
    poisoned_words: int = 0
    unpoisoned_words: int = 0


class ShadowMemory:
    """Poison bookkeeping over the simulated memory's shadow region."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self.stats = ShadowStats()

    def poison_range(self, start: int, length: int, value: int) -> None:
        """Poison every shadow word covering [start, start+length)."""
        word = start & ~7
        end = start + length
        while word < end:
            self.memory.poke_word(shadow_address(word), value)
            self.stats.poisoned_words += 1
            word += 8

    def unpoison_range(self, start: int, length: int) -> None:
        word = start & ~7
        end = start + length
        while word < end:
            self.memory.poke_word(shadow_address(word), POISON_NONE)
            self.stats.unpoisoned_words += 1
            word += 8

    def poison_value(self, address: int) -> int:
        """The poison word guarding ``address`` (0 = addressable)."""
        return self.memory.peek_word(shadow_address(address))

