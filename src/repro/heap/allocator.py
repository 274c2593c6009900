"""Free-list heap allocator operating on simulated memory.

This models the exploitable core of a classic high-performance allocator
(glibc-style fastbins before hardening): chunk headers and free-list ``fd``
pointers live *in the simulated heap itself*, so temporal-safety exploits in
``repro.exploits.how2heap`` behave exactly like their real counterparts:

* a use-after-free write to a freed chunk corrupts its ``fd`` pointer and a
  later ``malloc`` of the same size class returns an attacker-chosen address;
* a double free inserts a chunk into its bin twice ("fastbin dup");
* an invalid free pushes a fake chunk onto a bin.

The allocator performs **no** integrity checks — the paper's point is that
CHEx86 catches the *violation* (UAF, double free, invalid free) before the
metadata corruption can be weaponized.

Chunk layout (16-byte aligned)::

    base + 0 : header word = chunk_size | INUSE_BIT
    base + 8 : user data ...      (when free: fd pointer to next bin chunk)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..isa.program import HEAP_BASE
from ..memory.memory import Memory
from ..telemetry.state import Counters

HEADER_BYTES = 8
ALIGN = 16
INUSE_BIT = 1
SIZE_MASK = ~0xF

#: Host-routine cost model: executing malloc/free in a real allocator costs
#: on the order of a hundred instructions; the pipeline charges this many
#: equivalent micro-ops per HOSTOP so allocation-heavy workloads pay for it.
HOSTOP_UOP_COST = {
    "heap_malloc": 90,
    "heap_calloc": 120,
    "heap_realloc": 150,
    "heap_free": 60,
}


@dataclass
class AllocationRecord:
    """Host-side log entry for one allocation (profiling ground truth).

    This is *observer* state — the simulated program and the exploits only
    interact with the in-memory chunk metadata.  The hardware checker
    co-processor (``repro.core.checker``) also uses this log as its
    exhaustive search space.
    """

    serial: int
    address: int
    size: int
    freed: bool = False


@dataclass
class HeapStats(Counters):
    """Counters feeding the Figure 3 allocation-behaviour profile."""

    total_allocs: int = 0
    total_frees: int = 0
    failed_allocs: int = 0
    live: int = 0
    max_live: int = 0
    bytes_allocated: int = 0

    def on_alloc(self, size: int) -> None:
        self.total_allocs += 1
        self.live += 1
        self.bytes_allocated += size
        if self.live > self.max_live:
            self.max_live = self.live

    def on_free(self) -> None:
        self.total_frees += 1
        self.live -= 1

    def register_metrics(self, registry, prefix: str = "heap") -> None:
        """Expose the allocator counters as ``<prefix>.*`` gauges.

        The allocator is *system*-shared: in a multicore run every core's
        registry reads the same object, so the metrics merge with
        ``last`` (one copy), never summed across cores.
        """
        from ..telemetry.registry import MERGE_LAST

        registry.register_object(prefix, self, merge=MERGE_LAST)


class HeapAllocator:
    """The allocator backing the registered heap-management routines."""

    def __init__(
        self,
        memory: Memory,
        base: int = HEAP_BASE,
        limit: int = 64 << 20,
    ) -> None:
        self.memory = memory
        self.base = base
        self.limit = base + limit
        self._top = base  # wilderness pointer
        self._bins: Dict[int, int] = {}  # size class -> chunk base (0 = empty)
        self.stats = HeapStats()
        self.records: List[AllocationRecord] = []
        self._by_address: Dict[int, AllocationRecord] = {}

    def state(self) -> Dict[str, object]:
        """Wilderness, bins, the allocation log and the stats; the
        address index derives from the log, so :meth:`load` rebuilds it."""
        return {
            "top": self._top,
            "bins": dict(self._bins),
            "records": [(r.serial, r.address, r.size, r.freed)
                        for r in self.records],
            "stats": self.stats.state(),
        }

    def load(self, state: Dict[str, object]) -> None:
        self._top = state["top"]
        self._bins.clear()
        self._bins.update(state["bins"])
        self.records[:] = [AllocationRecord(*record)
                           for record in state["records"]]
        # Serial order reproduces _record_alloc's last-wins index for
        # reused addresses, sharing identity with ``records``.
        self._by_address.clear()
        for record in self.records:
            self._by_address[record.address] = record
        self.stats.load(state["stats"])

    # -- the four library entry points ---------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the user pointer, 0 on failure."""
        if size <= 0:
            self.stats.failed_allocs += 1
            return 0
        chunk_size = self._chunk_size(size)
        base = self._pop_bin(chunk_size)
        if base == 0:
            base = self._extend_wilderness(chunk_size)
            if base == 0:
                self.stats.failed_allocs += 1
                return 0
        self.memory.write_word(base, chunk_size | INUSE_BIT)
        user = base + HEADER_BYTES
        self._record_alloc(user, size)
        return user

    def calloc(self, count: int, size: int) -> int:
        """Allocate and zero ``count * size`` bytes."""
        total = count * size
        user = self.malloc(total)
        if user:
            words = (total + 7) // 8
            self.memory.fill_words(user, [0] * words, metered=True)
        return user

    def free(self, user: int) -> None:
        """Release the allocation at ``user``.  No validation whatsoever."""
        if user == 0:
            return  # free(NULL) is defined as a no-op
        base = user - HEADER_BYTES
        header = self.memory.read_word(base)
        chunk_size = header & SIZE_MASK
        if chunk_size == 0:
            # Fake chunk with a zero header: still push it, bucketed at the
            # minimum class (the exploitable invalid-free path).
            chunk_size = ALIGN * 2
        self.memory.write_word(base, chunk_size)  # clear INUSE
        # Push onto the bin: fd written INTO the (now free) user area.
        head = self._bins.get(chunk_size, 0)
        self.memory.write_word(user, head)
        self._bins[chunk_size] = base
        self._record_free(user)

    def realloc(self, user: int, size: int) -> int:
        """Resize: allocate-copy-free (the simple allocator strategy)."""
        if user == 0:
            return self.malloc(size)
        if size <= 0:
            self.free(user)
            return 0
        old_base = user - HEADER_BYTES
        old_chunk = self.memory.read_word(old_base) & SIZE_MASK
        old_user_bytes = max(old_chunk - HEADER_BYTES, 0)
        new_user = self.malloc(size)
        if new_user:
            words = (min(old_user_bytes, size) + 7) // 8
            for i in range(words):
                self.memory.write_word(
                    new_user + i * 8, self.memory.read_word(user + i * 8)
                )
            self.free(user)
        return new_user

    # -- introspection (host-side ground truth) ---------------------------------

    def record_for(self, address: int) -> Optional[AllocationRecord]:
        """Record of the allocation whose user area contains ``address``.

        This is the exhaustive search the hardware checker performs over all
        tracked blocks, live *and* freed (Section V-A).
        """
        # Exact user-pointer hit first (cheap, common).
        record = self._by_address.get(address)
        if record is not None:
            return record
        for record in reversed(self.records):
            if record.address <= address < record.address + record.size:
                return record
        return None

    @property
    def wilderness(self) -> int:
        return self._top

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _chunk_size(user_size: int) -> int:
        raw = user_size + HEADER_BYTES
        return max((raw + ALIGN - 1) // ALIGN * ALIGN, ALIGN * 2)

    def _pop_bin(self, chunk_size: int) -> int:
        head = self._bins.get(chunk_size, 0)
        if head == 0:
            return 0
        # fd pointer lives in the chunk's user area — trusting it blindly is
        # exactly what makes fastbin-dup style exploits possible.
        fd = self.memory.read_word(head + HEADER_BYTES)
        self._bins[chunk_size] = fd
        return head

    def _extend_wilderness(self, chunk_size: int) -> int:
        if self._top + chunk_size > self.limit:
            return 0
        base = self._top
        self._top += chunk_size
        return base

    def _record_alloc(self, user: int, size: int) -> None:
        self.stats.on_alloc(size)
        record = AllocationRecord(len(self.records), user, size)
        self.records.append(record)
        self._by_address[user] = record

    def _record_free(self, user: int) -> None:
        self.stats.on_free()
        record = self._by_address.get(user)
        if record is not None and not record.freed:
            record.freed = True
