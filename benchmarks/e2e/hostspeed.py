"""The reference kernel that measures how fast the shared host is running.

The benchmark runs on shared virtual machines whose speed drifts by 10-20%
over minutes and, under load from other tenants, swings by up to half
within a second.  Each workload times the kernel between its timed
operations and scales every host time it reports by ``REFERENCE_KERNEL_S``
over the kernel times around it, so that two runs compare the simulator
rather than the host's load at the moment.

The kernel's memory is larger than a core's L2 cache, as the simulator's
is: a loaded neighbour slows a kernel that stays in L2 by up to twice as
much as it slows the simulator, while this one slows by about as much.
"""

from __future__ import annotations

import gc
import os
import time

#: About the median seconds of one kernel run on the host the committed
#: records come from (a 2-CPU Intel Xeon virtual machine, Python 3.11),
#: when lightly loaded.
REFERENCE_KERNEL_S = 0.0080

#: 2**16 cells of about 100 bytes each: 6-7 MB, beyond a 2 MB L2 cache.
_CELL_BITS = 16
_STEPS = 15_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _kernel(memory: dict) -> int:
    """A fixed pure-Python loop shaped like the simulator's inner loop:
    register reads and writes, and dictionary lookups and attribute
    updates on objects scattered over a large heap."""
    regs = [0] * 16
    mask = (1 << _CELL_BITS) - 1
    acc = 0
    for i in range(_STEPS):
        value = (regs[i & 15] * 2654435761 + i) & 0xFFFFFFFF
        cell = memory[((value >> 7) & mask) << 3]
        cell.value ^= value
        regs[(i >> 4) & 15] = cell.value
        acc ^= cell.value
    return acc


def _rss_mb() -> float:
    """This process's resident set size now, in MB (Linux only)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class HostProbe:
    """Times the reference kernel.  The memory is allocated once, because
    allocating it costs several kernel runs; after a ``fork`` the first
    run also pays for copying the pages it touches, so the child should
    discard one run.  ``rss_mb`` is how much the resident set grew when
    the memory was allocated, so that a process's peak can be reported
    without it."""

    def __init__(self) -> None:
        before = _rss_mb()
        self._memory = {address << 3: _Cell()
                        for address in range(1 << _CELL_BITS)}
        self.rss_mb = _rss_mb() - before

    def time(self) -> float:
        """Seconds of one kernel run.  The cyclic garbage collector is off
        meanwhile: its passes cost in proportion to the process's live
        heap, which would make the kernel's time depend on the workload
        around it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _kernel(self._memory)
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
