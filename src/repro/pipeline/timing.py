"""Out-of-order timing model (flat scoreboard style).

This is the substitute for the paper's gem5 Skylake model: a
dependency-driven scheduling model that charges every micro-op its fetch
group, decode depth, ROB occupancy, issue-width and functional-unit
contention, cache-hierarchy latency, and branch/alias misprediction
penalties.  It is not cycle-by-cycle RTL; it reproduces the *relative*
costs the paper's evaluation depends on — micro-op expansion, shadow-table
traffic, squash time — which is what Figures 6-9 compare.

The model is driven by the machine in program order; wrong-path work is
accounted as squash penalty cycles rather than simulated.

Because ``schedule()`` runs once per simulated micro-op it is the single
hottest function in the repository, and every step of it is O(1):

* commit is in order, so no commit slot after ``_last_commit`` is ever
  occupied: commit-width accounting is two scalars, the last commit
  cycle and the number of uops already committing in it;
* issue-width accounting (issue is out of order) is one dict from issue
  cycle to its uop count.  No later uop issues below the dispatch floor
  ``fetch_cycle + decode_depth`` (fetch never moves back), and no issued
  uop lies beyond ``last_commit``, so only the cycles in that window can
  still be read: when the dict grows past ``_ISSUE_PRUNE_AT`` entries,
  the ones below the floor are dropped (amortized O(1): only the cycles
  of uops still in flight, a few hundred, stay), and ``state()`` holds
  the window as ``[cycle, count]`` pairs.  A fresh core allocates an
  empty dict of ints, which the cyclic collector never walks;
* functional-unit pools keep their per-unit free times in a binary heap,
  so reserving the earliest-free unit is O(log units) instead of an
  O(units) min-scan (single-unit pools degenerate to one integer), and
  the load/store-queue choice is one per-class table lookup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heapreplace
from typing import Deque, Dict, List, Optional, Tuple

from ..memory.cache import SetAssocCache
from ..microop.uops import NUM_UREGS
from ..telemetry.state import Counters
from .config import CoreConfig

#: Pseudo-register index used for the flags dependency.
_FLAGS = NUM_UREGS

#: Issue-scoreboard size past which the cycles below the dispatch floor
#: are dropped (far above the live window; how often it prunes changes
#: no result).
_ISSUE_PRUNE_AT = 4096


class FuType:
    """Functional unit classes (Table III), as dense pool indices."""

    ALU = 0
    MULT = 1
    LOAD = 2
    STORE = 3
    CMU = 4  # capability management units (Figure 2)

    NAMES = ("alu", "mult", "load", "store", "cmu")


@dataclass
class TimingStats(Counters):
    """Cycle/traffic accounting for one core."""

    cycles: int = 0
    uops: int = 0
    macro_ops: int = 0
    squash_cycles: int = 0
    branch_squash_cycles: int = 0
    alias_squash_cycles: int = 0
    hostop_cycles: int = 0
    fetch_groups: int = 0
    icache_misses: int = 0
    loads: int = 0
    stores: int = 0
    l1d_misses: int = 0
    l2_misses: int = 0
    dram_bytes: int = 0
    shadow_dram_bytes: int = 0
    rob_stall_events: int = 0
    #: Issued uops per functional-unit class, indexed like ``FuType``.
    fu_uops: List[int] = field(default_factory=lambda: [0] * 5)

    @property
    def total_dram_bytes(self) -> int:
        return self.dram_bytes + self.shadow_dram_bytes

    @property
    def squash_fraction(self) -> float:
        return self.squash_cycles / self.cycles if self.cycles else 0.0

    def ipc(self) -> float:
        return self.macro_ops / self.cycles if self.cycles else 0.0

    def bandwidth_mb_per_s(self, frequency_ghz: float) -> float:
        # Zero cycles *or* a zero clock yields 0.0 (the repo-wide
        # zero-denominator convention), never ZeroDivisionError.
        if not self.cycles or not frequency_ghz:
            return 0.0
        seconds = self.cycles / (frequency_ghz * 1e9)
        return self.total_dram_bytes / seconds / 1e6

    def register_metrics(self, registry, prefix: str = "timing") -> None:
        """Expose the cycle/traffic counters as ``<prefix>.*`` gauges.

        ``cycles`` is only final after :meth:`TimingModel.finish`;
        snapshot takers call it first (it is idempotent).
        """
        super().register_metrics(registry, prefix)
        for index, name in enumerate(FuType.NAMES):
            registry.gauge(
                f"{prefix}.fu_{name}_uops",
                lambda stats=self, i=index: stats.fu_uops[i])
        # No unit walks the alias table; the name stays for recorded digests.
        registry.gauge(f"{prefix}.fu_walker_uops", lambda: 0)
        registry.ratio(f"{prefix}.squash_fraction",
                       f"{prefix}.squash_cycles", f"{prefix}.cycles")


class _FuPool:
    """A pool of (pipelined) functional units.

    Free times live in a min-heap: ``reserve`` starts the request at the
    earliest-free unit, exactly like an argmin scan over the units, but in
    O(log n).  A one-unit pool is just a single integer.
    """

    __slots__ = ("_free", "_single")

    def __init__(self, units: int) -> None:
        self._single = units == 1
        if self._single:
            self._free = 0
        else:
            free = [0] * units
            heapify(free)
            self._free = free

    def reserve(self, ready: int, occupancy: int = 1) -> int:
        if self._single:
            start = ready if ready > self._free else self._free
            self._free = start + occupancy
            return start
        free = self._free
        earliest = free[0]
        start = ready if ready > earliest else earliest
        heapreplace(free, start + occupancy)
        return start


class TimingModel:
    """Per-core scoreboard; shared L2 is passed in by the system."""

    def __init__(self, config: CoreConfig, l2: SetAssocCache,
                 name: str = "core0") -> None:
        self.config = config
        self.name = name
        line_shift = config.line_bytes.bit_length() - 1
        #: Cache line shift, hoisted once — ``begin_macro``/``mem_access``
        #: run per macro-op/access and must not recompute it.
        self._line_shift = line_shift
        self.l1i = SetAssocCache(config.l1i_bytes // config.line_bytes,
                                 config.l1i_ways, line_shift, name=f"{name}.l1i")
        self.l1d = SetAssocCache(config.l1d_bytes // config.line_bytes,
                                 config.l1d_ways, line_shift, name=f"{name}.l1d")
        self.l2 = l2
        self.stats = TimingStats()
        self._pools = [
            _FuPool(config.int_alu_units),   # FuType.ALU
            _FuPool(config.int_mult_units),  # FuType.MULT
            _FuPool(2),                      # FuType.LOAD
            _FuPool(1),                      # FuType.STORE
            _FuPool(config.cmu_units),       # FuType.CMU
        ]
        self._reg_ready = [0] * (NUM_UREGS + 1)
        self._rob: Deque[int] = deque()
        self._lq: Deque[int] = deque()
        self._sq: Deque[int] = deque()
        #: The load/store queue each FU class occupies (None: neither) and
        #: its capacity, indexed like ``FuType``.
        self._queues = (None, None, self._lq, self._sq, None)
        self._queue_limits = (0, 0, config.lq_entries, config.sq_entries, 0)
        # Per-cycle issue scoreboard: cycle -> uops issued in it.
        self._issue: Dict[int, int] = {}
        self._fetch_cycle = 0
        self._group_used = config.fetch_width  # force a fresh group first
        self._last_iline = -1
        # In-order commit: the latest commit cycle and how many uops
        # already commit in it.
        self._last_commit = 0
        self._commit_used = 0
        # Hot-loop config hoists (attribute loads per scheduled uop add up).
        self._fetch_width = config.fetch_width
        self._issue_width = config.issue_width
        self._commit_width = config.commit_width
        self._decode_depth = config.decode_depth
        self._rob_entries = config.rob_entries
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._mem_latency = config.mem_latency
        self._line_bytes = config.line_bytes

    # -- state ------------------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """The scoreboard, the private caches and the stats (the shared
        L2 is the system's state)."""
        return {
            "stats": self.stats.state(),
            "l1i": self.l1i.state(),
            "l1d": self.l1d.state(),
            # A multi-unit pool's free list is heap-ordered; copying it
            # verbatim preserves the heap invariant.
            "pools": [pool._free if pool._single else list(pool._free)
                      for pool in self._pools],
            "reg_ready": list(self._reg_ready),
            "rob": list(self._rob),
            "lq": list(self._lq),
            "sq": list(self._sq),
            "issue_window": self._issue_window(),  # [cycle, count] pairs
            "fetch_cycle": self._fetch_cycle,
            "group_used": self._group_used,
            "last_iline": self._last_iline,
            "last_commit": self._last_commit,
            "commit_used": self._commit_used,
        }

    def load(self, state: Dict[str, object]) -> None:
        self.stats.load(state["stats"])
        self.l1i.load(state["l1i"])
        self.l1d.load(state["l1d"])
        for pool, free in zip(self._pools, state["pools"]):
            if pool._single:
                pool._free = free
            else:
                pool._free[:] = free
        self._reg_ready[:] = state["reg_ready"]
        self._issue = dict(state["issue_window"])
        # In place: ``_queues`` holds the LQ and SQ.
        for name in ("rob", "lq", "sq"):
            queue = getattr(self, f"_{name}")
            queue.clear()
            queue.extend(state[name])
        self._fetch_cycle = state["fetch_cycle"]
        self._group_used = state["group_used"]
        self._last_iline = state["last_iline"]
        self._last_commit = state["last_commit"]
        self._commit_used = state["commit_used"]

    def _issue_window(self) -> List[List[int]]:
        """The live issue window (see the module docstring)."""
        first = self._fetch_cycle + self._decode_depth
        return [[cycle, count] for cycle, count in sorted(self._issue.items())
                if first <= cycle <= self._last_commit]

    # -- front end --------------------------------------------------------------

    def begin_macro(self, pc: int, fetch_slots: int = 1,
                    msrom: bool = False) -> None:
        """Account the fetch/decode of one macro instruction.

        ``fetch_slots`` > 1 models binary-translation instrumentation that
        rides in the macro stream; an MSROM translation consumes the whole
        fetch group (the MSROM serializes legacy decoders).
        """
        stats = self.stats
        stats.macro_ops += 1
        slots = self._fetch_width if msrom else fetch_slots
        if self._group_used + slots > self._fetch_width:
            self._fetch_cycle += 1
            self._group_used = slots
            stats.fetch_groups += 1
        else:
            self._group_used += slots
        line = pc >> self._line_shift
        if line != self._last_iline:
            self.fetch_line(line)

    def fetch_line(self, line: int) -> None:
        """The icache half of :meth:`begin_macro`, which both executors
        call when a macro instruction starts a new icache line.

        ``step()`` reaches it through :meth:`begin_macro`; compiled
        superblock replay inlines the fetch-group half (two compares on
        the slot count, MSROM widening applied at compile time) and calls
        this on a changed line.  The refill shares the L2 (and its LRU
        state) with data misses, so it stays a real access in program
        order.  Replay charges ``macro_ops`` per superblock by
        :meth:`commit_macros`.
        """
        self._last_iline = line
        if not self.l1i.access(line):
            self.stats.icache_misses += 1
            if self.l2.access(line):
                self._fetch_cycle += self._l2_latency
            else:
                self._fetch_cycle += self._mem_latency
                self.stats.dram_bytes += self._line_bytes

    def commit_macros(self, count: int) -> None:
        """Batched ``macro_ops`` charge for ``count`` replayed members.

        Deferring the per-instruction counter to one add per superblock
        is exact because nothing reads ``macro_ops`` mid-run — it only
        feeds end-of-run summaries and metric snapshots, which are taken
        at quantum boundaries.
        """
        self.stats.macro_ops += count

    # -- memory hierarchy ----------------------------------------------------------

    def mem_access(self, address: int, is_store: bool) -> int:
        """Data-cache access; returns the load-to-use latency in cycles.

        Both stores and loads allocate the line on a miss (write-allocate),
        so the DRAM traffic accounting below is identical for either.
        """
        stats = self.stats
        if is_store:
            stats.stores += 1
        else:
            stats.loads += 1
        # L1d probe inlined (the L1d carries no victim array, so a set
        # miss is a genuine miss); a miss calls mem_access_miss.
        l1 = self.l1d
        line = address >> l1.line_shift
        set_ = l1._sets[line % l1.num_sets]
        if line in set_:
            set_.move_to_end(line)
            l1.stats.hits += 1
            return self._l1_latency
        return self.mem_access_miss(address)

    def mem_access_miss(self, address: int) -> int:
        """The L1d-miss leg of :meth:`mem_access`, which both executors
        call: the install, the miss counters and the L2/DRAM legs.

        ``step()`` reaches it through :meth:`mem_access`; compiled
        superblock replay inlines the L1d hit probe (and the loads/stores
        counter) and calls this when the probe failed.
        """
        stats = self.stats
        l1 = self.l1d
        line = address >> l1.line_shift
        l1.stats.misses += 1
        l1._install(l1._sets[line % l1.num_sets], line, True)
        stats.l1d_misses += 1
        if self.l2.access(address):
            return self._l1_latency + self._l2_latency
        stats.l2_misses += 1
        stats.dram_bytes += self._line_bytes
        return self._l1_latency + self._l2_latency + self._mem_latency

    def shadow_access(self, latency_levels: int, bytes_moved: int) -> int:
        """A shadow-structure access (capability table / alias walk; an
        alias walk holds no unit: walker contention is not modelled).

        Returns the added latency; traffic lands in the shadow byte meter.
        """
        self.stats.shadow_dram_bytes += bytes_moved
        return latency_levels

    # -- scheduling ---------------------------------------------------------------------

    def schedule(
        self,
        srcs: Tuple[int, ...],
        dst: Optional[int],
        latency: int,
        fu: int = FuType.ALU,
        reads_flags: bool = False,
        writes_flags: bool = False,
        occupancy: int = 1,
    ) -> int:
        """Schedule one micro-op; returns its completion cycle.

        This is the hottest function in the repository (once per
        simulated micro-op), so the pool-reserve and commit-slot helpers
        are inlined and every attribute that is read more than once is
        hoisted into a local.  The scheduling algorithm is identical to
        the helper-based form, cycle for cycle.
        """
        stats = self.stats
        stats.uops += 1
        stats.fu_uops[fu] += 1
        rob = self._rob
        fetch_cycle = self._fetch_cycle
        decode_depth = self._decode_depth
        dispatch = fetch_cycle + decode_depth
        if len(rob) >= self._rob_entries:
            oldest = rob.popleft()
            if oldest > dispatch:
                dispatch = oldest
                stats.rob_stall_events += 1
                # Dispatch backpressure stalls fetch too: the front end can
                # only run one ROB's worth of work ahead of commit, which
                # bounds the wrong-path window a squash can waste.
                stalled_fetch = dispatch - decode_depth
                if stalled_fetch > fetch_cycle:
                    self._fetch_cycle = stalled_fetch
        queue = self._queues[fu]
        if queue is not None:
            while queue and queue[0] <= dispatch:
                queue.popleft()
            if len(queue) >= self._queue_limits[fu]:
                head = queue.popleft()
                if head > dispatch:
                    dispatch = head
        ready = dispatch
        reg_ready = self._reg_ready
        for src in srcs:
            src_ready = reg_ready[src]
            if src_ready > ready:
                ready = src_ready
        if reads_flags and reg_ready[_FLAGS] > ready:
            ready = reg_ready[_FLAGS]
        # Issue: reserve a functional unit (inlined _FuPool.reserve), then
        # find a cycle with a free issue slot, walking forward from the
        # unit's start cycle.
        pool = self._pools[fu]
        if pool._single:
            free = pool._free
            cycle = ready if ready > free else free
            pool._free = cycle + occupancy
        else:
            free = pool._free
            earliest = free[0]
            cycle = ready if ready > earliest else earliest
            heapreplace(free, cycle + occupancy)
        issue = self._issue
        width = self._issue_width
        used = issue.get(cycle, 0)
        while used >= width:
            cycle += 1
            used = issue.get(cycle, 0)
        issue[cycle] = used + 1
        if not used and len(issue) > _ISSUE_PRUNE_AT:
            # The floor is the ROB-stalled fetch point, never a dispatch
            # the LQ/SQ head raised: a later uop of another class can
            # still issue below that.
            floor = self._fetch_cycle + decode_depth
            self._issue = {old: count for old, count in issue.items()
                           if old >= floor}
        done = cycle + latency
        if dst is not None:
            reg_ready[dst] = done
        if writes_flags:
            reg_ready[_FLAGS] = done
        # Commit (inlined _commit_slot): in order, at most commit_width
        # uops per cycle.
        commit = self._last_commit
        if done > commit:
            commit = self._last_commit = done
            self._commit_used = 1
        elif self._commit_used < self._commit_width:
            self._commit_used += 1
        else:
            commit = self._last_commit = commit + 1
            self._commit_used = 1
        rob.append(commit)
        if queue is not None:
            queue.append(commit)
        return done

    def register_metrics(self, registry, prefix: str = "timing") -> None:
        """Wire this core's timing stats and private caches into
        ``registry`` (``<prefix>.*``, ``cache.l1i.*``, ``cache.l1d.*``)."""
        self.stats.register_metrics(registry, prefix)
        self.l1i.stats.register_metrics(registry, "cache.l1i")
        self.l1d.stats.register_metrics(registry, "cache.l1d")

    def occupy(self, fu: int, ready: int, duration: int) -> int:
        """Reserve a functional unit without issuing a uop: the
        hardware-only variant's capability-table refill holds a CMU.
        Returns the start cycle."""
        return self._pools[fu].reserve(ready, duration)

    def routine_call(self, cost_uops: int, srcs: Tuple[int, ...],
                     dst: Optional[int]) -> int:
        """A host-implemented library routine (malloc/free internals).

        Modelled as a block of ``cost_uops`` instructions flowing through
        the pipeline normally: it occupies the front end for
        ``cost_uops / fetch_width`` cycles and produces its result
        ``cost_uops / 2`` cycles (routine IPC ~2) after its inputs are
        ready — but it does *not* drain the pipe; surrounding independent
        work overlaps, as it would around a real call.
        """
        self.stats.uops += 1
        entry_fetch = self._fetch_cycle
        self._fetch_cycle += max(1, cost_uops // self._fetch_width)
        self._group_used = self._fetch_width
        ready = entry_fetch + self._decode_depth
        for src in srcs:
            if self._reg_ready[src] > ready:
                ready = self._reg_ready[src]
        latency = max(1, cost_uops // 2)
        done = ready + latency
        self.stats.hostop_cycles += latency
        if dst is not None:
            self._reg_ready[dst] = done
        self._rob.append(self._commit_slot(done))
        return done

    # -- control flow / recovery ------------------------------------------------------------

    def redirect(self, resolve_cycle: int, penalty: int,
                 alias: bool = False) -> None:
        """Squash: restart fetch after ``resolve_cycle`` plus refill penalty."""
        new_fetch = resolve_cycle + penalty
        if new_fetch > self._fetch_cycle:
            # Squash time: wrong-path fetch ran from the current fetch point
            # until resolution, then the pipe refills for ``penalty`` cycles.
            wasted = new_fetch - self._fetch_cycle
            self.stats.squash_cycles += wasted
            if alias:
                self.stats.alias_squash_cycles += wasted
            else:
                self.stats.branch_squash_cycles += wasted
            self._fetch_cycle = new_fetch
        self._group_used = self._fetch_width

    def taken_branch(self) -> None:
        """A correctly predicted taken branch still ends the fetch group."""
        self._group_used = self._fetch_width

    # -- end of run ------------------------------------------------------------------------------

    def finish(self) -> TimingStats:
        self.stats.cycles = max(self._last_commit, self._fetch_cycle, 1)
        return self.stats

    @property
    def now(self) -> int:
        """Approximate current time (last commit)."""
        return self._last_commit

    # -- internals -------------------------------------------------------------------------------

    def _commit_slot(self, done: int) -> int:
        """In-order commit: the first cycle at or after both ``done`` and
        the last commit with a free commit slot."""
        commit = self._last_commit
        if done > commit:
            commit = self._last_commit = done
            self._commit_used = 1
        elif self._commit_used < self._commit_width:
            self._commit_used += 1
        else:
            commit = self._last_commit = commit + 1
            self._commit_used = 1
        return commit
