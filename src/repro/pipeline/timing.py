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

A loop whose pipeline state repeats is scheduled once per period
(:class:`FastForward`, after Schnarr and Larus, "Fast Out-of-Order
Processor Simulation Using Memoization", ASPLOS 1998): later periods of
one superblock replayed back to back only log their timing calls and
check them against the period's, and the scoreboard catches up by a
shift when anyone needs it.  No later ``schedule`` reads a cycle at or
below the dispatch *floor* ``fetch_cycle + decode_depth``, so ``state()``
reports such values as the floor (queue entries there are dropped):
two runs that differ only below it are one state.
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

#: Back-to-back replays of one superblock after which the fast-forward
#: starts looking for a period; each failed look doubles it for that
#: superblock.  The machine starts each streak's count against it.  (A
#: loop of a few trips, or a core that ends its quantum every 64
#: instructions, does not look at all.)
FF_STREAK = 16

#: The longest period, in replays, the fast-forward looks for (0 turns
#: it off; nothing it does changes a result).
_FF_PERIOD = 8

#: A superblock that never forwards never looks (a streak that long
#: just asks again).  One 30-bit digit: the interpreter compares such
#: ints on its fast path, and a bigger one deoptimises the compare in
#: the machine's replay loop.
_NEVER = (1 << 30) - 1

#: :class:`FastForward` modes.
_IDLE, _RECORD, _SKIP = 0, 1, 2

#: The stats counters only ``schedule``, ``redirect`` and
#: ``routine_call`` bump: a skipped period adds its delta of each.
_SCHEDULED_COUNTERS = ("uops", "rob_stall_events", "squash_cycles",
                       "branch_squash_cycles", "alias_squash_cycles",
                       "hostop_cycles")


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
    """Per-core scoreboard; shared L2 is passed in by the system.

    Keep it to 29 instance attributes: past that, CPython 3.11 stops
    sharing the class's instance-dict keys, and every attribute load in
    ``schedule`` gets about 5% slower.
    """

    def __init__(self, config: CoreConfig, l2: SetAssocCache,
                 name: str = "core0") -> None:
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
        #: What compiled replay makes its timing calls on: the model
        #: itself, or the fast-forward's log while it records or skips a
        #: period.
        self.port = self
        self.fast_forward = FastForward(self)

    # -- state ------------------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """The scoreboard, the private caches and the stats (the shared
        L2 is the system's state).  The scoreboard is canonical (see
        :meth:`_scoreboard`), so runs that differ only in what no later
        call can read have one state."""
        return {
            "stats": self.stats.state(),
            "l1i": self.l1i.state(),
            "l1d": self.l1d.state(),
            **self._scoreboard(),
            "fetch_cycle": self._fetch_cycle,
            "group_used": self._group_used,
            "last_iline": self._last_iline,
            "last_commit": self._last_commit,
            "commit_used": self._commit_used,
        }

    def load(self, state: Dict[str, object]) -> None:
        self.fast_forward.forget()
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

    def _issue_window(self, base: int = 0) -> List[List[int]]:
        """The live issue window (see the module docstring) as
        ``[cycle - base, count]`` pairs, probed cycle by cycle (it holds
        a few hundred cycles; the dict may hold thousands)."""
        issue = self._issue
        return [[cycle - base, issue[cycle]]
                for cycle in range(self._fetch_cycle + self._decode_depth,
                                   self._last_commit + 1)
                if cycle in issue]

    def _scoreboard(self, relative: bool = False) -> Dict[str, object]:
        """The cycle-valued scoreboard as later calls can read it, in
        absolute cycles or relative to the dispatch floor.

        ``schedule`` dispatches no uop below the floor ``fetch_cycle +
        decode_depth``, so ROB entries and register-ready times at or
        below it read as the floor, and LQ/SQ entries there are popped
        before they count.  ``occupy`` starts a unit at ``now``, which
        may trail the floor, so unit free times clamp at the lower of
        the two; each pool's free times are sorted (a sorted list is a
        heap).  Loading this form and running on gives what the raw
        form gives, cycle for cycle; two relative forms that are equal
        are one state shifted by the difference of their floors.
        """
        floor = self._fetch_cycle + self._decode_depth
        base = floor if relative else 0
        low = floor - base
        unit = min(floor, self._last_commit)
        unit_low = unit - base
        return {
            "pools": [(pool._free - base if pool._free > unit else unit_low)
                      if pool._single
                      else sorted([free - base if free > unit else unit_low
                                   for free in pool._free])
                      for pool in self._pools],
            "reg_ready": [ready - base if ready > floor else low
                          for ready in self._reg_ready],
            "rob": [commit - base if commit > floor else low
                    for commit in self._rob],
            "lq": [commit - base for commit in self._lq if commit > floor],
            "sq": [commit - base for commit in self._sq if commit > floor],
            "issue_window": self._issue_window(base),  # [cycle, count]
        }

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


class TimingLog:
    """The ``port`` compiled replay calls while a fast-forward records
    or skips a period.

    Work that shares state with other cores or counts inline stays live
    and in program order: the L1d probe and ``mem_access_miss``, the
    icache/L2 refill of ``fetch_line``, ``shadow_access``, and the
    counters replay bumps itself.  The fetch-group cursors
    ``_group_used`` and ``_last_iline`` are live too: no cycle moves
    them.  The rest is logged, one entry per call:

    * ``schedule`` appends ``(advance, srcs, dst, latency, fu,
      reads_flags, writes_flags, occupancy)`` and returns the entry's
      position, which stands in for its completion cycle;
    * ``redirect`` appends ``(advance, token, penalty, alias)``, where
      ``token`` is what ``schedule`` returned for the resolving uop.

    ``_fetch_cycle`` counts the fetch advance since the replay began:
    new fetch groups and icache refill penalties, which ``fetch_line``
    and replay's inlined group packing add to it exactly as they add to
    the model's.  ``advance`` is that count when the call was made.
    """

    __slots__ = ("entries", "stats", "l1i", "l1d", "l2", "mem_access_miss",
                 "shadow_access", "_fetch_cycle", "_group_used",
                 "_last_iline", "_fetch_width", "_l2_latency",
                 "_mem_latency", "_line_bytes")

    def __init__(self, model: TimingModel) -> None:
        self.entries: List[tuple] = []
        self.stats = model.stats
        self.l1i = model.l1i
        self.l1d = model.l1d
        self.l2 = model.l2
        self.mem_access_miss = model.mem_access_miss
        self.shadow_access = model.shadow_access
        self._fetch_cycle = 0
        self._group_used = model._group_used
        self._last_iline = model._last_iline
        self._fetch_width = model._fetch_width
        self._l2_latency = model._l2_latency
        self._mem_latency = model._mem_latency
        self._line_bytes = model._line_bytes

    # The model's own code: it touches only what the log keeps live, and
    # adds refill penalties to ``_fetch_cycle``.
    fetch_line = TimingModel.fetch_line
    taken_branch = TimingModel.taken_branch

    def schedule(self, srcs: Tuple[int, ...], dst: Optional[int],
                 latency: int, fu: int = FuType.ALU,
                 reads_flags: bool = False, writes_flags: bool = False,
                 occupancy: int = 1) -> int:
        entries = self.entries
        entries.append((self._fetch_cycle, srcs, dst, latency, fu,
                        reads_flags, writes_flags, occupancy))
        return len(entries)

    def redirect(self, token: int, penalty: int, alias: bool = False) -> None:
        self.entries.append((self._fetch_cycle, token, penalty, alias))
        self._group_used = self._fetch_width


class FastForward:
    """Schedule one period of a periodic loop, then only check the next.

    The machine counts *streaks*, replays of one superblock entered at
    one member back to back, and runs a replay through :meth:`replay`
    once its streak reaches ``due`` (every one while a period runs); it
    runs every other replay directly.  After ``FF_STREAK`` back-to-back
    replays of one forwardable superblock with the same ``(first,
    stop)``, the fast-forward *records*: up to ``_FF_PERIOD`` replays
    log their timing calls on the :class:`TimingLog`, and each log is
    run at once through the model's own methods.  When the live
    scoreboard (:meth:`TimingModel._scoreboard`, relative to the
    dispatch floor) after ``p`` of them equals the one before the
    first, no later call can tell the two apart, so from an equal log
    the next ``p`` replays end in the same state shifted by the fetch
    cycles the period advanced.
    Those logs become the *tape*, and the fast-forward *skips*: each
    later replay only logs its calls and compares the log with the
    tape's.  Nothing is scheduled, and the counters only scheduling
    bumps are not counted, until :meth:`sync` catches the model up:
    it shifts the scoreboard by whole periods, adds their counter
    deltas, and runs the logs of the replays since the last whole
    period.  A replay whose log differs from the tape's, or a trap out
    of one, syncs, runs its own log and stops.  So every call that is
    not dropped as a repeat runs through the one scheduler.

    The model is caught up whenever anything may read it: the machine
    syncs at the end of every ``run_quantum`` and stops the fast-forward
    before ``step()`` and before replaying another superblock, and
    dropping superblocks or loading a state forgets it.  Superblocks
    whose replay calls the timing model through the machine (a generic
    handler, the load/store unit's check) and every replay on an
    observed core, whose hooks read ``now`` mid-replay, are never
    forwarded.
    """

    __slots__ = ("model", "log", "forwarded_uops", "_failures", "cursor",
                 "due", "mode", "_key", "_tape",
                 "_origin", "_shift", "_deltas", "_period_uops", "_pos",
                 "skipped")

    def __init__(self, model: TimingModel) -> None:
        self.model = model
        self.log = TimingLog(model)
        #: Uops whose ``schedule`` call a skipped period dropped.
        self.forwarded_uops = 0
        #: Failed looks per superblock id (each doubles the streak the
        #: next look needs; the superblocks live until ``forget``).
        self._failures: Dict[int, int] = {}
        #: The machine's streak between quanta (it keeps it in locals
        #: while it runs): the ``(superblock, member)`` entry last
        #: replayed, how many replays of it ran back to back, and the
        #: streak at which :meth:`replay` must see the next one.
        self.cursor: tuple = (None, 0, FF_STREAK)
        #: ``due`` as :meth:`replay` leaves it: 0 while a period is
        #: recorded or skipped (or just stopped), else the streak of the
        #: next look.
        self.due = FF_STREAK
        self.mode = _IDLE
        #: The superblock and member range being recorded or skipped.
        self._key: Optional[tuple] = None
        #: Per replay of the period: (log entries, final fetch advance).
        self._tape: List[Tuple[List[tuple], int]] = []
        #: Where the look began: fetch cycle, cheap state, relative
        #: scoreboard, ``forwarded_uops`` and the scheduled counters.
        self._origin: tuple = ()
        #: Per period: fetch cycles advanced, counter deltas, uops.
        self._shift = 0
        self._deltas: Tuple[int, ...] = ()
        self._period_uops = 0
        #: The tape's next replay, and replays skipped since the model
        #: was last caught up.
        self._pos = 0
        self.skipped = 0

    # -- entry points ---------------------------------------------------------

    def replay(self, sb, machine, first: int, stop: int,
               streak: int) -> int:
        """Replay members ``first`` up to ``stop`` of compiled superblock
        ``sb`` on ``machine``, the ``streak``-th replay of ``sb`` from
        ``first`` in a row; returns the members retired."""
        if stop > sb.length:
            stop = sb.length
        if self.mode:
            if self._key != (sb, first, stop):
                self.stop()
                return sb.replay(machine, first, stop)
        elif not self._look(sb, first, stop, streak):
            return sb.replay(machine, first, stop)
        if self.mode == _SKIP:
            retired = self._skip(sb, machine, first, stop)
        else:
            retired = self._record(sb, machine, first, stop)
        if not self.mode:
            # The period ended on this replay.  Look again at once after
            # a look that paid; after the k-th that failed, only
            # ``FF_STREAK << (k - 1)`` replays later, so the next look
            # starts at another phase.
            failures = self._failures.get(id(sb), 0)
            self.due = streak + (FF_STREAK << (failures - 1) if failures else 1)
        return retired

    def sync(self) -> None:
        """Catch the model up with the skipped replays (it keeps
        skipping from there)."""
        skipped = self.skipped
        if not skipped:
            return
        model, tape = self.model, self._tape
        periods, rest = divmod(skipped, len(tape))
        pos = (self._pos - skipped) % len(tape)
        if periods:
            self._shift_model(periods * self._shift)
            stats = model.stats
            deltas = self._deltas
            for name, delta in zip(_SCHEDULED_COUNTERS, deltas):
                setattr(stats, name, getattr(stats, name) + periods * delta)
            fu_uops = stats.fu_uops
            for index, delta in enumerate(deltas[len(_SCHEDULED_COUNTERS):]):
                fu_uops[index] += periods * delta
            self.forwarded_uops += periods * self._period_uops
        for _ in range(rest):
            self._apply(*tape[pos])
            pos = (pos + 1) % len(tape)
        self.skipped = 0
        log = self.log
        model._group_used = log._group_used
        model._last_iline = log._last_iline

    def stop(self, entries: Optional[List[tuple]] = None,
             advance: int = 0) -> None:
        """Sync, run ``entries`` (a replay the tape does not cover), and
        schedule every replay from here on."""
        self.sync()
        if entries is not None:
            self._apply(entries, advance)
        model, log = self.model, self.log
        model._group_used = log._group_used
        model._last_iline = log._last_iline
        model.port = model
        # A look pays when it skipped at least a period; each one that
        # did not doubles the streak this superblock needs for the next.
        sb = id(self._key[0])
        if self.mode == _SKIP and self.forwarded_uops > self._origin[3]:
            self._failures.pop(sb, None)
        else:
            self._failures[sb] = self._failures.get(sb, 0) + 1
        self.due = 0
        self.mode = _IDLE
        self._key = None
        self._tape = []
        self._origin = ()

    def forget(self) -> None:
        """Stop, and drop every superblock's failure count (their
        superblocks are gone)."""
        if self.mode:
            self.stop()
        self._failures.clear()
        self.cursor = (None, 0, FF_STREAK)

    # -- the three modes -------------------------------------------------------

    def _look(self, sb, first: int, stop: int, streak: int) -> bool:
        """Start recording, if ``sb`` may forward and its streak is
        long enough for its failures; otherwise set the next look."""
        if not (sb.forwardable and _FF_PERIOD):
            self.due = _NEVER
            return False
        need = FF_STREAK << self._failures.get(id(sb), 0)
        if streak < need:
            self.due = need
            return False
        model, log = self.model, self.log
        log._group_used = model._group_used
        log._last_iline = model._last_iline
        model.port = log
        self.mode = _RECORD
        self.due = 0
        self._key = (sb, first, stop)
        self._tape = []
        self._origin = (model._fetch_cycle, self._cheap(),
                        model._scoreboard(relative=True),
                        self.forwarded_uops, self._counters())
        return True

    def _record(self, sb, machine, first: int, stop: int) -> int:
        log = self.log
        entries = log.entries = []
        log._fetch_cycle = 0
        try:
            retired = sb.replay(machine, first, stop)
        except BaseException:
            self.stop(entries, log._fetch_cycle)
            raise
        self._apply(entries, log._fetch_cycle)
        model = self.model
        model._group_used = log._group_used
        model._last_iline = log._last_iline
        tape = self._tape
        tape.append((entries, log._fetch_cycle))
        fetch, cheap, live, _, counters = self._origin
        if self._cheap() == cheap and \
                model._scoreboard(relative=True) == live:
            self.mode = _SKIP
            self._shift = model._fetch_cycle - fetch
            self._deltas = tuple(now - then for now, then
                                 in zip(self._counters(), counters))
            self._period_uops = sum(len(entry) == 8 for entries, _ in tape
                                    for entry in entries)
            self._pos = self.skipped = 0
            log.entries = []
        elif len(tape) >= _FF_PERIOD:
            self.stop()
        return retired

    def _skip(self, sb, machine, first: int, stop: int) -> int:
        log = self.log
        entries = log.entries
        entries.clear()
        log._fetch_cycle = 0
        try:
            retired = sb.replay(machine, first, stop)
        except BaseException:
            self.stop(entries, log._fetch_cycle)
            raise
        pos = self._pos
        expected, advance = self._tape[pos]
        if log._fetch_cycle == advance and entries == expected:
            pos += 1
            self._pos = 0 if pos == len(self._tape) else pos
            self.skipped += 1
        else:
            self.stop(entries, log._fetch_cycle)
        return retired

    # -- the model -------------------------------------------------------------

    def _apply(self, entries: List[tuple], advance: int) -> None:
        """Run one replay's logged calls through the model."""
        model = self.model
        schedule, redirect = model.schedule, model.redirect
        done: List[Optional[int]] = []
        fetched = 0
        for entry in entries:
            if entry[0] != fetched:
                model._fetch_cycle += entry[0] - fetched
                fetched = entry[0]
            if len(entry) == 8:
                done.append(schedule(*entry[1:]))
            else:
                redirect(done[entry[1] - 1], entry[2], entry[3])
                done.append(None)
        model._fetch_cycle += advance - fetched

    def _shift_model(self, delta: int) -> None:
        """Move every cycle in the scoreboard ``delta`` cycles later
        (the issue counts outside the live window are dropped)."""
        model = self.model
        floor = model._fetch_cycle + model._decode_depth
        issue = model._issue
        model._issue = {cycle + delta: issue[cycle]
                        for cycle in range(floor, model._last_commit + 1)
                        if cycle in issue}
        model._fetch_cycle += delta
        model._last_commit += delta
        for queue in (model._rob, model._lq, model._sq):
            shifted = [cycle + delta for cycle in queue]
            queue.clear()
            queue.extend(shifted)
        ready = model._reg_ready
        ready[:] = [cycle + delta for cycle in ready]
        for pool in model._pools:
            if pool._single:
                pool._free += delta
            else:
                pool._free[:] = [cycle + delta for cycle in pool._free]

    def _cheap(self) -> tuple:
        """The state compared before the scoreboard, which costs nothing
        to read: the last commit and the ROB length relative to the
        fetch cycle, and the commit and fetch-group cursors."""
        model = self.model
        return (model._last_commit - model._fetch_cycle, len(model._rob),
                model._commit_used, model._group_used, model._last_iline)

    def _counters(self) -> Tuple[int, ...]:
        stats = self.model.stats
        return tuple(getattr(stats, name) for name in _SCHEDULED_COUNTERS) \
            + tuple(stats.fu_uops)

