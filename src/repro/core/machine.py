"""The CHEx86 machine: functional execution + CHEx86 protection + timing.

One :class:`Chex86Machine` is one core.  It executes a program at micro-op
granularity, running the paper's whole stack in the right places:

* **front end** — fetch, heap-function interception (MCU), CISC-to-RISC
  decode, Table I rule application by the pointer tracker, reload
  prediction, and ``capCheck`` injection;
* **back end** — functional execution of every micro-op (including the
  capability micro-ops against the shadow capability table), alias-table
  resolution with misprediction classification, and the scoreboard timing
  model;
* **commit** — the store's deferred alias update into the alias
  structures, and invalidation broadcast in multi-core systems.

Wrong paths are not executed; their cost is charged as squash penalty
cycles (see ``repro.pipeline.timing``).  So no wrong-path tag or store
state exists to discard: a tag write is visible at once, and a squash
only counts the recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..heap.allocator import HOSTOP_UOP_COST
from ..heap.library import host_dispatch_table, registrations_for
from ..isa.instructions import INSTR_SLOT
from ..isa.program import Program, STACK_TOP
from ..isa.registers import MASK64, RET_REG, Flag, Reg, compute_flags, to_s64
from ..memory.cache import SetAssocCache
from ..memory.tlb import Tlb
from ..microop.decoder import Decoder
from ..microop.uops import LINK_CALL, LINK_RETURN, AluOp, NUM_UREGS, Uop, UopKind
from ..pipeline.branch import FrontEndPredictors
from ..pipeline.config import CoreConfig, DEFAULT_CONFIG
from ..pipeline.timing import FF_STREAK, FuType, TimingModel
from ..telemetry.registry import MERGE_LAST, MetricsRegistry
from ..telemetry.provenance import ProvenanceRecorder
from ..telemetry.tracer import HOOKS, FanOut, Observer
from .alias import AliasCache, StoreBufferPids, WALK_LEVELS
from .capability import CAPABILITY_BYTES, WILD_PID
from .fastpath import (
    DecodedBlock,
    Superblock,
    compile_block,
    compile_superblock,
)
from .mcu import (
    CHECK_INJECT,
    CHECK_SUPPRESS,
    MicrocodeCustomizationUnit,
)
from .predictor import MispredictKind, PointerReloadPredictor
from .sbcompile import compile_replay
from .rules import MEMORY_POLICY, RuleDatabase
from .tracker import SpeculativePointerTracker
from .variants import CheckPolicy, Variant, traits_of
from .violations import CapabilityException, Violation, ViolationKind, ViolationLog

_RSP = int(Reg.RSP)
_RAX = int(RET_REG)

#: The machine's own retirement counters and front-end compile counters:
#: metric name -> attribute, read by the registry and by ``state()``.
_RETIRE_COUNTERS = {"instructions": "instructions", "uops": "total_uops",
                    "native_uops": "native_uops"}
_FRONTEND_COUNTERS = {
    "blocks_compiled": "_blocks_compiled",
    "superblocks_compiled": "_superblocks_compiled",
    "superblock_instructions": "_superblock_instructions",
    "superblock_bailouts": "_superblock_bailouts",
    "partial_replays": "_partial_replays",
    "fallback_instructions": "_fallback_instructions",
}


class MachineError(Exception):
    """The simulated machine reached a state it cannot continue from."""


@dataclass
class RunResult:
    """Everything a run produced, with the derived metrics the paper plots."""

    program: str
    variant: Variant
    halted: bool
    instructions: int
    uops: int
    native_uops: int
    injected_uops: int
    cycles: int
    violations: ViolationLog
    machine: "Chex86Machine"

    # Ratio accessors follow the repo-wide zero-denominator convention:
    # a run that executed nothing yields 0.0, never ZeroDivisionError.

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def uop_expansion(self) -> float:
        """Dynamic uops relative to the native translation (>= 1.0 for
        any run that executed; 0.0 when nothing was decoded)."""
        return self.uops / self.native_uops if self.native_uops else 0.0

    @property
    def flagged(self) -> bool:
        return self.violations.flagged

    def normalized_performance(self, baseline_cycles: int) -> float:
        """Figure 6 top: baseline time / this time (1.0 = no slowdown)."""
        return baseline_cycles / self.cycles if self.cycles else 0.0


class Chex86Machine:
    """One simulated core running one program under a chosen variant."""

    #: ``run_quantum`` forms and compiles a pc's superblock on this entry
    #: to the pc; earlier entries step.  Compiling a new replay shape
    #: costs about 3 ms and a cached one about 0.25 ms of text
    #: generation, while each replayed instruction saves about 4.4 us
    #: over ``step()``, so a superblock pays back only after about 60
    #: (cached shape) to 700 (new shape) replayed instructions.  Of the
    #: swept entries 2, 4, 8, 16 and 32, 8 is the smallest at which the
    #: fuzz-cold benchmark reaches its floor while steady-ucode and
    #: steady-insecure stay unchanged.  The fuzz oracles set 1 or 2 on
    #: their machines so replay covers cold code as well.
    superblock_compile_entry = 8

    def __init__(
        self,
        program: Program,
        variant: Variant = Variant.UCODE_PREDICTION,
        config: CoreConfig = DEFAULT_CONFIG,
        system: Optional["System"] = None,
        rules: Optional[RuleDatabase] = None,
        critical_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        halt_on_violation: bool = True,
        host_hooks: Optional[Dict[str, Callable]] = None,
        stack_base: int = STACK_TOP,
        entry_label: Optional[str] = None,
    ) -> None:
        self.program = program
        self.variant = variant
        self.traits = traits_of(variant)
        self.config = config
        if system is None:
            # Deferred import: pipeline.system itself imports core modules.
            from ..pipeline.system import System
            system = System(config)
        self.system = system
        self.core_id = self.system.register_core(self)
        self.memory = self.system.memory
        self.allocator = self.system.allocator
        self.captable = self.system.captable
        self.alias_table = self.system.alias_table
        self.halt_on_violation = halt_on_violation
        self.violations = ViolationLog()

        # Architectural state (extended with the two microcode temporaries).
        self.regs: List[int] = [0] * NUM_UREGS
        self.flags = Flag(0)
        self.rip = (program.labels[entry_label] if entry_label is not None
                    else program.entry)
        self.regs[_RSP] = stack_base - 8 * 16  # leave a guard gap at the top
        self.regs[int(Reg.RBP)] = self.regs[_RSP]

        # Front end.
        self.decoder = Decoder()
        self.predictors = FrontEndPredictors(config.btb_entries,
                                             config.ras_entries)
        self.tracker = SpeculativePointerTracker(
            rules if rules is not None else RuleDatabase.table1())
        self.reload_predictor = PointerReloadPredictor(config.predictor_entries)
        self.mcu = MicrocodeCustomizationUnit(
            registrations_for(program), self.traits, critical_ranges)

        # Per-core shadow caches and TLB.
        self.capcache = SetAssocCache(config.capcache_entries,
                                      config.capcache_entries,  # fully assoc.
                                      line_shift=0, name="capcache")
        self.alias_cache = AliasCache(config.aliascache_entries,
                                      config.aliascache_ways,
                                      config.alias_victim_entries)
        self.store_buffer = StoreBufferPids()
        self.tlb = Tlb(config.dtlb_entries, config.dtlb_ways,
                       hosting=self.system.alias_hosting_pages)

        # Timing.
        self.timing = TimingModel(config, self.system.l2,
                                  name=f"core{self.core_id}")

        # Host escape table (the heap library's implementation).
        self.host_table = host_dispatch_table(self.allocator)
        if host_hooks:
            self.host_table.update(host_hooks)

        # Hot-loop caches: variant/config facts that never change per run.
        self._tracks = self.traits.tracks_pointers
        self._tracked_policy = self.traits.check_policy is CheckPolicy.TRACKED
        self._lsu = self.mcu.lsu_checks()
        self._lsu_latency = config.lsu_check_latency
        self._br_penalty = config.branch_mispredict_penalty
        self._flush_penalty = config.alias_flush_penalty
        self._capcheck_latency = config.capcheck_latency
        self._captable_latency = config.captable_latency
        self._walk_latency = config.alias_walk_level_latency * WALK_LEVELS

        # Decoded-block fast path: per-pc precompiled front-end plans and
        # the UopKind-indexed execute dispatch table (built once per core).
        # block_cache_enabled is a bool: True (default) caches blocks and
        # replays compiled superblocks; False is the reference path —
        # every dynamic instruction recompiles its block.  Both must be
        # behaviourally identical (the differential fuzz suite's oracle).
        self.block_cache_enabled = True
        self._blocks_compiled = 0
        self._blocks: Dict[int, DecodedBlock] = {}
        # Superblock replay state: per-entry-pc compiled chains (None is
        # cached too, marking pcs where formation or replay compilation
        # failed so the quantum loop does not retry them) and the rules
        # they were compiled under; every member pc of a compiled chain
        # mapped to (superblock, member index), where replay enters; the
        # entry counts of pcs not yet covered (see
        # superblock_compile_entry), plus the frontend.* coverage
        # counters.  superblock_bailouts counts trapping replays and
        # partial_replays those entered past the head or stopped before
        # the end.  fallback_instructions counts every instruction
        # retired through step() so that superblock_instructions +
        # fallback_instructions == instructions holds exactly.
        self._superblocks: Dict[int, Optional[Superblock]] = {}
        self._superblock_rules: Optional[Tuple[RuleDatabase, int]] = None
        self._sb_members: Dict[int, Tuple[Superblock, int]] = {}
        self._sb_entries: Dict[int, int] = {}
        self._superblocks_compiled = 0
        self._superblock_instructions = 0
        self._superblock_bailouts = 0
        self._partial_replays = 0
        self._fallback_instructions = 0
        self._dispatch: Dict[UopKind, Callable] = {
            UopKind.LD: self._exec_load,
            UopKind.ST: self._exec_store,
            UopKind.ALU: self._exec_alu,
            UopKind.LIMM: self._exec_limm,
            UopKind.MOV: self._exec_mov,
            UopKind.LEA: self._exec_lea,
            UopKind.BR: self._exec_br,
            UopKind.JMP: self._exec_jmp,
            UopKind.JMP_IND: self._exec_jmp_ind,
            UopKind.CAPCHECK: self._exec_capcheck,
            UopKind.CAPGEN_BEGIN: self._exec_capgen_begin,
            UopKind.CAPGEN_END: self._exec_capgen_end,
            UopKind.CAPFREE_BEGIN: self._exec_capfree_begin,
            UopKind.CAPFREE_END: self._exec_capfree_end,
            UopKind.HOSTOP: self._exec_hostop,
            UopKind.NOP: self._exec_nop,
            UopKind.HALT: self._exec_halt,
        }

        # Capability event state (pending two-step generations/frees).
        self._pending_gens: List[int] = []
        self._pending_frees: List[int] = []

        # Bookkeeping.
        self.instructions = 0
        self.native_uops = 0
        self.total_uops = 0
        self.halted = False
        self._global_pids: Dict[str, int] = {}

        # Telemetry: the pull-based metrics registry reads the plain-int
        # stats counters above only when a snapshot is taken, so the hot
        # loop never pays for it.  The one observer slot (an observer, or
        # a FanOut of several) is None until attach(); each event site
        # makes one guarded hook call, and superblocks compiled while it
        # is set emit the same calls.
        self.telemetry = MetricsRegistry()
        self._register_metrics(self.telemetry)
        self._set_observers(())

        self._load_program()

    # ------------------------------------------------------------------ load

    def _load_program(self) -> None:
        """Load globals, seed capabilities for symbol-table objects, and
        seed alias entries for the constant-pool slots.

        In a multicore system the program image and shadow state are
        per-process: the first core to attach performs the load, later
        cores just pick up the global PID map.
        """
        key = id(self.program)
        already = self.system.loaded_programs.get(key)
        if already is not None:
            self._global_pids = already
            return
        for obj in self.program.globals:
            if obj.init_words:
                self.memory.fill_words(obj.address, obj.init_words)
        if self.traits.intercepts_heap:
            for obj in self.program.symbol_table():
                pid = self.captable.register_global(obj.address, obj.size)
                self._global_pids[obj.name] = pid
            for obj in self.program.globals:
                if obj.pool_for is not None \
                        and obj.pool_for in self._global_pids:
                    self.alias_table.set(obj.address,
                                         self._global_pids[obj.pool_for])
                    self.tlb.mark_alias_hosting(obj.address)
        self.system.loaded_programs[key] = self._global_pids

    # ------------------------------------------------------------- telemetry

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Wire every subsystem's stats into the metrics registry.

        The hierarchical naming scheme (docs/observability.md):
        ``machine.*`` (front-end/commit counts and the MCU/tracker),
        ``predictor.*``, ``cache.{cap,alias,l1i,l1d}.*``, ``timing.*``,
        ``heap.*`` (system-shared, merge=last), ``shadow.*`` and
        ``violations.*``.  Derived paper metrics (uop expansion, miss
        rates, accuracy, squash fraction, IPC) are ratio metrics, so
        merged/differenced snapshots recompute them correctly.
        """
        registry.register_object("machine", self, _RETIRE_COUNTERS)
        registry.ratio("machine.ipc", "machine.instructions",
                       "timing.cycles")
        registry.ratio("machine.uop_expansion", "machine.uops",
                       "machine.native_uops")
        registry.register_object("frontend", self, _FRONTEND_COUNTERS)
        registry.ratio("frontend.superblock_coverage",
                       "frontend.superblock_instructions",
                       "machine.instructions")
        self.mcu.stats.register_metrics(registry, "machine.mcu")
        self.tracker.stats.register_metrics(registry, "machine.tracker")
        self.reload_predictor.stats.register_metrics(registry, "predictor")
        self.capcache.stats.register_metrics(registry, "cache.cap")
        self.alias_cache.stats.register_metrics(registry, "cache.alias")
        self.timing.register_metrics(registry, "timing")
        self.allocator.stats.register_metrics(registry, "heap")
        registry.gauge("shadow.bytes",
                       lambda machine=self: machine.system.shadow_bytes,
                       merge=MERGE_LAST)
        registry.gauge("shadow.capabilities",
                       lambda machine=self: len(machine.captable),
                       merge=MERGE_LAST)
        registry.gauge("shadow.live_aliases",
                       lambda machine=self: machine.alias_table.live_entries,
                       merge=MERGE_LAST)
        registry.gauge("violations.count",
                       lambda machine=self: machine.violations.count())
        # Per-kind detection profile (dotted violations.<kind> family)
        # with the CWE id attached as metadata, so sweep diffs can name
        # which weakness classes a config change gained or lost.
        for kind in ViolationKind:
            registry.gauge(
                f"violations.{kind.value}",
                lambda machine=self, kind=kind: machine.violations.count(kind),
                meta={"cwe": kind.cwe})

    def metrics_snapshot(self) -> Dict[str, float]:
        """Finalized snapshot of every registered metric (finishes the
        timing model first so ``timing.cycles`` is current)."""
        self.timing.finish()
        return self.telemetry.snapshot()

    def state(self) -> Dict[str, object]:
        """The whole machine as one detached plain-data tree (see
        :mod:`repro.telemetry.state`): architectural and bookkeeping state
        here, each component's own ``state()`` under its name.

        Only legal at an instruction boundary.  The compiled front-end
        products (decoded blocks, superblocks, their entry counts, the
        decoder's cache) are caches and are not part of it; their
        ``frontend`` counters are.
        """
        return {
            "regs": list(self.regs),
            "flags": self.flags,
            "rip": self.rip,
            "halted": self.halted,
            "retired": {name: getattr(self, attribute)
                        for name, attribute in _RETIRE_COUNTERS.items()},
            "pending_gens": list(self._pending_gens),
            "pending_frees": list(self._pending_frees),
            "global_pids": dict(self._global_pids),
            "violations": list(self.violations.violations),
            "provenance": (self.provenance.state()
                           if self.provenance is not None else None),
            "block_cache_enabled": self.block_cache_enabled,
            "frontend": {name: getattr(self, attribute)
                         for name, attribute in _FRONTEND_COUNTERS.items()},
            "predictors": self.predictors.state(),
            "tracker": self.tracker.state(),
            "reload_predictor": self.reload_predictor.state(),
            "mcu": self.mcu.stats.state(),
            "capcache": self.capcache.state(),
            "alias_cache": self.alias_cache.cache.state(),
            "tlb": self.tlb.state(),
            "timing": self.timing.state(),
            "system": self.system.state(),
        }

    def load(self, state: Dict[str, object]) -> None:
        """Overwrite this machine's state with a :meth:`state` tree.

        Containers are written in place (registry gauges, the system's
        load registry and every core's TLB hold references into them),
        and the compiled front-end caches are dropped so that they
        rebuild lazily.  A provenance recorder in the tree is attached
        if none is.
        """
        self.regs[:] = state["regs"]
        self.flags = state["flags"]
        self.rip = state["rip"]
        self.halted = state["halted"]
        for name, attribute in _RETIRE_COUNTERS.items():
            setattr(self, attribute, state["retired"][name])
        self._pending_gens[:] = state["pending_gens"]
        self._pending_frees[:] = state["pending_frees"]
        self._global_pids.clear()
        self._global_pids.update(state["global_pids"])
        self.violations.violations[:] = state["violations"]
        if state["provenance"] is not None:
            if self.provenance is None:
                self.attach(ProvenanceRecorder(self.program))
            self.provenance.load(state["provenance"])
        self.block_cache_enabled = state["block_cache_enabled"]
        for name, attribute in _FRONTEND_COUNTERS.items():
            setattr(self, attribute, state["frontend"][name])
        self.predictors.load(state["predictors"])
        self.tracker.load(state["tracker"])
        self.reload_predictor.load(state["reload_predictor"])
        self.mcu.stats.load(state["mcu"])
        self.capcache.load(state["capcache"])
        self.alias_cache.cache.load(state["alias_cache"])
        self.tlb.load(state["tlb"])
        self.timing.load(state["timing"])
        self.system.load(state["system"])
        self._blocks.clear()
        self._drop_superblocks()
        self._sb_entries.clear()
        self.decoder._cache.clear()

    def snapshot(self) -> bytes:
        """Serialize the complete machine state (see ``core.snapshot``).

        Only legal at an instruction boundary (between ``step()`` calls);
        the restored machine continues the run exactly from here.
        """
        from .snapshot import capture, to_bytes

        return to_bytes(capture(self))

    @classmethod
    def restore(cls, data: bytes) -> "Chex86Machine":
        """Reconstruct a machine from :meth:`snapshot` bytes.

        Raises ``SnapshotSchemaError`` when the snapshot was written by
        an incompatible version of the serializer.
        """
        from .snapshot import restore as _restore

        return _restore(data)

    def attach(self, observer: Observer) -> Observer:
        """Add ``observer`` to the one observer slot and return it; two
        or more share it through a :class:`~repro.telemetry.tracer.FanOut`.
        """
        self._set_observers(self.observers + (observer,))
        return observer

    def detach(self, observer: Observer) -> Observer:
        """Take ``observer`` out of the slot (if attached) and return it."""
        self._set_observers(tuple(attached for attached in self.observers
                                  if attached is not observer))
        return observer

    def _set_observers(self, observers: Tuple[Observer, ...]) -> None:
        # The attached observers, in attach order, and the recorder.
        self.observers = observers
        self.provenance: Optional[ProvenanceRecorder] = next(
            (observer for observer in observers
             if isinstance(observer, ProvenanceRecorder)), None)
        observer = self._observer = (
            None if not observers else observers[0]
            if len(observers) == 1 else FanOut(observers))
        # Replay emits only the hooks some observer overrides.  Results
        # carry tracker tags, so only tracking variants report them.
        hooks = self._hooks = {
            name for name in HOOKS for attached in observers
            if getattr(type(attached), name) is not getattr(Observer, name)}
        if not self._tracks:
            hooks.discard("on_result")
        self._on_result = observer.on_result if "on_result" in hooks else None
        self._on_instr = observer.on_instr if "on_instr" in hooks else None
        # Compiled replay bakes in which hooks are emitted: drop it, so
        # every pc recompiles with the current hook set on its next entry.
        self._drop_superblocks()

    def _drop_superblocks(self) -> None:
        """Forget every compiled superblock and its member entries (and
        the timing fast-forward over them)."""
        self.timing.fast_forward.forget()
        self._superblocks.clear()
        self._sb_members.clear()

    def stats_summary(self) -> str:
        """Human-readable digest of every subsystem's statistics.

        Rendered from the metrics registry: the snapshot is the single
        source, and this is just one formatting of it (byte-identical to
        the historical hand-assembled summary).
        """
        snap = self.metrics_snapshot()
        lines = [
            f"program {self.program.name!r} under {self.variant.value}:",
            f"  instructions  {snap['machine.instructions']:>12,}   "
            f"uops {snap['machine.uops']:,} "
            f"({snap['machine.mcu.injected_uops']:,} injected)",
            f"  cycles        {snap['timing.cycles']:>12,}   "
            f"IPC {snap['machine.ipc']:.2f}",
            f"  capability$   {snap['cache.cap.accesses']:>12,} accesses, "
            f"{snap['cache.cap.miss_rate']:.1%} miss",
            f"  alias$        {snap['cache.alias.accesses']:>12,} accesses, "
            f"{snap['cache.alias.miss_rate']:.1%} miss",
            f"  reload pred.  {snap['predictor.lookups']:>12,} lookups, "
            f"{snap['predictor.accuracy']:.1%} accurate "
            f"(P0AN {snap['predictor.p0an']} / PNA0 {snap['predictor.pna0']} "
            f"/ PMAN {snap['predictor.pman']})",
            f"  squash        {snap['timing.squash_fraction']:>11.1%} of time "
            f"({snap['timing.alias_squash_cycles']:,} alias cycles)",
            f"  heap          {snap['heap.total_allocs']:,} allocs, "
            f"{snap['heap.total_frees']:,} frees, "
            f"peak live {snap['heap.max_live']:,}",
            f"  shadow        {snap['shadow.bytes']:,} B "
            f"({snap['shadow.capabilities']} capabilities, "
            f"{snap['shadow.live_aliases']} live aliases)",
            f"  violations    {snap['violations.count']:,}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------- run

    def run_quantum(self, budget: int) -> int:
        """Execute up to ``budget`` macro instructions (multicore timeslice).

        A trapping violation halts the core and is recorded.  Returns the
        number of instructions actually executed.

        With ``block_cache_enabled`` set, the loop replays compiled
        superblocks with one dispatch per chain.  A pc that is a member
        of a compiled superblock enters it there, and the replay stops
        after the member at which the budget runs out, so quantum
        boundaries cost neither a step nor a new superblock.  A pc no
        compiled superblock covers forms and compiles its own on its
        ``superblock_compile_entry``-th entry; earlier entries step.
        Replay folds in rule policies, so a rule database changed since
        the last quantum drops every compiled superblock.  Attached
        observers (profilers included) do not change the executor:
        replay calls their hooks as ``step()`` does.  A trapping
        ``CapabilityException`` mid-chain unwinds to the trapping member.
        A streak of replays of one superblock goes through the timing
        model's fast-forward, which may skip the scheduling of a
        periodic loop's later trips; the model is caught up before this
        returns, so what a caller reads between quanta is exact.
        """
        start = self.instructions
        executed = 0
        try:
            if self.block_cache_enabled:
                superblocks = self._superblocks
                rules = self.tracker.rules
                if self._superblock_rules != (rules, rules.version):
                    self._drop_superblocks()
                    self._superblock_rules = (rules, rules.version)
                members = self._sb_members
                entries = self._sb_entries
                compile_entry = self.superblock_compile_entry
                # Replays entered at one member back to back form a
                # streak; the fast-forward sees those from its ``due``
                # streak on (all of them while it records or skips a
                # period).  Any other replay ends a period first.
                forward = self.timing.fast_forward
                last, streak, due = forward.cursor
                while not self.halted and executed < budget:
                    pc = self.rip
                    member = members.get(pc)
                    if member is not None:
                        sb, first = member
                        stop = first + budget - executed
                        if first or stop < sb.length:
                            self._partial_replays += 1
                        if member is last:
                            streak += 1
                            if streak >= due:
                                executed += forward.replay(
                                    sb, self, first, stop, streak)
                                due = forward.due
                                continue
                        else:
                            if not due and forward.mode:
                                forward.stop()
                            last, streak, due = member, 1, FF_STREAK
                        executed += sb.replay(self, first, stop)
                        continue
                    if pc not in superblocks:
                        entry = entries.get(pc, 0) + 1
                        if entry < compile_entry:
                            entries[pc] = entry
                        else:
                            sb = superblocks[pc] = \
                                self._compile_superblock(pc)
                            if sb is not None:
                                # A pc another superblock already covers
                                # keeps its entry there.
                                for index, fields in enumerate(sb.members):
                                    members.setdefault(fields[0],
                                                       (sb, index))
                                continue
                    self.step()
                    executed += 1
                forward.cursor = (last, streak, due)
                if forward.skipped:
                    forward.sync()
            else:
                while not self.halted and executed < budget:
                    self.step()
                    executed += 1
        except CapabilityException as exc:
            self.violations.record(exc.violation)
            self.halted = True
            # Members a trapping superblock retired before the violation
            # still count as executed (they committed normally).
            executed = self.instructions - start
        return executed

    def run(self, max_instructions: int = 2_000_000) -> RunResult:
        """Execute until ``halt``, a trapping violation, or the budget."""
        self.run_quantum(max_instructions)
        return self.result()

    def result(self) -> RunResult:
        """What the run so far produced (closes the timing model's
        cycle count, as the end of :meth:`run` does)."""
        stats = self.timing.finish()
        return RunResult(
            program=self.program.name,
            variant=self.variant,
            halted=self.halted,
            instructions=self.instructions,
            uops=self.total_uops,
            native_uops=self.native_uops,
            injected_uops=self.mcu.stats.injected_uops,
            cycles=stats.cycles,
            violations=self.violations,
            machine=self,
        )

    def step(self) -> None:
        """Fetch, decode, instrument, and execute one macro instruction.

        The front end runs through the decoded-block fast path: the first
        visit to a pc compiles its full front-end product (decode +
        interception + check-injection plan) into a :class:`DecodedBlock`;
        every later visit replays the plan and only consults the live
        tracker state (base-register PIDs) where the paper's prediction
        policy demands it.
        """
        # ``step()`` schedules on the model: catch up any skipped period.
        if self.timing.port is not self.timing:
            self.timing.fast_forward.stop()
        pc = self.rip
        block = self._blocks.get(pc)
        if block is None:
            block = self._compile_block(pc)
        if self._on_instr is not None:
            self._on_instr(self.timing.now, pc)

        # Per-dynamic-instance front-end accounting (native uops,
        # heap-interception events) — identical to re-decoding every step.
        self.native_uops += block.native_uops
        mcu = self.mcu
        if block.intercept_deltas is not None:
            mcu.apply_intercept_stats(block.intercept_deltas)
            if self._observer is not None:
                self._observer.on_intercept(self.timing.now, pc,
                                            block.intercept_deltas[4])
        self.timing.begin_macro(pc, block.fetch_slots, block.msrom)

        next_rip = block.fallthrough
        mstats = mcu.stats
        tags = self.tracker._tags
        uops = 0
        # The uop count advances in a local and syncs back in the finally
        # block, so a trapping violation mid-instruction still leaves
        # ``total_uops`` exact.
        try:
            for handler, uop, base_reg, mode, check in block.entries:
                # ---- front end: pointer tracking + check injection --------
                if mode:
                    base_pid = tags[base_reg] if base_reg >= 0 else 0
                    if check is not None:
                        # An injection site; the *_IF_PID mode defers to the
                        # live tracker tag (prediction-driven policy).
                        if mode == CHECK_INJECT or base_pid:
                            mstats.injected_uops += 1
                            mstats.capchecks += 1
                            if self._observer is not None:
                                self._observer.on_inject(self.timing.now,
                                                         pc, 1)
                            check.pid = base_pid
                            uops += 1
                            self._exec_capcheck(check, pc)
                            if self.halted:
                                break
                    elif mode == CHECK_SUPPRESS or base_pid:
                        # Context-sensitive mode outside the critical ranges.
                        mstats.capchecks_suppressed_context += 1

                uops += 1
                target = handler(uop, pc)
                if target is not None:
                    next_rip = target
                if self.halted:
                    break
        finally:
            self.total_uops += uops

        # ---- commit ----------------------------------------------------------
        self.instructions += 1
        self._fallback_instructions += 1
        if self._tracks:
            self.tracker.stats.commits += 1
            if self.store_buffer.pending is not None:
                address, pid = self.store_buffer.commit(self.alias_table,
                                                        self.alias_cache)
                if pid:
                    self.tlb.mark_alias_hosting(address)
                self.system.broadcast_alias_invalidate(address, self.core_id)
        self.rip = next_rip

    def _compile_block(self, pc: int) -> DecodedBlock:
        try:
            block = compile_block(self, pc)
        except ValueError as exc:
            raise MachineError(
                f"control transfer outside text: rip={pc:#x}") from exc
        self._blocks_compiled += 1
        if self.block_cache_enabled:
            self._blocks[pc] = block
        return block

    def _block_at(self, pc: int) -> Optional[DecodedBlock]:
        """The decoded block at ``pc``, or None when pc is outside the
        text section (superblock formation stops instead of trapping —
        falling through into bad pcs must fault on the slow path)."""
        block = self._blocks.get(pc)
        if block is None:
            try:
                block = self._compile_block(pc)
            except MachineError:
                return None
        return block

    def _compile_superblock(self, pc: int) -> Optional[Superblock]:
        superblock = compile_superblock(self, pc)
        if superblock is not None:
            superblock.replay = compile_replay(self, superblock)
            if superblock.replay is None:
                return None
            self._superblocks_compiled += 1
        return superblock

    def _retire_members(self, sb: Superblock, start: int, retired: int,
                        decoded: int) -> None:
        """Apply the batched bookkeeping for one replay entered at member
        ``start``, in O(1).

        Members ``start`` up to ``decoded`` incurred front-end charges
        (native-uop counts, ``timing.macro_ops``); members ``start`` up
        to ``retired`` committed (``instructions``, tracker commits).
        """
        prefix = sb.native_prefix
        self.native_uops += prefix[decoded] - prefix[start]
        self.timing.commit_macros(decoded - start)
        count = retired - start
        self.instructions += count
        if self._tracks:
            self.tracker.stats.commits += count
        self._superblock_instructions += count

    # ------------------------------------------------------------ uop execute

    def _exec_limm(self, uop: Uop, pc: int) -> None:
        self.regs[uop.dst] = uop.imm & MASK64
        if self._tracks:
            self.tracker.apply(uop)
        self.timing.schedule((), uop.dst, 1)
        if self._on_result is not None:
            self._report_result(uop, pc)

    def _exec_mov(self, uop: Uop, pc: int) -> None:
        self.regs[uop.dst] = self.regs[uop.srcs[0]]
        if self._tracks:
            self.tracker.apply(uop)
        self.timing.schedule(uop.srcs, uop.dst, 1)
        if self._on_result is not None:
            self._report_result(uop, pc)

    def _exec_lea(self, uop: Uop, pc: int) -> None:
        self.regs[uop.dst] = self._effective_address(uop)
        if self._tracks:
            self.tracker.apply(uop)
        self.timing.schedule(uop.reg_reads(), uop.dst, 1)
        if self._on_result is not None:
            self._report_result(uop, pc)

    def _exec_nop(self, uop: Uop, pc: int) -> None:
        self.timing.schedule((), None, 1)

    def _exec_halt(self, uop: Uop, pc: int) -> None:
        self.halted = True

    # -- memory ops ---------------------------------------------------------------

    def _exec_load(self, uop: Uop, pc: int) -> None:
        address = self._effective_address(uop)
        value = self.memory.read_word(address & ~7)
        self.regs[uop.dst] = value
        self.tlb.access(address)
        latency = self.timing.mem_access(address, is_store=False)
        if self._lsu:
            # Hardware-only variant: the capability check is fused into the
            # load/store unit ahead of the access, lengthening every load's
            # critical path (the paper's stated drawback of this variant).
            latency += self._lsu_latency
        done = self.timing.schedule(uop.reg_reads(), uop.dst, latency,
                                    FuType.LOAD)
        if self._tracks:
            # The rule database decides whether loads carry PIDs from
            # memory (Table I's LD rule); without it the destination is
            # simply zeroed — which is what the checker co-processor then
            # catches during rule auto-construction.
            policy = self.tracker.apply(uop)
            if policy is MEMORY_POLICY:
                self._resolve_reload(uop, pc, address & ~7, done)
        if self._on_result is not None:
            self._report_result(uop, pc)
        if self._lsu:
            self._lsu_check(uop, address, write=False, pc=pc)

    def _exec_store(self, uop: Uop, pc: int) -> None:
        address = self._effective_address(uop)
        data = self.regs[uop.srcs[0]] if uop.srcs else (uop.imm & MASK64)
        self.memory.write_word(address & ~7, data)
        self.tlb.access(address)
        self.timing.mem_access(address, is_store=True)
        store_latency = 1
        if self._lsu:
            store_latency += self._lsu_latency
        self.timing.schedule(uop.reg_reads(), None, store_latency,
                             FuType.STORE)
        policy = self.tracker.apply(uop) if self._tracks else None
        if self._lsu:
            self._lsu_check(uop, address, write=True, pc=pc)
        # Recorded after the LSU check, which may trap: a trapping
        # instruction leaves no alias update behind.
        if policy is MEMORY_POLICY:
            src_pid = self.tracker.current_pid(uop.srcs[0]) if uop.srcs else 0
            if src_pid == WILD_PID:
                # The alias table records genuine capabilities only; the
                # wild sentinel stays register-resident (Section V-A).
                src_pid = 0
            self.store_buffer.record(address & ~7, src_pid)

    def _resolve_reload(self, uop: Uop, pc: int, address: int,
                        done: int = 0) -> None:
        """Alias resolution for a load destination (the reload path).

        The predictor (and its blacklist) is part of the pointer-tracking
        hardware every protected variant carries; only the *recovery
        penalties* are specific to the prediction-driven check policy —
        the always-on policies inject the check regardless, so a wrong
        front-end PID is repaired by forwarding, never by a flush.
        """
        predicted, blacklisted = self.reload_predictor.predict_ex(pc)
        if blacklisted:
            # Confidently a data load: the alias-cache validation lookup is
            # skipped (the blacklist's anti-pollution role).  When the
            # blacklist is stale the walk result disagrees, the P0AN path
            # below recovers, and the blacklist entry is retrained.
            actual = self.alias_table.peek(address)
            if actual:
                # Upper radix levels hit the walker's paging-structure
                # caches; only the leaf (and occasionally one directory)
                # entry moves from memory.
                self.timing.shadow_access(self._walk_latency, 16)
                self.alias_cache.install(address, actual)
                if self._observer is not None:
                    self._observer.on_walk(self.timing.now, pc)
        elif self.tlb.page_hosts_aliases(address):
            actual, hit = self.alias_cache.lookup(address, self.alias_table)
            if not hit:
                # The hardware walker traverses up to five levels, off
                # the load's critical path; it moves shadow traffic.
                self.timing.shadow_access(self._walk_latency, 16)
                if self._observer is not None:
                    self._observer.on_walk(self.timing.now, pc)
        else:
            actual = 0
        outcome = self.reload_predictor.update(pc, predicted, actual)
        observer = self._observer
        if observer is not None:
            observer.on_reload(self.timing.now, pc, predicted, actual,
                               outcome or "correct")
        if self._tracked_policy:
            if outcome == MispredictKind.P0AN:
                # Missing check: flush, squash, re-inject (Figure 5d).
                # The flush resolves when the load's effective address (and
                # thus the alias lookup) is available — the load's done cycle.
                self.timing.redirect(done, self._flush_penalty,
                                     alias=True)
                self.tracker.stats.squashes += 1
                if observer is not None:
                    observer.on_squash(self.timing.now, pc, "alias",
                                       self._flush_penalty)
            elif outcome == MispredictKind.PNA0:
                # The check injected for the predicted PID becomes a zero
                # idiom, squashed at the instruction queue (Figure 5c).
                mstats = self.mcu.stats
                mstats.injected_uops += 1
                if observer is not None:
                    observer.on_inject(self.timing.now, pc, 1)
                mstats.zero_idioms += 1
                self.total_uops += 1
        self.tracker.set_pid(uop.dst, actual)

    # -- ALU / branches ----------------------------------------------------------------

    def _exec_alu(self, uop: Uop, pc: int) -> None:
        alu = uop.alu
        # Operand order matches the decoded form: register sources first,
        # then the immediate (at most two operands reach the ALU).
        srcs = uop.srcs
        regs = self.regs
        imm = uop.imm
        if srcs:
            a = regs[srcs[0]]
            if len(srcs) > 1:
                b = regs[srcs[1]]
            elif imm is not None:
                b = imm & MASK64
            else:
                b = 0
        elif imm is not None:
            a = imm & MASK64
            b = 0
        else:
            a = b = 0
        result, carry, overflow = _alu_binary(alu, a, b)
        if alu not in (AluOp.CMP, AluOp.TEST) and uop.dst is not None:
            self.regs[uop.dst] = result
        if uop.writes_flags:
            self.flags = compute_flags(result, carry, overflow)
        if self._tracks:
            self.tracker.apply(uop)
        if alu is AluOp.MUL:
            fu, latency = FuType.MULT, 3
        else:
            fu, latency = FuType.ALU, 1
        self.timing.schedule(uop.srcs, uop.dst, latency, fu,
                             uop.reads_flags, uop.writes_flags)
        if self._on_result is not None and uop.dst is not None:
            self._report_result(uop, pc)

    def _exec_jmp(self, uop: Uop, pc: int) -> Optional[int]:
        self.timing.schedule(uop.srcs, None, 1, FuType.ALU)
        # Direct jumps/calls: target known at decode; push calls on RAS.
        if uop.link:
            self.predictors.on_call(pc + INSTR_SLOT)
            if self._observer is not None:
                self._observer.on_call(self.timing.now, pc)
        self.timing.taken_branch()
        return uop.target

    def _exec_br(self, uop: Uop, pc: int) -> Optional[int]:
        done = self.timing.schedule(uop.srcs, None, 1, FuType.ALU, True)
        taken = _branch_taken(uop.cond, self.flags)
        correct = self.predictors.cond.update(pc, taken)
        if not correct:
            self.timing.redirect(done, self._br_penalty)
            if self._tracks:
                self.tracker.stats.squashes += 1
            if self._observer is not None:
                self._observer.on_squash(self.timing.now, pc, "branch",
                                         self._br_penalty)
        elif taken:
            self.timing.taken_branch()
        return uop.target if taken else None

    def _exec_jmp_ind(self, uop: Uop, pc: int) -> Optional[int]:
        # Indirect jump: a return, a call through a register, or a plain
        # jump through one.
        done = self.timing.schedule(uop.srcs, None, 1, FuType.ALU)
        actual = self.regs[uop.srcs[0]]
        link = uop.link
        if link == LINK_CALL:
            self.predictors.on_call(pc + INSTR_SLOT)
            if self._observer is not None:
                self._observer.on_call(self.timing.now, pc)
        elif link and self._observer is not None:
            self._observer.on_ret(self.timing.now, pc)
        correct = self.predictors.resolve_indirect(
            pc, actual, is_return=link == LINK_RETURN)
        if not correct:
            self.timing.redirect(done, self._br_penalty)
            if self._tracks:
                self.tracker.stats.squashes += 1
            if self._observer is not None:
                self._observer.on_squash(self.timing.now, pc, "branch",
                                         self._br_penalty)
        else:
            self.timing.taken_branch()
        return actual

    # -- capability micro-ops ---------------------------------------------------------------

    def _exec_capcheck(self, uop: Uop, pc: int) -> None:
        # Injected checks carry the PID the MCU attached at decode; native
        # capchk ISA-extension instructions (the binary-translation path)
        # resolve it from the pointer tracker here.
        pid = uop.pid if uop.injected else self.tracker.base_pid(uop)
        address = self._effective_address(uop)
        if pid == 0:
            # Conservative (always-on) check of an untracked access: the
            # hardware still has to consult shadow metadata to establish
            # that no capability governs the address — the Watchdog-style
            # cost of indiscriminate instrumentation the paper measures at
            # ~40% (Section VII-C).
            self.timing.shadow_access(self._capcheck_latency, 8)
            self.timing.schedule(uop.reg_reads(), None,
                                 self._capcheck_latency, FuType.CMU,
                                 False, False, self._capcheck_latency)
            if self._observer is not None:
                self._observer.on_capcheck(self.timing.now, pc, 0, address,
                                           True)
            return
        latency = self._capcheck_latency
        if not self.capcache.access(pid):
            # Capability-cache miss: the shadow-table fetch delays this
            # check's completion but the CMU itself stays pipelined (the
            # fetch rides the walker/memory path).
            latency += self._captable_latency
            self.timing.shadow_access(latency, CAPABILITY_BYTES)
        self.timing.schedule(uop.reg_reads(), None, latency, FuType.CMU,
                             False, False, self._capcheck_latency)
        violation = self.captable.check(pid, address, 8,
                                        write=uop.check_write)
        if self._observer is not None:
            self._observer.on_capcheck(self.timing.now, pc, pid, address,
                                       violation is None)
        if violation is not None:
            self._flag(violation, pc)

    def _lsu_check(self, uop: Uop, address: int, write: bool, pc: int) -> None:
        """Hardware-only variant: the LSU checks every memory access.

        The fixed check latency is folded into the memory operation itself
        (see ``_exec_load``/``_exec_store``); this resolves the capability
        lookup functionally and charges capability-cache miss penalties.
        """
        base_pid = self.tracker.base_pid(uop)
        if base_pid == 0:
            return
        if not self.capcache.access(base_pid):
            latency = self._captable_latency
            self.timing.shadow_access(latency, CAPABILITY_BYTES)
            self.timing.occupy(FuType.CMU, self.timing.now, latency)
        violation = self.captable.check(base_pid, address, 8, write=write)
        if self._observer is not None:
            self._observer.on_capcheck(self.timing.now, pc, base_pid,
                                       address, violation is None)
        if violation is not None:
            self._flag(violation, pc)

    def _exec_capgen_begin(self, uop: Uop, pc: int) -> None:
        size = 1
        for src in uop.srcs:
            size *= to_s64(self.regs[src])
        pid, violation = self.captable.begin_generation(size)
        self._pending_gens.append(pid)
        self.timing.schedule(uop.srcs, None, 3, FuType.CMU)
        # Lifecycle record lands at the entry interception (before any
        # flag) so even a heap-spray violation sees its allocation context.
        if self._observer is not None:
            self._observer.on_capgen_begin(self.timing.now, pc, pid, size)
        if violation is not None:
            self._flag(violation, pc)

    def _exec_capgen_end(self, uop: Uop, pc: int = 0) -> None:
        if not self._pending_gens:
            return  # exit reached without a matching entry interception
        pid = self._pending_gens.pop()
        base = self.regs[uop.srcs[0]]
        self.captable.end_generation(pid, base)
        self.timing.schedule(uop.srcs, None, 3, FuType.CMU)
        if self._observer is not None:
            capability = self.captable.get(pid)
            self._observer.on_capgen(
                self.timing.now, pc, pid, base,
                capability.bounds if capability is not None else 0)
        # The return register carries the PID even when the allocation
        # failed: the capability exists but was never validated, so any
        # dereference of the NULL return is flagged.
        self.tracker.set_pid(uop.srcs[0], pid)
        self.capcache.access(pid)  # a fresh allocation is immediately in use

    def _exec_capfree_begin(self, uop: Uop, pc: int) -> None:
        ptr_reg = uop.srcs[0]
        pointer = self.regs[ptr_reg]
        self.timing.schedule(uop.srcs, None, 3, FuType.CMU)
        if pointer == 0:
            self._pending_frees.append(0)  # free(NULL): defined no-op
            return
        pid = self.tracker.current_pid(ptr_reg)
        violation = self.captable.begin_free(pid)
        if violation is None:
            capability = self.captable.get(pid)
            if capability is not None and capability.base != pointer:
                violation = Violation(
                    kind=ViolationKind.INVALID_FREE, pid=pid, address=pointer,
                    detail=f"free of interior pointer {pointer:#x} "
                           f"(base {capability.base:#x})",
                )
        self._pending_frees.append(pid if violation is None else 0)
        if violation is not None:
            self._flag(violation, pc)

    def _exec_capfree_end(self, uop: Uop = None, pc: int = 0) -> None:
        if not self._pending_frees:
            return
        pid = self._pending_frees.pop()
        self.timing.schedule((), None, 3, FuType.CMU)
        if pid == 0:
            return
        self.captable.end_free(pid)
        self.capcache.invalidate(pid)
        self.system.broadcast_cap_invalidate(pid, self.core_id)
        if self._observer is not None:
            self._observer.on_capfree(self.timing.now, pc, pid)

    # -- host escapes -------------------------------------------------------------------------

    def _exec_hostop(self, uop: Uop, pc: int = 0) -> None:
        handler = self.host_table.get(uop.host_name)
        if handler is None:
            raise MachineError(f"no host routine named {uop.host_name!r}")
        handler(self.regs)
        cost = HOSTOP_UOP_COST.get(uop.host_name, 80)
        self.timing.routine_call(cost, (int(Reg.RDI), int(Reg.RSI)),
                                 int(Reg.RAX))

    # -- helpers ---------------------------------------------------------------------------------

    def _effective_address(self, uop: Uop) -> int:
        mem = uop.mem
        address = mem.disp
        if mem.base is not None:
            address += self.regs[int(mem.base)]
        if mem.index is not None:
            address += self.regs[int(mem.index)] * mem.scale
        return address & MASK64

    def _report_result(self, uop: Uop, pc: int) -> None:
        self._on_result(self.timing.now, pc, uop,
                        self.tracker.current_pid(uop.dst), self.regs[uop.dst])

    def _flag(self, violation: Violation, pc: int) -> None:
        violation = Violation(
            kind=violation.kind, pid=violation.pid, address=violation.address,
            size=violation.size, instr_address=pc, detail=violation.detail,
            provenance=(self._observer.on_violation(self.timing.now, pc,
                                                    violation)
                        if self._observer is not None else None),
        )
        if self.halt_on_violation:
            raise CapabilityException(violation)
        self.violations.record(violation)


# ---------------------------------------------------------------------------
# ALU and branch-condition semantics.
# ---------------------------------------------------------------------------

def _alu_binary(alu: AluOp, a: int, b: int) -> Tuple[int, bool, bool]:
    """Two-operand ALU core (the execute loop extracts operands inline).

    Sign tests use the sign bit directly — ``(x >> 63) & 1`` agrees with
    ``to_s64(x) >= 0`` for every unsigned 64-bit pattern and skips the
    helper call on the hottest arithmetic path.
    """
    if alu is AluOp.ADD:
        total = a + b
        result = total & MASK64
        carry = total > MASK64
        sign_a = (a >> 63) & 1
        overflow = sign_a == ((b >> 63) & 1) and \
            ((result >> 63) & 1) != sign_a
        return result, carry, overflow
    if alu is AluOp.SUB or alu is AluOp.CMP:
        total = a - b
        result = total & MASK64
        carry = a < b
        sign_a = (a >> 63) & 1
        overflow = sign_a != ((b >> 63) & 1) and \
            ((result >> 63) & 1) != sign_a
        return result, carry, overflow
    if alu is AluOp.AND or alu is AluOp.TEST:
        return a & b, False, False
    if alu is AluOp.OR:
        return a | b, False, False
    if alu is AluOp.XOR:
        return a ^ b, False, False
    if alu is AluOp.MUL:
        return (a * b) & MASK64, False, False
    if alu is AluOp.SHL:
        return (a << (b & 63)) & MASK64, False, False
    if alu is AluOp.SHR:
        return (a >> (b & 63)) & MASK64, False, False
    if alu is AluOp.NEG:
        return (-a) & MASK64, a != 0, False
    if alu is AluOp.NOT:
        return (~a) & MASK64, False, False
    raise MachineError(f"unknown ALU op {alu}")  # pragma: no cover


def _branch_taken(cond: str, flags: Flag) -> bool:
    # Plain-int flag tests: IntFlag's ``&`` operator goes through the
    # enum machinery, which shows up at one branch resolve per BR uop.
    bits = int(flags)
    zf = bool(bits & 1)   # Flag.ZF
    sf = bool(bits & 2)   # Flag.SF
    cf = bool(bits & 4)   # Flag.CF
    of = bool(bits & 8)   # Flag.OF
    if cond == "je":
        return zf
    if cond == "jne":
        return not zf
    if cond == "jl":
        return sf != of
    if cond == "jle":
        return zf or sf != of
    if cond == "jg":
        return not zf and sf == of
    if cond == "jge":
        return sf == of
    if cond == "jb":
        return cf
    if cond == "jae":
        return not cf
    raise MachineError(f"unknown branch condition {cond}")  # pragma: no cover
