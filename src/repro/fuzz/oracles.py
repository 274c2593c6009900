"""The pluggable oracle set: what "this program ran correctly" means.

Every oracle runs the same generated program on several machines and
cross-checks them.  Machines are labeled with a *role* string
(``diff:superblock``, ``transparency:insecure``, ``snapshot:restored``,
``conservation:chunked``, ...) — both for failure messages and so
:class:`~repro.fuzz.faults.BugInjection` can plant a bug into exactly
one of them.

* **differential** — slow path vs superblock replay: identical
  whole-machine state trees (:func:`comparable_state`).  The fast leg
  compiles superblocks on first entry so replay covers code that runs
  once.
* **transparency** — the four protected variants vs the insecure
  baseline on the same program: well-behaved programs must finish in
  the identical architectural state with zero violations; violating
  programs must be *detected* by the always-on microcode variant with
  exactly the generator's expected violation classes.  Well-behaved
  programs additionally run through the static binary translator
  (``bt-isa-extension``) and must remain invisible there too.
* **snapshot** — run to a seeded random cut, snapshot, restore,
  finish; the round-trip must end in the uninterrupted run's state tree.
* **conservation** — the whole run vs the same run chopped into seeded
  random ``run_quantum`` slices: the state trees must agree wherever
  the run is cut.

A state mismatch names the first differing path of the tree.  The
front-end compile counters (``frontend.*``) measure the caches
themselves and legitimately differ across modes, restores and chunkings;
they and the ``block_cache_enabled`` knob are left out of the compared
trees but still feed the coverage map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core import Chex86Machine, Variant
from ..core.capability import Perm
from ..isa import Reg, assemble
from ..telemetry.state import first_difference
from .coverage import (RuleHitRecorder, metric_features, variant_feature,
                       violation_features)
from .faults import BugInjection
from .generator import DEFAULT_BUDGET, FuzzProgram, PROTECT_HOOK

#: The two execution modes under differential test: the reference
#: (every instruction re-decoded) and the fast path (superblock replay).
MODES = (False, True)
MODE_IDS = ("slow", "superblock")

#: The four protected design points of the transparency sweep.
PROTECTED_VARIANTS = (Variant.HW_ONLY, Variant.BINARY_TRANSLATION,
                      Variant.UCODE_ALWAYS_ON, Variant.UCODE_PREDICTION)

#: The variant violating programs are asserted to be *caught* by.
DETECTION_VARIANT = Variant.UCODE_ALWAYS_ON


@dataclass(frozen=True)
class OracleFailure:
    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass
class OracleReport:
    """Everything one program's oracle pass produced."""

    seed: int
    profile: str
    failures: List[OracleFailure] = field(default_factory=list)
    coverage: Set[str] = field(default_factory=set)
    #: Retired instructions of the differential reference run (engine
    #: throughput accounting).
    instructions: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


# -- shared machinery ------------------------------------------------------------


def install_protect_hook(machine: Chex86Machine) -> None:
    """The permission profile's host escape: drop WRITE from the
    capability owning the address in rdi (no-op when untracked, e.g. on
    the insecure baseline)."""

    def protect(regs: List[int]) -> None:
        capability = machine.captable.find_by_address(regs[int(Reg.RDI)])
        if capability is not None:
            capability.perms &= ~Perm.WRITE

    machine.host_table[PROTECT_HOOK] = protect


def architectural_state(machine: Chex86Machine):
    """All registers except RSP plus the first 64 heap words — the
    observable outcome a transform must preserve."""
    regs = tuple(machine.regs[int(r)] for r in Reg if r is not Reg.RSP)
    heap_words = tuple(machine.memory.peek_word(0x1000_0000 + i * 8)
                       for i in range(64))
    return regs, heap_words


def strip_frontend(mapping: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in mapping.items()
            if not key.startswith("frontend.")}


def comparable_state(machine: Chex86Machine) -> Dict[str, object]:
    """``machine.state()`` less the front-end compile counters and the
    ``block_cache_enabled`` knob, with ``timing.cycles`` finalized."""
    machine.timing.finish()
    tree = machine.state()
    del tree["frontend"], tree["block_cache_enabled"]
    return tree


def _violation_strs(machine: Chex86Machine) -> List[str]:
    return [str(v) for v in machine.violations.violations]


def replay_cold_code(machine: Chex86Machine) -> None:
    """Compile each superblock on its pc's second entry.  Generated
    programs are short and none of their pcs is entered as often as the
    machine default asks, so under it their code would all be stepped,
    leaving replay unchecked.  A pc's first entry steps and its later
    ones replay, so the oracles also check the switch from one to the
    other; the differential oracle's fast leg compiles on first entry.
    Every oracle machine sets this, a restored one too (it starts at the
    class default)."""
    machine.superblock_compile_entry = 2


class _OracleContext:
    """Per-program run context shared by the oracle functions."""

    def __init__(self, program: FuzzProgram, budget: int,
                 injection: Optional[BugInjection]) -> None:
        self.program = program
        self.budget = budget
        self.injection = injection
        self.assembled = assemble(program.source, name=program.name)
        self.report = OracleReport(seed=program.seed, profile=program.profile)

    def fail(self, oracle: str, detail: str) -> None:
        self.report.failures.append(OracleFailure(oracle, detail))

    def machine(self, variant: Variant, mode, role: str, *,
                trap: bool = False, rules=None) -> Chex86Machine:
        kwargs = {}
        if rules is not None:
            kwargs["rules"] = rules
        machine = Chex86Machine(self.assembled, variant=variant,
                                halt_on_violation=trap, **kwargs)
        machine.block_cache_enabled = mode
        replay_cold_code(machine)
        if self.program.uses_protect_hook:
            install_protect_hook(machine)
        if self.injection is not None:
            self.injection.arm(machine, role)
        return machine

    def base_variant(self, salt: int) -> Variant:
        """Violating programs always run under the detection variant;
        well-behaved ones rotate so the sweep covers all four."""
        if self.program.expected_kinds:
            return DETECTION_VARIANT
        index = (self.program.seed + salt) % len(PROTECTED_VARIANTS)
        return PROTECTED_VARIANTS[index]


# -- oracles ----------------------------------------------------------------------


def _compare_runs(ctx: _OracleContext, oracle: str, label: str,
                  machine: Chex86Machine, reference: Chex86Machine) -> None:
    """The shared observational-equality check: whole state trees."""
    path = first_difference(comparable_state(reference),
                            comparable_state(machine))
    if path is not None:
        ctx.fail(oracle, f"{label}: state diverged at {path}")


def _superblock_identity(ctx: _OracleContext, oracle: str, label: str,
                         machine: Chex86Machine) -> None:
    counters = machine.metrics_snapshot()
    replayed = counters["frontend.superblock_instructions"]
    stepped = counters["frontend.fallback_instructions"]
    if replayed + stepped != machine.instructions:
        ctx.fail(oracle, f"{label}: superblock meters do not partition "
                         f"the commit count ({replayed} + {stepped} != "
                         f"{machine.instructions})")


def oracle_differential(ctx: _OracleContext) -> None:
    """Slow path vs superblock replay on one variant."""
    variant = ctx.base_variant(0)
    recorder = RuleHitRecorder.table1()
    reference = ctx.machine(variant, False, "diff:slow", rules=recorder)
    result = reference.run(max_instructions=ctx.budget)
    ctx.report.instructions = result.instructions
    if not result.halted:
        ctx.fail("differential", "slow: did not halt within budget")
    ctx.report.coverage |= recorder.features()
    ctx.report.coverage |= violation_features(reference.violations.kinds())
    ctx.report.coverage.add(variant_feature(variant))

    for mode, mode_id in zip(MODES[1:], MODE_IDS[1:]):
        machine = ctx.machine(variant, mode, f"diff:{mode_id}")
        # Compile on first entry: generated programs are short, and with
        # the default most of their code would be stepped, leaving replay
        # barely checked against the reference.
        machine.superblock_compile_entry = 1
        machine.run(max_instructions=ctx.budget)
        label = f"{mode_id} ({variant.value})"
        _compare_runs(ctx, "differential", label, machine, reference)
        _superblock_identity(ctx, "differential", label, machine)
        ctx.report.coverage |= metric_features(machine.metrics_snapshot())


def oracle_transparency(ctx: _OracleContext) -> None:
    """Protected variants vs the insecure baseline, plus detection."""
    program = ctx.program
    baseline = ctx.machine(Variant.INSECURE, True, "transparency:insecure")
    base_result = baseline.run(max_instructions=ctx.budget)
    ctx.report.coverage.add(variant_feature(Variant.INSECURE))
    if not base_result.halted:
        ctx.fail("transparency", "insecure: did not halt within budget")
    if baseline.violations.count():
        ctx.fail("transparency", "insecure baseline flagged violations")
    expected_state = architectural_state(baseline)

    for variant in PROTECTED_VARIANTS:
        role = f"transparency:{variant.value}"
        machine = ctx.machine(variant, True, role)
        run = machine.run(max_instructions=ctx.budget)
        ctx.report.coverage.add(variant_feature(variant))
        if not run.halted:
            ctx.fail("transparency",
                     f"{variant.value}: did not halt within budget")
            continue
        observed = {kind.value for kind in machine.violations.kinds()}
        if program.expected_kinds:
            if variant is DETECTION_VARIANT:
                missing = set(program.expected_kinds) - observed
                if missing:
                    ctx.fail("transparency",
                             f"{variant.value}: expected violation "
                             f"class(es) {sorted(missing)} not flagged "
                             f"(saw {sorted(observed)})")
        elif observed:
            ctx.fail("transparency",
                     f"{variant.value}: false positive {sorted(observed)}")
        if architectural_state(machine) != expected_state:
            ctx.fail("transparency",
                     f"{variant.value}: architectural state diverged "
                     f"from the insecure baseline")

    if not program.expected_kinds:
        # Static binary translation must be just as invisible.  Its
        # instruction stream differs (inserted capchk), so only the
        # architectural outcome and violation log are compared.
        from ..translator import translate

        translated, _ = translate(ctx.assembled)
        machine = Chex86Machine(translated,
                                variant=Variant.BT_ISA_EXTENSION,
                                halt_on_violation=False)
        replay_cold_code(machine)
        if ctx.injection is not None:
            ctx.injection.arm(machine, "transparency:bt-isa-extension")
        run = machine.run(max_instructions=2 * ctx.budget)
        ctx.report.coverage.add(variant_feature(Variant.BT_ISA_EXTENSION))
        if not run.halted:
            ctx.fail("transparency",
                     "bt-isa-extension: did not halt within budget")
        elif machine.violations.count():
            ctx.fail("transparency",
                     f"bt-isa-extension: false positive "
                     f"{_violation_strs(machine)}")
        elif architectural_state(machine) != expected_state:
            ctx.fail("transparency",
                     "bt-isa-extension: architectural state diverged")


def oracle_snapshot(ctx: _OracleContext) -> None:
    """Snapshot/restore round-trip at a seeded random cut inside the run
    (drawn from the uninterrupted run's retired count)."""
    program = ctx.program
    variant = ctx.base_variant(1)
    whole = ctx.machine(variant, True, "snapshot:whole")
    whole.run_quantum(ctx.budget)
    rng = random.Random(f"repro.fuzz/cut/{program.seed}/{program.profile}")
    cut = rng.randrange(1, whole.instructions)

    split = ctx.machine(variant, True, "snapshot:split")
    split.run_quantum(cut)
    if split.halted:
        ctx.fail("snapshot", f"cut {cut} lands after halt "
                 f"({variant.value})")
        return
    # Custom host hooks make a machine non-snapshotable (they cannot be
    # serialized); the permission profile's escape only mutates the
    # capability table, which *is* captured — so detach the hook around
    # the capture and reattach it on the restored machine.
    if program.uses_protect_hook:
        split.host_table.pop(PROTECT_HOOK, None)
    restored = Chex86Machine.restore(split.snapshot())
    replay_cold_code(restored)
    if program.uses_protect_hook:
        install_protect_hook(restored)
    if ctx.injection is not None:
        ctx.injection.mutate(restored, "snapshot:restored")
    restored.run_quantum(ctx.budget - cut)

    _compare_runs(ctx, "snapshot", f"restored@{cut} ({variant.value})",
                  restored, whole)


def oracle_conservation(ctx: _OracleContext) -> None:
    """Whole run vs seeded random ``run_quantum`` slices: all conserved
    metrics must agree regardless of where the run is cut."""
    program = ctx.program
    variant = ctx.base_variant(2)
    whole = ctx.machine(variant, True, "conservation:whole")
    whole.run_quantum(ctx.budget)

    chunked = ctx.machine(variant, True, "conservation:chunked")
    rng = random.Random(f"repro.fuzz/chunk/{program.seed}/{program.profile}")
    remaining = ctx.budget
    while remaining > 0 and not chunked.halted:
        quantum = min(remaining, rng.randrange(64, 1024))
        chunked.run_quantum(quantum)
        remaining -= quantum
    if ctx.injection is not None:
        ctx.injection.mutate(chunked, "conservation:chunked")

    label = f"chunked ({variant.value})"
    _compare_runs(ctx, "conservation", label, chunked, whole)
    _superblock_identity(ctx, "conservation", label, chunked)
    _superblock_identity(ctx, "conservation",
                         f"whole ({variant.value})", whole)


#: Registration order is also execution order.
ORACLES: Tuple[Tuple[str, Callable[[_OracleContext], None]], ...] = (
    ("differential", oracle_differential),
    ("transparency", oracle_transparency),
    ("snapshot", oracle_snapshot),
    ("conservation", oracle_conservation),
)

ORACLE_NAMES = tuple(name for name, _ in ORACLES)


def run_oracles(program: FuzzProgram, *, budget: int = DEFAULT_BUDGET,
                injection: Optional[BugInjection] = None,
                only: Optional[Sequence[str]] = None) -> OracleReport:
    """Run the oracle set over one program and return the report.

    ``only`` restricts to a subset of oracle names (the shrinker re-runs
    just the failing oracle); an unknown name raises ``ValueError``.
    """
    if only is not None:
        unknown = set(only) - set(ORACLE_NAMES)
        if unknown:
            raise ValueError(f"unknown oracle(s): {sorted(unknown)}")
    ctx = _OracleContext(program, budget, injection)
    for name, oracle in ORACLES:
        if only is not None and name not in only:
            continue
        oracle(ctx)
    return ctx.report
