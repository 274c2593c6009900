"""Quantum-execution semantics and the decoded-block fast path.

``run_quantum`` is the multicore timeslice primitive: the system layer
hands each core a budget of macro instructions and relies on the return
value for round-robin accounting, so its stop conditions (budget
exhausted, halt, trapping violation) must be exact.  The same loop feeds
an attached ``ExecutionTrace`` and populates the decoded-block cache, so
both are covered here too.
"""

from __future__ import annotations

import pytest

from repro.core import Chex86Machine, HardwareChecker, Variant, ViolationKind
from repro.isa import Reg, assemble
from repro.telemetry.tracer import ExecutionTrace
from repro.workloads import build

from conftest import assemble_main

# A straight-line body long enough to out-last small budgets (the heap
# library prologue adds nothing: execution starts at main).
LONG_BODY = "\n".join("    add rax, 1" for _ in range(64))

OOB_WRITE = """
    mov rdi, 64
    call malloc
    mov [rax + 64], 1
"""


def _machine(body: str, variant: Variant = Variant.UCODE_PREDICTION,
             **kwargs) -> Chex86Machine:
    program = assemble_main(body)
    return Chex86Machine(program, variant=variant, **kwargs)


class TestBudgetSemantics:
    def test_budget_exhaustion_returns_budget(self):
        machine = _machine(LONG_BODY)
        executed = machine.run_quantum(10)
        assert executed == 10
        assert machine.instructions == 10
        assert not machine.halted

    def test_budgets_compose_across_quanta(self):
        """Slicing a run into quanta must not change what executes."""
        sliced = _machine(LONG_BODY)
        total = 0
        for budget in (7, 13, 200_000):
            total += sliced.run_quantum(budget)
        whole = _machine(LONG_BODY)
        whole_count = whole.run_quantum(200_000)
        assert sliced.halted and whole.halted
        assert total == whole_count
        assert sliced.regs[Reg.RAX] == whole.regs[Reg.RAX]

    def test_halt_mid_quantum_returns_actual_count(self):
        machine = _machine("    mov rax, 5")
        executed = machine.run_quantum(10_000)
        assert machine.halted
        assert executed < 10_000
        assert executed == machine.instructions

    def test_zero_budget_executes_nothing(self):
        machine = _machine(LONG_BODY)
        assert machine.run_quantum(0) == 0
        assert machine.instructions == 0
        assert not machine.halted

    def test_halted_machine_consumes_no_budget(self):
        machine = _machine("    mov rax, 5")
        machine.run_quantum(10_000)
        assert machine.halted
        assert machine.run_quantum(10_000) == 0

    def test_trapping_violation_recorded_and_halts(self):
        machine = _machine(OOB_WRITE, halt_on_violation=True)
        executed = machine.run_quantum(200_000)
        assert machine.halted
        assert machine.violations.count(ViolationKind.OUT_OF_BOUNDS) == 1
        # The faulting instruction is not re-executed on a later quantum.
        assert machine.run_quantum(10) == 0
        assert executed == machine.instructions


class TestTraceLimit:
    def test_trace_truncates_at_limit(self):
        machine = _machine(LONG_BODY)
        trace = machine.attach(ExecutionTrace(5))
        machine.run_quantum(200_000)
        assert machine.instructions > 5
        assert len(trace.pcs) == 5

    def test_trace_records_first_instructions_in_order(self):
        machine = _machine(LONG_BODY)
        trace = machine.attach(ExecutionTrace(3))
        machine.run_quantum(200_000)
        start = machine.program.labels["main"]
        pcs = trace.pcs
        assert pcs[0] == start
        assert pcs == sorted(pcs)
        assert len(pcs) == 3

    def test_trace_disabled_by_default(self):
        machine = _machine(LONG_BODY)
        machine.run_quantum(200_000)
        assert machine.observers == ()


class TestDecodedBlockFastPath:
    def test_block_cache_populated_and_bounded(self):
        machine = _machine(LONG_BODY)
        machine.run_quantum(200_000)
        # One block per static pc executed, regardless of dynamic count.
        assert 0 < len(machine._blocks) <= len(machine.program.instrs)

    def test_replay_matches_first_visit(self):
        """A loop revisits its pcs via cached blocks; the result must be
        identical to an unrolled (every-pc-fresh) execution."""
        looped = _machine(
            """
    mov rcx, 8
loop:
    add rax, 3
    sub rcx, 1
    jne loop
"""
        )
        looped.run_quantum(200_000)
        unrolled = _machine("\n".join("    add rax, 3" for _ in range(8)))
        unrolled.run_quantum(200_000)
        assert looped.regs[Reg.RAX] == unrolled.regs[Reg.RAX]
        # The loop body occupies 3 static pcs (+ mov) yet ran 8 iterations.
        assert len(looped._blocks) < looped.instructions

    @pytest.mark.parametrize("variant", [Variant.INSECURE,
                                         Variant.UCODE_PREDICTION])
    def test_run_results_stable_across_machines(self, variant):
        """Same program, fresh machines: identical timing and uop counts
        (the block cache starts cold each time, so this exercises both
        compile and replay paths deterministically)."""
        first = _machine(LONG_BODY, variant=variant).run()
        second = _machine(LONG_BODY, variant=variant).run()
        assert first.instructions == second.instructions
        assert first.cycles == second.cycles
        assert first.uops == second.uops


HOT_LOOP = """
    mov rdi, 64
    call malloc
    mov r12, rax
    mov rax, 0
    mov rcx, 50
loop:
    add rax, 3
    mov [r12 + 8], rax
    mov rbx, [r12 + 8]
    sub rcx, 1
    jne loop
"""


class TestSuperblockFastPath:
    """Budget-aware superblock entry in ``run_quantum``."""

    def test_superblocks_form_and_attach_compiled_replay(self):
        machine = _machine(HOT_LOOP)
        machine.run_quantum(200_000)
        formed = [sb for sb in machine._superblocks.values()
                  if sb is not None]
        assert formed, "hot loop formed no superblocks"
        assert any(sb.length > 1 for sb in formed)
        # The trace compiler attached a specialized replay function.
        assert any(sb.replay is not None for sb in formed)
        counters = machine.metrics_snapshot()
        assert counters["frontend.superblocks_compiled"] == len(formed)
        assert counters["frontend.superblock_instructions"] > 0

    def test_commit_meters_partition_instructions(self):
        """superblock_instructions + fallback_instructions is exactly the
        retired-instruction count — no member double-counted or lost."""
        machine = _machine(HOT_LOOP)
        machine.run_quantum(200_000)
        counters = machine.metrics_snapshot()
        assert (counters["frontend.superblock_instructions"]
                + counters["frontend.fallback_instructions"]
                == machine.instructions)

    def test_small_budget_replays_in_part_but_stays_exact(self):
        """A budget smaller than the hot chain stops each replay after
        the member where the budget runs out, and the next quantum enters
        the chain at the member after it; slicing must not change what
        executes."""
        sliced = _machine(HOT_LOOP)
        total = 0
        while not sliced.halted:
            total += sliced.run_quantum(2)
        whole = _machine(HOT_LOOP)
        whole_count = whole.run_quantum(200_000)
        assert total == whole_count
        assert sliced.regs[Reg.RAX] == whole.regs[Reg.RAX]
        assert sliced.timing.finish().cycles == whole.timing.finish().cycles
        counters = sliced.metrics_snapshot()
        assert counters["frontend.partial_replays"] > 0
        assert counters["frontend.superblock_bailouts"] == 0
        # Slicing steps only what the unsliced run steps: entries
        # before a pc's compile entry.
        assert counters["frontend.fallback_instructions"] \
            == whole.metrics_snapshot()["frontend.fallback_instructions"]
        assert (counters["frontend.superblock_instructions"]
                + counters["frontend.fallback_instructions"]
                == sliced.instructions)

    def test_active_trace_replays(self):
        """A recording execution trace is an observer like any other:
        superblocks replay with its hook compiled in, every instruction
        is recorded, and the run is the untraced run."""
        traced = _machine(HOT_LOOP)
        trace = traced.attach(ExecutionTrace(1_000_000))  # never fills
        traced.run_quantum(200_000)
        plain = _machine(HOT_LOOP)
        plain.run_quantum(200_000)
        assert traced.metrics_snapshot() == plain.metrics_snapshot()
        assert traced.metrics_snapshot()[
            "frontend.superblock_instructions"] > 0
        assert len(trace.pcs) == traced.instructions
        assert traced.regs[Reg.RAX] == plain.regs[Reg.RAX]

    def test_checker_machine_replays(self):
        """The hardware checker rides superblock replay: a checker
        machine replays exactly what a checker-less one does, runs
        exactly like it, and validates every result-producing uop."""
        checked = _machine(HOT_LOOP)
        checker = checked.attach(HardwareChecker(checked.captable))
        checked.run_quantum(200_000)
        plain = _machine(HOT_LOOP)
        plain.run_quantum(200_000)
        counters = checked.metrics_snapshot()
        assert counters["frontend.superblock_instructions"] > 0
        assert counters == plain.metrics_snapshot()
        assert (checked.regs[Reg.RAX], checked.instructions,
                checked.timing.finish().cycles, checked.total_uops) \
            == (plain.regs[Reg.RAX], plain.instructions,
                plain.timing.finish().cycles, plain.total_uops)
        assert checker.stats.validations > 0
        assert checker.stats.mismatches == 0

    def test_rule_change_between_quanta_recompiles(self):
        """Replay folds rule policies in, so rules removed between quanta
        must reach replayed code exactly as they reach step()."""
        program = assemble(build("mcf", 1).source, name="mcf")

        def run(replay: bool) -> Chex86Machine:
            machine = Chex86Machine(program, halt_on_violation=False)
            machine.block_cache_enabled = replay
            machine.run_quantum(8_000)
            for rule in list(machine.tracker.rules):
                if rule.name.startswith(("mov", "ld", "lea", "add")):
                    machine.tracker.rules.remove(rule.name)
            machine.run_quantum(200_000)
            return machine

        replayed, stepped = run(True), run(False)
        assert replayed.metrics_snapshot()[
            "frontend.superblock_instructions"] > 0

        def comparable(machine):
            return {name: value
                    for name, value in machine.metrics_snapshot().items()
                    if not name.startswith("frontend.")}

        assert comparable(replayed) == comparable(stepped)
        assert replayed.regs == stepped.regs

    def test_knob_accepts_two_settings(self):
        results = {}
        for mode in (False, True):
            machine = _machine(HOT_LOOP)
            machine.block_cache_enabled = mode
            machine.run_quantum(200_000)
            results[mode] = (machine.regs[Reg.RAX], machine.instructions,
                             machine.timing.finish().cycles,
                             machine.total_uops)
            if not mode:
                assert machine.metrics_snapshot()[
                    "frontend.superblock_instructions"] == 0
        assert results[False] == results[True]


COUNTED_LOOP = """
    mov rcx, 8
loop:
    add rax, 3
    sub rcx, 1
    jne loop
"""

# The loop stores one word further into a 16-byte allocation each
# iteration: iterations 1 and 2 are in bounds, iteration 3 writes past
# the end from inside the loop's replayed superblock (the store is its
# third member, so the trap unwinds a partially retired chain).
TRAPPING_LOOP = """
    mov rdi, 16
    call malloc
    mov r12, rax
    sub r12, 8
    mov rcx, 0
loop:
    add rcx, 1
    add r12, 8
    mov [r12], rcx
    cmp rcx, 10
    jne loop
"""


def _frontend(machine: Chex86Machine) -> dict:
    counters = machine.metrics_snapshot()
    return {name: counters[f"frontend.{name}"] for name in (
        "superblocks_compiled", "superblock_instructions",
        "superblock_bailouts", "fallback_instructions")}


def _assert_partition(machine: Chex86Machine) -> None:
    counters = _frontend(machine)
    assert (counters["superblock_instructions"]
            + counters["fallback_instructions"] == machine.instructions)


class TestCompileOnSecondEntry:
    """Code that runs once is stepped and never pays for code
    generation.  Tests that need a short loop to replay set
    ``superblock_compile_entry = 2``, compiling on a pc's second entry."""

    def test_straight_line_code_compiles_nothing(self):
        machine = _machine(LONG_BODY)
        machine.run_quantum(200_000)
        assert machine.halted
        counters = _frontend(machine)
        assert counters["superblocks_compiled"] == 0
        assert counters["superblock_instructions"] == 0
        assert counters["fallback_instructions"] == machine.instructions
        assert not any(machine._superblocks.values())

    def test_loop_head_compiles_once_on_second_entry(self):
        machine = _machine(COUNTED_LOOP)
        machine.superblock_compile_entry = 2
        head = machine.program.labels["loop"]
        # mov + the first iteration's three instructions: all stepped.
        machine.run_quantum(4)
        assert _frontend(machine)["superblocks_compiled"] == 0
        assert machine.rip == head
        _assert_partition(machine)
        machine.run_quantum(200_000)
        assert machine.halted
        counters = _frontend(machine)
        assert counters["superblocks_compiled"] == 1
        compiled = {pc for pc, sb in machine._superblocks.items()
                    if sb is not None}
        assert compiled == {head}
        # Iterations 2..8 replay; mov, iteration 1 and halt are stepped.
        assert counters["superblock_instructions"] == 7 * 3
        assert counters["fallback_instructions"] == 1 + 3 + 1
        _assert_partition(machine)

    def test_default_threshold_steps_entries_before_it(self):
        threshold = Chex86Machine.superblock_compile_entry
        iterations = threshold + 3
        machine = _machine(COUNTED_LOOP.replace(
            "mov rcx, 8", f"mov rcx, {iterations}"))
        machine.run_quantum(200_000)
        assert machine.halted
        counters = _frontend(machine)
        assert counters["superblocks_compiled"] == 1
        # Iterations threshold..iterations replay; mov, the iterations
        # before the threshold and halt are stepped.
        assert counters["superblock_instructions"] == \
            (iterations - threshold + 1) * 3
        assert counters["fallback_instructions"] == \
            1 + (threshold - 1) * 3 + 1
        _assert_partition(machine)

    def test_partition_holds_at_every_quantum(self):
        machine = _machine(HOT_LOOP)
        while not machine.halted:
            machine.run_quantum(5)
            _assert_partition(machine)
        assert _frontend(machine)["superblock_instructions"] > 0

    def test_trap_on_third_iteration_unwinds_like_the_reference(self):
        def run(block_cache: bool) -> Chex86Machine:
            machine = _machine(TRAPPING_LOOP, halt_on_violation=True)
            machine.block_cache_enabled = block_cache
            # The loop head compiles on iteration 2, so iteration 3
            # traps inside its replayed superblock.
            machine.superblock_compile_entry = 2
            machine.run_quantum(200_000)
            return machine

        fast, reference = run(True), run(False)
        assert fast.halted and reference.halted
        assert fast.violations.count(ViolationKind.OUT_OF_BOUNDS) == 1
        counters = _frontend(fast)
        # malloc and the set-up code run once; only the loop compiles.
        assert counters["superblocks_compiled"] == 1
        assert counters["superblock_bailouts"] == 1
        _assert_partition(fast)
        assert (fast.rip, fast.regs, fast.flags, fast.instructions,
                fast.total_uops) == (reference.rip, reference.regs,
                                     reference.flags, reference.instructions,
                                     reference.total_uops)
        assert ([str(v) for v in fast.violations.violations]
                == [str(v) for v in reference.violations.violations])

        def comparable(machine):
            return {name: value
                    for name, value in machine.metrics_snapshot().items()
                    if not name.startswith("frontend.")}

        assert comparable(fast) == comparable(reference)
