"""Quantum-execution semantics and the decoded-block fast path.

``run_quantum`` is the multicore timeslice primitive: the system layer
hands each core a budget of macro instructions and relies on the return
value for round-robin accounting, so its stop conditions (budget
exhausted, halt, trapping violation) must be exact.  The same loop drives
``trace_limit`` truncation and populates the decoded-block cache, so both
are covered here too.
"""

from __future__ import annotations

import pytest

from repro.core import Chex86Machine, Variant, ViolationKind
from repro.isa import Reg

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
        machine.trace_limit = 5
        machine.run_quantum(200_000)
        assert machine.instructions > 5
        assert len(machine.execution_trace) == 5

    def test_trace_records_first_instructions_in_order(self):
        machine = _machine(LONG_BODY)
        machine.trace_limit = 3
        machine.run_quantum(200_000)
        start = machine.program.labels["main"]
        pcs = [pc for pc, _ in machine.execution_trace]
        assert pcs[0] == start
        assert pcs == sorted(pcs)
        rendered = machine.format_trace()
        assert len(rendered.splitlines()) == 3

    def test_trace_disabled_by_default(self):
        machine = _machine(LONG_BODY)
        machine.run_quantum(200_000)
        assert machine.execution_trace == []


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
        counters = machine.phase_counters()
        assert counters["frontend.superblocks_compiled"] == len(formed)
        assert counters["frontend.superblock_instructions"] > 0

    def test_commit_meters_partition_instructions(self):
        """superblock_instructions + fallback_instructions is exactly the
        retired-instruction count — no member double-counted or lost."""
        machine = _machine(HOT_LOOP)
        machine.run_quantum(200_000)
        counters = machine.phase_counters()
        assert (counters["frontend.superblock_instructions"]
                + counters["frontend.fallback_instructions"]
                == machine.instructions)

    def test_small_budget_bails_out_but_stays_exact(self):
        """A budget smaller than the hot chain forces per-instruction
        fallback at every entry; slicing must not change what executes."""
        sliced = _machine(HOT_LOOP)
        total = 0
        while not sliced.halted:
            total += sliced.run_quantum(2)
        whole = _machine(HOT_LOOP)
        whole_count = whole.run_quantum(200_000)
        assert total == whole_count
        assert sliced.regs[Reg.RAX] == whole.regs[Reg.RAX]
        assert sliced.timing.finish().cycles == whole.timing.finish().cycles
        counters = sliced.phase_counters()
        assert counters["frontend.superblock_bailouts"] > 0
        assert (counters["frontend.superblock_instructions"]
                + counters["frontend.fallback_instructions"]
                == sliced.instructions)

    def test_active_trace_forces_fallback(self):
        """While the execution trace is recording, superblock replay is
        skipped (the trace needs per-instruction hooks); coverage shows
        it."""
        traced = _machine(HOT_LOOP)
        traced.trace_limit = 1_000_000  # never fills: trace stays active
        traced.run_quantum(200_000)
        assert traced.phase_counters()[
            "frontend.superblock_instructions"] == 0
        plain = _machine(HOT_LOOP)
        plain.run_quantum(200_000)
        assert traced.instructions == plain.instructions
        assert traced.regs[Reg.RAX] == plain.regs[Reg.RAX]
        assert traced.timing.finish().cycles == plain.timing.finish().cycles

    def test_checker_machine_steps_every_instruction(self):
        """With the hardware checker attached the rule database can learn
        mid-run, so folding rule decisions into generated code is
        unsound; a checker machine retires everything through step()
        and still runs exactly like a checker-less one."""
        checked = _machine(HOT_LOOP, enable_checker=True)
        checked.run_quantum(200_000)
        counters = checked.phase_counters()
        assert counters["frontend.superblock_instructions"] == 0
        assert counters["frontend.fallback_instructions"] \
            == checked.instructions
        plain = _machine(HOT_LOOP)
        plain.run_quantum(200_000)
        assert plain.phase_counters()[
            "frontend.superblock_instructions"] > 0
        assert (checked.regs[Reg.RAX], checked.instructions,
                checked.timing.finish().cycles, checked.total_uops) \
            == (plain.regs[Reg.RAX], plain.instructions,
                plain.timing.finish().cycles, plain.total_uops)

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
                assert machine.phase_counters()[
                    "frontend.superblock_instructions"] == 0
        assert results[False] == results[True]
