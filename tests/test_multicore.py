"""Integration tests for the multicore system (PARSEC-style runs)."""

import pytest

from repro.core import Chex86Machine, Variant, ViolationKind
from repro.heap import heap_library_asm
from repro.isa import assemble
from repro.pipeline.multicore import (QUANTUM, MulticoreMachine,
                                      defense_label)
from repro.pipeline.system import System
from repro.workloads import build
from repro.workloads.base import Workload


def two_thread_workload(body0: str, body1: str, globals_asm: str = ""):
    source = (globals_asm
              + "main:\n" + body0 + "\n    halt\n"
              + "worker1:\n" + body1 + "\n    halt\n"
              + heap_library_asm())
    return Workload("test-mt", "TEST", source, "two threads", threads=2,
                    entry_labels=("main", "worker1"))


class TestMulticoreBasics:
    def test_both_threads_run_to_halt(self):
        workload = two_thread_workload(
            "    mov rax, 1", "    mov rax, 2")
        result = MulticoreMachine(workload, variant=Variant.INSECURE).run()
        assert result.halted
        assert len(result.per_core) == 2
        assert result.per_core[0].machine.regs[0] == 1
        assert result.per_core[1].machine.regs[0] == 2

    def test_threads_share_the_heap(self):
        workload = two_thread_workload(
            "    mov rdi, 64\n    call malloc",
            "    mov rdi, 64\n    call malloc")
        runner = MulticoreMachine(workload, variant=Variant.UCODE_PREDICTION)
        runner.run()
        pointers = {core.regs[0] for core in runner.cores}
        assert len(pointers) == 2  # distinct chunks from one allocator
        assert runner.system.allocator.stats.total_allocs == 2

    def test_threads_have_distinct_stacks(self):
        workload = two_thread_workload(
            "    push rax\n    pop rbx", "    push rax\n    pop rbx")
        runner = MulticoreMachine(workload, variant=Variant.INSECURE)
        runner.run()
        stacks = {core.regs[7] for core in runner.cores}  # RSP
        assert len(stacks) == 2

    def test_wallclock_is_max_of_cores(self):
        workload = two_thread_workload(
            "    mov rax, 1",
            "    mov rcx, 0\nspin:\n    add rcx, 1\n    cmp rcx, 200\n"
            "    jne spin")
        result = MulticoreMachine(workload, variant=Variant.INSECURE).run()
        assert result.cycles == max(r.cycles for r in result.per_core)

    def test_program_loaded_once(self):
        workload = two_thread_workload(
            "    mov rbx, [shared.addr]\n    mov rax, [rbx]",
            "    mov rbx, [shared.addr]\n    mov rax, [rbx]",
            globals_asm=".global shared, 16, 77\n")
        runner = MulticoreMachine(workload, variant=Variant.UCODE_PREDICTION)
        runner.run()
        # One capability for the shared global, not one per core.
        generated = runner.system.captable.stats.generated
        assert generated == 1
        assert all(core.regs[0] == 77 for core in runner.cores)


class TestCoherence:
    def test_free_broadcasts_cap_invalidations(self):
        workload = two_thread_workload(
            """
    mov rdi, 64
    call malloc
    mov rdi, rax
    call free
""",
            "    mov rax, 0")
        runner = MulticoreMachine(workload, variant=Variant.UCODE_PREDICTION)
        runner.run()
        assert runner.system.coherence.cap_invalidate_messages >= 1

    def test_alias_store_broadcasts_invalidations(self):
        workload = two_thread_workload(
            """
    mov rdi, 64
    call malloc
    mov rbx, [cell.addr]
    mov [rbx], rax
""",
            "    mov rax, 0",
            globals_asm=".global cell, 16\n")
        runner = MulticoreMachine(workload, variant=Variant.UCODE_PREDICTION)
        runner.run()
        assert runner.system.coherence.alias_invalidate_messages >= 1

    def test_cross_thread_uaf_detected(self):
        """Thread 1 frees; thread 0's later dereference must still trap.

        The spin loop delays thread 0 past thread 1's free under the
        round-robin quantum."""
        workload = two_thread_workload(
            """
    mov rbx, [cell.addr]
    mov rcx, 0
wait:
    add rcx, 1
    cmp rcx, 400
    jne wait
    mov rdx, [rbx]
    mov rax, [rdx]
""",
            """
    mov rdi, 64
    call malloc
    mov rbx, [cell.addr]
    mov [rbx], rax
    mov rdi, rax
    call free
""",
            globals_asm=".global cell, 16\n")
        runner = MulticoreMachine(workload, variant=Variant.UCODE_PREDICTION,
                                  halt_on_violation=True)
        result = runner.run()
        assert result.violations.count(ViolationKind.USE_AFTER_FREE) >= 1


class TestParsecWorkloads:
    @pytest.mark.parametrize("name", ["blackscholes", "freqmine", "canneal"])
    def test_parsec_runs_clean(self, name):
        workload = build(name, 1)
        runner = MulticoreMachine(workload, variant=Variant.UCODE_PREDICTION,
                                  halt_on_violation=True)
        result = runner.run(max_instructions_per_core=400_000)
        assert result.halted
        assert not result.flagged
        assert result.instructions > workload.threads * 100


class TestDefenses:
    def test_defense_names(self):
        assert defense_label(Variant.HW_ONLY) == "hardware-only"
        assert defense_label("asan") == "asan"

    def test_asan_runs_the_instrumented_program_insecure(self):
        workload = build("canneal", 1)
        plain = assemble(workload.source, name=workload.name)
        process = MulticoreMachine(workload, "asan", halt_on_violation=False)
        assert process.variant is Variant.INSECURE
        assert len(process.cores) == len(workload.entry_labels)
        assert len(process.program.instrs) > len(plain.instrs)
        for core in process.cores:
            assert core.program is process.program
            assert core.variant is Variant.INSECURE
            assert core.system is process.system
        result = process.run(max_instructions_per_core=20_000)
        assert result.instructions > 0 and not result.flagged


class TestRunLoop:
    def _counted_quanta(self, monkeypatch):
        budgets = []
        run_quantum = Chex86Machine.run_quantum

        def counting(machine, budget):
            budgets.append(budget)
            return run_quantum(machine, budget)

        monkeypatch.setattr(Chex86Machine, "run_quantum", counting)
        return budgets

    def test_one_core_runs_its_budget_in_one_quantum(self, monkeypatch):
        workload = build("mcf", 1)
        alone = Chex86Machine(assemble(workload.source, name=workload.name),
                              halt_on_violation=False)
        expected = alone.run(max_instructions=30_000)
        budgets = self._counted_quanta(monkeypatch)
        process = MulticoreMachine(workload, halt_on_violation=False)
        result = process.run(max_instructions_per_core=30_000)
        assert budgets == [30_000]
        (core,) = process.cores
        assert core.metrics_snapshot() == alone.metrics_snapshot()
        assert (result.instructions, result.cycles) == \
            (expected.instructions, expected.cycles)

    def test_cores_interleave_in_quanta(self, monkeypatch):
        budgets = self._counted_quanta(monkeypatch)
        process = MulticoreMachine(build("canneal", 1),
                                   halt_on_violation=False)
        process.run(max_instructions_per_core=1_000)
        assert len(budgets) > len(process.cores)
        assert max(budgets) == QUANTUM
