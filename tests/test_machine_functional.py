"""Integration tests: functional correctness of program execution."""

import pytest

from repro.core import Chex86Machine, MachineError, Variant
from repro.isa import Reg, assemble
from repro.telemetry.provenance import ProvenanceRecorder

from conftest import assemble_main, run_program


def regs_after(body, variant=Variant.INSECURE, globals_asm=""):
    program = assemble_main(body, globals_asm=globals_asm)
    machine = Chex86Machine(program, variant=variant, halt_on_violation=False)
    machine.run()
    return machine.regs


class TestArithmetic:
    def test_mov_add_sub(self):
        regs = regs_after("""
            mov rax, 10
            mov rbx, 3
            add rax, rbx
            sub rax, 5
        """)
        assert regs[Reg.RAX] == 8

    def test_mul_shift_logic(self):
        regs = regs_after("""
            mov rax, 6
            mov rbx, 7
            imul rax, rbx
            shl rax, 1
            mov rcx, 0xF0
            and rcx, 0x3C
            or  rcx, 1
            xor rbx, rbx
        """)
        assert regs[Reg.RAX] == 84
        assert regs[Reg.RCX] == 0x31
        assert regs[Reg.RBX] == 0

    def test_inc_dec_neg_not(self):
        regs = regs_after("""
            mov rax, 5
            inc rax
            dec rax
            dec rax
            mov rbx, 1
            neg rbx
            mov rcx, 0
            not rcx
        """)
        assert regs[Reg.RAX] == 4
        assert regs[Reg.RBX] == (1 << 64) - 1
        assert regs[Reg.RCX] == (1 << 64) - 1

    def test_lea_address_math(self):
        regs = regs_after("""
            mov rbx, 0x1000
            mov rcx, 4
            lea rax, [rbx + rcx*8 + 16]
        """)
        assert regs[Reg.RAX] == 0x1000 + 32 + 16


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        regs = regs_after("""
            mov rbx, 0x10000
            mov [rbx], 1234
            mov rax, [rbx]
        """)
        assert regs[Reg.RAX] == 1234

    def test_rmw_memory_form(self):
        regs = regs_after("""
            mov rbx, 0x10000
            mov [rbx], 10
            add [rbx], 5
            mov rax, [rbx]
        """)
        assert regs[Reg.RAX] == 15

    def test_load_op_form(self):
        regs = regs_after("""
            mov rbx, 0x10000
            mov [rbx], 10
            mov rax, 1
            add rax, [rbx]
        """)
        assert regs[Reg.RAX] == 11

    def test_push_pop(self):
        regs = regs_after("""
            mov rax, 42
            push rax
            mov rax, 0
            pop rbx
        """)
        assert regs[Reg.RBX] == 42

    def test_globals_initialized(self):
        regs = regs_after("""
            mov rbx, [table.addr]
            mov rax, [rbx]
            mov rcx, [rbx + 8]
        """, globals_asm=".global table, 24, 111, 222\n")
        assert regs[Reg.RAX] == 111
        assert regs[Reg.RCX] == 222


class TestControlFlow:
    def test_loop_counts(self):
        regs = regs_after("""
            mov rax, 0
            mov rcx, 0
        top:
            add rax, rcx
            add rcx, 1
            cmp rcx, 10
            jne top
        """)
        assert regs[Reg.RAX] == 45

    def test_conditional_variants(self):
        regs = regs_after("""
            mov rax, 0
            mov rbx, 5
            cmp rbx, 10
            jl  less
            mov rax, 111
            jmp out
        less:
            mov rax, 222
        out:
            nop
        """)
        assert regs[Reg.RAX] == 222

    def test_signed_comparison(self):
        regs = regs_after("""
            mov rax, 0
            mov rbx, -1
            cmp rbx, 1
            jl neg_path
            mov rax, 1
            jmp out
        neg_path:
            mov rax, 2
        out:
            nop
        """)
        assert regs[Reg.RAX] == 2

    def test_unsigned_comparison(self):
        regs = regs_after("""
            mov rax, 0
            mov rbx, -1
            cmp rbx, 1
            jb below
            mov rax, 1
            jmp out
        below:
            mov rax, 2
        out:
            nop
        """)
        assert regs[Reg.RAX] == 1  # 0xffff... is above 1 unsigned

    def test_call_ret_nesting(self):
        regs = regs_after("""
            mov rax, 0
            call f1
            add rax, 100
            jmp done
        f1:
            call f2
            add rax, 10
            ret
        f2:
            add rax, 1
            ret
        done:
            nop
        """)
        assert regs[Reg.RAX] == 111


def _call_and_return(call: str, fast: bool):
    """Run ``main: <call>; halt`` / ``f: ret`` with a provenance
    recorder, stopping once inside ``f``; returns the machine, the
    recorder and the shadow-stack depth seen inside ``f``."""
    program = assemble(f"main:\n    {call}\n    halt\nf:\n    ret\n",
                       name="icall")
    machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION)
    machine.block_cache_enabled = fast
    machine.superblock_compile_entry = 1
    recorder = machine.attach(ProvenanceRecorder(program))
    while machine.rip != program.labels["f"]:
        machine.run_quantum(1)
    inside = recorder.depth()
    machine.run()
    return machine, recorder, inside


class TestIndirectCall:
    """``call <reg>`` links like ``call <label>``: its jump pushes the
    return-address stack and fires ``on_call``, so the callee's ``ret``
    is predicted and pops the context the call pushed."""

    @pytest.mark.parametrize("fast", (False, True), ids=("step", "replay"))
    def test_links_like_a_direct_call(self, fast):
        direct, direct_rec, direct_inside = _call_and_return("call f", fast)
        indirect, indirect_rec, indirect_inside = _call_and_return(
            "mov rax, f\n    call rax", fast)
        assert direct_inside == indirect_inside == 1
        assert indirect_rec.current == direct_rec.current
        assert indirect_rec.depth() == direct_rec.depth() == 0
        # The ret is predicted: the one squash left is the call's own
        # cold BTB miss, which a direct call (its target decoded) has not.
        stats = indirect.predictors.stats
        assert stats.indirect_predictions == 2
        assert stats.indirect_mispredictions == 1
        assert direct.predictors.stats.indirect_mispredictions == 0
        assert indirect.tracker.stats.squashes == \
            direct.tracker.stats.squashes + 1 == 1
        assert indirect.predictors.ras.overflows == 0


class TestHeapRoutines:
    def test_malloc_returns_heap_pointer(self):
        regs = regs_after("""
            mov rdi, 64
            call malloc
        """, variant=Variant.UCODE_PREDICTION)
        assert regs[Reg.RAX] != 0

    def test_calloc_zeroes_memory(self):
        regs = regs_after("""
            mov rdi, 4
            mov rsi, 8
            call calloc
            mov rbx, [rax]
        """, variant=Variant.UCODE_PREDICTION)
        assert regs[Reg.RBX] == 0

    def test_realloc_preserves_contents(self):
        regs = regs_after("""
            mov rdi, 16
            call malloc
            mov [rax], 777
            mov rdi, rax
            mov rsi, 256
            call realloc
            mov rbx, [rax]
        """, variant=Variant.UCODE_PREDICTION)
        assert regs[Reg.RBX] == 777


class TestRunHarness:
    def test_instruction_budget_stops_infinite_loop(self):
        result = run_program("    nop\nspin:\n    jmp spin",
                             variant=Variant.INSECURE, max_instructions=1_000)
        assert not result.halted
        assert result.instructions == 1_000

    def test_jump_outside_text_raises(self):
        program = assemble_main("    mov rbx, 0x123458\n    jmp rbx")
        machine = Chex86Machine(program, variant=Variant.INSECURE)
        with pytest.raises(MachineError):
            machine.run()

    def test_result_metrics_populated(self):
        result = run_program("    mov rax, 1\n    mov rbx, 2")
        assert result.halted
        assert result.instructions == 3
        assert result.cycles > 0
        assert 0 < result.ipc
        assert result.uop_expansion >= 1.0

    def test_unknown_hostop_raises(self):
        program = assemble("main:\n  hostop no_such\n  halt\n", name="bad")
        machine = Chex86Machine(program, variant=Variant.INSECURE)
        with pytest.raises(MachineError):
            machine.run()
