"""Property-based tests for the ISA layer: assembler, decoder, machine ALU."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Chex86Machine, Variant
from repro.isa import MASK64, Reg, assemble, to_s64, to_u64
from repro.isa.registers import compute_flags, Flag
from repro.microop import Decoder, UopKind
from repro.core.machine import _alu_binary, _branch_taken
from repro.microop.uops import AluOp

u64 = st.integers(min_value=0, max_value=MASK64)
small = st.integers(min_value=0, max_value=1 << 30)


class TestAluSemantics:
    @given(a=u64, b=u64)
    def test_add_matches_python_mod_2_64(self, a, b):
        result, carry, _ = _alu_binary(AluOp.ADD, a, b)
        assert result == (a + b) & MASK64
        assert carry == (a + b > MASK64)

    @given(a=u64, b=u64)
    def test_sub_matches_python_mod_2_64(self, a, b):
        result, borrow, _ = _alu_binary(AluOp.SUB, a, b)
        assert result == (a - b) & MASK64
        assert borrow == (a < b)

    @given(a=u64, b=u64)
    def test_bitwise_ops(self, a, b):
        assert _alu_binary(AluOp.AND, a, b)[0] == a & b
        assert _alu_binary(AluOp.OR, a, b)[0] == a | b
        assert _alu_binary(AluOp.XOR, a, b)[0] == a ^ b

    @given(a=u64, b=st.integers(0, 63))
    def test_shifts(self, a, b):
        assert _alu_binary(AluOp.SHL, a, b)[0] == (a << b) & MASK64
        assert _alu_binary(AluOp.SHR, a, b)[0] == a >> b

    @given(a=u64)
    def test_neg_not_involutions(self, a):
        neg, _, _ = _alu_binary(AluOp.NEG, a, 0)
        assert _alu_binary(AluOp.NEG, neg, 0)[0] == a
        inverted, _, _ = _alu_binary(AluOp.NOT, a, 0)
        assert _alu_binary(AluOp.NOT, inverted, 0)[0] == a

    @given(a=u64, b=u64)
    def test_signed_comparison_via_flags(self, a, b):
        """cmp + jl must agree with Python's signed comparison."""
        result, carry, overflow = _alu_binary(AluOp.CMP, a, b)
        flags = compute_flags(result, carry, overflow)
        assert _branch_taken("jl", flags) == (to_s64(a) < to_s64(b))
        assert _branch_taken("jge", flags) == (to_s64(a) >= to_s64(b))
        assert _branch_taken("je", flags) == (a == b)

    @given(a=u64, b=u64)
    def test_unsigned_comparison_via_flags(self, a, b):
        result, carry, overflow = _alu_binary(AluOp.CMP, a, b)
        flags = compute_flags(result, carry, overflow)
        assert _branch_taken("jb", flags) == (a < b)
        assert _branch_taken("jae", flags) == (a >= b)


class TestMachineArithmetic:
    @settings(max_examples=25, deadline=None)
    @given(a=small, b=small)
    def test_computed_sum_matches_host(self, a, b):
        program = assemble(
            f"main:\n    mov rax, {a}\n    mov rbx, {b}\n"
            "    add rax, rbx\n    halt\n", name="sum")
        machine = Chex86Machine(program, variant=Variant.INSECURE)
        machine.run()
        assert machine.regs[Reg.RAX] == (a + b) & MASK64

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(0, 1 << 30), min_size=1, max_size=8))
    def test_memory_roundtrip_preserves_values(self, values):
        stores = "\n".join(
            f"    mov rbx, {1 << 20 | (i * 8)}\n    mov [rbx], {v}"
            for i, v in enumerate(values))
        loads = "\n".join(
            f"    mov rbx, {1 << 20 | (i * 8)}\n    mov rcx, [rbx]\n"
            f"    add rax, rcx"
            for i in range(len(values)))
        program = assemble(
            "main:\n    mov rax, 0\n" + stores + "\n" + loads
            + "\n    halt\n", name="roundtrip")
        machine = Chex86Machine(program, variant=Variant.INSECURE)
        machine.run()
        assert machine.regs[Reg.RAX] == sum(values) & MASK64


class TestDecoderProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([
        "mov rax, rbx", "mov rax, 5", "mov rax, [rbx]", "mov [rbx], rax",
        "add rax, rbx", "add rax, 5", "add rax, [rbx]", "add [rbx], rax",
        "sub rcx, 9", "and rax, rbx", "xor rdx, rdx", "imul rax, rbx",
        "lea rax, [rbx + rcx*4 + 8]", "cmp rax, [rbx]", "push rax",
        "pop rbx", "inc rax", "dec [rbx]", "not rcx", "neg rax",
    ]))
    def test_every_form_decodes_with_bounded_expansion(self, text):
        program = assemble(f"main:\n    {text}\n    halt\n", name="form")
        decoder = Decoder()
        uops, _ = decoder.decode(program.fetch(program.entry),
                                 program.entry, 0, 1)
        assert 1 <= len(uops) <= 3
        # Memory uops carry a memory operand; others never do.
        for uop in uops:
            if uop.kind in (UopKind.LD, UopKind.ST):
                assert uop.mem is not None
