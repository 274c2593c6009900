"""Unit tests for the architectural register definitions."""

import pytest

from repro.isa.registers import (
    ARG_REGS,
    Flag,
    MASK64,
    NUM_REGS,
    RET_REG,
    Reg,
    compute_flags,
    parse_reg,
    to_s64,
    to_u64,
)


class TestReg:
    def test_sixteen_gprs(self):
        assert NUM_REGS == 16

    def test_indices_are_dense(self):
        assert sorted(int(r) for r in Reg) == list(range(16))

    def test_calling_convention(self):
        assert ARG_REGS[0] is Reg.RDI
        assert ARG_REGS[1] is Reg.RSI
        assert RET_REG is Reg.RAX


class TestParseReg:
    def test_plain_name(self):
        assert parse_reg("rax") is Reg.RAX

    def test_percent_prefix(self):
        assert parse_reg("%rbx") is Reg.RBX

    def test_case_insensitive(self):
        assert parse_reg("RsP") is Reg.RSP

    def test_numbered_register(self):
        assert parse_reg("r15") is Reg.R15

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            parse_reg("eax")  # 32-bit names are not modelled

    def test_upper_case_with_percent_prefix(self):
        assert parse_reg("%RAX") is Reg.RAX

    def test_surrounding_whitespace(self):
        assert parse_reg(" rax ") is Reg.RAX

    def test_unknown_name_error_quotes_the_raw_text(self):
        with pytest.raises(ValueError,
                           match=r"^unknown register name: ' %xmm0 '$"):
            parse_reg(" %xmm0 ")


class TestArithmeticHelpers:
    def test_to_u64_truncates(self):
        assert to_u64(1 << 64) == 0
        assert to_u64(-1) == MASK64

    def test_to_s64_sign_extends(self):
        assert to_s64(MASK64) == -1
        assert to_s64(1 << 63) == -(1 << 63)

    def test_to_s64_positive_passthrough(self):
        assert to_s64(42) == 42


class TestComputeFlags:
    def test_zero_sets_zf(self):
        assert Flag.ZF in compute_flags(0)

    def test_negative_sets_sf(self):
        assert Flag.SF in compute_flags(1 << 63)

    def test_positive_sets_neither(self):
        flags = compute_flags(5)
        assert Flag.ZF not in flags
        assert Flag.SF not in flags

    def test_carry_and_overflow_passthrough(self):
        flags = compute_flags(1, carry=True, overflow=True)
        assert Flag.CF in flags
        assert Flag.OF in flags
