"""Unit tests for micro-op and operand primitives."""

import pytest

from repro.isa import Imm, LabelRef, Mem, Reg
from repro.microop import (
    CAPABILITY_KINDS,
    NUM_UREGS,
    T0,
    T1,
    AluOp,
    Uop,
    UopKind,
    ureg_name,
)


class TestMemOperand:
    def test_scale_validation(self):
        for scale in (1, 2, 4, 8):
            Mem(base=Reg.RAX, index=Reg.RBX, scale=scale)
        with pytest.raises(ValueError):
            Mem(base=Reg.RAX, index=Reg.RBX, scale=3)

    def test_absolute_detection(self):
        assert Mem(disp=0x600000).is_absolute
        assert not Mem(base=Reg.RAX).is_absolute
        assert not Mem(index=Reg.RAX, scale=8).is_absolute

    def test_frozen(self):
        mem = Mem(base=Reg.RAX)
        with pytest.raises(Exception):
            mem.disp = 5

    def test_operand_reprs(self):
        assert str(Imm(5)) == "$5"
        assert "0x" in str(Imm(1000))
        assert str(LabelRef("target")) == "target"
        assert "%rax" in str(Mem(base=Reg.RAX, disp=8))


class TestUop:
    def test_temp_registers_beyond_architectural(self):
        assert T0 == 16 and T1 == 17
        assert NUM_UREGS == 18
        assert ureg_name(T0) == "%t0"
        assert ureg_name(0) == "%rax"

    def test_reg_reads_includes_memory_registers(self):
        uop = Uop(UopKind.ST, srcs=(3,),
                  mem=Mem(base=Reg.RBX, index=Reg.RCX, scale=8))
        reads = uop.reg_reads()
        assert 3 in reads
        assert int(Reg.RBX) in reads and int(Reg.RCX) in reads

    def test_reg_reads_without_memory(self):
        uop = Uop(UopKind.ALU, alu=AluOp.ADD, dst=0, srcs=(0, 1))
        assert uop.reg_reads() == (0, 1)

    def test_kind_classification(self):
        assert Uop(UopKind.LD, dst=0, mem=Mem(base=Reg.RAX)).is_mem
        assert Uop(UopKind.ST, srcs=(0,), mem=Mem(base=Reg.RAX)).is_mem
        assert not Uop(UopKind.ALU, alu=AluOp.ADD, dst=0).is_mem
        assert Uop(UopKind.CAPCHECK).is_capability
        assert not Uop(UopKind.LD, dst=0, mem=Mem(base=Reg.RAX)).is_capability

    def test_capability_kind_set(self):
        assert UopKind.CAPGEN_BEGIN in CAPABILITY_KINDS
        assert UopKind.CAPGEN_END in CAPABILITY_KINDS
        assert UopKind.CAPCHECK in CAPABILITY_KINDS
        assert UopKind.CAPFREE_BEGIN in CAPABILITY_KINDS
        assert UopKind.CAPFREE_END in CAPABILITY_KINDS
        assert len(CAPABILITY_KINDS) == 5

    def test_str_renders_fields(self):
        uop = Uop(UopKind.ALU, alu=AluOp.ADD, dst=0, srcs=(0, 1))
        text = str(uop)
        assert "alu.add" in text and "%rax" in text and "%rbx" in text
        check = Uop(UopKind.CAPCHECK, pid=7, mem=Mem(base=Reg.RAX))
        assert "pid=7" in str(check)
