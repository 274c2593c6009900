"""Unit tests for the CISC-to-RISC micro-op decoder."""

import pytest

from repro.isa import Imm, Instr, Mem, Op, Reg
from repro.isa.instructions import add, mov, pop, push, ret
from repro.microop import AddrMode, AluOp, DecodePath, Decoder, T0, UopKind


def decode(instr, address=0x400000, index=0, key=0):
    return Decoder().decode(instr, address, index, key)


class TestSimpleTranslations:
    def test_mov_reg_reg(self):
        uops, path = decode(mov(Reg.RAX, Reg.RBX))
        assert [u.kind for u in uops] == [UopKind.MOV]
        assert path is DecodePath.SIMPLE
        assert uops[0].addr_mode is AddrMode.REG_REG

    def test_mov_reg_imm_is_limm(self):
        uops, _ = decode(mov(Reg.RAX, Imm(7)))
        assert uops[0].kind is UopKind.LIMM
        assert uops[0].imm == 7

    def test_load(self):
        uops, _ = decode(mov(Reg.RAX, Mem(base=Reg.RBX, disp=8)))
        assert uops[0].kind is UopKind.LD
        assert uops[0].dst == int(Reg.RAX)

    def test_store(self):
        uops, _ = decode(mov(Mem(base=Reg.RBX), Reg.RCX))
        assert uops[0].kind is UopKind.ST
        assert uops[0].srcs == (int(Reg.RCX),)

    def test_store_immediate_single_uop(self):
        uops, _ = decode(mov(Mem(base=Reg.RBX), Imm(1)))
        assert [u.kind for u in uops] == [UopKind.ST]
        assert uops[0].imm == 1

    def test_lea(self):
        uops, _ = decode(Instr(Op.LEA, (Reg.RAX, Mem(base=Reg.RBX, disp=16))))
        assert uops[0].kind is UopKind.LEA


class TestLoadOpStoreExpansion:
    def test_alu_reg_mem_is_load_op(self):
        uops, path = decode(add(Reg.RAX, Mem(base=Reg.RBX)))
        assert [u.kind for u in uops] == [UopKind.LD, UopKind.ALU]
        assert uops[0].dst == T0
        assert T0 in uops[1].srcs
        assert path is DecodePath.COMPLEX

    def test_alu_mem_reg_is_rmw(self):
        uops, _ = decode(add(Mem(base=Reg.RBX), Reg.RAX))
        assert [u.kind for u in uops] == [UopKind.LD, UopKind.ALU, UopKind.ST]

    def test_inc_mem_is_rmw(self):
        uops, _ = decode(Instr(Op.INC, (Mem(base=Reg.RBX),)))
        assert [u.kind for u in uops] == [UopKind.LD, UopKind.ALU, UopKind.ST]
        assert uops[1].alu is AluOp.ADD and uops[1].imm == 1


class TestStackAndControl:
    def test_push(self):
        uops, _ = decode(push(Reg.RAX))
        assert [u.kind for u in uops] == [UopKind.ALU, UopKind.ST]
        assert uops[0].alu is AluOp.SUB

    def test_pop(self):
        uops, _ = decode(pop(Reg.RAX))
        assert [u.kind for u in uops] == [UopKind.LD, UopKind.ALU]

    def test_call_stores_return_address(self):
        instr = Instr(Op.CALL, (Imm(0x400100),))
        uops, _ = decode(instr, address=0x400020)
        store = uops[1]
        assert store.kind is UopKind.ST
        assert store.imm == 0x400024  # next slot
        assert uops[2].kind is UopKind.JMP
        assert uops[2].target == 0x400100

    def test_ret(self):
        uops, _ = decode(ret())
        assert [u.kind for u in uops] == [UopKind.LD, UopKind.ALU, UopKind.JMP_IND]

    def test_conditional_branch_reads_flags(self):
        uops, _ = decode(Instr(Op.JNE, (Imm(0x400000),)))
        assert uops[0].kind is UopKind.BR
        assert uops[0].reads_flags
        assert uops[0].cond == "jne"

    def test_cmp_writes_flags_no_dst(self):
        uops, _ = decode(Instr(Op.CMP, (Reg.RAX, Imm(3))))
        assert uops[0].writes_flags
        assert uops[0].dst is None


class TestDecoderBookkeeping:
    def test_decode_returns_path(self):
        decoder = Decoder()
        _, simple = decoder.decode(mov(Reg.RAX, Reg.RBX), 0x400000, 0, 1)
        _, complex_ = decoder.decode(ret(), 0x400004, 1, 1)
        assert simple is DecodePath.SIMPLE
        assert complex_ is DecodePath.COMPLEX
        # The cached translation carries the same path on a repeat visit.
        assert decoder.decode(ret(), 0x400004, 1, 1)[1] is DecodePath.COMPLEX

    def test_cache_returns_shared_immutable_templates(self):
        # Native translations are cached and shared (the hot path); callers
        # that need to mutate must use copy_uops().
        from repro.microop.decoder import copy_uops

        decoder = Decoder()
        first, _ = decoder.decode(mov(Reg.RAX, Reg.RBX), 0x400000, 0, 1)
        second, _ = decoder.decode(mov(Reg.RAX, Reg.RBX), 0x400000, 0, 1)
        assert first[0] is second[0]
        copies = copy_uops(first)
        assert copies[0] is not first[0]
        copies[0].pid = 99
        assert first[0].pid == 0

    def test_macro_index_attached(self):
        uops, _ = decode(mov(Reg.RAX, Reg.RBX), index=17)
        assert uops[0].macro_index == 17

    def test_reg_reads_includes_address_registers(self):
        uops, _ = decode(mov(Mem(base=Reg.RBX, index=Reg.RCX, scale=8), Reg.RAX))
        reads = uops[0].reg_reads()
        assert int(Reg.RBX) in reads and int(Reg.RCX) in reads
