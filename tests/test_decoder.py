"""Unit tests for the CISC-to-RISC micro-op decoder."""

import itertools

import pytest

from repro.isa import Imm, Instr, LabelRef, Mem, Op, Reg
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
        # Native translations are cached and shared (the hot path), so no
        # caller may stamp them: a run that injects checks and tags
        # registers leaves every cached uop as decoded.
        from repro.core import Chex86Machine
        from repro.heap import heap_library_asm
        from repro.isa import assemble

        decoder = Decoder()
        first, _ = decoder.decode(mov(Reg.RAX, Reg.RBX), 0x400000, 0, 1)
        second, _ = decoder.decode(mov(Reg.RAX, Reg.RBX), 0x400000, 0, 1)
        assert first[0] is second[0]
        program = assemble("main:\n  mov rdi, 64\n  call malloc\n"
                           "  mov [rax], rdi\n  halt\n" + heap_library_asm(),
                           name="shared")
        machine = Chex86Machine(program)
        machine.run()
        assert machine.mcu.stats.capchecks == 1
        cached = [uop for uops, _ in machine.decoder._cache.values()
                  for uop in uops]
        assert cached
        assert all(uop.pid == 0 and not uop.injected for uop in cached)

    def test_only_call_and_ret_jumps_are_subroutine_linkage(self):
        """A direct call's jump pushes the return-address stack and a
        ret's indirect jump pops it; every other jump leaves it alone."""
        def marked(instr):
            return [uop.subroutine for uop in decode(instr)[0]]

        assert marked(Instr(Op.CALL, (Imm(0x400100),))) \
            == [False, False, True]
        assert marked(ret()) == [False, False, True]
        assert marked(Instr(Op.CALL, (Reg.RAX,))) == [False, False, False]
        assert marked(Instr(Op.JMP, (Imm(0x400100),))) == [False]
        assert marked(Instr(Op.JMP, (Reg.RAX,))) == [False]
        assert marked(Instr(Op.JE, (Imm(0x400100),))) == [False]

    def test_reg_reads_includes_address_registers(self):
        uops, _ = decode(mov(Mem(base=Reg.RBX, index=Reg.RCX, scale=8), Reg.RAX))
        reads = uops[0].reg_reads()
        assert int(Reg.RBX) in reads and int(Reg.RCX) in reads


class TestStoreEndsAliasWork:
    """A store's alias update can wait for the end of its instruction in
    one slot, with no store-to-load forwarding: no translation makes two
    stores, and after a store only the jump of a ``call`` follows.  A
    jump reads neither the alias table, the alias cache nor the TLB
    alias bit, and cannot trap.  (Heap-interception uops run before the
    native ones, and an injected check before its own memory uop.)"""

    def test_every_translation(self):
        samples = (Reg.RAX, Imm(8), Mem(base=Reg.RBX, disp=8))
        decoded = set()
        for op in Op:
            if op is Op.HOSTOP:  # the assembler resolves other labels
                samples_for_op = (LabelRef("malloc"),)
            else:
                samples_for_op = samples
            for count in range(3):
                for operands in itertools.product(samples_for_op,
                                                  repeat=count):
                    try:
                        uops, _ = decode(Instr(op, operands))
                    except (ValueError, NotImplementedError):
                        continue  # not a valid (or resolved) form
                    decoded.add(op)
                    kinds = [uop.kind for uop in uops]
                    if UopKind.ST in kinds:
                        after = kinds[kinds.index(UopKind.ST) + 1:]
                        assert set(after) <= {UopKind.JMP, UopKind.JMP_IND}, \
                            (op, operands)
        assert decoded == set(Op)
