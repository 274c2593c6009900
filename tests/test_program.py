"""Unit tests for the Program representation and instruction validation."""

import pytest

from repro.isa import (
    CONTROL_FLOW,
    GlobalObject,
    Imm,
    Instr,
    LabelRef,
    Mem,
    Op,
    Program,
    Reg,
    find_mem_refs,
)
from repro.isa.instructions import halt, jmp, mov, nop


class TestAddressing:
    def make(self):
        return Program([nop(label="main"), nop(), halt()], name="p")

    def test_slots_are_four_bytes(self):
        program = self.make()
        assert program.address_of(0) == program.text_base
        assert program.address_of(2) == program.text_base + 8
        assert program.text_end == program.text_base + 12

    def test_index_roundtrip(self):
        program = self.make()
        for i in range(3):
            assert program.index_of(program.address_of(i)) == i

    def test_misaligned_address_rejected(self):
        program = self.make()
        with pytest.raises(ValueError):
            program.index_of(program.text_base + 2)

    def test_out_of_text_rejected(self):
        program = self.make()
        with pytest.raises(ValueError):
            program.index_of(program.text_end)


class TestResolution:
    def test_label_operand_becomes_address(self):
        program = Program([jmp("end", label="main"), nop(), halt(label="end")])
        resolved = program.fetch(program.entry)
        assert resolved.operands[0] == Imm(program.labels["end"])

    def test_symbolic_disp_resolves(self):
        globals_ = [GlobalObject("g", 0x600000, 16)]
        instr = Instr(Op.MOV, (Reg.RAX, Mem(disp=8, disp_symbol="g")))
        program = Program([Instr(Op.NOP, (), label="main"), instr, halt()],
                          globals_)
        mem = program.fetch(program.address_of(1)).operands[1]
        assert mem.disp == 0x600008
        assert mem.disp_symbol is None

    def test_global_symbol_conflicts_with_label(self):
        with pytest.raises(ValueError):
            Program([nop(label="main"), halt()],
                    [GlobalObject("main", 0x600000, 8)])

    def test_undefined_symbol_raises(self):
        with pytest.raises(ValueError):
            Program([jmp("nowhere", label="main")])


class TestSymbolTable:
    def test_hidden_globals_excluded(self):
        globals_ = [GlobalObject("seen", 0x600000, 8),
                    GlobalObject("unseen", 0x600010, 8,
                                 in_symbol_table=False)]
        program = Program([nop(label="main"), halt()], globals_)
        assert [g.name for g in program.symbol_table()] == ["seen"]

    def test_find_mem_refs(self):
        program = Program([
            nop(label="main"),
            mov(Reg.RAX, Mem(base=Reg.RBX)),
            Instr(Op.PUSH, (Reg.RAX,)),
            mov(Reg.RAX, Reg.RBX),
            halt(),
        ])
        assert find_mem_refs(program) == [1, 2]


class TestInstructionValidation:
    def test_mem_to_mem_rejected(self):
        with pytest.raises(ValueError):
            Instr(Op.MOV, (Mem(base=Reg.RAX), Mem(base=Reg.RBX)))

    def test_immediate_destination_rejected(self):
        with pytest.raises(ValueError):
            Instr(Op.ADD, (Imm(1), Reg.RAX))

    def test_ret_takes_no_operands(self):
        with pytest.raises(ValueError):
            Instr(Op.RET, (Reg.RAX,))

    def test_push_requires_register(self):
        with pytest.raises(ValueError):
            Instr(Op.PUSH, (Imm(5),))

    def test_lea_requires_mem_source(self):
        with pytest.raises(ValueError):
            Instr(Op.LEA, (Reg.RAX, Reg.RBX))

    def test_cmp_allows_mem_first_operand(self):
        instr = Instr(Op.CMP, (Mem(base=Reg.RAX), Imm(0)))
        assert instr.mem_operand is not None

    def test_jump_target_kinds(self):
        Instr(Op.JMP, (LabelRef("x"),))
        Instr(Op.JMP, (Imm(0x400000),))
        Instr(Op.JMP, (Reg.RAX,))
        with pytest.raises(ValueError):
            Instr(Op.JMP, (Mem(base=Reg.RAX),))

    def test_control_flow_properties(self):
        assert Op.CALL in CONTROL_FLOW and Op.RET in CONTROL_FLOW
        assert Op.NOP not in CONTROL_FLOW
