"""Unit tests for the pointer tracker (one PID per register)."""

import pytest

from repro.core import MEMORY_POLICY, RuleDatabase, SpeculativePointerTracker, WILD_PID
from repro.isa import Mem, Reg
from repro.microop import AddrMode, AluOp, Uop, UopKind

RAX, RBX, RCX = int(Reg.RAX), int(Reg.RBX), int(Reg.RCX)


@pytest.fixture
def tracker():
    return SpeculativePointerTracker(RuleDatabase.table1())


class TestTagLifecycle:
    """One PID per register: no wrong path runs, so a write is final."""

    def test_initially_untagged(self, tracker):
        assert tracker.current_pid(RAX) == 0

    def test_tag_write_visible_at_once(self, tracker):
        tracker.set_pid(RAX, 7)
        assert tracker.current_pid(RAX) == 7
        assert tracker.state()["tags"][RAX] == 7

    def test_highest_sequence_wins(self, tracker):
        # The younger write (higher sequence number) is the tag.
        tracker.set_pid(RAX, 7)
        tracker.set_pid(RAX, 9)
        assert tracker.current_pid(RAX) == 9


class TestRuleApplication:
    def test_mov_propagates(self, tracker):
        tracker.set_pid(RBX, 5)
        uop = Uop(UopKind.MOV, dst=RAX, srcs=(RBX,), addr_mode=AddrMode.REG_REG)
        tracker.apply(uop)
        assert tracker.current_pid(RAX) == 5
        assert tracker.stats.transfers == 1

    def test_pointer_arithmetic_chain(self, tracker):
        tracker.set_pid(RBX, 5)
        add = Uop(UopKind.ALU, alu=AluOp.ADD, dst=RCX, srcs=(RCX, RBX),
                  addr_mode=AddrMode.REG_REG)
        tracker.apply(add)
        assert tracker.current_pid(RCX) == 5

    def test_limm_tags_wild(self, tracker):
        uop = Uop(UopKind.LIMM, dst=RAX, imm=0x7FFF0000, addr_mode=AddrMode.REG_IMM)
        tracker.apply(uop)
        assert tracker.current_pid(RAX) == WILD_PID
        assert tracker.stats.wild_assignments == 1

    def test_load_returns_memory_policy(self, tracker):
        uop = Uop(UopKind.LD, dst=RAX, mem=Mem(base=Reg.RBX),
                  addr_mode=AddrMode.REG_MEM)
        assert tracker.apply(uop) is MEMORY_POLICY

    def test_xor_zeroes(self, tracker):
        tracker.set_pid(RAX, 5)
        uop = Uop(UopKind.ALU, alu=AluOp.XOR, dst=RAX, srcs=(RAX, RAX),
                  addr_mode=AddrMode.REG_REG)
        tracker.apply(uop)
        assert tracker.current_pid(RAX) == 0


class TestBasePid:
    def test_base_register_pid(self, tracker):
        tracker.set_pid(RBX, 8)
        uop = Uop(UopKind.LD, dst=RAX, mem=Mem(base=Reg.RBX))
        assert tracker.base_pid(uop) == 8

    def test_absolute_address_is_untracked(self, tracker):
        uop = Uop(UopKind.LD, dst=RAX, mem=Mem(disp=0x600000))
        assert tracker.base_pid(uop) == 0

    def test_no_mem_operand(self, tracker):
        assert tracker.base_pid(Uop(UopKind.NOP)) == 0


class TestSnapshot:
    def test_snapshot_lists_tagged_registers(self, tracker):
        tracker.set_pid(RAX, 3)
        tracker.set_pid(RBX, WILD_PID)
        snap = tracker.snapshot()
        assert snap == {RAX: 3, RBX: WILD_PID}
