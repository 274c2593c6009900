"""Unit tests for the hardware checker and rule auto-construction."""

import pytest

from repro.core import (
    Chex86Machine,
    HardwareChecker,
    RuleAutoConstructor,
    RuleDatabase,
    ShadowCapabilityTable,
    Variant,
)
from repro.microop import AddrMode, AluOp, Uop, UopKind

from conftest import assemble_main


@pytest.fixture
def table():
    table = ShadowCapabilityTable()
    pid, _ = table.begin_generation(64)
    table.end_generation(pid, 0x1000)
    table.seeded_pid = pid
    return table


class TestHardwareChecker:
    def test_ground_truth_inside_block(self, table):
        checker = HardwareChecker(table)
        assert checker.ground_truth_pid(0x1010) == table.seeded_pid

    def test_ground_truth_outside(self, table):
        checker = HardwareChecker(table)
        assert checker.ground_truth_pid(0x9000) == 0

    def test_ground_truth_includes_freed(self, table):
        table.begin_free(table.seeded_pid)
        table.end_free(table.seeded_pid)
        checker = HardwareChecker(table)
        assert checker.ground_truth_pid(0x1010) == table.seeded_pid

    def test_correct_prediction_confirmed(self, table):
        checker = HardwareChecker(table)
        uop = Uop(UopKind.MOV, dst=0, srcs=(1,), addr_mode=AddrMode.REG_REG)
        assert checker.validate(uop, table.seeded_pid, 0x1010, pc=0x400000)
        assert checker.stats.confirmed == 1

    def test_missing_rule_recorded(self, table):
        checker = HardwareChecker(table)
        uop = Uop(UopKind.ALU, alu=AluOp.OR, dst=0, srcs=(0, 1),
                  addr_mode=AddrMode.REG_REG)
        assert not checker.validate(uop, 0, 0x1010, pc=0x400004)
        mismatch = checker.mismatches[0]
        assert mismatch.actual_pid == table.seeded_pid
        assert mismatch.signature == (UopKind.ALU, AluOp.OR, AddrMode.REG_REG)

    def test_untracked_value_with_zero_pid_ok(self, table):
        checker = HardwareChecker(table)
        uop = Uop(UopKind.LIMM, dst=0, addr_mode=AddrMode.REG_IMM)
        assert checker.validate(uop, 0, 12345, pc=0)
        assert checker.validate(uop, -1, 12345, pc=0)

    def test_positive_pid_for_non_address_is_mismatch(self, table):
        checker = HardwareChecker(table)
        uop = Uop(UopKind.MOV, dst=0, srcs=(1,), addr_mode=AddrMode.REG_REG)
        assert not checker.validate(uop, 42, 0x9999999, pc=0)


class TestRuleAutoConstruction:
    """Reproduces Section V-A's incremental database construction."""

    WORKLOAD = """
        mov rdi, 64
        call malloc
        mov rbx, rax          ; needs mov-rr (seed)
        lea rcx, [rbx + 8]    ; needs lea rule (learned)
        sub rcx, 8            ; needs sub-ri rule (learned)
        mov [rbx], rcx        ; needs st rule (learned)
        mov rdx, [rbx]        ; needs ld rule (learned)
        mov rsi, [rdx]
    """

    def profile(self, db):
        program = assemble_main(self.WORKLOAD)
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                rules=db, halt_on_violation=False)
        checker = machine.attach(HardwareChecker(machine.captable))
        machine.run()
        return checker

    def test_seed_database_has_mismatches(self):
        checker = self.profile(RuleDatabase.seed())
        assert checker.stats.mismatches > 0

    def test_full_database_is_clean(self):
        checker = self.profile(RuleDatabase.table1())
        assert checker.stats.mismatches == 0
        assert checker.stats.validations > 0

    def test_construction_converges(self):
        constructor = RuleAutoConstructor(self.profile)
        db, history = constructor.construct()
        assert history[-1].mismatches == 0
        learned = {step.rule_added for step in history if step.rule_added}
        assert "lea" in learned
        # The final database must be checker-clean.
        assert self.profile(db).stats.mismatches == 0

    def test_construction_stops_without_candidates(self):
        constructor = RuleAutoConstructor(self.profile, catalog=[])
        db, history = constructor.construct()
        assert history[-1].rule_added is None
        assert history[-1].mismatches > 0
