"""Tests for the violation diagnostics reporter."""

import pytest

from repro.analysis.diagnostics import explain_violation
from repro.core import Chex86Machine, Variant
from repro.telemetry import ProvenanceRecorder

from conftest import assemble_main


def machine_with_violation(body, globals_asm=""):
    program = assemble_main(body, globals_asm=globals_asm)
    machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                            halt_on_violation=False)
    machine.run(max_instructions=100_000)
    return machine


class TestExplainViolation:
    def test_oob_report_has_all_sections(self):
        machine = machine_with_violation("""
    mov rdi, 64
    call malloc
    mov [rax + 72], 1
""")
        report = explain_violation(machine)
        assert "OUT-OF-BOUNDS" in report
        assert "=>" in report                      # faulting instruction
        assert "mov [rax + 72], 1" in report
        assert "capability: PID" in report
        assert "past the end" in report
        assert "allocator: allocation #0" in report
        assert "hint:" in report

    def test_underflow_distance(self):
        machine = machine_with_violation("""
    mov rdi, 64
    call malloc
    mov rbx, [rax - 16]
""")
        report = explain_violation(machine)
        assert "below the base" in report

    def test_uaf_report_marks_freed(self):
        machine = machine_with_violation("""
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rcx, [rbx]
""")
        report = explain_violation(machine)
        assert "USE-AFTER-FREE" in report
        assert "FREED/invalid" in report
        assert "currently freed" in report

    def test_wild_dereference_names_movi(self):
        machine = machine_with_violation("""
    movabs rbx, 0x7fff4000
    mov rax, [rbx]
""")
        report = explain_violation(machine)
        assert "WILD-DEREFERENCE" in report
        assert "PID(-1)" in report
        assert "constant pool" in report

    def test_double_free_hint(self):
        machine = machine_with_violation("""
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rdi, rbx
    call free
""")
        report = explain_violation(machine)
        assert "DOUBLE-FREE" in report
        assert "two ownership paths" in report

    def test_no_violation_case(self):
        machine = machine_with_violation("    mov rax, 1")
        assert explain_violation(machine) == "no violations recorded"

    def test_explicit_violation_argument(self):
        machine = machine_with_violation("""
    mov rdi, 64
    call malloc
    mov [rax + 72], 1
    mov [rax + 80], 1
""")
        second = machine.violations.violations[1]
        report = explain_violation(machine, second)
        assert "mov [rax + 80], 1" in report


class TestDisasmWindowEdges:
    """The disassembly window must render for *any* pc a violation can
    carry, degrading to explanatory lines instead of raising."""

    def make_machine(self, body="    mov rax, 1"):
        program = assemble_main(body)
        return Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                             halt_on_violation=False)

    def test_first_instruction_window_is_clamped(self):
        from repro.analysis.diagnostics import _disasm_window

        machine = self.make_machine()
        base = machine.program.text_base
        lines = _disasm_window(machine, base)
        assert any(line.startswith("=>") for line in lines)
        assert f"{base:#x}" in "\n".join(lines)

    def test_last_instruction_window_is_clamped(self):
        from repro.analysis.diagnostics import _disasm_window

        machine = self.make_machine()
        program = machine.program
        last = program.address_of(len(program) - 1)
        lines = _disasm_window(machine, last)
        assert any(line.startswith("=>") for line in lines)

    def test_wild_pc_outside_text(self):
        from repro.analysis.diagnostics import _disasm_window

        machine = self.make_machine()
        lines = _disasm_window(machine, 0x7FFF_4000)
        assert lines == ["  0x7fff4000:  <outside text section>"]

    def test_pc_zero_outside_text(self):
        from repro.analysis.diagnostics import _disasm_window

        machine = self.make_machine()
        assert _disasm_window(machine, 0) \
            == ["  0x0:  <outside text section>"]

    def test_misaligned_pc_snaps_to_enclosing_slot(self):
        from repro.analysis.diagnostics import _disasm_window

        machine = self.make_machine()
        pc = machine.program.text_base + 3  # mid-slot
        lines = _disasm_window(machine, pc)
        assert lines[0].endswith("<misaligned pc; showing enclosing slot>")
        assert any(line.startswith("=>") for line in lines)

    def test_non_integer_pc_degrades(self):
        from repro.analysis.diagnostics import _disasm_window

        machine = self.make_machine()
        lines = _disasm_window(machine, None)
        assert lines == ["  None:  <outside text section>"]


class TestProvenanceSection:
    def test_armed_report_renders_chain(self):
        program = assemble_main("""
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rcx, [rbx]
""")
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        machine.attach(ProvenanceRecorder(program))
        machine.run(max_instructions=100_000)
        report = explain_violation(machine)
        assert "provenance:" in report
        assert "allocated" in report
        assert "freed" in report
        assert "faulting access" in report

    def test_unarmed_report_has_no_provenance_section(self):
        machine = machine_with_violation("""
    mov rdi, 64
    call malloc
    mov [rax + 72], 1
""")
        assert "provenance:" not in explain_violation(machine)


class TestExplainAllViolations:
    def test_every_violation_reported(self):
        from repro.analysis.diagnostics import explain_all_violations

        machine = machine_with_violation("""
    mov rdi, 64
    call malloc
    mov [rax + 72], 1
    mov [rax + 80], 1
""")
        assert len(machine.violations.violations) == 2
        report = explain_all_violations(machine)
        assert "2 violation(s) recorded" in report
        assert "violation 1 of 2" in report
        assert "violation 2 of 2" in report
        assert "mov [rax + 72], 1" in report
        assert "mov [rax + 80], 1" in report

    def test_no_violations(self):
        from repro.analysis.diagnostics import explain_all_violations

        machine = machine_with_violation("    mov rax, 1")
        assert explain_all_violations(machine) == "no violations recorded"
