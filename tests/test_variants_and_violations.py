"""Tests for variant traits, the violation taxonomy, and the heap library."""

import pytest

from repro.core import (
    CapabilityException,
    CheckPolicy,
    FIGURE6_ORDER,
    Variant,
    Violation,
    ViolationKind,
    ViolationLog,
    traits_of,
)
from repro.heap import (
    HEAP_FUNCTIONS,
    HeapFnKind,
    heap_library_asm,
    registrations_for,
)
from repro.isa import Reg, assemble


class TestVariantTraits:
    def test_five_design_points(self):
        assert len(FIGURE6_ORDER) == 5
        assert FIGURE6_ORDER[0] is Variant.INSECURE

    def test_insecure_does_nothing(self):
        traits = traits_of(Variant.INSECURE)
        assert not traits.tracks_pointers
        assert not traits.intercepts_heap
        assert traits.check_policy is CheckPolicy.NONE

    def test_all_protected_variants_track_and_intercept(self):
        for variant in FIGURE6_ORDER[1:]:
            traits = traits_of(variant)
            assert traits.tracks_pointers
            assert traits.intercepts_heap
            assert traits.check_policy is not CheckPolicy.NONE

    def test_only_bt_rides_the_macro_stream(self):
        assert traits_of(Variant.BINARY_TRANSLATION).checks_in_macro_stream
        for variant in (Variant.HW_ONLY, Variant.UCODE_ALWAYS_ON,
                        Variant.UCODE_PREDICTION):
            assert not traits_of(variant).checks_in_macro_stream

    def test_check_policies(self):
        assert traits_of(Variant.HW_ONLY).check_policy is CheckPolicy.LSU
        assert traits_of(Variant.UCODE_ALWAYS_ON).check_policy \
            is CheckPolicy.ALL_MEM
        assert traits_of(Variant.UCODE_PREDICTION).check_policy \
            is CheckPolicy.TRACKED


class TestViolationLog:
    def test_count_by_kind(self):
        log = ViolationLog()
        log.record(Violation(ViolationKind.OUT_OF_BOUNDS, pid=1))
        log.record(Violation(ViolationKind.OUT_OF_BOUNDS, pid=2))
        log.record(Violation(ViolationKind.DOUBLE_FREE, pid=3))
        assert log.count() == 3
        assert log.count(ViolationKind.OUT_OF_BOUNDS) == 2
        assert log.count(ViolationKind.USE_AFTER_FREE) == 0
        assert log.flagged

    def test_kinds_sequence(self):
        log = ViolationLog()
        log.record(Violation(ViolationKind.HEAP_SPRAY, pid=1))
        assert log.kinds() == [ViolationKind.HEAP_SPRAY]

    def test_exception_carries_violation(self):
        violation = Violation(ViolationKind.WILD_DEREFERENCE, pid=-1,
                              address=0x123, detail="test")
        exc = CapabilityException(violation)
        assert exc.violation is violation
        assert "wild-dereference" in str(exc)

    def test_violation_str_is_informative(self):
        violation = Violation(ViolationKind.OUT_OF_BOUNDS, pid=5,
                              address=0xBEEF, instr_address=0x400020)
        text = str(violation)
        assert "out-of-bounds" in text
        assert "0xbeef" in text
        assert "0x400020" in text


class TestHeapLibrary:
    def test_four_functions(self):
        assert HEAP_FUNCTIONS == ("malloc", "calloc", "realloc", "free")

    def test_asm_defines_all_labels(self):
        text = heap_library_asm()
        for name in HEAP_FUNCTIONS:
            assert f"{name}:" in text

    def test_registrations_cover_linked_functions(self):
        program = assemble("main:\n  halt\n" + heap_library_asm())
        registrations = {r.name: r for r in registrations_for(program)}
        assert set(registrations) == set(HEAP_FUNCTIONS)
        assert registrations["malloc"].kind is HeapFnKind.ALLOC
        assert registrations["malloc"].size_regs == (Reg.RDI,)
        assert registrations["calloc"].size_regs == (Reg.RDI, Reg.RSI)
        assert registrations["realloc"].kind is HeapFnKind.REALLOC
        assert registrations["realloc"].ptr_reg is Reg.RDI
        assert registrations["free"].ptr_reg is Reg.RDI

    def test_exit_is_entry_plus_one_slot(self):
        program = assemble("main:\n  halt\n" + heap_library_asm())
        for registration in registrations_for(program):
            assert registration.exit == registration.entry + 4

    def test_unlinked_functions_not_registered(self):
        program = assemble(
            "main:\n  halt\nmalloc:\n  hostop heap_malloc\n  ret\n")
        registrations = registrations_for(program)
        assert [r.name for r in registrations] == ["malloc"]


class TestCweMapping:
    def test_every_kind_has_a_cwe(self):
        for kind in ViolationKind:
            assert kind.cwe.startswith("CWE-")

    def test_canonical_assignments(self):
        assert ViolationKind.USE_AFTER_FREE.cwe == "CWE-416"
        assert ViolationKind.DOUBLE_FREE.cwe == "CWE-415"
        assert ViolationKind.OUT_OF_BOUNDS.cwe == "CWE-787/125"

    def test_diagnostics_report_names_the_cwe(self):
        from repro.analysis.diagnostics import explain_violation
        from repro.core import Chex86Machine, Variant
        from conftest import assemble_main

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
        machine.run()
        assert "CWE-416" in explain_violation(machine)
