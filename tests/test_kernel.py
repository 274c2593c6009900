"""Tests for the MSR interface and the OS process loader."""

import pytest

from repro.core import Variant, ViolationKind
from repro.heap import HeapFnKind, heap_library_asm, registrations_for
from repro.isa import Reg, assemble
from repro.kernel import (
    MAX_REGISTRATIONS,
    MSR_CHEX86_MAX_ALLOC,
    MsrError,
    MsrFile,
    ProcessLoader,
)

from conftest import assemble_main


@pytest.fixture
def program():
    return assemble_main("""
    mov rdi, 64
    call malloc
    mov [rax + 64], 1
""")


class TestMsrFile:
    def test_raw_read_write(self):
        msr = MsrFile()
        msr.wrmsr(MSR_CHEX86_MAX_ALLOC, 1 << 20)
        assert msr.rdmsr(MSR_CHEX86_MAX_ALLOC) == 1 << 20

    def test_unimplemented_msr_rejected(self):
        msr = MsrFile()
        with pytest.raises(MsrError):
            msr.wrmsr(0xDEAD, 1)
        with pytest.raises(MsrError):
            msr.rdmsr(0xDEAD)

    def test_registration_roundtrip(self, program):
        msr = MsrFile()
        original = registrations_for(program)
        for registration in original:
            msr.register_function(registration)
        decoded = msr.registered_functions()
        assert len(decoded) == len(original)
        for a, b in zip(original, decoded):
            assert (a.name, a.kind, a.entry, a.exit) == \
                   (b.name, b.kind, b.entry, b.exit)
            assert a.size_regs == b.size_regs
            assert a.ptr_reg == b.ptr_reg

    def test_model_specific_registration_limit(self, program):
        msr = MsrFile()
        registration = registrations_for(program)[0]
        for _ in range(MAX_REGISTRATIONS):
            msr.register_function(registration)
        with pytest.raises(MsrError):
            msr.register_function(registration)

    def test_save_restore_roundtrip(self, program):
        msr = MsrFile()
        for registration in registrations_for(program):
            msr.register_function(registration)
        snapshot = msr.save()
        msr.clear()
        assert msr.registered_functions() == []
        msr.restore(snapshot)
        assert len(msr.registered_functions()) == 4

    def test_protection_enable_bit(self):
        msr = MsrFile()
        assert not msr.protection_enabled
        msr.enable_protection()
        assert msr.protection_enabled


class TestProcessLoader:
    def test_machine_built_from_msrs_detects_violations(self, program):
        loader = ProcessLoader()
        process = loader.create_process(program,
                                        variant=Variant.UCODE_PREDICTION)
        machine = loader.attach_machine(process, halt_on_violation=False)
        result = machine.run()
        assert result.violations.count(ViolationKind.OUT_OF_BOUNDS) == 1

    def test_disabled_protection_bit_disables_checks(self, program):
        loader = ProcessLoader()
        process = loader.create_process(program, variant=Variant.INSECURE)
        machine = loader.attach_machine(process, halt_on_violation=False)
        result = machine.run()
        assert not result.flagged

    def test_max_alloc_msr_reaches_capgen(self):
        huge_alloc = assemble_main("""
    mov rdi, 0x200000
    call malloc
""")
        loader = ProcessLoader()
        process = loader.create_process(huge_alloc,
                                        max_alloc_bytes=1 << 20)
        machine = loader.attach_machine(process, halt_on_violation=False)
        result = machine.run()
        assert result.violations.count(ViolationKind.HEAP_SPRAY) == 1

    def test_context_switch_isolates_processes(self, program):
        loader = ProcessLoader()
        a = loader.create_process(program, max_alloc_bytes=1 << 16)
        tiny = assemble_main("    nop")
        b = loader.create_process(tiny, max_alloc_bytes=1 << 24)
        loader.context_switch(a.pid)
        assert loader.msr.max_alloc_bytes == 1 << 16
        loader.context_switch(b.pid)
        assert loader.msr.max_alloc_bytes == 1 << 24
        loader.context_switch(a.pid)
        assert loader.msr.max_alloc_bytes == 1 << 16
        assert len(loader.msr.registered_functions()) == 4

    def test_unregistered_function_not_intercepted(self):
        """A program whose allocator the kernel did NOT register gets no
        capabilities — the paper's 'memory allocated using an unregistered
        heap management function' case."""
        text = """
main:
    mov rdi, 64
    call my_alloc
    mov [rax + 64], 1
    halt
my_alloc:
    hostop heap_malloc
    ret
"""
        program = assemble(text, name="custom-alloc")
        loader = ProcessLoader()
        process = loader.create_process(program,
                                        variant=Variant.UCODE_PREDICTION)
        machine = loader.attach_machine(process, halt_on_violation=False)
        result = machine.run()
        # No registration -> no capGen -> the OOB goes unflagged.
        assert loader.msr.registered_functions() == []
        assert not result.flagged

    def test_static_analysis_objects_get_capabilities(self):
        """'Our approach is flexible enough to be configured with metadata
        derived from more sophisticated static analysis' (Section IV-C)."""
        tiny = assemble_main("    nop")
        loader = ProcessLoader()
        process = loader.create_process(tiny)
        machine = loader.attach_machine(
            process, static_analysis_objects=[(0x700000, 128)],
            halt_on_violation=False)
        pid = machine._global_pids["static_analysis_0"]
        assert pid > 0
        capability = machine.captable.get(pid)
        assert capability.base == 0x700000 and capability.bounds == 128

    def test_create_process_does_not_clobber_running_msrs(self):
        """Regression: creating process B while A is attached must not
        corrupt A's MSR state at the next context switch."""
        loader = ProcessLoader()
        a = loader.create_process(assemble_main("    nop"),
                                  max_alloc_bytes=1 << 30)
        loader.attach_machine(a, halt_on_violation=False)  # A is running
        b = loader.create_process(assemble_main("    halt"),
                                  max_alloc_bytes=1 << 20)
        loader.context_switch(b.pid)
        loader.context_switch(a.pid)
        assert loader.msr.max_alloc_bytes == 1 << 30
