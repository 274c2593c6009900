"""Unit and integration tests for the AddressSanitizer model."""

import pytest

from repro.core import Chex86Machine, Variant, ViolationKind
from repro.heap import HeapAllocator, heap_library_asm
from repro.isa import Op, Reg, assemble
from repro.memory import Memory
from repro.pipeline.system import System
from repro.sanitizer import (
    AsanRuntime,
    InstrumentationError,
    POISON_FREED,
    POISON_NONE,
    POISON_REDZONE,
    REDZONE_BYTES,
    REPORT_LABEL,
    SHADOW_BASE,
    ShadowMemory,
    instrument_program,
    needs_check,
    sanitize,
    shadow_address,
)


def run_asan(body, globals_asm="", trap=True):
    source = (globals_asm + "main:\n" + body + "\n    halt\n"
              + heap_library_asm())
    program = assemble(source, name="asan-test")
    system = System()
    sanitized, runtime, report = sanitize(program, system.allocator)
    machine = Chex86Machine(sanitized, variant=Variant.INSECURE,
                            system=system, host_hooks=runtime.host_hooks(),
                            halt_on_violation=trap)
    result = machine.run(max_instructions=300_000)
    return machine, result, runtime, report


class TestShadowMemory:
    def test_shadow_address_mapping(self):
        assert shadow_address(0x1000) == SHADOW_BASE + 0x1000
        assert shadow_address(0x1007) == SHADOW_BASE + 0x1000  # same word

    def test_poison_unpoison_roundtrip(self):
        shadow = ShadowMemory(Memory())
        shadow.poison_range(0x1000, 32, POISON_REDZONE)
        assert shadow.poison_value(0x1010) == POISON_REDZONE
        shadow.unpoison_range(0x1000, 32)
        assert shadow.poison_value(0x1010) == POISON_NONE

    def test_poison_covers_partial_words(self):
        shadow = ShadowMemory(Memory())
        shadow.poison_range(0x1004, 8, POISON_FREED)
        assert shadow.poison_value(0x1000) == POISON_FREED
        assert shadow.poison_value(0x1008) == POISON_FREED


class TestRuntime:
    def make(self, quarantine=1 << 20):
        return AsanRuntime(HeapAllocator(Memory()), quarantine)

    def test_malloc_surrounded_by_redzones(self):
        runtime = self.make()
        user = runtime.malloc(64)
        assert runtime.shadow.poison_value(user - 8) == POISON_REDZONE
        assert runtime.shadow.poison_value(user + 64) == POISON_REDZONE
        assert runtime.shadow.poison_value(user) == POISON_NONE
        assert runtime.shadow.poison_value(user + 56) == POISON_NONE

    def test_free_poisons_object(self):
        runtime = self.make()
        user = runtime.malloc(64)
        runtime.free(user)
        assert runtime.shadow.poison_value(user) == POISON_FREED

    def test_quarantine_delays_reuse(self):
        runtime = self.make()
        first = runtime.malloc(64)
        runtime.free(first)
        second = runtime.malloc(64)
        assert second != first  # quarantined, not immediately reused

    def test_quarantine_eviction_reenables_reuse(self):
        runtime = self.make(quarantine=128)
        first = runtime.malloc(64)
        runtime.free(first)
        for _ in range(4):
            runtime.free(runtime.malloc(64))
        assert runtime.stats.quarantine_evictions > 0

    def test_huge_request_rejected(self):
        runtime = self.make()
        assert runtime.malloc(2 << 30) == 0
        assert runtime.stats.rejected_allocs == 1

    def test_realloc_preserves_and_frees(self):
        runtime = self.make()
        user = runtime.malloc(16)
        runtime.allocator.memory.write_word(user, 99)
        bigger = runtime.realloc(user, 256)
        assert runtime.allocator.memory.read_word(bigger) == 99
        assert runtime.shadow.poison_value(user) == POISON_FREED


class TestInstrumentationPass:
    def test_check_inserted_before_heap_access(self):
        program = assemble("main:\n    mov rax, [rbx]\n    halt\n")
        sanitized, report = instrument_program(program)
        assert report.instrumented_accesses == 1
        ops = [i.op for i in sanitized.instrs]
        assert Op.TEST in ops and Op.JNE in ops

    def test_stack_accesses_skipped(self):
        program = assemble("main:\n    mov rax, [rsp + 8]\n    halt\n")
        sanitized, report = instrument_program(program)
        assert report.instrumented_accesses == 0
        assert report.skipped_stack_accesses == 1

    def test_labels_preserved_on_instrumented_instruction(self):
        program = assemble(
            "main:\n    jmp target\ntarget:\n    mov rax, [rbx]\n    halt\n")
        sanitized, _ = instrument_program(program)
        assert "target" in sanitized.labels
        assert REPORT_LABEL in sanitized.labels

    def test_reserved_register_use_rejected(self):
        program = assemble("main:\n    mov r15, 5\n    halt\n")
        with pytest.raises(InstrumentationError):
            instrument_program(program)

    def test_needs_check_classification(self):
        program = assemble(
            "main:\n    mov rax, [rbx]\n    push rax\n    lea rcx, [rbx]\n"
            "    halt\n")
        flags = [needs_check(i) for i in program.instrs]
        assert flags == [True, False, False, False]


class TestEndToEnd:
    def test_oob_write_detected(self):
        _, result, _, _ = run_asan("""
    mov rdi, 64
    call malloc
    mov [rax + 64], 1
""")
        assert result.violations.count(ViolationKind.OUT_OF_BOUNDS) == 1

    def test_uaf_detected_via_quarantine(self):
        _, result, _, _ = run_asan("""
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rcx, [rbx]
""")
        assert result.violations.count(ViolationKind.USE_AFTER_FREE) == 1

    def test_double_free_detected(self):
        _, result, _, _ = run_asan("""
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rdi, rbx
    call free
""")
        assert result.violations.count(ViolationKind.DOUBLE_FREE) == 1

    def test_benign_program_passes_with_expansion(self):
        machine, result, _, report = run_asan("""
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov [rbx], 5
    mov rcx, [rbx]
    mov rdi, rbx
    call free
""")
        assert not result.flagged
        assert result.halted
        assert report.instrumented_accesses == 2
        assert machine.regs[Reg.RCX] == 5

    def test_deep_uaf_defeats_small_quarantine(self):
        """ASan's known limitation: enough churn flushes the quarantine and
        the UAF goes undetected — unlike CHEx86's capability approach."""
        _, result, _, _ = run_asan("""
    mov rdi, 64
    call malloc
    mov rbx, rax
    mov rdi, rax
    call free
    mov rcx, 0
churn:
    mov rdi, 64
    call malloc
    mov rdi, rax
    call free
    add rcx, 1
    cmp rcx, 40
    jne churn
    mov rdx, [rbx]
""")
        # With the default 1MB quarantine this IS still caught; disable the
        # quarantine (the limit case of enough churn) to show the miss:
        # the freed chunk is reused immediately, the reuse unpoisons the
        # shadow, and the stale pointer reads fresh memory unflagged.
        program = assemble(
            "main:\n"
            "    mov rdi, 64\n    call malloc\n    mov rbx, rax\n"
            "    mov rdi, rax\n    call free\n"
            "    mov rdi, 64\n    call malloc\n"
            "    mov rdx, [rbx]\n    halt\n" + heap_library_asm(),
            name="uaf-churn")
        system = System()
        sanitized, runtime, _ = sanitize(program, system.allocator,
                                         quarantine_capacity=0)
        machine = Chex86Machine(sanitized, variant=Variant.INSECURE,
                                system=system,
                                host_hooks=runtime.host_hooks(),
                                halt_on_violation=True)
        small_q = machine.run(max_instructions=300_000)
        assert not small_q.flagged  # the UAF slipped past ASan
