"""Unit tests for the microcode customization unit."""

import pytest

from repro.core import Chex86Machine, Variant, traits_of
from repro.core.mcu import (
    CHECK_INJECT,
    CHECK_INJECT_IF_PID,
    CHECK_NEVER,
    CHECK_SUPPRESS_IF_PID,
    MicrocodeCustomizationUnit,
)
from repro.heap import heap_library_asm, registrations_for
from repro.isa import Mem, Reg, assemble
from repro.microop import Uop, UopKind
from repro.workloads import build

PC = 0x400000


@pytest.fixture
def program():
    return assemble("main:\n  halt\n" + heap_library_asm(), name="lib")


def make_mcu(program, variant=Variant.UCODE_PREDICTION, **kwargs):
    return MicrocodeCustomizationUnit(
        registrations_for(program), traits_of(variant), **kwargs)


def load_uop():
    return Uop(UopKind.LD, dst=0, mem=Mem(base=Reg.RBX))


def run_access(line, variant=Variant.UCODE_PREDICTION, tagged=True,
               critical=None):
    """Run ``<line>; halt`` with rbx pointing at the global ``buf`` (and
    tagged with its PID when ``tagged``), once stepped and once replayed;
    returns the MCU counters, which both executors must agree on.
    ``critical`` is True or False to make the access pc the only critical
    range or to leave it outside the only one."""
    program = assemble(f".global buf, 64\nmain:\n  {line}\n  halt\n",
                       name="access")
    ranges = None
    if critical is not None:
        start = program.entry if critical else program.text_end
        ranges = [(start, start + 4)]
    stats = []
    for replay in (False, True):
        machine = Chex86Machine(program, variant=variant,
                                critical_ranges=ranges)
        if replay:
            machine.superblock_compile_entry = 1
        else:
            machine.block_cache_enabled = False
        machine.regs[int(Reg.RBX)] = program.labels["buf"]
        if tagged:
            machine.tracker.set_pid(int(Reg.RBX), machine.global_pid("buf"))
        machine.run()
        assert machine.halted and not machine.violations.flagged
        assert machine.metrics_snapshot()[
            "frontend.superblock_instructions"] == (2 if replay else 0)
        stats.append(machine.mcu.stats.state())
    assert stats[0] == stats[1]
    return stats[0]


class TestHeapInterception:
    # intercept_plan's stat deltas: (entry_intercepts, exit_intercepts,
    # capgen_events, capfree_events, injected_uops).

    def test_malloc_entry_injects_capgen_begin(self, program):
        mcu = make_mcu(program)
        uops, deltas = mcu.intercept_plan(program.labels["malloc"])
        assert [u.kind for u in uops] == [UopKind.CAPGEN_BEGIN]
        assert uops[0].srcs == (int(Reg.RDI),)
        assert uops[0].injected
        assert deltas == (1, 0, 1, 0, 1)

    def test_malloc_exit_injects_capgen_end(self, program):
        mcu = make_mcu(program)
        uops, deltas = mcu.intercept_plan(program.labels["malloc"] + 4)
        assert [u.kind for u in uops] == [UopKind.CAPGEN_END]
        assert uops[0].srcs == (int(Reg.RAX),)
        assert deltas == (0, 1, 0, 0, 1)

    def test_calloc_signature_has_two_size_regs(self, program):
        mcu = make_mcu(program)
        uops, _ = mcu.intercept_plan(program.labels["calloc"])
        assert uops[0].srcs == (int(Reg.RDI), int(Reg.RSI))

    def test_free_entry_and_exit(self, program):
        mcu = make_mcu(program)
        entry, entry_deltas = mcu.intercept_plan(program.labels["free"])
        exit_, exit_deltas = mcu.intercept_plan(program.labels["free"] + 4)
        assert [u.kind for u in entry] == [UopKind.CAPFREE_BEGIN]
        assert [u.kind for u in exit_] == [UopKind.CAPFREE_END]
        assert entry_deltas == (1, 0, 0, 1, 1)
        assert exit_deltas == (0, 1, 0, 0, 1)

    def test_realloc_injects_both_pairs(self, program):
        mcu = make_mcu(program)
        entry, entry_deltas = mcu.intercept_plan(program.labels["realloc"])
        assert [u.kind for u in entry] == [UopKind.CAPFREE_BEGIN,
                                           UopKind.CAPGEN_BEGIN]
        assert entry_deltas == (1, 0, 1, 1, 2)
        exit_, _ = mcu.intercept_plan(program.labels["realloc"] + 4)
        assert [u.kind for u in exit_] == [UopKind.CAPFREE_END,
                                           UopKind.CAPGEN_END]

    def test_ordinary_address_not_intercepted(self, program):
        mcu = make_mcu(program)
        assert mcu.intercept_plan(program.entry) == ([], (0, 0, 0, 0, 0))

    def test_insecure_variant_never_intercepts(self, program):
        mcu = make_mcu(program, variant=Variant.INSECURE)
        assert mcu.intercept_plan(program.labels["malloc"]) == \
            ([], (0, 0, 0, 0, 0))
        assert mcu.stats.entry_intercepts == 0


class TestCheckInjection:
    def test_tracked_policy_skips_untracked(self, program):
        mode, _ = make_mcu(program).static_check_plan(PC, load_uop())
        assert mode == CHECK_INJECT_IF_PID
        stats = run_access("mov rax, [rbx]", tagged=False)
        assert stats["capchecks"] == stats["injected_uops"] == 0

    def test_tracked_policy_checks_tracked(self, program):
        mode, check = make_mcu(program).static_check_plan(PC, load_uop())
        assert mode == CHECK_INJECT_IF_PID
        assert check.kind is UopKind.CAPCHECK and check.injected
        assert not check.check_write
        stats = run_access("mov rax, [rbx]")
        assert stats["capchecks"] == stats["injected_uops"] == 1

    def test_store_check_marks_write(self, program):
        store = Uop(UopKind.ST, srcs=(0,), mem=Mem(base=Reg.RBX))
        _, check = make_mcu(program).static_check_plan(PC, store)
        assert check.check_write
        assert run_access("mov [rbx], rax")["capchecks"] == 1

    def test_always_on_checks_untracked_too(self, program):
        mcu = make_mcu(program, variant=Variant.UCODE_ALWAYS_ON)
        assert mcu.static_check_plan(PC, load_uop())[0] == CHECK_INJECT
        stats = run_access("mov rax, [rbx]", Variant.UCODE_ALWAYS_ON,
                           tagged=False)
        assert stats["capchecks"] == 1

    def test_lsu_policy_never_injects(self, program):
        mcu = make_mcu(program, variant=Variant.HW_ONLY)
        assert mcu.static_check_plan(PC, load_uop()) == (CHECK_NEVER, None)
        assert mcu.lsu_checks()
        stats = run_access("mov rax, [rbx]", Variant.HW_ONLY)
        assert stats["capchecks"] == stats["injected_uops"] == 0

    def test_non_memory_uop_never_checked(self, program):
        mcu = make_mcu(program, variant=Variant.UCODE_ALWAYS_ON)
        assert mcu.static_check_plan(PC, Uop(UopKind.NOP)) == \
            (CHECK_NEVER, None)

    def test_injected_uops_not_rechecked(self, program):
        mcu = make_mcu(program, variant=Variant.UCODE_ALWAYS_ON)
        _, check = mcu.static_check_plan(PC, load_uop())
        assert mcu.static_check_plan(PC, check) == (CHECK_NEVER, None)


class TestContextSensitivity:
    def test_outside_region_suppressed(self, program):
        mcu = make_mcu(program, critical_ranges=[(0x500000, 0x500100)])
        assert mcu.static_check_plan(PC, load_uop()) == \
            (CHECK_SUPPRESS_IF_PID, None)
        stats = run_access("mov rax, [rbx]", critical=False)
        assert stats["capchecks"] == 0
        assert stats["capchecks_suppressed_context"] == 1

    def test_inside_region_checked(self, program):
        mcu = make_mcu(program, critical_ranges=[(0x400000, 0x400100)])
        mode, check = mcu.static_check_plan(0x400050, load_uop())
        assert mode == CHECK_INJECT_IF_PID and check is not None
        stats = run_access("mov rax, [rbx]", critical=True)
        assert stats["capchecks"] == 1
        assert stats["capchecks_suppressed_context"] == 0


class TestZeroIdiom:
    def test_demotion(self):
        # Some of mcf's reloads predict a PID but find none (PNA0); each
        # demotes its injected check to a zero idiom, on both executors.
        workload = build("mcf", 1)
        program = assemble(workload.source, name=workload.name)
        for replay in (False, True):
            machine = Chex86Machine(program, halt_on_violation=False)
            machine.block_cache_enabled = replay
            machine.run()
            snap = machine.metrics_snapshot()
            assert snap["predictor.pna0"] > 0
            assert snap["machine.mcu.zero_idioms"] == snap["predictor.pna0"]


class TestCriticalRangesFor:
    def make_program(self):
        from repro.isa import assemble
        from repro.heap import heap_library_asm
        return assemble("""
main:
    mov rdi, 8
    call malloc
    call parse_input
    halt
parse_input:
    mov rcx, 0
parse_loop:
    add rcx, 1
    cmp rcx, 4
    jne parse_loop
    ret
""" + heap_library_asm(), name="ranges")

    def test_function_extent_spans_internal_labels(self):
        from repro.core import critical_ranges_for
        program = self.make_program()
        (start, end), = critical_ranges_for(program, ["parse_input"])
        assert start == program.labels["parse_input"]
        # The internal parse_loop label must not split the function; the
        # extent runs to the next call target (malloc, the heap library).
        assert end > program.labels["parse_loop"]
        assert end <= program.labels["malloc"]

    def test_unknown_function_raises(self):
        from repro.core import critical_ranges_for
        program = self.make_program()
        with pytest.raises(KeyError):
            critical_ranges_for(program, ["no_such_fn"])

    def test_ranges_drive_surgical_checks(self):
        from repro.core import Chex86Machine, Variant, critical_ranges_for
        from repro.isa import assemble
        from repro.heap import heap_library_asm
        source = """
main:
    mov rdi, 64
    call malloc
    mov rbx, rax
    call touch
    mov [rbx + 8], 2     ; outside the critical region: unchecked
    halt
touch:
    mov [rbx], 1         ; inside the critical region: checked
    ret
""" + heap_library_asm()
        program = assemble(source, name="surgical")
        machine = Chex86Machine(
            program, variant=Variant.UCODE_PREDICTION,
            critical_ranges=critical_ranges_for(program, ["touch"]),
            halt_on_violation=False)
        machine.run()
        assert machine.mcu.stats.capchecks == 1
        assert machine.mcu.stats.capchecks_suppressed_context >= 1
