"""Differential fuzzing: CHEx86 must be architecturally transparent.

The paper's core promise is *transparent* protection of unmodified
binaries: for a program with no memory-safety violations, running under
any CHEx86 variant must produce exactly the architectural state the
insecure baseline produces — same registers, same memory contents, no
flagged violations.  A constrained random-program generator plus a
differential run checks that invariant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Chex86Machine, Variant
from repro.fuzz import architectural_state
from repro.heap import heap_library_asm
from repro.isa import assemble

#: Registers the generator uses for data (avoids rsp/rbp and ASan's r13-15).
DATA_REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "r8", "r9", "r10")
PTR_REGS = ("r11", "r12")

VARIANTS = (Variant.HW_ONLY, Variant.BINARY_TRANSLATION,
            Variant.UCODE_ALWAYS_ON, Variant.UCODE_PREDICTION)


@st.composite
def violation_free_program(draw):
    """A random program: arithmetic, in-bounds heap traffic, loops, calls."""
    lines = ["main:"]
    # Seed the data registers.
    for reg in DATA_REGS:
        lines.append(f"    mov {reg}, {draw(st.integers(0, 1 << 16))}")
    # Two heap buffers, kept in the pointer registers.
    size = draw(st.sampled_from([32, 64, 128]))
    for reg in PTR_REGS:
        lines.append(f"    mov rdi, {size}")
        lines.append("    call malloc")
        lines.append(f"    mov {reg}, rax")
    n_ops = draw(st.integers(min_value=3, max_value=25))
    for i in range(n_ops):
        choice = draw(st.integers(0, 6))
        a = draw(st.sampled_from(DATA_REGS))
        b = draw(st.sampled_from(DATA_REGS))
        if choice == 0:
            op = draw(st.sampled_from(["add", "sub", "and", "or", "xor",
                                       "imul"]))
            lines.append(f"    {op} {a}, {b}")
        elif choice == 1:
            lines.append(f"    mov {a}, {draw(st.integers(0, 1 << 20))}")
        elif choice == 2:  # in-bounds store
            ptr = draw(st.sampled_from(PTR_REGS))
            offset = draw(st.integers(0, size // 8 - 1)) * 8
            lines.append(f"    mov [{ptr} + {offset}], {a}")
        elif choice == 3:  # in-bounds load
            ptr = draw(st.sampled_from(PTR_REGS))
            offset = draw(st.integers(0, size // 8 - 1)) * 8
            lines.append(f"    mov {a}, [{ptr} + {offset}]")
        elif choice == 4:  # a short counted loop
            count = draw(st.integers(2, 6))
            body = draw(st.sampled_from([r for r in DATA_REGS if r != a]))
            lines.append(f"    mov {a}, 0")
            lines.append(f"loop{i}:")
            lines.append(f"    add {body}, 3")
            lines.append(f"    add {a}, 1")
            lines.append(f"    cmp {a}, {count}")
            lines.append(f"    jl loop{i}")
        elif choice == 5:  # stack spill/reload
            lines.append(f"    push {a}")
            lines.append(f"    pop {b}")
        else:  # pointer copy then in-bounds use (Table I traffic)
            ptr = draw(st.sampled_from(PTR_REGS))
            lines.append(f"    mov rsi, {ptr}")
            lines.append("    mov rdx, [rsi]")
    # Free one buffer (never touched again).
    lines.append(f"    mov rdi, {PTR_REGS[0]}")
    lines.append("    call free")
    lines.append(f"    mov {PTR_REGS[0]}, 0")
    lines.append("    halt")
    return "\n".join(lines) + "\n" + heap_library_asm()


@settings(max_examples=20, deadline=None)
@given(source=violation_free_program())
def test_all_variants_architecturally_transparent(source):
    program = assemble(source, name="fuzz")
    reference = Chex86Machine(program, variant=Variant.INSECURE)
    reference_result = reference.run(max_instructions=20_000)
    assert reference_result.halted
    expected = architectural_state(reference)
    for variant in VARIANTS:
        machine = Chex86Machine(program, variant=variant,
                                halt_on_violation=True)
        result = machine.run(max_instructions=20_000)
        assert result.halted, f"{variant}: did not finish"
        assert not result.flagged, (
            f"{variant}: false positive {result.violations.violations}")
        assert architectural_state(machine) == expected, (
            f"{variant}: architectural state diverged")


@settings(max_examples=10, deadline=None)
@given(source=violation_free_program(),
       offset_past_end=st.integers(1, 4))
def test_appended_oob_is_caught_by_every_variant(source, offset_past_end):
    """The same random program with one OOB store appended must flag under
    every protected variant (and still run to completion insecurely)."""
    bad_store = (f"    mov [r12 + {offset_past_end * 128}], rax\n"
                 "    halt\n")
    source = source.replace("    halt\n", bad_store, 1)
    program = assemble(source, name="fuzz-oob")
    insecure = Chex86Machine(program, variant=Variant.INSECURE)
    assert not insecure.run(max_instructions=20_000).flagged
    for variant in VARIANTS:
        machine = Chex86Machine(program, variant=variant,
                                halt_on_violation=True)
        result = machine.run(max_instructions=20_000)
        assert result.flagged, f"{variant} missed the OOB store"
