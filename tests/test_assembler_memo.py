"""The assembler's line and program memos are invisible: a program
assembled with warm memos is the program a memo-cleared assembly builds,
labels and errors stay per program, the memos stay within their bounds,
and no run changes a memoised program."""

import pytest

from repro.core import Variant
from repro.exploits import asan_suite, how2heap, ripe
from repro.fuzz.generator import generate
from repro.isa import AssemblyError, assemble
from repro.isa import assembler
from repro.pipeline.multicore import MulticoreMachine
from repro.workloads import BENCHMARK_ORDER, build
from repro.workloads.base import Workload


def clear_memos():
    assembler._LINES.clear()
    assembler._PROGRAMS.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    clear_memos()
    yield
    clear_memos()


def image(program):
    """Everything assembly decides about a program."""
    return (program.name, program.entry, program.instrs, program._resolved,
            program.labels, program.globals)


def pristine(text, name):
    """``text`` assembled with both memos cleared."""
    clear_memos()
    program = assemble(text, name=name)
    clear_memos()
    return program


def texts():
    """Fuzz seeds 0-249, the 14 benchmarks and a sample of exploits."""
    for seed in range(250):
        program = generate(seed)
        yield program.name, program.source
    for name in BENCHMARK_ORDER:
        yield name, build(name, 1).source
    cases = ripe.generate_suite()[::17] + asan_suite.generate_suite() \
        + how2heap.generate_suite()
    for case in cases:
        yield case.name, case.build()


def test_warm_assembly_equals_memo_cleared_assembly():
    corpus = list(texts())
    expected = [image(pristine(text, name)) for name, text in corpus]
    warm = [image(assemble(text, name=name)) for name, text in corpus]
    assert warm == expected
    # A second pass is served from the program memo where it still holds
    # the text, and is the same again.
    assert [image(assemble(text, name=name))
            for name, text in corpus] == expected
    assert len(assembler._LINES) > 0


def test_program_memo_shares_one_program_per_text():
    text = "main:\n    mov rdi, 64\n    call malloc\n    halt\n" \
        "malloc:\n    hostop heap_malloc\n    ret\n"
    first = assemble(text, name="one")
    assert assemble(text, name="one") is first
    other = assemble(text, name="two")
    assert other is not first and other.name == "two"
    assert first.name == "one"
    assert other.instrs is first.instrs and other.labels is first.labels


def test_each_program_reports_its_own_bad_line():
    first = "main:\n    nop\n    frobnicate rax\n    halt\n"
    second = "main:\n    nop\n    nop\n    nop\n    frobnicate rax\n"
    for text, lineno in ((first, 3), (second, 5), (first, 3)):
        with pytest.raises(AssemblyError) as error:
            assemble(text)
        assert error.value.lineno == lineno
    assert "    frobnicate rax" not in assembler._LINES
    assert not assembler._PROGRAMS


def test_a_label_on_a_memoised_line_survives():
    plain = "main:\n    nop\n    mov rax, 1\n    halt\n"
    labelled = "main:\n    nop\nhere:\n    mov rax, 1\n    jmp here\n"
    for order in ((plain, labelled), (labelled, plain)):
        clear_memos()
        programs = {text: assemble(text) for text in order}
        assert programs[plain].instrs[1].label is None
        assert programs[labelled].instrs[1].label == "here"
        assert programs[labelled].labels["here"] \
            == programs[labelled].text_base + 4
        for text, program in programs.items():
            assert image(program) == image(pristine(text, "program"))


def test_filling_past_the_bounds_keeps_the_memos_bounded(monkeypatch):
    monkeypatch.setattr(assembler, "LINE_MEMO_LIMIT", 8)
    monkeypatch.setattr(assembler, "PROGRAM_MEMO_LIMIT", 2)
    corpus = [generate(seed) for seed in range(20)]
    expected = [image(pristine(p.source, p.name)) for p in corpus]
    for program, want in zip(corpus, expected):
        assert image(assemble(program.source, name=program.name)) == want
        assert len(assembler._LINES) <= 8
        assert len(assembler._PROGRAMS) <= 2


def test_runs_leave_a_cached_program_unchanged():
    case = how2heap.generate_suite()[0]
    source = case.build()
    cached = assemble(source, name=case.name)
    workload = Workload(name=case.name, suite="exploit", source=source,
                        description="")
    for defense in (Variant.UCODE_PREDICTION, Variant.INSECURE, "asan"):
        process = MulticoreMachine(workload, defense)
        if defense != "asan":
            assert process.program is cached
        process.run(max_instructions_per_core=300_000)
    assert assemble(source, name=case.name) is cached
    assert image(cached) == image(pristine(source, case.name))
