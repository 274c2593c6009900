"""Shape-keyed superblock code: one ``compile()`` per replay shape.

``sbcompile`` emits each superblock as a *shape*, its replay source with
every per-superblock value (pcs, icache lines, register indices,
immediates, displacements, ``srcs`` tuples, targets, fallthroughs) left
as a named hole, and binds the values when it builds the superblock's
function.  Superblocks that differ only in that data share one code
object.  A binding bug would replay the wrong code without any error, so
these tests compare replays built over shared code objects against the
``step()`` reference.
"""

import json
from pathlib import Path

from repro.core import Chex86Machine, Variant
from repro.core import sbcompile
from repro.eval.engine import CellSpec, compute_cell
from repro.fuzz import (DETECTION_VARIANT, architectural_state, generate,
                        install_protect_hook)
from repro.isa import Reg, assemble

from conftest import assemble_main
from test_differential import VARIANTS, assert_metrics_identical

GOLDEN = Path(__file__).parent / "golden" / \
    "fig6_cell_lbm_ucode-prediction.json"

#: Two loops with the same instruction forms over different registers,
#: immediates, displacements and pcs.
TWIN_LOOPS = """
    mov rdi, 64
    call malloc
    mov r12, rax
    mov rax, 0
    mov rbx, 0
    mov rcx, 20
first:
    add rax, 3
    mov [r12 + 8], rax
    sub rcx, 1
    jne first
    mov rdx, 30
second:
    add rbx, 5
    mov [r12 + 16], rbx
    sub rdx, 1
    jne second
    mov rsi, [r12 + 8]
"""


def _run(program, variant, replaying: bool, protect: bool = False):
    machine = Chex86Machine(program, variant=variant,
                            halt_on_violation=False)
    if protect:
        install_protect_hook(machine)
    machine.block_cache_enabled = replaying
    if replaying:
        machine.superblock_compile_entry = 1
    machine.run(max_instructions=20_000)
    return machine


def _assert_same_run(machine, reference, label):
    assert machine.instructions == reference.instructions, label
    assert architectural_state(machine) == architectural_state(reference), (
        f"{label}: architectural state diverged")
    assert [str(v) for v in machine.violations.violations] == \
        [str(v) for v in reference.violations.violations], label
    assert_metrics_identical(machine, reference, label)


def test_superblocks_differing_in_data_share_code():
    program = assemble_main(TWIN_LOOPS, name="twins")
    for variant in (Variant.INSECURE, Variant.UCODE_PREDICTION):
        machine = _run(program, variant, True)
        a = machine._superblocks[program.labels["first"]]
        b = machine._superblocks[program.labels["second"]]
        assert a.replay.__code__ is b.replay.__code__
        assert a.replay.__defaults__ != b.replay.__defaults__
        # Both loops replayed: every iteration after entry is a replay.
        assert machine.metrics_snapshot()[
            "frontend.superblock_instructions"] >= 4 * (19 + 29)
        reference = _run(program, variant, False)
        for reg, value in ((Reg.RAX, 60), (Reg.RBX, 150)):
            assert machine.regs[int(reg)] == reference.regs[int(reg)] == value
        _assert_same_run(machine, reference, variant.value)


def _cell_shapes(workload: str):
    """Run the golden cell's spec on ``workload`` from a cleared cache;
    returns (shapes compiled, superblocks compiled)."""
    payload = json.loads(GOLDEN.read_text())["spec"]
    sbcompile._CODE_CACHE.clear()
    run = compute_cell(CellSpec.from_payload({**payload,
                                              "workload": workload}))
    return (len(sbcompile._CODE_CACHE),
            run.metrics["frontend.superblocks_compiled"])


def test_cells_compile_fewer_shapes_than_superblocks(monkeypatch):
    # Counted with superblocks compiled on a pc's second entry: the
    # golden lbm cell's 4 superblocks (3, 10, 11 and 11 members, the
    # two 11-member chains differing in one instruction form) are 4
    # distinct shapes; mcf's 13 superblocks share 9 shapes.
    monkeypatch.setattr(Chex86Machine, "superblock_compile_entry", 2)
    shapes, compiled = _cell_shapes("lbm")
    assert 0 < shapes <= compiled == 4
    shapes, compiled = _cell_shapes("mcf")
    assert 0 < shapes < compiled


def test_warm_cache_replay_matches_step():
    """Seeds 0-31 compile into one uncleared cache, so later seeds
    replay shapes compiled for earlier ones; each replay must still
    match the stepped reference exactly."""
    built = hits = 0
    for seed in range(32):
        fuzz = generate(seed)
        program = assemble(fuzz.source, name=f"fuzz{seed}")
        variant = (DETECTION_VARIANT if fuzz.expected_kinds
                   else VARIANTS[seed % len(VARIANTS)])
        protect = fuzz.uses_protect_hook
        before = len(sbcompile._CODE_CACHE)
        machine = _run(program, variant, True, protect)
        compiled = machine.metrics_snapshot()[
            "frontend.superblocks_compiled"]
        built += compiled
        hits += compiled - (len(sbcompile._CODE_CACHE) - before)
        reference = _run(program, variant, False, protect)
        _assert_same_run(machine, reference, f"seed {seed}")
    assert built > 0
    assert hits > 0, "no compile hit a shape already in the cache"
