"""Differential fuzz sweep: slow path vs superblock replay.

The front-end caches are pure performance transforms — they must never
change what executes.  The oracle: run the same seeded random mini-x86
program under both execution modes —

* ``block_cache_enabled = False`` — every dynamic instruction recompiles
  (the slow path, the reference),
* ``block_cache_enabled = True`` — decoded blocks cached and superblock
  chains replayed with one dispatch per chain (the default),

and require identical architectural state, violation sets, and stats
snapshots.  The only permitted difference is the ``frontend.*`` counter
family (compile counts, superblock coverage): those *measure* the caches
and necessarily differ between modes.

The same generator doubles as a transparency oracle across all four
protected variants: a well-behaved program must flag no violations and
finish in exactly the insecure baseline's architectural state.

The generator itself lives in :mod:`repro.fuzz` (this fixed 50-seed
sweep is the tier-1 consumer; ``repro fuzz`` runs the same grammar with
open-ended seed ranges, violation profiles, and the full oracle set —
see ``docs/fuzzing.md``).
"""

import pytest

from repro.analysis.simpoint import BasicBlockVectors
from repro.core import Chex86Machine, Variant
from repro.fuzz import WELL_BEHAVED, architectural_state, generate
from repro.isa import Reg, assemble
from repro.telemetry import diff_snapshots
from repro.telemetry.tracer import ExecutionTrace

VARIANTS = (Variant.HW_ONLY, Variant.BINARY_TRANSLATION,
            Variant.UCODE_ALWAYS_ON, Variant.UCODE_PREDICTION)

#: The two execution modes under differential test.
MODES = (False, True)
MODE_IDS = ("slow", "superblock")

BUDGET = 20_000
N_PROGRAMS = 50


def run_machine(program, variant, mode, *, trap: bool = False,
                trace_limit: int = 0, bbv_interval: int = 0):
    machine = Chex86Machine(program, variant=variant,
                            halt_on_violation=trap)
    machine.block_cache_enabled = mode
    # Compile on first entry, as the differential fuzz oracle does, so
    # replay (not step()) runs code that executes once.
    machine.superblock_compile_entry = 1
    if trace_limit:
        machine.attach(ExecutionTrace(trace_limit))
    if bbv_interval:
        machine.attach(BasicBlockVectors(bbv_interval, program))
    result = machine.run(max_instructions=BUDGET)
    return machine, result


def strip_frontend(mapping: dict) -> dict:
    """Drop the ``frontend.*`` family: compile counts and superblock
    coverage measure the caches themselves and differ by mode."""
    return {key: value for key, value in mapping.items()
            if not key.startswith("frontend.")}


def comparable_metrics(machine: Chex86Machine) -> dict:
    return strip_frontend(machine.metrics_snapshot())


def assert_metrics_identical(machine: Chex86Machine,
                             reference: Chex86Machine, label: str) -> None:
    """Structured metric comparison: a failure names *which* metric
    moved and by how much, instead of dumping two whole dicts."""
    diff = diff_snapshots(comparable_metrics(reference),
                          comparable_metrics(machine))
    assert diff.identical, f"{label}: metrics diverged\n{diff.format_text()}"


def assert_superblock_identity(machine: Chex86Machine) -> None:
    """Every retired instruction is either superblock-replayed or stepped:
    the two frontend meters partition the commit count exactly."""
    counters = machine.metrics_snapshot()
    assert (counters["frontend.superblock_instructions"]
            + counters["frontend.fallback_instructions"]
            == machine.instructions)


class TestTwoWayDifferential:
    """Slow path vs superblock replay: bit-for-bit the same run."""

    @pytest.mark.parametrize("seed", range(N_PROGRAMS))
    def test_well_behaved_program(self, seed):
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        reference, reference_result = run_machine(program, variant, False)
        assert reference_result.halted
        reference_violations = [str(v)
                                for v in reference.violations.violations]
        assert reference_violations == []

        for mode, mode_id in zip(MODES[1:], MODE_IDS[1:]):
            machine, result = run_machine(program, variant, mode)
            label = f"seed {seed} ({variant.value}, {mode_id})"
            assert result.halted, f"{label}: did not halt"
            assert result.instructions == reference_result.instructions
            assert result.cycles == reference_result.cycles
            assert result.uops == reference_result.uops
            assert architectural_state(machine) \
                == architectural_state(reference), (
                    f"{label}: architectural state diverged")
            violations = [str(v) for v in machine.violations.violations]
            assert violations == reference_violations
            # Full stats snapshots: every registered metric outside the
            # frontend.* family agrees, and the human summary renders
            # identically.
            assert_metrics_identical(machine, reference, label)
            assert machine.stats_summary() == reference.stats_summary()
            assert_superblock_identity(machine)

        # The slow path compiled once per dynamic instruction.
        assert reference._blocks_compiled == reference.instructions

    @pytest.mark.parametrize("seed", range(8))
    def test_violating_program_flags_identically(self, seed):
        """The out-of-bounds profile's payload store must produce the
        *same* violation set in both modes (trapping, so
        post-violation state is defined).  Under superblock replay the
        store usually traps mid-chain, exercising the partial-retire
        unwind path."""
        source = generate(seed, "out-of-bounds").source
        program = assemble(source, name=f"fuzz-oob{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        reference, reference_result = run_machine(program, variant, False,
                                                  trap=True)
        assert reference_result.flagged
        for mode, mode_id in zip(MODES[1:], MODE_IDS[1:]):
            machine, result = run_machine(program, variant, mode, trap=True)
            assert result.flagged, f"seed {seed} ({mode_id}): not flagged"
            assert [str(v) for v in machine.violations.violations] \
                == [str(v) for v in reference.violations.violations]
            assert result.instructions == reference_result.instructions
            assert result.cycles == reference_result.cycles
            assert architectural_state(machine) \
                == architectural_state(reference)
            assert_metrics_identical(machine, reference,
                                     f"seed {seed} ({mode_id})")


class TestObservationBoundaries:
    """Trace and BBV windows whose boundaries land *inside* hot chains:
    the budget-aware entry guard must fall back to per-instruction
    stepping exactly at the boundary, keeping the recorded artifacts
    bit-identical across modes."""

    @pytest.mark.parametrize("seed", (0, 7, 21, 33))
    def test_trace_limit_boundary(self, seed):
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        limit = 17  # odd on purpose: lands mid-superblock
        reference, _ = run_machine(program, variant, False,
                                   trace_limit=limit)
        [trace] = reference.observers
        expected = trace.pcs
        assert len(trace.pcs) == limit
        for mode, mode_id in zip(MODES[1:], MODE_IDS[1:]):
            machine, _ = run_machine(program, variant, mode,
                                     trace_limit=limit)
            [trace] = machine.observers
            assert trace.pcs == expected, (
                f"seed {seed} ({mode_id}): trace diverged")
            assert architectural_state(machine) \
                == architectural_state(reference)

    @pytest.mark.parametrize("seed", (3, 12, 26, 41))
    def test_bbv_interval_boundary(self, seed):
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        interval = 13  # prime: every superblock eventually straddles it
        reference, _ = run_machine(program, variant, False,
                                   bbv_interval=interval)
        [expected] = reference.observers
        for mode, mode_id in zip(MODES[1:], MODE_IDS[1:]):
            machine, _ = run_machine(program, variant, mode,
                                     bbv_interval=interval)
            assert machine._superblock_instructions > 0
            [profiler] = machine.observers
            assert profiler.finish() == expected.finish(), (
                f"seed {seed} ({mode_id}): BBV vectors diverged")

    @pytest.mark.parametrize("seed", (4, 18))
    def test_superblocks_cover_loops(self, seed):
        """Loopy programs actually exercise the superblock path (guards
        the other assertions against silently testing nothing)."""
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        machine, result = run_machine(program, VARIANTS[seed % 4], True)
        counters = machine.metrics_snapshot()
        assert counters["frontend.superblocks_compiled"] > 0
        assert counters["frontend.superblock_instructions"] > 0
        assert_superblock_identity(machine)


class TestTransparencyOracle:
    """All four protected variants agree with the insecure baseline on
    well-behaved programs: same architectural state, zero violations."""

    @pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 5))
    def test_variants_match_insecure_baseline(self, seed):
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        reference, reference_result = run_machine(program, Variant.INSECURE,
                                                  True)
        assert reference_result.halted
        expected = architectural_state(reference)
        for variant in VARIANTS:
            machine, result = run_machine(program, variant, True, trap=True)
            assert result.halted, f"{variant.value}: did not finish"
            assert not result.flagged, (
                f"{variant.value}: false positive "
                f"{machine.violations.violations}")
            assert architectural_state(machine) == expected, (
                f"{variant.value}: architectural state diverged")
