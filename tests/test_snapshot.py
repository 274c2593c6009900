"""Checkpoint fidelity: snapshot/restore vs uninterrupted execution.

The snapshot subsystem's contract (``core/snapshot.py``) is
observational equivalence: a machine restored mid-run and run to
completion must be indistinguishable from one that never stopped — the
same whole-machine state tree (``Chex86Machine.state()``).  The
property suite reuses the differential harness's seeded
random program generator (:func:`repro.fuzz.generate`) and
checks the round trip at a seeded random cut point inside every
program's run (drawn from its uninterrupted retired count),
on the decoded-block fast path and the forced slow path alike.

A subset restores in a *fresh process* (the sampled-simulation
deployment shape: checkpoints are written by one worker and replayed by
another), and the schema gate is pinned: a snapshot whose version
stamp mismatches must fail loudly, never replay wrong state.
"""

import multiprocessing
import random

import pytest

from repro.core import Chex86Machine, Variant
from repro.core.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    SnapshotSchemaError,
    capture,
    from_bytes,
    load,
    restore,
    save,
    snapshot_digest,
    to_bytes,
)
from repro.fuzz import WELL_BEHAVED, generate
from repro.fuzz.oracles import comparable_state
from repro.isa import assemble
from repro.workloads import build
from test_differential import BUDGET, N_PROGRAMS, VARIANTS


def observable_state(machine: Chex86Machine):
    """Everything the fidelity contract compares: the whole state tree.

    The front-end compile counters are left out: restore drops the
    decoded-block and superblock caches (they rebuild lazily), so a
    split run legitimately recompiles more — and covers less — than an
    uninterrupted one.  Everything those caches *execute* must still be
    bit-identical, which the rest of the tree asserts.
    """
    return comparable_state(machine)


def run_reference(program, variant, slow):
    machine = Chex86Machine(program, variant=variant,
                            halt_on_violation=False)
    if slow:
        machine.block_cache_enabled = False
    machine.run(max_instructions=BUDGET)
    return machine


def run_split(program, variant, slow, cut):
    """Run ``cut`` instructions, snapshot, restore, run to completion.
    The cut must land inside the run: a halted machine has nothing left
    for the restored one to do."""
    first = Chex86Machine(program, variant=variant, halt_on_violation=False)
    if slow:
        first.block_cache_enabled = False
    first.run_quantum(cut)
    assert not first.halted, f"cut {cut} lands after halt"
    data = first.snapshot()
    second = Chex86Machine.restore(data)
    assert second.block_cache_enabled == first.block_cache_enabled
    second.run_quantum(BUDGET - cut)
    return second


class TestRoundTripFidelity:
    """Snapshot at a seeded random cut, restore, finish: identical."""

    @pytest.mark.parametrize("seed", range(N_PROGRAMS))
    def test_split_run_matches_uninterrupted(self, seed):
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        # Fast path and slow path alternate by seed (both still covered
        # exhaustively by TestBothPathsPerSeed below on a subset).
        slow = bool(seed % 2)
        reference = run_reference(program, variant, slow)
        cut = random.Random(seed).randrange(1, reference.instructions)
        resumed = run_split(program, variant, slow, cut)
        assert observable_state(resumed) == observable_state(reference), (
            f"seed {seed} ({variant.value}, slow={slow}, cut={cut}): "
            f"restored run diverged from uninterrupted run")

    @pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 10))
    def test_both_paths_same_seed(self, seed):
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        for slow in (False, True):
            reference = run_reference(program, variant, slow)
            cut = random.Random(1000 + seed).randrange(
                1, reference.instructions)
            resumed = run_split(program, variant, slow, cut)
            assert observable_state(resumed) == observable_state(reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_violating_program_round_trips(self, seed):
        """A snapshot taken before an OOB store must replay the same
        violation on restore."""
        source = generate(seed, WELL_BEHAVED).source.replace(
            "    halt\n",
            f"    mov [r12 + {(seed % 4 + 1) * 128}], rax\n    halt\n", 1)
        program = assemble(source, name=f"fuzz-oob{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        reference = run_reference(program, variant, slow=False)
        assert reference.violations.count() > 0
        resumed = run_split(program, variant, slow=False, cut=5)
        assert observable_state(resumed) == observable_state(reference)

    def test_snapshot_does_not_disturb_the_running_machine(self):
        """Taking a snapshot is observation, not interference: the
        snapshotted machine finishes exactly like an unsnapshotted one."""
        program = assemble(generate(3, WELL_BEHAVED).source, name="fuzz3")
        reference = run_reference(program, Variant.UCODE_PREDICTION,
                                  slow=False)
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        machine.run_quantum(200)
        machine.snapshot()
        machine.run_quantum(BUDGET - 200)
        assert observable_state(machine) == observable_state(reference)

    def test_double_restore_runs_are_independent(self):
        """Two machines restored from one snapshot share no state."""
        program = assemble(generate(7, WELL_BEHAVED).source, name="fuzz7")
        machine = Chex86Machine(program, variant=Variant.UCODE_ALWAYS_ON,
                                halt_on_violation=False)
        machine.run_quantum(300)
        data = machine.snapshot()
        first, second = restore(data), restore(data)
        first.run_quantum(BUDGET)
        second.run_quantum(BUDGET)
        assert observable_state(first) == observable_state(second)


class TestSuperblockCacheAcrossRestore:
    """Restore drops the compiled front-end caches; they rebuild lazily
    and the resumed run stays bit-identical."""

    def test_superblocks_recompile_lazily_after_restore(self):
        program = assemble(generate(4, WELL_BEHAVED).source, name="fuzz4")
        machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                halt_on_violation=False)
        # Compile on second entry, so that 40 instructions of this short
        # program form superblocks and the resumed run recompiles some.
        machine.superblock_compile_entry = 2
        machine.run_quantum(40)
        assert not machine.halted
        assert machine._superblocks, "run formed no superblocks"
        restored = restore(machine.snapshot())
        # The cache is not serialized: it starts empty...
        assert restored._superblocks == {}
        assert restored._blocks == {}
        restored.superblock_compile_entry = 2
        restored.run_quantum(BUDGET - 40)
        # ...and repopulates (with compiled replay attached) on demand.
        recompiled = [sb for sb in restored._superblocks.values()
                      if sb is not None]
        assert recompiled
        assert any(sb.replay is not None for sb in recompiled)
        machine.run_quantum(BUDGET - 40)
        assert observable_state(restored) == observable_state(machine)

    @pytest.mark.parametrize("mode", (False, True),
                             ids=("slow", "superblock"))
    def test_block_cache_knob_round_trips(self, mode):
        """Both knob settings survive snapshot/restore verbatim and the
        resumed run matches an uninterrupted one."""
        program = assemble(generate(9, WELL_BEHAVED).source, name="fuzz9")
        reference = Chex86Machine(program, variant=Variant.UCODE_ALWAYS_ON,
                                  halt_on_violation=False)
        reference.block_cache_enabled = mode
        reference.run(max_instructions=BUDGET)

        first = Chex86Machine(program, variant=Variant.UCODE_ALWAYS_ON,
                              halt_on_violation=False)
        first.block_cache_enabled = mode
        first.run_quantum(BUDGET // 3)
        second = restore(first.snapshot())
        assert second.block_cache_enabled is mode
        second.run_quantum(BUDGET)
        assert observable_state(second) == observable_state(reference)


class TestTimingAndPredictorAcrossRestore:
    """The in-order commit scalars, the live issue window and the TAGE
    folds survive a restore."""

    def test_mid_cycle_commit_and_history_round_trip(self):
        workload = build("mcf", 1)
        program = assemble(workload.source, name=workload.name)

        def machine():
            return Chex86Machine(program, variant=Variant.UCODE_PREDICTION,
                                 halt_on_violation=False)

        reference = machine().run(max_instructions=2_000_000)
        first = machine()
        # Step until the snapshot lands mid-cycle (several uops already
        # commit in the last commit cycle) with occupied issue slots that
        # a later uop can still read, and with a history longer than the
        # 16-outcome window, so that the longer folds have wrapped.
        while not (first.timing._commit_used > 1
                   and len(first.timing._issue_window()) >= 2
                   and first.predictors.cond._history.bit_length() > 20):
            first.run_quantum(7)
            assert not first.halted, "run never reached the cut"
        folds = (first.predictors.cond._folded_idx,
                 first.predictors.cond._folded_tag)
        second = restore(first.snapshot())
        assert second.timing._commit_used == first.timing._commit_used
        assert second.timing._issue_window() == first.timing._issue_window()
        assert (second.predictors.cond._folded_idx,
                second.predictors.cond._folded_tag) == folds
        resumed = second.run(max_instructions=2_000_000 - first.instructions)
        assert resumed.instructions == reference.instructions
        assert resumed.cycles == reference.cycles
        assert vars(second.timing.stats) == \
            vars(reference.machine.timing.stats)
        assert vars(second.predictors.stats) == \
            vars(reference.machine.predictors.stats)


class TestLiveIssueWindow:
    """The timing state holds the issue scoreboard as its live window:
    the counted cycles from ``fetch_cycle + decode_depth`` to the last
    commit cycle."""

    @pytest.fixture(scope="class")
    def mcf(self):
        workload = build("mcf", 1)
        return assemble(workload.source, name=workload.name)

    def test_every_pair_lies_inside_the_window(self, mcf):
        machine = Chex86Machine(mcf, variant=Variant.UCODE_PREDICTION)
        timing = machine.timing
        occupied = 0
        for _ in range(40):
            machine.run_quantum(97)
            first = timing._fetch_cycle + timing._decode_depth
            window = timing.state()["issue_window"]
            for cycle, count in window:
                assert first <= cycle <= timing._last_commit
                assert 1 <= count <= timing._issue_width
            # Exact: every counted cycle a later uop can still read is a
            # pair, because no issued cycle lies beyond the last commit.
            assert [cycle for cycle, _ in window] == sorted(
                cycle for cycle in timing._issue if cycle >= first)
            occupied += bool(window)
        assert occupied > 30

    def test_mcf_snapshot_at_10000_instructions_is_small(self, mcf):
        machine = Chex86Machine(mcf, variant=Variant.UCODE_PREDICTION)
        assert machine.run_quantum(10_000) == 10_000
        assert len(machine.snapshot()) < 100_000


def _finish_from_snapshot(data, budget, queue):
    machine = Chex86Machine.restore(data)
    machine.run_quantum(budget)
    state = observable_state(machine)
    queue.put(state)


class TestFreshProcessRestore:
    """The deployment shape: snapshot here, restore in another process."""

    @pytest.mark.parametrize("seed", (0, 11, 22, 33, 44, 49))
    def test_restore_in_child_process(self, seed):
        program = assemble(generate(seed, WELL_BEHAVED).source,
                           name=f"fuzz{seed}")
        variant = VARIANTS[seed % len(VARIANTS)]
        slow = bool(seed % 2)
        reference = run_reference(program, variant, slow)
        cut = random.Random(2000 + seed).randrange(1, reference.instructions)

        first = Chex86Machine(program, variant=variant,
                              halt_on_violation=False)
        if slow:
            first.block_cache_enabled = False
        first.run_quantum(cut)
        assert not first.halted, f"cut {cut} lands after halt"
        data = first.snapshot()

        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        child = ctx.Process(target=_finish_from_snapshot,
                            args=(data, BUDGET - cut, queue))
        child.start()
        state = queue.get(timeout=120)
        child.join(timeout=30)
        assert state == observable_state(reference), (
            f"seed {seed}: fresh-process restore diverged")


class TestSchemaAndWireFormat:
    def _snapshot_bytes(self):
        program = assemble(generate(0, WELL_BEHAVED).source, name="fuzz0")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(100)
        return machine.snapshot()

    def test_schema_mismatch_fails_loudly(self):
        import pickle

        tree = from_bytes(self._snapshot_bytes())
        tree["schema"] = SNAPSHOT_SCHEMA + 1
        with pytest.raises(SnapshotSchemaError, match="schema"):
            from_bytes(pickle.dumps(tree))
        with pytest.raises(SnapshotSchemaError):
            restore(pickle.dumps(tree))

    def test_schema_7_tree_rejected_in_one_line(self):
        """A checkpoint from before tags held one PID each (transient
        vectors, the dirty set and the store-buffer queue) is refused
        with one line naming both schemas."""
        import pickle

        tree = from_bytes(self._snapshot_bytes())
        state = tree["state"]
        state["tracker"]["tags"] = [(pid, []) for pid in
                                    state["tracker"]["tags"]]
        state["tracker"]["dirty"] = set()
        state["store_buffer"] = {"pending": [], "peak_occupancy": 1,
                                 "total_buffered": 1, "overflows": 0}
        tree["schema"] = 7
        with pytest.raises(SnapshotSchemaError) as caught:
            restore(pickle.dumps(tree))
        message = str(caught.value)
        assert "\n" not in message
        assert "schema 7" in message
        assert f"schema {SNAPSHOT_SCHEMA}" in message and SNAPSHOT_SCHEMA == 12

    def test_schema_10_tree_rejected_in_one_line(self):
        """A checkpoint that holds the whole issue ring and the
        alias-walker pool is refused with one line naming both schemas."""
        import pickle

        tree = from_bytes(self._snapshot_bytes())
        timing = tree["state"]["timing"]
        tags, counts = [-1] * 65_536, [0] * 65_536
        for cycle, count in timing.pop("issue_window"):
            tags[cycle & 0xFFFF], counts[cycle & 0xFFFF] = cycle, count
        timing["issue_tags"], timing["issue_counts"] = tags, counts
        timing["pools"].append([0, 0])
        tree["schema"] = 10
        with pytest.raises(SnapshotSchemaError) as caught:
            restore(pickle.dumps(tree))
        message = str(caught.value)
        assert "\n" not in message
        assert "schema 10" in message and f"schema {SNAPSHOT_SCHEMA}" in message

    def test_schema_11_tree_rejected_in_one_line(self):
        """A checkpoint whose scoreboard is not canonical (a ROB entry
        below the dispatch floor) is refused with one line naming both
        schemas."""
        import pickle

        tree = from_bytes(self._snapshot_bytes())
        timing = tree["state"]["timing"]
        timing["rob"] = [0] + timing["rob"][1:]
        tree["schema"] = 11
        with pytest.raises(SnapshotSchemaError) as caught:
            restore(pickle.dumps(tree))
        message = str(caught.value)
        assert "\n" not in message
        assert "schema 11" in message and f"schema {SNAPSHOT_SCHEMA}" in message

    def test_non_bool_block_cache_knob_rejected(self):
        """The knob is a bool; a checkpoint carrying the retired
        ``"blocks"`` setting is refused, not run in a mode that no longer
        exists."""
        tree = from_bytes(self._snapshot_bytes())
        tree["state"]["block_cache_enabled"] = "blocks"
        with pytest.raises(SnapshotError, match="not a bool"):
            restore(to_bytes(tree))

    def test_garbage_bytes_rejected(self):
        with pytest.raises(SnapshotError):
            from_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            from_bytes(to_bytes({"no": "schema"}))

    def test_save_load_round_trip(self, tmp_path):
        program = assemble(generate(5, WELL_BEHAVED).source, name="fuzz5")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(500)
        path = tmp_path / "ckpt" / "machine.ckpt"
        digest = save(machine, path)
        assert digest == snapshot_digest(path.read_bytes())
        restored = load(path, expected_digest=digest)
        machine.run_quantum(BUDGET)
        restored.run_quantum(BUDGET)
        assert observable_state(restored) == observable_state(machine)

    def test_load_rejects_wrong_digest(self, tmp_path):
        program = assemble(generate(5, WELL_BEHAVED).source, name="fuzz5")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(100)
        path = tmp_path / "machine.ckpt"
        save(machine, path)
        with pytest.raises(SnapshotError, match="digest"):
            load(path, expected_digest="0" * 64)

    def test_capture_tree_is_detached(self):
        """The captured tree must not alias live machine state."""
        program = assemble(generate(2, WELL_BEHAVED).source, name="fuzz2")
        machine = Chex86Machine(program, halt_on_violation=False)
        machine.run_quantum(200)
        tree = capture(machine)
        before = to_bytes(tree)
        machine.run_quantum(2_000)  # keep mutating the machine
        assert to_bytes(tree) == before


class TestSnapshotRestrictions:
    def test_tracer_attached_is_rejected(self):
        from repro.telemetry import EventTracer

        program = assemble(generate(0, WELL_BEHAVED).source, name="fuzz0")
        machine = Chex86Machine(program, halt_on_violation=False)
        tracer = machine.attach(EventTracer())
        with pytest.raises(SnapshotError, match="tracer"):
            machine.snapshot()
        machine.detach(tracer)
        machine.snapshot()  # detached again: fine

    def test_custom_host_hooks_rejected(self):
        program = assemble(generate(0, WELL_BEHAVED).source, name="fuzz0")
        machine = Chex86Machine(program, halt_on_violation=False,
                                host_hooks={"custom_hook": lambda m: None})
        with pytest.raises(SnapshotError, match="host hooks"):
            machine.snapshot()
