"""A machine costs what its run touches, and nothing it computes moves.

Construction no longer pays for structure a short run never uses: cache
sets get their ``OrderedDict`` on first install, the issue scoreboard
holds only the cycles it has counted, and the metrics registry binds
each stats object as one source.  These tests pin that the cheaper
forms are observationally the old ones: the issue scoreboard's state
form, the old metric names and attribute bridges, and a pinned digest
of a whole machine's state after fixed programs.
"""

import gc
import hashlib
import json
import types
from pathlib import Path

import pytest

from repro.core import Chex86Machine, Variant
from repro.fuzz import generate, install_protect_hook
from repro.heap import heap_library_asm
from repro.isa import assemble
from repro.memory import SetAssocCache
from repro.memory.cache import _EMPTY
from repro.pipeline import timing as timing_module
from repro.pipeline.config import DEFAULT_CONFIG
from repro.pipeline.multicore import QUANTUM, MulticoreMachine
from repro.pipeline.timing import TimingModel
from repro.workloads import build

from test_metric_coverage import PROGRAM, stats_objects

GOLDEN = Path(__file__).parent / "golden" / "fresh_machine_metrics.json"


def _without_stats(state):
    return {key: value for key, value in state.items() if key != "stats"}


def _used_cache():
    cache = SetAssocCache(16, 2, line_shift=6, victim_entries=4, name="t")
    for key in range(0, 64 * 64, 64 * 3):
        cache.access(key)
    cache.access(5 * 64)
    return cache


class TestCacheSetsOnFirstTouch:
    def test_fresh_cache_allocates_no_set(self):
        cache = SetAssocCache(4096, 4, name="btb")
        assert all(set_ is _EMPTY for set_ in cache._sets)
        assert cache.state()["sets"] == [[] for _ in range(1024)]

    def test_fresh_and_flushed_caches_have_equal_state(self):
        used = _used_cache()
        assert used.occupancy
        bound = used._sets
        used.flush()
        fresh = SetAssocCache(16, 2, line_shift=6, victim_entries=4,
                              name="t")
        assert _without_stats(used.state()) == _without_stats(fresh.state())
        assert used._sets == fresh._sets
        assert used._sets is bound  # compiled replay binds the list

    def test_invalidating_a_sets_last_line_untouches_it(self):
        cache = SetAssocCache(8, 2, line_shift=6, name="t")
        cache.access(0x40)
        cache.access(0x40 + 4 * 64)  # same set, second way
        assert cache.invalidate(0x40)
        assert cache._sets[1] is not _EMPTY
        assert cache.invalidate(0x40 + 4 * 64)
        untouched = SetAssocCache(8, 2, line_shift=6, name="t")
        assert cache._sets == untouched._sets
        assert cache._sets[1] is _EMPTY
        assert _without_stats(cache.state()) == \
            _without_stats(untouched.state())

    def test_head_format_state_round_trips(self):
        """Sets as lists of ``[line, value]`` pairs, empty sets as ``[]``:
        the format every saved snapshot uses."""
        state = {
            "sets": [[], [[1, True], [5, 7]], [], [[3, False]]],
            "victim": [[9, True]],
            "stats": {"hits": 3, "misses": 4, "evictions": 1,
                      "invalidations": 0, "victim_hits": 1},
        }
        cache = SetAssocCache(8, 2, victim_entries=2, name="t")
        cache.access(0)  # loaded state replaces whatever was there
        bound = cache._sets
        cache.load(state)
        assert cache._sets is bound
        assert cache._sets[0] is _EMPTY and cache._sets[2] is _EMPTY
        assert cache.state() == {
            "sets": [[], [(1, True), (5, 7)], [], [(3, False)]],
            "victim": [(9, True)],
            "stats": state["stats"],
        }
        assert cache.access(5) and not cache.access(2)

    def test_load_rejects_a_different_geometry(self):
        cache = SetAssocCache(8, 2, name="t")
        with pytest.raises(ValueError, match="config mismatch"):
            cache.load({"sets": [[]] * 3, "victim": None, "stats": {}})


def _timing(config=DEFAULT_CONFIG):
    return TimingModel(config, SetAssocCache(16384, 16, 6, name="l2"))


class TestIssueScoreboard:
    def test_state_keeps_the_list_format(self):
        """The issue scoreboard's state is a list of ``[cycle, count]``
        pairs: its live window, not every cycle it has counted."""
        timing = _timing()
        for _ in range(20):
            timing.schedule((), 1, 1)
        window = timing.state()["issue_window"]
        width = DEFAULT_CONFIG.issue_width
        first = DEFAULT_CONFIG.decode_depth
        # Twenty one-cycle uops with no dependences fill whole cycles
        # from the first dispatch cycle on.
        assert window == [[first + index, min(width, 20 - index * width)]
                          for index in range(-(-20 // width))]

    def test_list_format_state_round_trips(self):
        ran = _timing()
        for index in range(50):
            ran.schedule((index % 4,), (index + 1) % 4, 1 + index % 3)
        state = ran.state()
        loaded = _timing()
        for _ in range(30):  # slots the loaded state must clear
            loaded.schedule((), 1, 7)
        loaded.load(state)
        assert loaded.state() == state
        assert sorted(loaded._issue.items()) == [
            tuple(pair) for pair in state["issue_window"]]
        for _ in range(20):
            assert ran.schedule((1,), 2, 1) == loaded.schedule((1,), 2, 1)

    def test_issue_width_256_schedules_256_uops_in_one_cycle(self):
        timing = _timing(DEFAULT_CONFIG.with_(
            issue_width=256, int_alu_units=256, rob_entries=512))
        for _ in range(300):
            timing.schedule((), None, 1)
        assert timing.state()["issue_window"] == [
            [DEFAULT_CONFIG.decode_depth, 256],
            [DEFAULT_CONFIG.decode_depth + 1, 44]]

    def test_issue_width_255_is_accepted(self):
        timing = _timing(DEFAULT_CONFIG.with_(
            issue_width=255, int_alu_units=255, rob_entries=512))
        for _ in range(300):
            timing.schedule((), None, 1)
        assert max(count for _, count in timing.state()["issue_window"]) \
            == 255


def _lockstep(monkeypatch, build_cores, quantum, budget):
    """Run two copies of a process core by core, one with the issue
    scoreboard pruned whenever it holds more than 8 cycles; after every
    quantum each core's ``state()`` must equal its default twin's.
    Returns both copies' cores."""
    default, pruned = build_cores(), build_cores()
    left = [budget] * len(default)
    while any(remaining > 0 and not core.halted
              for remaining, core in zip(left, default)):
        for index, (ref, core) in enumerate(zip(default, pruned)):
            if ref.halted or left[index] <= 0:
                continue
            step = ref.run_quantum(min(quantum, left[index]))
            with monkeypatch.context() as patch:
                patch.setattr(timing_module, "_ISSUE_PRUNE_AT", 8)
                assert core.run_quantum(min(quantum, left[index])) == step
            left[index] -= step
            assert core.state() == ref.state()
    for ref, core in zip(default, pruned):
        ref.timing.finish()
        core.timing.finish()
        assert core.state() == ref.state()
    return default, pruned


class TestIssuePruningIsUnobservable:
    """Dropping the scoreboard's cycles below the dispatch floor changes
    nothing a later uop, ``state()`` or a result can see."""

    @pytest.mark.parametrize("name", ["mcf", "canneal"])
    def test_workload(self, monkeypatch, name):
        workload = build(name, 1)

        def cores():
            return MulticoreMachine(workload, halt_on_violation=False).cores

        default, pruned = _lockstep(monkeypatch, cores, QUANTUM, 12_000)
        for ref, core in zip(default, pruned):
            assert len(core.timing._issue) < len(ref.timing._issue)

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_program(self, monkeypatch, seed):
        fuzz = generate(seed)
        program = assemble(fuzz.source, name=fuzz.name)

        def cores():
            machine = Chex86Machine(program, variant=Variant.UCODE_PREDICTION)
            if fuzz.uses_protect_hook:
                install_protect_hook(machine)
            return [machine]

        [ref], [core] = _lockstep(monkeypatch, cores, 7, 100_000)
        assert ref.halted
        assert len(core.timing._issue) < len(ref.timing._issue)


_SHARED = (type, types.ModuleType, types.FunctionType, types.CodeType,
           types.BuiltinFunctionType)


def _reachable_lists(root):
    """Every list reachable from ``root`` through object references,
    short of code, classes and modules (shared by every machine)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        if type(obj) is list:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestNothingForTheCollector:
    """A core's per-core tables hold no slot the cyclic collector walks,
    so the young collections that follow each new machine stay cheap."""

    def test_scoreboard_and_predictor_tables_are_untracked(self):
        workload = build("mcf", 1)
        machine = Chex86Machine(assemble(workload.source, name=workload.name),
                                variant=Variant.UCODE_PREDICTION)
        machine.run_quantum(20_000)
        restored = Chex86Machine.restore(machine.snapshot())
        for ran in (machine, restored):
            assert not gc.is_tracked(ran.timing._issue)
            # An ``array`` is a tracked object (its type is a heap type),
            # but a collection visits only that type, never a slot.
            cond = ran.predictors.cond
            for table in (cond._bimodal, *cond._tags, *cond._ctrs,
                          *cond._useful):
                assert gc.get_referents(table) == [type(table)]
        assert len(machine.timing._issue) > 100

    def test_no_tracked_list_over_1024_slots(self):
        fuzz = generate(3)
        machine = Chex86Machine(assemble(fuzz.source, name=fuzz.name),
                                variant=Variant.UCODE_PREDICTION)
        lists = _reachable_lists(machine)
        assert len(lists) > 20
        assert max(len(items) for items in lists) <= 1024


def _canonical(value) -> str:
    """Text form of a state tree that does not depend on set order."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_canonical(key)}: {_canonical(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canonical(item)
                                      for item in value)) + "}"
    return repr(value)


def state_digest(machine, without: tuple = ()) -> str:
    tree = machine.state()
    for key in without:
        del tree[key]
    return hashlib.sha256(_canonical(tree).encode()).hexdigest()


class TestMachineStateIsUnchanged:
    """Digests of whole-machine state trees, recorded before sets were
    allocated on first touch and before the scoreboard counts became
    bytes.  Any change to a hit, miss, eviction, scoreboard slot or
    counter changes them.  Since snapshot schema 8 a tracker tag is one
    PID and the tree has no dirty set or store buffer; since schema 9 it
    has no sequence number and no profiling state; since schema 10 its
    frontend counters include ``partial_replays``; since schema 11 the
    timing scoreboard has no alias-walker pool (nor its ``fu_uops``
    slot, always 0) and holds the issue ring as its live window of
    ``[cycle, count]`` pairs.  Each digest is the one the earlier tree
    gave once reduced to the current layout, except where the frontend
    counters of a run that replays moved with how replay enters and
    stops superblocks."""

    def test_fuzz_program(self):
        fuzz = generate(7)
        machine = Chex86Machine(assemble(fuzz.source, name=fuzz.name),
                                variant=Variant.UCODE_PREDICTION)
        if fuzz.uses_protect_hook:
            install_protect_hook(machine)
        machine.run(max_instructions=100_000)
        assert machine.instructions == 75
        assert state_digest(machine) == (
            "5e77762b17faf8b92a42cebaad7d48a6b4fdb935d1719c9a7823c1ae343867cf")

    def _mcf_mid_run(self, compile_entry: int):
        workload = build("mcf", 1)
        machine = Chex86Machine(assemble(workload.source, name=workload.name),
                                variant=Variant.UCODE_PREDICTION)
        machine.superblock_compile_entry = compile_entry
        machine.run(max_instructions=5_000)
        return machine

    def test_workload_mid_run(self):
        # The frontend counters depend on the compile threshold; this
        # digest was recorded with superblocks compiled on second entry.
        # The rest of the tree is the default threshold's below.
        machine = self._mcf_mid_run(2)
        assert state_digest(machine) == (
            "4af10057598eb4dfc902689c2817cb8007417de3f1410bb1e0f6551ea76c1132")
        assert state_digest(machine, without=("frontend",)) == (
            "d5ce8e812e99ea5e17597223ae8f02ffd5949afa139c8d95ec1ff5445519294d")

    def test_workload_mid_run_at_default_threshold(self):
        # Everything but the frontend counters is the same under any
        # compile threshold.
        machine = self._mcf_mid_run(Chex86Machine.superblock_compile_entry)
        assert state_digest(machine, without=("frontend",)) == (
            "d5ce8e812e99ea5e17597223ae8f02ffd5949afa139c8d95ec1ff5445519294d")


def _coverage_machine():
    program = assemble(PROGRAM + heap_library_asm(), name="coverage")
    return Chex86Machine(program, variant=Variant.UCODE_PREDICTION)


class TestGaugesBoundOncePerClass:
    def test_names_and_attributes_match_the_golden_file(self):
        """The metric names, in snapshot order, and every object's
        attribute bridge, as the per-gauge wiring produced them."""
        machine = _coverage_machine()
        registry = machine.telemetry
        owners = {"machine": machine, **stats_objects(machine)}
        golden = json.loads(GOLDEN.read_text())
        assert list(machine.metrics_snapshot()) == golden["metrics"]
        assert {owner: registry.registered_attributes(obj)
                for owner, obj in sorted(owners.items())} == \
            golden["registered_attributes"]

    def test_machines_built_back_to_back_are_independent(self):
        first, second = _coverage_machine(), _coverage_machine()
        before = second.metrics_snapshot()
        first.run(max_instructions=100_000)
        assert first.metrics_snapshot()["machine.instructions"] > 0
        assert second.metrics_snapshot() == before
        second.run(max_instructions=100_000)
        assert second.metrics_snapshot() == first.metrics_snapshot()

    def test_same_class_shares_one_binding(self):
        first, second = _coverage_machine(), _coverage_machine()

        def bindings(machine):
            return [source[1] for name, source in machine.telemetry._sources
                    if name is None]

        assert len(bindings(first)) == len(bindings(second)) > 5
        assert all(a is b for a, b in zip(bindings(first),
                                          bindings(second)))
