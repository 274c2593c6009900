"""A machine costs what its run touches, and nothing it computes moves.

Construction no longer pays for structure a short run never uses: cache
sets get their ``OrderedDict`` on first install, the issue scoreboard's
counts are one byte each, and the metrics registry binds each stats
object as one source.  These tests pin that the cheaper forms are
observationally the old ones: equal ``state()`` trees (in the old
format), the old metric names and attribute bridges, and a pinned digest
of a whole machine's state after fixed programs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import Chex86Machine, Variant
from repro.fuzz import generate, install_protect_hook
from repro.heap import heap_library_asm
from repro.isa import assemble
from repro.memory import SetAssocCache
from repro.memory.cache import _EMPTY
from repro.pipeline.config import DEFAULT_CONFIG
from repro.pipeline.timing import _RING_SIZE, TimingModel
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
        timing = _timing()
        for _ in range(20):
            timing.schedule((), 1, 1)
        state = timing.state()
        counts = state["issue_counts"]
        assert type(counts) is list and len(counts) == _RING_SIZE
        assert max(counts) == DEFAULT_CONFIG.issue_width

    def test_list_format_state_round_trips(self):
        ran = _timing()
        for index in range(50):
            ran.schedule((index % 4,), (index + 1) % 4, 1 + index % 3)
        state = ran.state()
        loaded = _timing()
        loaded.load(state)
        assert loaded.state() == state
        assert ran.schedule((1,), 2, 1) == loaded.schedule((1,), 2, 1)

    def test_issue_width_above_a_byte_fails_loudly(self):
        with pytest.raises(ValueError) as caught:
            _timing(DEFAULT_CONFIG.with_(issue_width=256))
        message = str(caught.value)
        assert "issue_width=256" in message and "\n" not in message

    def test_issue_width_255_is_accepted(self):
        timing = _timing(DEFAULT_CONFIG.with_(
            issue_width=255, int_alu_units=255, rob_entries=512))
        for _ in range(300):
            timing.schedule((), None, 1)
        assert max(timing.state()["issue_counts"]) == 255


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
    counter changes them."""

    def test_fuzz_program(self):
        fuzz = generate(7)
        machine = Chex86Machine(assemble(fuzz.source, name=fuzz.name),
                                variant=Variant.UCODE_PREDICTION)
        if fuzz.uses_protect_hook:
            install_protect_hook(machine)
        machine.run(max_instructions=100_000)
        assert machine.instructions == 75
        assert state_digest(machine) == (
            "ef34294b71c13520a7829cb2787a65210527ce04669a0123c1e56d8a23c96f09")

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
        machine = self._mcf_mid_run(2)
        assert state_digest(machine) == (
            "c86c4f0468bacfad83a754290e8eef00dfd4982b6fbba81f8f97f466d3e5d3c2")

    def test_workload_mid_run_at_default_threshold(self):
        # Everything but the frontend counters is the same under any
        # compile threshold.
        machine = self._mcf_mid_run(Chex86Machine.superblock_compile_entry)
        assert state_digest(machine, without=("frontend",)) == (
            "e9d2bdf04c87a360553c5fcffed759a7e50e8e395f31063496c104a4a0146995")


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
