"""Unit tests for the branch prediction substrate (LTAGE-style, BTB, RAS)."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Variant
from repro.eval.common import FIG6_LABELS
from repro.pipeline import branch
from repro.pipeline.branch import (
    _HISTORIES,
    _TABLE_BITS,
    _TAG_BITS,
    FrontEndPredictors,
    LTagePredictor,
    ReturnAddressStack,
    _fold,
)
from repro.pipeline.multicore import MulticoreMachine
from repro.workloads import BENCHMARK_ORDER, build


class TestLTage:
    # ``update`` predicts before it trains: it returns True exactly when
    # the prediction matched the outcome it is given.

    def test_learns_always_taken(self):
        predictor = LTagePredictor()
        for _ in range(8):
            predictor.update(0x400000, True)
        assert predictor.update(0x400000, True) is True

    def test_learns_never_taken(self):
        predictor = LTagePredictor()
        for _ in range(8):
            predictor.update(0x400010, False)
        assert predictor.update(0x400010, False) is True

    def test_loop_exit_pattern(self):
        """T T T N repeated: history-based tables should catch the exit."""
        predictor = LTagePredictor()
        pattern = [True, True, True, False] * 60
        correct = sum(predictor.update(0x400020, taken) for taken in pattern)
        # After warmup the tagged components nail the periodic exit.
        tail = pattern[-80:]
        tail_correct = sum(predictor.update(0x400020, t) for t in tail)
        assert tail_correct / len(tail) > 0.9

    def test_alternating_pattern_learned(self):
        predictor = LTagePredictor()
        outcomes = [bool(i % 2) for i in range(240)]
        for taken in outcomes[:160]:
            predictor.update(0x400030, taken)
        correct = sum(predictor.update(0x400030, t) for t in outcomes[160:])
        assert correct / 80 > 0.85

    def test_independent_branches(self):
        predictor = LTagePredictor()
        for _ in range(10):
            predictor.update(0x400000, True)
            predictor.update(0x400100, False)
        assert predictor.update(0x400000, True) is True
        assert predictor.update(0x400100, False) is True

    def test_stats_counting(self):
        predictor = LTagePredictor()
        predictor.update(0x400000, True)
        assert predictor.stats.cond_predictions == 1


class _Entry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self) -> None:
        self.tag = -1
        self.ctr = 0
        self.useful = 0


class ObjectTablePredictor:
    """Reference TAGE: one object per tagged entry, and every fold
    recomputed from the full history after every update."""

    def __init__(self) -> None:
        self.bimodal = [0] * 4096
        self.tables = [[_Entry() for _ in range(1 << _TABLE_BITS)]
                       for _ in _HISTORIES]
        self.history = 0
        self.stats = {"cond_predictions": 0, "cond_mispredictions": 0}

    def _index_tag(self, pc, level):
        history = self.history & ((1 << _HISTORIES[level]) - 1)
        index = ((pc >> 2) ^ _fold(history, _TABLE_BITS)) \
            & ((1 << _TABLE_BITS) - 1)
        tag = ((pc >> 2) ^ _fold(history, _TAG_BITS) ^ (pc >> 12)) \
            & ((1 << _TAG_BITS) - 1)
        return index, tag

    def _provider(self, pc):
        for level in reversed(range(len(_HISTORIES))):
            index, tag = self._index_tag(pc, level)
            entry = self.tables[level][index]
            if entry.tag == tag:
                return entry, level
        return None, -1

    def predict(self, pc):
        entry, _ = self._provider(pc)
        if entry is not None:
            return entry.ctr >= 0
        return self.bimodal[(pc >> 2) % 4096] >= 0

    def update(self, pc, taken):
        entry, level = self._provider(pc)
        correct = self.predict(pc) == taken
        self.stats["cond_predictions"] += 1
        self.stats["cond_mispredictions"] += not correct
        if entry is not None:
            entry.ctr = min(entry.ctr + 1, 3) if taken \
                else max(entry.ctr - 1, -4)
            if correct:
                entry.useful = min(entry.useful + 1, 3)
        else:
            index = (pc >> 2) % 4096
            counter = self.bimodal[index]
            self.bimodal[index] = min(counter + 1, 1) if taken \
                else max(counter - 1, -2)
        if not correct:
            for longer in range(level + 1, len(_HISTORIES)):
                index, tag = self._index_tag(pc, longer)
                victim = self.tables[longer][index]
                if victim.useful == 0:
                    victim.tag, victim.ctr = tag, (0 if taken else -1)
                    break
                victim.useful -= 1
        self.history = ((self.history << 1) | taken) & ((1 << 64) - 1)
        return correct


class TestFlatTables:
    """The flat-table predictor matches the object-table reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_object_table_reference(self, seed):
        rng = random.Random(seed)
        # Few branches train the tables; many force allocation churn.
        pcs = [rng.randrange(1 << 24) & ~3
               for _ in range(rng.choice((2, 16, 400, 5000)))]
        bias = rng.choice((0.05, 0.5, 0.9))
        flat, reference = LTagePredictor(), ObjectTablePredictor()
        for step in range(6000):
            pc = rng.choice(pcs)
            # Periodic patterns for some branches, biased coins for others.
            taken = (step % (pc % 5 + 2) == 0) if pc & 4 \
                else rng.random() < bias
            assert flat.update(pc, taken) == reference.update(pc, taken)
        assert flat._history == reference.history
        assert list(flat._bimodal) == reference.bimodal
        for level, table in enumerate(reference.tables):
            assert list(flat._tags[level]) == [e.tag for e in table]
            assert list(flat._ctrs[level]) == [e.ctr for e in table]
            assert list(flat._useful[level]) == [e.useful for e in table]
        assert flat.stats.cond_predictions == \
            reference.stats["cond_predictions"]
        assert flat.stats.cond_mispredictions == \
            reference.stats["cond_mispredictions"]
        assert flat.stats.cond_mispredictions > 0


class TestFoldedHistory:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()),
                    max_size=150))
    def test_incremental_folds_equal_recomputed(self, branches):
        predictor = LTagePredictor()
        for pc, taken in branches:
            predictor.update(pc, taken)
            for level, length in enumerate(_HISTORIES):
                window = predictor._history & ((1 << length) - 1)
                assert predictor._folded_idx[level] == \
                    _fold(window, _TABLE_BITS)
                assert predictor._folded_tag[level] == \
                    _fold(window, _TAG_BITS)

    def test_refold_restores_the_cached_folds(self):
        predictor = LTagePredictor()
        for step in range(100):
            predictor.update(0x400000 + 8 * (step % 7), step % 3 == 0)
        folds = (predictor._folded_idx, predictor._folded_tag)
        predictor._folded_idx = (0,) * len(_HISTORIES)
        predictor._folded_tag = (0,) * len(_HISTORIES)
        predictor._refold()
        assert (predictor._folded_idx, predictor._folded_tag) == folds


_PCS = (0x400000, 0x400010, 0x400104, 0x401000, 0x7F0040)

#: Streams of branch outcomes, as segments: random outcomes over several
#: pcs (mispredicts, hence allocation), a periodic branch, a loop whose
#: back edge exits after a fixed trip count, a ``load`` of a state
#: recorded earlier in the stream, and an ``age`` that loads the current
#: state with every useful counter at 0, so that trained branches next
#: write their useful counters and nothing else.
_SEGMENTS = st.one_of(
    st.tuples(st.just("random"),
              st.lists(st.tuples(st.sampled_from(_PCS), st.booleans()),
                       max_size=40)),
    st.tuples(st.just("periodic"), st.sampled_from(_PCS),
              st.integers(1, 6), st.integers(1, 60)),
    st.tuples(st.just("loop"), st.sampled_from(_PCS),
              st.sampled_from(_PCS), st.integers(1, 9), st.integers(1, 8)),
    st.tuples(st.just("load"), st.floats(0, 1, exclude_max=True)),
    st.just(("age",)),
)


def _operations(segments):
    """Flatten segments into ``("update", pc, taken)``, ``("load",
    fraction)`` and ``("age",)`` operations."""
    for segment in segments:
        kind = segment[0]
        if kind == "random":
            for pc, taken in segment[1]:
                yield "update", pc, taken
        elif kind == "periodic":
            _, pc, period, length = segment
            for step in range(length):
                yield "update", pc, step % period == 0
        elif kind == "loop":
            _, pc, exit_pc, trips, repeats = segment
            for _ in range(repeats):
                for trip in range(trips):
                    yield "update", pc, trip < trips - 1
                yield "update", exit_pc, False
        else:
            yield segment


def _drive(operations, memo_limit):
    """Run ``operations`` on a fresh predictor with the memo bound
    patched to ``memo_limit`` (0: off); returns every update's result
    with ``state()`` after it, and the memo hits."""
    predictor = LTagePredictor()
    trail = []
    with mock.patch.object(branch, "_MEMO_LIMIT", memo_limit):
        for operation in operations:
            if operation[0] == "load":
                if trail:
                    predictor.load(trail[int(operation[1] * len(trail))][1])
                continue
            if operation[0] == "age":
                state = predictor.state()
                state["useful"] = [[0] * len(table)
                                   for table in state["useful"]]
                predictor.load(state)
                continue
            _, pc, taken = operation
            correct = predictor.update(pc, taken)
            trail.append((correct, predictor.state()))
    return trail, predictor.memo_hits


class TestSteadyStateMemo:
    """``update`` with its memo on equals ``update`` with it off
    (``_MEMO_LIMIT`` patched to 0), update by update."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_SEGMENTS, max_size=12),
           st.sampled_from((1, 3, 64, branch._MEMO_LIMIT)))
    def test_memo_on_and_off_are_one_predictor(self, segments, limit):
        operations = list(_operations(segments))
        on, _ = _drive(operations, limit)
        off, off_hits = _drive(operations, 0)
        assert off_hits == 0
        assert on == off

    def test_trained_loop_hits_the_memo(self):
        operations = list(_operations([("loop", _PCS[0], _PCS[1], 5, 80)]))
        on, hits = _drive(operations, branch._MEMO_LIMIT)
        off, _ = _drive(operations, 0)
        assert on == off
        assert hits > len(operations) // 2

    def test_useful_counter_writes_are_not_memoised(self):
        loop = ("loop", _PCS[0], _PCS[1], 4, 60)
        operations = list(_operations([loop, ("age",), loop]))
        on, hits = _drive(operations, branch._MEMO_LIMIT)
        off, _ = _drive(operations, 0)
        assert on == off
        assert hits > 0

    def test_load_clears_the_memo(self):
        predictor = LTagePredictor()
        fresh = predictor.state()
        for _ in range(20):
            predictor.update(_PCS[0], True)
        assert predictor._memo
        predictor.load(fresh)
        assert not predictor._memo

    def test_memo_entries_share_no_mutable_fold(self):
        predictor = LTagePredictor()
        for step in range(200):
            predictor.update(_PCS[step % 2], step % 3 != 0)
        assert predictor._memo
        for history, folded_idx, folded_tag in predictor._memo.values():
            assert type(folded_idx) is tuple and type(folded_tag) is tuple


def _process_outcome(workload, defense, memo):
    with mock.patch.object(branch, "_MEMO_LIMIT",
                           branch._MEMO_LIMIT if memo else 0):
        process = MulticoreMachine(workload, defense, halt_on_violation=False)
        process.run()
    cores = process.cores
    results = [core.result() for core in cores]
    outcome = ([(run.halted, run.instructions, run.uops, run.cycles)
                for run in results],
               [core.metrics_snapshot() for core in cores],
               [core.predictors.state() for core in cores])
    hits = sum(core.predictors.cond.memo_hits for core in cores)
    updates = sum(core.predictors.stats.cond_predictions for core in cores)
    return outcome, hits, updates


class TestMemoWholeRuns:
    """Every benchmark at scale 1 under every Figure 6 defense: the same
    metrics and predictor state with the memo on and off."""

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_on_and_off_are_one_run(self, name):
        workload = build(name, 1)
        for label, defense in FIG6_LABELS:
            on, _, _ = _process_outcome(workload, defense, True)
            off, off_hits, _ = _process_outcome(workload, defense, False)
            assert off_hits == 0
            assert on == off, f"{name}/{label}"

    def test_lbm_updates_mostly_hit(self):
        _, hits, updates = _process_outcome(build("lbm", 2),
                                            Variant.INSECURE, True)
        assert hits >= 0.8 * updates > 0


class TestRAS:
    def test_lifo_order(self):
        ras = ReturnAddressStack(4)
        ras.push(0x1)
        ras.push(0x2)
        assert ras.pop() == 0x2
        assert ras.pop() == 0x1

    def test_underflow_returns_zero(self):
        assert ReturnAddressStack(4).pop() == 0

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(0x1)
        ras.push(0x2)
        ras.push(0x3)
        assert ras.overflows == 1
        assert ras.pop() == 0x3
        assert ras.pop() == 0x2
        assert ras.pop() == 0  # 0x1 was lost


class TestFrontEndPredictors:
    def test_call_return_pairing(self):
        fe = FrontEndPredictors()
        fe.on_call(0x400008)
        assert fe.resolve_indirect(0x500000, 0x400008, is_return=True)

    def test_mismatched_return_mispredicts(self):
        fe = FrontEndPredictors()
        fe.on_call(0x400008)
        assert not fe.resolve_indirect(0x500000, 0x999999, is_return=True)
        assert fe.stats.indirect_mispredictions == 1

    def test_btb_learns_indirect_target(self):
        fe = FrontEndPredictors()
        assert not fe.resolve_indirect(0x400000, 0x500000, is_return=False)
        assert fe.resolve_indirect(0x400000, 0x500000, is_return=False)

    def test_conditional_roundtrip(self):
        fe = FrontEndPredictors()
        for _ in range(6):
            fe.cond.update(0x400040, True)
        assert fe.cond.update(0x400040, True) is True
        assert fe.stats.cond_predictions == 7
