"""Property-based tests for the pointer tracker and the reload predictor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PointerReloadPredictor, RuleDatabase, SpeculativePointerTracker

regs = st.integers(min_value=0, max_value=15)
pids = st.integers(min_value=0, max_value=1 << 20)


class TestTrackerSpeculationProperties:
    @given(st.lists(st.tuples(regs, pids), min_size=1, max_size=60))
    def test_commit_all_equals_architectural_replay(self, writes):
        """No wrong path runs, so every tag write commits at once: after
        any sequence of writes the tags equal a non-speculative replay."""
        tracker = SpeculativePointerTracker(RuleDatabase.table1())
        replay = {}
        for reg, pid in writes:
            tracker.set_pid(reg, pid)
            replay[reg] = pid
        for reg in range(16):
            assert tracker.current_pid(reg) == replay.get(reg, 0)


class TestPredictorProperties:
    @given(pid=st.integers(1, 1 << 20), reps=st.integers(4, 30))
    def test_constant_sequences_converge(self, pid, reps):
        predictor = PointerReloadPredictor()
        pc = 0x400100
        for _ in range(reps):
            predicted = predictor.predict_ex(pc)[0]
            predictor.update(pc, predicted, pid)
        assert predictor.predict_ex(pc)[0] == pid

    @given(start=st.integers(1, 1000), stride=st.integers(1, 50),
           length=st.integers(8, 40))
    def test_arithmetic_sequences_converge(self, start, stride, length):
        predictor = PointerReloadPredictor()
        pc = 0x400200
        correct_tail = 0
        for i in range(length):
            actual = start + i * stride
            predicted = predictor.predict_ex(pc)[0]
            if predicted == actual and i >= length // 2:
                correct_tail += 1
            predictor.update(pc, predicted, actual)
        assert correct_tail >= (length - length // 2) - 3  # converged

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100))
    def test_stats_always_consistent(self, sequence):
        predictor = PointerReloadPredictor()
        pc = 0x400300
        for actual in sequence:
            predicted = predictor.predict_ex(pc)[0]
            predictor.update(pc, predicted, actual)
        stats = predictor.stats
        assert stats.correct + stats.mispredictions == len(sequence)
        assert 0.0 <= stats.accuracy <= 1.0

    @given(st.integers(3, 12))
    def test_blacklist_settles_for_pure_data_loads(self, reps):
        predictor = PointerReloadPredictor()
        pc = 0x400400
        for _ in range(reps):
            predicted = predictor.predict_ex(pc)[0]
            predictor.update(pc, predicted, 0)
        assert predictor.predict_ex(pc) == (0, True)
