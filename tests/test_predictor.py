"""Unit tests for the stride-based pointer-reload predictor."""

import pytest

from repro.core import MispredictKind, PointerReloadPredictor


PC = 0x400100
OTHER_PC = 0x400200


def predict(predictor, pc):
    """The PID the machine's resolve path predicts for the load at ``pc``."""
    return predictor.predict_ex(pc)[0]


def train(predictor, pc, pids):
    """Feed a PID sequence through predict/update; returns the predictions."""
    predictions = []
    for pid in pids:
        predicted = predict(predictor, pc)
        predictions.append(predicted)
        predictor.update(pc, predicted, pid)
    return predictions


@pytest.fixture
def predictor():
    return PointerReloadPredictor(entries=512)


class TestPatterns:
    """The Table II temporal patterns the predictor must capture."""

    def test_constant_pattern(self, predictor):
        predictions = train(predictor, PC, [31] * 8)
        assert predictions[-4:] == [31] * 4  # converges to the constant

    def test_stride_pattern(self, predictor):
        predictions = train(predictor, PC, [13, 16, 19, 22, 25, 28, 31])
        assert predictions[-2:] == [28, 31]

    def test_batch_plus_stride(self, predictor):
        pids = [11, 11, 11, 15, 15, 15, 19, 19, 19, 23, 23, 23]
        predictions = train(predictor, PC, pids)
        # Within a batch the stride-0 predictions are right; transitions miss.
        assert predictions[2] == 11
        assert predictions[8] == 19

    def test_random_defeats_predictor_gracefully(self, predictor):
        pids = [26, 3, 91, 14, 55, 7, 68, 22]
        train(predictor, PC, pids)
        assert predictor.stats.mispredictions > 0  # but never crashes


class TestMispredictClassification:
    def test_correct_prediction(self, predictor):
        assert predictor.update(PC, 5, 5) is None
        assert predictor.stats.correct == 1

    def test_pna0(self, predictor):
        assert predictor.update(PC, 5, 0) == MispredictKind.PNA0

    def test_p0an(self, predictor):
        assert predictor.update(PC, 0, 5) == MispredictKind.P0AN

    def test_pman(self, predictor):
        assert predictor.update(PC, 3, 5) == MispredictKind.PMAN

    def test_correct_untracked(self, predictor):
        assert predictor.update(PC, 0, 0) is None


class TestBlacklist:
    def test_data_loads_get_blacklisted(self, predictor):
        for _ in range(4):
            predicted = predict(predictor, PC)
            predictor.update(PC, predicted, 0)
        assert predictor.predict_ex(PC) == (0, True)
        assert predictor.stats.blacklist_filtered >= 1

    def test_blacklist_releases_on_pointer_activity(self, predictor):
        for _ in range(4):
            predictor.update(PC, 0, 0)
        for pid in (7, 7, 7, 7, 7, 7):
            predicted = predict(predictor, PC)
            predictor.update(PC, predicted, pid)
        assert predictor.predict_ex(PC) == (7, False)

    def test_blacklist_isolated_per_pc(self, predictor):
        for _ in range(4):
            predictor.update(PC, 0, 0)
        train(predictor, OTHER_PC, [9] * 6)
        assert predict(predictor, OTHER_PC) == 9


class TestTableMechanics:
    def test_tag_hit_predicts_last_pid_before_confidence(self, predictor):
        # A tag hit always asserts "this is a pointer reload" — a wrong PID
        # costs a PMAN forward, whereas missing a real reload costs a P0AN
        # flush — but the stride is not applied until confidence builds.
        predictor.update(PC, 0, 5)
        assert predict(predictor, PC) == 5

    def test_unseen_pc_predicts_untracked(self, predictor):
        assert predict(predictor, PC) == 0

    def test_alias_thrashing_decays_then_replaces(self):
        predictor = PointerReloadPredictor(entries=1)  # force conflicts
        train(predictor, PC, [5, 5, 5, 5])
        train(predictor, OTHER_PC, [9, 9, 9, 9, 9, 9, 9, 9])
        assert predict(predictor, OTHER_PC) == 9

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            PointerReloadPredictor(entries=0)

    def test_accuracy_metric(self, predictor):
        train(predictor, PC, [4] * 10)
        assert 0.0 <= predictor.stats.accuracy <= 1.0
        assert predictor.stats.misprediction_rate == pytest.approx(
            1.0 - predictor.stats.accuracy)

    def test_negative_prediction_clamped(self, predictor):
        # A falling stride never predicts a negative PID.
        train(predictor, PC, [9, 6, 3])
        assert predict(predictor, PC) >= 0


class TestSlotAliasing:
    """Index collisions must not corrupt the resident entry's predictions.

    With 512 table entries and 4-byte instruction slots, two loads whose
    pcs differ by 512 * 4 = 2048 bytes index the same predictor slot but
    carry different tags.  The paper's Section V-C rationale for the
    blacklist — avoid destructive aliasing in the predictor table —
    applies to tag conflicts too: a colliding load may *contest* the
    slot (and eventually evict it) but must never silently degrade the
    resident instruction's stride confidence.
    """

    ALIAS_PC = PC + 512 * 4  # same slot as PC, different tag

    def test_collision_does_not_degrade_confident_stride(self, predictor):
        # Train load A to a fully confident +3 stride.
        train(predictor, PC, [10, 13, 16, 19, 22])
        assert predict(predictor, PC) == 25
        # Two colliding reloads from load B (not enough to evict A).
        predictor.update(self.ALIAS_PC, 0, 99)
        predictor.update(self.ALIAS_PC, 0, 99)
        # A's stride prediction is intact — not decayed to "last PID".
        assert predict(predictor, PC) == 25

    def test_collision_does_not_corrupt_training(self, predictor):
        train(predictor, PC, [10, 13, 16, 19, 22])
        predictor.update(self.ALIAS_PC, 0, 7)
        # Training A continues from exactly where it left off.
        assert train(predictor, PC, [25, 28, 31]) == [25, 28, 31]

    def test_sustained_collisions_still_evict(self, predictor):
        # Replacement must stay possible: a persistently colliding load
        # eventually wins the slot outright.
        train(predictor, PC, [10, 13, 16, 19, 22])
        for _ in range(8):
            predicted = predict(predictor, self.ALIAS_PC)
            predictor.update(self.ALIAS_PC, predicted, 99)
        assert predict(predictor, self.ALIAS_PC) == 99
