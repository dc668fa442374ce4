import inspect
import math

import numpy as np
import pytest

from artikit.losses import (
    DEFAULT_WEIGHTS,
    LossWeights,
    MotionPrediction,
    confidence_loss,
    dice_loss,
    focal_loss,
    motion_loss,
    object_category_loss,
    selftest,
    stage_loss,
    structure_loss,
    triplet_loss,
)
from artikit.model import JointLimits, JointSpec, JointType
from tests.oracles import bce_mean


class TestTriplet:
    def test_degenerate_identical_embeddings(self):
        v = np.array([0.3, -0.2, 0.9])
        assert triplet_loss(v, v, v, tau=0.37) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_antipodal_closed_form(self):
        a = np.array([1.0, 0.0])
        c = np.array([-1.0, 0.0])
        expected = math.log(1.0 + math.exp(-2.0))
        assert triplet_loss(a, a, c, tau=1.0) == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_positive_similarity(self):
        c = np.array([0.0, 0.0, 1.0])
        a = np.array([1.0, 0.0, 0.0])
        values = []
        for cos_ab in (0.0, 0.5, 1.0):
            b = np.array([cos_ab, math.sqrt(1 - cos_ab**2), 0.0])
            values.append(triplet_loss(a, b, c, tau=0.5))
        assert values[0] > values[1] > values[2]

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 6))
            assert triplet_loss(a, b, c, tau=float(rng.uniform(0.1, 2.0))) >= 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            triplet_loss(np.zeros(3), np.ones(3), np.ones(3), tau=1.0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            triplet_loss(np.ones(2), np.ones(2), np.ones(2), tau=0.0)


class TestFocal:
    def test_perfect_prediction_tiny(self):
        gt = np.array([1.0, 0.0, 1.0])
        assert focal_loss(gt, gt) <= 1e-10

    def test_at_half_closed_form(self):
        pred = np.full(6, 0.5)
        gt = np.array([1.0, 0, 1, 0, 1, 0])
        assert focal_loss(pred, gt, gamma=2.0) == pytest.approx(0.25 * math.log(2.0), abs=1e-9)

    def test_gamma_zero_is_bce(self):
        rng = np.random.default_rng(2)
        pred = rng.random(50)
        gt = (rng.random(50) > 0.5).astype(float)
        assert focal_loss(pred, gt, gamma=0.0) == pytest.approx(bce_mean(pred, gt), abs=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        pred = rng.random(30)
        gt = (rng.random(30) > 0.5).astype(float)
        perm = rng.permutation(30)
        assert focal_loss(pred, gt) == pytest.approx(focal_loss(pred[perm], gt[perm]), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros(3), np.zeros(4))


class TestDice:
    def test_identical_masks_near_zero(self):
        gt = np.array([1.0, 1.0, 0.0])
        k = 2
        assert dice_loss(gt, gt) == pytest.approx(1e-6 / (2 * k + 1e-6), abs=1e-12)

    def test_total_mismatch_is_one(self):
        assert dice_loss(np.ones(5), np.zeros(5)) == pytest.approx(1.0, abs=1e-6)

    def test_half_overlap(self):
        assert dice_loss(np.full(4, 0.5), np.array([1.0, 1, 0, 0])) == pytest.approx(0.5, abs=1e-6)


class TestConfidence:
    def test_zero_when_sigma_equals_target(self):
        assert confidence_loss(0.0, 0.5) == 0.0

    def test_at_half_with_full_target(self):
        assert confidence_loss(0.0, 1.0, beta=2.0) == pytest.approx(0.25 * math.log(2.0), abs=1e-9)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(4)
        values = [
            confidence_loss(float(rng.normal(scale=4)), float(rng.random()))
            for _ in range(10000)
        ]
        assert min(values) >= 0.0

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            confidence_loss(0.0, 1.2)

    @pytest.mark.parametrize("c_hat", [-709.0, -709.8, -709.79, -710.0, -1e6, -1.7e308])
    def test_very_negative_logit_is_clamped_not_overflowed(self, c_hat):
        # sigma(c_hat) lies far below the clamp, as it does at -100
        assert confidence_loss(c_hat, 0.5) == confidence_loss(-100.0, 0.5)

    def test_the_logistic_is_unchanged_where_exp_does_not_overflow(self):
        rng = np.random.default_rng(5)
        for c_hat in np.concatenate([rng.uniform(-709.7, 709.7, 500), rng.normal(0, 20, 500)]):
            sig = 1.0 / (1.0 + math.exp(-c_hat))
            sig = min(max(sig, 1e-7), 1.0 - 1e-7)
            bce = -0.3 * math.log(sig) - 0.7 * math.log(1.0 - sig)
            assert confidence_loss(c_hat, 0.3) == abs(sig - 0.3) ** 2.0 * bce


class TestMotion:
    def gt_joint(self):
        return JointSpec(
            JointType.REVOLUTE, [0, 0, 1], [0.1, 0.2, 0.0], JointLimits(0.4, 0.2)
        )

    def exact_pred(self):
        return MotionPrediction([0.0, 30.0, 0.0, 0.0], [0, 0, 1], [0.1, 0.2, 0.0], 0.4, 0.2)

    def test_exact_prediction_zero(self):
        total, parts = motion_loss(self.exact_pred(), self.gt_joint())
        assert total == pytest.approx(0.0, abs=1e-9)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in parts.values())

    def test_flipped_axis_dir_zero(self):
        pred = MotionPrediction([0.0, 30.0, 0.0, 0.0], [0, 0, -1], [0.1, 0.2, 0.0], 0.4, 0.2)
        _, parts = motion_loss(pred, self.gt_joint())
        assert parts["dir"] == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_axis_and_origin_l1(self):
        pred = MotionPrediction([0.0, 30.0, 0.0, 0.0], [1, 0, 0], [0.2, 0.0, 0.0], 0.4, 0.2)
        _, parts = motion_loss(pred, self.gt_joint())
        assert parts["dir"] == pytest.approx(1.0, abs=1e-12)
        assert parts["origin"] == pytest.approx(0.1 + 0.2, abs=1e-12)

    def test_dir_invariant_to_pred_scale(self):
        base = MotionPrediction([0.0, 30.0, 0.0, 0.0], [0.3, 0.4, 0.2], [0, 0, 0], 0.0, 0.0)
        scaled = MotionPrediction([0.0, 30.0, 0.0, 0.0], [1.5, 2.0, 1.0], [0, 0, 0], 0.0, 0.0)
        gt = JointSpec(JointType.REVOLUTE, [0, 0, 1], [0, 0, 0], JointLimits(0, 0))
        assert motion_loss(base, gt)[1]["dir"] == pytest.approx(
            motion_loss(scaled, gt)[1]["dir"], abs=1e-12
        )

    def test_limit_term(self):
        pred = MotionPrediction([0.0, 30.0, 0.0, 0.0], [0, 0, 1], [0.1, 0.2, 0.0], 0.5, 0.15)
        _, parts = motion_loss(pred, self.gt_joint())
        assert parts["limit"] == pytest.approx(abs(0.5 - 0.4) + abs(0.15 - 0.2), abs=1e-12)

    def test_zero_pred_axis_rejected(self):
        pred = MotionPrediction([0.0, 30.0, 0.0, 0.0], [0, 0, 0], [0, 0, 0], 0.0, 0.0)
        with pytest.raises(ValueError, match="zero norm"):
            motion_loss(pred, self.gt_joint())

    def test_weighted_total(self):
        weights = LossWeights(type=2.0, dir=3.0, origin=0.5, limit=0.0)
        pred = MotionPrediction([0.0, 30.0, 0.0, 0.0], [1, 0, 0], [0.2, 0.0, 0.0], 0.0, 0.0)
        total, parts = motion_loss(pred, self.gt_joint(), weights)
        expected = 2 * parts["type"] + 3 * parts["dir"] + 0.5 * parts["origin"]
        assert total == pytest.approx(expected, abs=1e-12)


class TestStructure:
    def test_one_hot_zero(self):
        assert structure_loss(np.array([[1.0, 0.0]]), [0]) == 0.0

    def test_uniform_ln4(self):
        assert structure_loss(np.full((1, 4), 0.25), [1]) == pytest.approx(math.log(4), abs=1e-6)

    def test_mean_of_rows(self):
        probs = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert structure_loss(probs, [0, 1]) == pytest.approx(math.log(2) / 2, abs=1e-9)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            structure_loss(np.array([[1.0, 0.0]]), [5])


class TestObjectCategory:
    def test_uniform_logits(self):
        assert object_category_loss(np.zeros(7), 2) == pytest.approx(math.log(7), abs=1e-9)

    def test_saturated_logits(self):
        assert object_category_loss(np.array([30.0, 0.0, 0.0, 0.0]), 0) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=9)
        base = object_category_loss(logits, 4)
        assert object_category_loss(logits + 123.4, 4) == pytest.approx(base, abs=1e-9)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            object_category_loss(np.zeros(3), 3)


class TestStage:
    def test_stage_one_passthrough(self):
        assert stage_loss(1, {"triplet": 0.7}) == 0.7

    def test_stage_three_default_weights(self):
        total = stage_loss(3, {"triplet": 1.0, "mask": 1.0, "score": 1.0, "motion": 1.0})
        assert total == pytest.approx(3.2, abs=1e-12)

    def test_stage_three_zero_ramp(self):
        total = stage_loss(
            3, {"triplet": 1.0, "mask": 1.0, "score": 1.0, "motion": 100.0}, ramp=0.0
        )
        assert total == pytest.approx(2.2, abs=1e-12)

    def test_missing_component(self):
        with pytest.raises(ValueError, match="motion"):
            stage_loss(3, {"triplet": 1.0, "mask": 1.0, "score": 1.0})

    def test_weights_default_values(self):
        w = DEFAULT_WEIGHTS
        assert (w.triplet, w.mask, w.score, w.motion) == (0.2, 1.0, 1.0, 1.0)
        assert (w.type, w.dir, w.origin, w.limit) == (1.0, 1.0, 1.0, 1.0)
        assert len(vars(w)) == 8
        # gamma and beta are the kernels' own defaults
        assert inspect.signature(focal_loss).parameters["gamma"].default == 2.0
        assert inspect.signature(confidence_loss).parameters["beta"].default == 2.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(mask=-1.0)


def test_selftest_all_pass():
    rows = selftest()
    assert rows and all(row["passed"] for row in rows)
    names = [row["name"] for row in rows]
    assert "triplet/degenerate" in names
    assert "structure/uniform-4" in names
