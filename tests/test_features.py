import math

import numpy as np
import pytest

from crftrack.errors import InsufficientHistoryError, ValidationError
from crftrack.features import (Box, FeatureParams, FrameContext, HypothesisWindow,
                               aspect_ratio_change, boundary_flag, height_change_rate,
                               keep_keep_penalties, unary_feature, velocity_change)

CTX = FrameContext(1920, 1080, 30.0)
PARAMS = FeatureParams()


def window_from_boxes(boxes, score=0.9, tid=1):
    return HypothesisWindow(tracklet_id=tid, boxes=tuple(Box(*b) for b in boxes), score=score)


def window_from_centers(centers, w=10.0, h=20.0, score=0.9, tid=1):
    return window_from_boxes([(cx - w / 2, cy - h / 2, w, h) for cx, cy in centers],
                             score=score, tid=tid)


def keep_keep(a, b, ctx=CTX):
    """keep_keep_penalties of the one pair (a, b)."""
    return keep_keep_penalties((a, b), np.array([0]), np.array([1]), PARAMS, ctx)[0]


class TestAspectRatioChange:
    def test_unchanged(self):
        win = window_from_boxes([(0, 0, 10, 20), (0, 0, 10, 20)])
        assert aspect_ratio_change(win) == 1.0

    def test_widening(self):
        win = window_from_boxes([(0, 0, 10, 20), (0, 0, 15, 20)])
        assert aspect_ratio_change(win) == pytest.approx(1.5)

    def test_hand_value(self):
        win = window_from_boxes([(0, 0, 12, 30), (0, 0, 8, 32)])
        assert aspect_ratio_change(win) == pytest.approx(0.625)

    def test_insufficient_history(self):
        win = window_from_boxes([(0, 0, 10, 20)])
        with pytest.raises(InsufficientHistoryError):
            aspect_ratio_change(win)

    def test_underflowed_previous_ratio_is_infinite(self):
        # 1e-30 / 1e300 underflows to 0.0, so the ratio over it is infinite.
        for current in ((0, 0, 10, 20), (0, 0, 1e-30, 1e300)):
            win = window_from_boxes([(0, 0, 1e-30, 1e300), current])
            assert aspect_ratio_change(win) == math.inf


class TestVelocityChange:
    def test_constant_velocity(self):
        win = window_from_centers([(0, 0), (1, 0), (2, 0)])
        assert velocity_change(win, CTX) == pytest.approx((0.0, 0.0))

    def test_hand_value(self):
        win = window_from_centers([(0, 0), (1, 0), (3, 0)])
        ctx = FrameContext(1920, 1080, 2.0)
        assert velocity_change(win, ctx) == pytest.approx((4.0, 0.0))

    def test_stationary(self):
        win = window_from_centers([(5, 5), (5, 5), (5, 5)])
        assert velocity_change(win, CTX) == pytest.approx((0.0, 0.0))

    def test_insufficient_history(self):
        win = window_from_centers([(0, 0), (1, 0)])
        with pytest.raises(InsufficientHistoryError):
            velocity_change(win, CTX)


class TestHeightChangeRate:
    def _win(self, heights):
        return window_from_boxes([(0, 0, 10, h) for h in heights])

    def test_constant_height(self):
        ctx = FrameContext(1920, 1080, 1.0)
        assert height_change_rate(self._win([100, 100, 100]), ctx, PARAMS) == 0.0

    def test_geometric_growth(self):
        ctx = FrameContext(1920, 1080, 1.0)
        assert height_change_rate(self._win([100, 110, 121]), ctx, PARAMS) \
            == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        ctx = FrameContext(1920, 1080, 1.0)
        value = height_change_rate(self._win([100, 110, 115]), ctx, PARAMS)
        assert value == pytest.approx((0.0454545454 - 0.1) / 0.1, abs=1e-9)

    def test_denominator_guard(self):
        # Previous growth rate is zero; the guard keeps the value finite.
        ctx = FrameContext(1920, 1080, 1.0)
        value = height_change_rate(self._win([100, 100, 110]), ctx, PARAMS)
        assert value == pytest.approx(0.1 / PARAMS.epsilon_dl)


class TestBoundaryFlag:
    def test_fully_inside(self):
        assert boundary_flag(Box(10, 10, 50, 100), CTX) == 1

    def test_crosses_left_edge(self):
        assert boundary_flag(Box(-5, 10, 50, 100), CTX) == 0

    def test_crosses_right_edge(self):
        assert boundary_flag(Box(1900, 10, 50, 100), CTX) == 0

    def test_crosses_bottom_edge(self):
        assert boundary_flag(Box(10, 1000, 50, 100), CTX) == 0


class TestUnaryFeature:
    def test_perfect_keep_is_free(self):
        win = window_from_boxes([(0, 0, 10, 20)] * 3, score=1.0)
        assert unary_feature(win, 1, PARAMS) == 0.0

    def test_high_score_inactivation_penalty(self):
        win = window_from_boxes([(0, 0, 10, 20)] * 3, score=0.97)
        assert unary_feature(win, 0, PARAMS) == pytest.approx(0.97 + 1.05)

    def test_keep_with_ratio_change(self):
        win = window_from_boxes([(0, 0, 10, 20), (0, 0, 10, 20), (0, 0, 12, 20)],
                                score=0.5)
        assert unary_feature(win, 1, PARAMS) == pytest.approx(0.5 + 1.2 * 0.2)

    def test_monotonicity_in_score(self):
        scores = np.linspace(0.0, 1.0, 21)
        boxes = [(0, 0, 10, 20)] * 3
        label0 = [unary_feature(window_from_boxes(boxes, score=s), 0, PARAMS)
                  for s in scores]
        label1 = [unary_feature(window_from_boxes(boxes, score=s), 1, PARAMS)
                  for s in scores]
        assert all(b >= a - 1e-12 for a, b in zip(label0, label0[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(label1, label1[1:]))


class TestBinaryFeature:
    # The paper's binary feature is keep_keep_penalties; other label pairs cost 0.
    def calm(self, tid, x0=0.0, h=100.0):
        centers = [(x0 + t, 50.0) for t in range(3)]
        return window_from_centers(centers, w=0.4 * h, h=h, tid=tid)

    def test_identical_kinematics_free(self):
        a, b = self.calm(1), self.calm(2, x0=300)
        assert keep_keep(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        ctx = FrameContext(1920, 1080, 2.0)
        # i accelerates along x: centers 0, 1, 3 give a velocity change of 4.
        win_i = window_from_centers([(100, 500), (101, 500), (103, 500)], w=40, h=100, tid=1)
        win_j = window_from_centers([(300, 500), (301, 500), (302, 500)], w=40, h=100, tid=2)
        value = keep_keep(win_i, win_j, ctx=ctx)
        assert value == pytest.approx((1.0 / 200.0) * 16.0, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(10):
            c1 = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(3)]
            c2 = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(3)]
            a = window_from_centers(c1, h=rng.uniform(50, 150), tid=1)
            b = window_from_centers(c2, h=rng.uniform(50, 150), tid=2)
            assert keep_keep(a, b) == pytest.approx(keep_keep(b, a), abs=1e-12)

    def test_translation_invariance(self, rng):
        # A constant per-frame offset on every box (camera pan) changes nothing.
        c1 = [(100 + 2 * t, 200) for t in range(3)]
        c2 = [(400 - t, 300 + t) for t in range(3)]
        pan = [(7.0 * t, -3.0 * t) for t in range(3)]
        a, b = window_from_centers(c1, tid=1), window_from_centers(c2, tid=2)
        a_p = window_from_centers([(x + dx, y + dy) for (x, y), (dx, dy) in zip(c1, pan)], tid=1)
        b_p = window_from_centers([(x + dx, y + dy) for (x, y), (dx, dy) in zip(c2, pan)], tid=2)
        base = keep_keep(a, b)
        panned = keep_keep(a_p, b_p)
        assert panned == pytest.approx(base, abs=1e-9)

    def test_relative_motion_consistency(self):
        # Equal displacement differences across both frame pairs zero the
        # velocity term, even though neither tracklet moves uniformly.
        c1 = [(0, 0), (5, 1), (12, 3)]    # displacements (5,1), (7,2)
        c2 = [(100, 50), (103, 51), (108, 53)]  # (3,1), (5,2)
        a = window_from_centers(c1, h=80, tid=1)
        b = window_from_centers(c2, h=80, tid=2)
        assert keep_keep(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_boundary_gates_height_term(self):
        ctx = FrameContext(200, 200, 1.0)
        # Different height profiles, but win_i pokes out of the image.
        boxes_i = [(-5, 10, 20, 50), (-5, 10, 20, 55), (-5, 10, 20, 65)]
        boxes_j = [(100, 10, 20, 50), (100, 10, 20, 50), (100, 10, 20, 50)]
        win_i = window_from_boxes(boxes_i, tid=1)
        win_j = window_from_boxes(boxes_j, tid=2)
        gated = keep_keep(win_i, win_j, ctx=ctx)
        boxes_i_inside = [(5, 10, 20, 50), (5, 10, 20, 55), (5, 10, 20, 65)]
        win_i_in = window_from_boxes(boxes_i_inside, tid=1)
        ungated = keep_keep(win_i_in, win_j, ctx=ctx)
        assert ungated > gated

    def test_non_negative(self, rng):
        for _ in range(30):
            c1 = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(3)]
            c2 = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(3)]
            a = window_from_centers(c1, h=rng.uniform(40, 200), tid=1)
            b = window_from_centers(c2, h=rng.uniform(40, 200), tid=2)
            assert keep_keep(a, b) >= 0.0


class TestTypes:
    def test_box_validation(self):
        with pytest.raises(ValidationError):
            Box(0, 0, 0, 10)
        with pytest.raises(ValidationError):
            Box(0, 0, 10, -1)

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            HypothesisWindow(1, (Box(0, 0, 1, 1),), score=1.5)
        for count in (0, 4):
            with pytest.raises(ValidationError):
                HypothesisWindow(1, (Box(0, 0, 1, 1),) * count, score=0.5)

    def test_window_extended(self):
        boxes = [Box(float(k), 0, 10, 20) for k in range(5)]
        win = HypothesisWindow(7, (boxes[0],), score=0.9)
        for k, box in enumerate(boxes[1:], start=2):
            win = win.extended(box, 0.8)
            assert win.tracklet_id == 7 and len(win.boxes) == min(k, 3) and win.score == 0.8
            assert win.boxes == tuple(boxes[max(0, k - 3):k])
        with pytest.raises(ValidationError):
            win.extended(boxes[0], 1.5)

    def test_context_validation(self):
        with pytest.raises(ValidationError):
            FrameContext(0, 100, 30)
