"""Unary and binary feature functions over per-tracklet observation windows.

All features are penalties (nonnegative); they feed the energy tables of the
per-frame CRF. Rates are expressed per second by scaling frame differences
with the sequence frame rate, so sequences with different frame rates are
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InsufficientHistoryError, ValidationError


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in pixels, (left, top) corner plus positive size."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        vals = (self.left, self.top, self.width, self.height)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"non-finite box {vals}")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"box needs positive size, got {self.width}x{self.height}")

    def center(self):
        return (self.left + self.width / 2.0, self.top + self.height / 2.0)

    def aspect(self):
        return self.width / self.height


@dataclass(frozen=True)
class FrameContext:
    """Image geometry and frame rate of the sequence being tracked."""

    image_width: float
    image_height: float
    frame_rate: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0
                   for v in (self.image_width, self.image_height, self.frame_rate)):
            raise ValidationError("image dimensions and frame rate must be finite and positive")


@dataclass(frozen=True)
class FeatureParams:
    """Feature hyperparameters.

    alpha1 is the extra inactivation penalty for very high scores, alpha2
    scales the aspect-ratio-change penalty, beta the height-change term of the
    pairwise feature. epsilon_dl guards the height-change-rate denominator,
    which is zero whenever the object height was constant.
    """

    alpha1: float = 1.05
    alpha2: float = 1.20
    beta: float = 10.80
    high_score_cut: float = 0.95
    epsilon_dl: float = 1e-3

    def __post_init__(self):
        if min(self.alpha1, self.alpha2, self.beta) < 0:
            raise ValidationError("alpha1, alpha2 and beta must be >= 0")
        if not self.epsilon_dl > 0:
            raise ValidationError("epsilon_dl must be > 0")


@dataclass(frozen=True)
class HypothesisWindow:
    """One tracklet's recent observations: up to three boxes, oldest first.

    boxes[-1] is the current frame; score is the current-frame classification
    score; length is the tracklet's total age in frames (which can exceed the
    number of stored boxes).
    """

    tracklet_id: int
    boxes: tuple[Box, ...]
    score: float
    length: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score {self.score} outside [0, 1]")
        if not 1 <= len(self.boxes) <= 3:
            raise ValidationError("window stores between 1 and 3 boxes")
        if self.length >= 3 and len(self.boxes) < 3:
            raise ValidationError("tracklet of length >= 3 must carry 3 boxes")

    def _need(self, count, what):
        if len(self.boxes) < count:
            raise InsufficientHistoryError(
                f"tracklet {self.tracklet_id}: {what} needs {count} frames, have {len(self.boxes)}"
            )


def aspect_ratio_change(window: HypothesisWindow) -> float:
    """Ratio of the current aspect ratio to the previous frame's."""
    window._need(2, "aspect ratio change")
    cur, prev = window.boxes[-1], window.boxes[-2]
    return cur.aspect() / prev.aspect()


def velocity_change(window: HypothesisWindow, ctx: FrameContext) -> tuple[float, float]:
    """Per-axis change of center velocity, in pixels/second^2.

    Velocities are center displacements scaled by the frame rate; the change
    of velocity is scaled by the frame rate again.
    """
    window._need(3, "velocity change")
    w = ctx.frame_rate
    p0, p1, p2 = (b.center() for b in window.boxes)
    vx_prev, vy_prev = w * (p1[0] - p0[0]), w * (p1[1] - p0[1])
    vx_cur, vy_cur = w * (p2[0] - p1[0]), w * (p2[1] - p1[1])
    return (w * (vx_cur - vx_prev), w * (vy_cur - vy_prev))


def height_change_rate(window: HypothesisWindow, ctx: FrameContext,
                       params: FeatureParams) -> float:
    """Relative change of the height-growth rate across the window.

    The raw formula divides by the previous growth rate, which is zero for a
    constant-height object; the denominator is therefore clamped to
    epsilon_dl in magnitude, keeping its sign (zero counts as positive).
    """
    window._need(3, "height change rate")
    w = ctx.frame_rate
    h0, h1, h2 = (b.height for b in window.boxes)
    dh_prev = w * (h1 - h0) / h0
    dh_cur = w * (h2 - h1) / h1
    sign = -1.0 if dh_prev < 0 else 1.0
    denom = sign * max(abs(dh_prev), params.epsilon_dl)
    return w * (dh_cur - dh_prev) / denom


def boundary_flag(box: Box, ctx: FrameContext) -> int:
    """1 when the box lies fully inside the image, 0 when it crosses an edge."""
    inside = (box.left >= 0 and box.top >= 0
              and box.left + box.width <= ctx.image_width
              and box.top + box.height <= ctx.image_height)
    return 1 if inside else 0


def unary_feature(window: HypothesisWindow, label: int, params: FeatureParams) -> float:
    """Penalty for assigning `label` to one tracklet.

    Label 0 (inactivate) costs the classification score, plus alpha1 when the
    score is above the high-score cut. Label 1 (keep) costs the score deficit
    plus the aspect-ratio-change penalty.
    """
    if label == 0:
        penalty = abs(0.0 - window.score)
        if window.score > params.high_score_cut:
            penalty += params.alpha1
        return penalty
    dr = aspect_ratio_change(window)
    return abs(1.0 - window.score) + params.alpha2 * abs(1.0 - dr)


def binary_feature(win_i: HypothesisWindow, win_j: HypothesisWindow,
                   label_pair: tuple[int, int], params: FeatureParams,
                   ctx: FrameContext) -> float:
    """Penalty for jointly keeping two tracklets whose kinematics disagree.

    Zero unless both labels are 1. Otherwise the squared difference of the
    velocity changes, weighted by 1/(h_i + h_j) with current-frame heights,
    plus beta times the height-change-rate difference. The height term is
    trusted (kappa = 1) only when both current boxes are fully visible.
    """
    if label_pair != (1, 1):
        return 0.0
    dv_i = velocity_change(win_i, ctx)
    dv_j = velocity_change(win_j, ctx)
    box_i, box_j = win_i.boxes[-1], win_j.boxes[-1]
    tau = 1.0 / (box_i.height + box_j.height)
    value = sum(tau * (a - b) ** 2 for a, b in zip(dv_i, dv_j))
    kappa = boundary_flag(box_i, ctx) * boundary_flag(box_j, ctx)
    if kappa:
        dl_i = height_change_rate(win_i, ctx, params)
        dl_j = height_change_rate(win_j, ctx, params)
        value += params.beta * abs(dl_i - dl_j)
    return value
