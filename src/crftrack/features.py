"""Unary and binary feature functions over per-tracklet observation windows.

All features are penalties (nonnegative); they feed the energy tables of the
per-frame CRF. Rates are expressed per second by scaling frame differences
with the sequence frame rate, so sequences with different frame rates are
comparable.

`keep_keep_penalties` is the pairwise feature: the penalty of jointly
keeping two tracklets, for many pairs at once, by broadcasting the
per-window helpers' results through `pair_penalties`. Every other label
pair costs 0.

Two paths compute the same values bit for bit. Tracking calls the
per-window helpers, one frame at a time; training calls `window_features`,
their array form, once over the node windows of a whole dataset, and the
same `pair_penalties`. On one frame of up to 10 nodes the array form's fixed
numpy cost outweighs what it saves, so each caller keeps its own path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistoryError, ValidationError


def is_real(value) -> bool:
    """Python and numpy reals pass; bool, although an int subclass, does not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if not all(is_real(v) and math.isfinite(v) and v > 0
                   for v in (self.image_width, self.image_height, self.frame_rate)):
            raise ValidationError("image sizes and frame rate must be finite positive numbers")


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
        for name in ("alpha1", "alpha2", "beta", "high_score_cut", "epsilon_dl"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if min(self.alpha1, self.alpha2, self.beta) < 0:
            raise ValidationError("alpha1, alpha2 and beta must be >= 0")
        if not self.epsilon_dl > 0:
            raise ValidationError("epsilon_dl must be > 0")


@dataclass(frozen=True)
class HypothesisWindow:
    """One tracklet's recent observations: up to three boxes, oldest first.

    boxes[-1] is the current frame; score is the current-frame classification
    score. A tracklet with fewer than three boxes is younger than three
    frames. A new tracklet is HypothesisWindow(id, (box,), score), and
    `extended` gives each later frame's window.
    """

    tracklet_id: int
    boxes: tuple[Box, ...]
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score {self.score} outside [0, 1]")
        if not 1 <= len(self.boxes) <= 3:
            raise ValidationError("window stores between 1 and 3 boxes")

    def extended(self, box: Box, score: float) -> "HypothesisWindow":
        """The next frame's window: `box` appended, the last three boxes kept."""
        return HypothesisWindow(self.tracklet_id, (*self.boxes[-2:], box), score)

    def _need(self, count, what):
        if len(self.boxes) < count:
            raise InsufficientHistoryError(
                f"tracklet {self.tracklet_id}: {what} needs {count} frames, have {len(self.boxes)}"
            )


def aspect_ratio_change(window: HypothesisWindow) -> float:
    """Ratio of the current aspect ratio to the previous frame's; inf if that one is 0."""
    window._need(2, "aspect ratio change")
    prev = window.boxes[-2].aspect()
    return window.boxes[-1].aspect() / prev if prev else math.inf


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


def keep_keep_penalties(windows, i, j, params: FeatureParams,
                        ctx: FrameContext) -> np.ndarray:
    """Pairwise feature of jointly keeping windows[i[k]] and windows[j[k]], for every k.

    The per-window helpers give each window's kinematics once, however many
    pairs it is in; `pair_penalties` combines them.
    """
    kinematics = np.array([(*velocity_change(w, ctx), height_change_rate(w, ctx, params),
                            w.boxes[-1].height, boundary_flag(w.boxes[-1], ctx))
                           for w in windows], dtype=float).reshape(-1, 5)
    return pair_penalties(kinematics, i, j, params)


def pair_penalties(kinematics, i, j, params: FeatureParams) -> np.ndarray:
    """Keep-keep penalty of the windows i[k] and j[k] from their kinematics rows.

    A row is (dvx, dvy, height change rate, current height, inside flag).
    The penalty is the squared difference of the velocity changes, weighted
    by tau = 1/(h_i + h_j) with current-frame heights, plus beta times the
    height-change-rate difference. The height term is trusted (kappa = 1)
    only when both current boxes are fully visible.
    """
    dvx, dvy, dl, height, inside = kinematics.T
    tau = 1.0 / (height[i] + height[j])
    # float_power squares with C pow, like Python's ** on floats; numpy's **
    # (x * x) differs from it in the last bit for about one value in 1000.
    # C pow keeps the pair tables bit-identical to their earlier values, so
    # the decisions made with the published weights stay the same.
    value = (tau * np.float_power(dvx[i] - dvx[j], 2)
             + tau * np.float_power(dvy[i] - dvy[j], 2))
    kappa = (inside[i] * inside[j]) == 1.0
    value[kappa] += params.beta * np.abs(dl[i[kappa]] - dl[j[kappa]])
    return value


def window_features(boxes, scores, contexts, params: FeatureParams):
    """Unary tables (N, 2) and kinematics rows (N, 5) of N three-box windows at once.

    boxes is (N, 3, 4): each window's (left, top, width, height), oldest
    first; scores is (N,); contexts is (N, 3): image width, image height and
    frame rate. Every value repeats the per-window helpers' operations on
    the same operands, so it equals theirs bit for bit, inf and nan
    included; overflow is not reported here.
    """
    left, top, width, height = np.moveaxis(boxes, -1, 0)
    image_width, image_height, w = contexts.T
    with np.errstate(all="ignore"):
        aspect = width / height
        prev = aspect[:, 1]
        ratio = np.divide(aspect[:, 2], prev, out=np.full(len(prev), math.inf),
                          where=prev != 0)
        unary = np.empty((len(scores), 2))
        unary[:, 0] = np.abs(0.0 - scores) + np.where(scores > params.high_score_cut,
                                                      params.alpha1, 0.0)
        unary[:, 1] = np.abs(1.0 - scores) + params.alpha2 * np.abs(1.0 - ratio)

        kinematics = np.empty((len(scores), 5))
        for axis, (corner, size) in enumerate(((left, width), (top, height))):
            center = corner + size / 2.0
            velocity = w[:, None] * (center[:, 1:] - center[:, :-1])
            kinematics[:, axis] = w * (velocity[:, 1] - velocity[:, 0])
        h0, h1, h2 = height.T
        dh_prev = w * (h1 - h0) / h0
        dh_cur = w * (h2 - h1) / h1
        sign = np.where(dh_prev < 0, -1.0, 1.0)
        kinematics[:, 2] = w * (dh_cur - dh_prev) / (
            sign * np.maximum(np.abs(dh_prev), params.epsilon_dl))
        kinematics[:, 3] = h2
        kinematics[:, 4] = ((left[:, 2] >= 0) & (top[:, 2] >= 0)
                            & (left[:, 2] + width[:, 2] <= image_width)
                            & (top[:, 2] + height[:, 2] <= image_height))
    return unary, kinematics
