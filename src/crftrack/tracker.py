"""Online tracking workflow over recorded hypothesis streams.

The tracker consumes precomputed per-frame hypotheses (recorded from an
upstream tracker or synthesized) whose rows carry the stream's tracklet ids,
maintains rolling three-frame histories, and decides inactivation either by
the plain score threshold or through the per-frame CRF. Inactivated
tracklets are never revived; a new id starts a tracklet after greedy IoU
suppression against kept ones. A frame whose rows fail a check is rejected
before it changes any state.

The scenario generator builds seeded synthetic sequences with constant
velocity pedestrians, camera pan, and injected boundary-drift events in which
a tracklet slides off its exiting target onto a neighbor, then lingers near
the boundary where it shadows a later entrant. A threshold-only tracker keeps
the drifted tracklet and suffers the resulting identity theft; kinematic
features let the CRF inactivate it at drift onset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# The decision kinds are re-exported: callers read them as tracker.KEPT etc.
from .crf_model import (ACTIVE_KINDS, BYPASS, DEFAULT_INFERENCE,  # noqa: F401
                        INACTIVATED_CRF, INACTIVATED_THRESHOLD, KEPT, ModelParams, decide_frame)
from .errors import CapacityError, NumericalError, ValidationError
from .factor_graph import BpConfig
from .features import Box, FrameContext, HypothesisWindow, is_integer, is_real
from .io import TrackFile, TrackRecord, _decode_json, round_half_up
from .metrics import iou

NMS_IOU = 0.5


@dataclass
class TrackerState:
    """Each active tracklet's window, by id, and the ids retired so far."""

    active: dict[int, HypothesisWindow] = field(default_factory=dict)
    inactive: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class TrackletDecision:
    track_id: int
    box: Box
    score: float
    decision: str


@dataclass
class FrameResult:
    frame: int
    decisions: list[TrackletDecision]


def _inactivate(state: TrackerState, track_id: int):
    state.active.pop(track_id, None)
    state.inactive.add(track_id)


def step(state: TrackerState, frame: int, hypotheses, params: ModelParams,
         ctx: FrameContext, mode: str = "crf", inference: str = DEFAULT_INFERENCE,
         bp: BpConfig | None = None, observer=None):
    """Advance the tracker by one frame.

    hypotheses is a list of (track_id, Box, score) rows with the stream's
    ids: an active id continues its tracklet, a new id is a detection, and
    rows of inactivated ids are ignored (no re-identification). Returns
    (state, FrameResult), updating the state in place. Every row is checked
    first, so a ValidationError (a score outside [0, 1], an id named twice,
    a new id that is not an integer) leaves the state unchanged.
    """
    if mode not in ("threshold-only", "crf"):
        raise ValidationError(f"unknown tracking mode {mode!r}")

    existing = []
    detections = []
    named = set()
    for tid, box, score in hypotheses:
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"hypothesis score {score} outside [0, 1] at frame {frame}")
        if tid in named:
            raise ValidationError(f"duplicate hypothesis for tracklet {tid} at frame {frame}")
        named.add(tid)
        if tid in state.active:
            existing.append((tid, box, score))
        elif tid not in state.inactive:
            if not is_integer(tid):
                raise ValidationError(f"tracklet id {tid!r} at frame {frame} is not an integer")
            detections.append((tid, box, score))

    decisions = []

    # Active tracklets with no hypothesis this frame lost their target.
    for tid in sorted(set(state.active) - named):
        last_box = state.active[tid].boxes[-1]
        _inactivate(state, tid)
        decisions.append(TrackletDecision(tid, last_box, 0.0, INACTIVATED_THRESHOLD))

    existing.sort(key=lambda t: t[0])
    for tid, box, score in existing:
        state.active[tid] = state.active[tid].extended(box, score)

    if mode == "threshold-only":
        kinds = {tid: INACTIVATED_THRESHOLD if score < params.short_threshold else KEPT
                 for tid, _, score in existing}
    else:
        windows = [state.active[tid] for tid, _, _ in existing]
        if observer is not None and windows:
            observer(frame, windows)
        kinds, _ = decide_frame(windows, params, ctx, inference, bp)
    for tid, box, score in existing:
        if kinds[tid] not in ACTIVE_KINDS:
            _inactivate(state, tid)
        decisions.append(TrackletDecision(tid, box, score, kinds[tid]))

    # New detections, greedy score-descending suppression against everything
    # kept. Detections below the short-tracklet threshold never start: a
    # one-box tracklet would be inactivated by that same rule immediately.
    kept = [(d.track_id, d.box) for d in decisions if d.decision in ACTIVE_KINDS]
    detections.sort(key=lambda t: (-t[2], t[0]))
    for tid, box, score in detections:
        if score < params.short_threshold:
            continue
        if any(_overlap(frame, tid, box, *other) >= NMS_IOU for other in kept):
            continue
        state.active[tid] = HypothesisWindow(tid, (box,), score)
        kept.append((tid, box))
        decisions.append(TrackletDecision(tid, box, score, KEPT))

    decisions.sort(key=lambda d: d.track_id)
    return state, FrameResult(frame=frame, decisions=decisions)


def _overlap(frame, tid, box, kept_id, kept_box) -> float:
    """metrics.iou of a detection and a kept box; its error names the frame and both ids."""
    try:
        return iou(box, kept_box)
    except NumericalError:
        raise NumericalError(f"frame {frame}: IoU of detection id {tid} {box} and kept "
                             f"tracklet id {kept_id} {kept_box} is not finite") from None


def run(hypotheses: TrackFile, params: ModelParams, ctx: FrameContext,
        mode: str = "crf", inference: str = DEFAULT_INFERENCE, bp: BpConfig | None = None,
        results: list | None = None, observer=None) -> TrackFile:
    """Fold step over all frames of a hypothesis file.

    Returns the kept rows as a new TrackFile. Pass a list as `results` to
    collect every FrameResult; `observer(frame, windows)` is called per frame
    in CRF mode before inference.
    """
    state = TrackerState()
    out = []
    for frame, rows in hypotheses.frames():
        rows = [(tid, Box(*xywh), score) for tid, xywh, score in rows]
        state, frame_result = step(state, frame, rows, params, ctx, mode=mode,
                                   inference=inference, bp=bp, observer=observer)
        if results is not None:
            results.append(frame_result)
        for d in frame_result.decisions:
            if d.decision in ACTIVE_KINDS:
                out.append((frame, d.track_id, d.box.left, d.box.top,
                            d.box.width, d.box.height, d.score))
    return TrackFile(out)


# --------------------------------------------------------------------------
# Synthetic scenarios
# --------------------------------------------------------------------------

# Drift-event geometry, in pixels and frames.
EXIT_SPEED = 5.0        # victim's speed toward the boundary
NEIGHBOR_GAP = 75.0     # victim-to-neighbor offset at drift onset
RIDE_FRAMES = 12        # frames the drifted box rides the neighbor
ENTRANT_DELAY = 2       # frames between neighbor exit and new entrant
ENTRANT_SPEED = 3.2     # entrant's speed away from the boundary


@dataclass(frozen=True)
class DriftEvent:
    """At `frame`, the victim's hypothesis starts sliding onto the neighbor."""

    frame: int
    victim: int
    neighbor: int


@dataclass
class ScenarioSpec:
    """Recipe for one synthetic sequence.

    camera_pan is either a constant (px, py) per-frame rate or a list of
    (start_frame, (px, py)) segments. Box jitter applies to hypothesis
    positions only; sizes stay exact because the height-change-rate feature
    amplifies size noise by the squared frame rate. The default frame rate is
    deliberately low for the same reason: the velocity-change feature scales
    with the fourth power of the frame rate, as printed.
    """

    num_frames: int = 130
    image_width: float = 1920.0
    image_height: float = 1080.0
    frame_rate: float = 5.0
    num_targets: int = 8
    camera_pan: object = (0.0, 0.0)
    drift_events: list[DriftEvent] = field(default_factory=list)
    noise_std: float = 0.1
    seed: int = 0

    def validate(self) -> FrameContext:
        """Check every field and return the frame context.

        Raises ValidationError, or CapacityError when numpy cannot hold num_frames rows;
        a camera_pan of the wrong shape raises TypeError or LookupError.
        """
        for name in ("num_frames", "num_targets", "seed"):
            if not is_integer(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.num_frames < 1 or self.num_targets < 1:
            raise ValidationError("num_frames and num_targets must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        ctx = FrameContext(self.image_width, self.image_height, self.frame_rate)
        if not (is_real(self.noise_std) and math.isfinite(self.noise_std)
                and self.noise_std >= 0):
            raise ValidationError("noise_std must be a finite number >= 0")
        segments = self.pan_segments()
        if not segments or not all(is_integer(start) and len(rate) == 2 and all(map(is_real, rate))
                                   for start, rate in segments):
            raise ValidationError("camera_pan needs [px, py] numbers and integer start frames")
        try:
            offsets = self.pan_offsets()
        except (ValueError, MemoryError) as exc:  # numpy cannot describe or allocate the rows
            raise CapacityError(f"num_frames {self.num_frames} is too large: {exc}") from None
        if not np.isfinite(offsets).all():
            raise ValidationError("camera_pan must keep every pan offset finite")
        used = set()
        for ev in self.drift_events:
            if not all(is_integer(v) for v in (ev.frame, ev.victim, ev.neighbor)):
                raise ValidationError(f"drift event fields must be integers: {ev}")
            if not (0 <= ev.victim < self.num_targets) or not (0 <= ev.neighbor < self.num_targets):
                raise ValidationError(f"drift event references unknown target: {ev}")
            if ev.victim == ev.neighbor:
                raise ValidationError(f"drift event needs distinct targets: {ev}")
            if ev.victim in used or ev.neighbor in used:
                raise ValidationError("each target may participate in at most one drift event")
            used.update((ev.victim, ev.neighbor))
            span = RIDE_FRAMES + ENTRANT_DELAY + 12
            if not (4 <= ev.frame and ev.frame + span <= self.num_frames):
                raise ValidationError(
                    f"drift event at frame {ev.frame} does not fit into {self.num_frames} frames")
        return ctx

    def pan_segments(self) -> list:
        """camera_pan as (start_frame, (px, py)) segments in start-frame order."""
        pan = self.camera_pan
        if len(pan) == 2 and np.isscalar(pan[0]):
            return [(1, tuple(pan))]
        return sorted((start, tuple(rate)) for start, rate in pan)

    def pan_offsets(self) -> np.ndarray:
        """Cumulative pan offset per frame, shape (num_frames + 1, 2); frame 1 is zero."""
        rates = np.zeros((self.num_frames + 1, 2))
        for start, rate in self.pan_segments():
            rates[max(start, 2):] = rate
        with np.errstate(over="ignore"):  # validate rejects the infinite offsets
            return np.cumsum(rates, axis=0)


def scenario_from_json(text: str) -> ScenarioSpec:
    """Parse a scenario spec from JSON text.

    The keys are the fields of ScenarioSpec. drift_events ([[frame, victim,
    neighbor], ...]) become DriftEvents and a camera_pan array ([px, py] or
    [[start_frame, [px, py]], ...]) a tuple; ScenarioSpec.validate checks
    every value.
    """
    data = _decode_json(text, "scenario JSON")
    if not isinstance(data, dict):
        raise ValidationError("scenario JSON must be an object")
    unknown = set(data) - {f.name for f in fields(ScenarioSpec)}
    if unknown:
        raise ValidationError(f"unknown scenario keys {sorted(unknown)}")
    kwargs = dict(data)
    try:
        if isinstance(data.get("camera_pan"), list):
            kwargs["camera_pan"] = tuple(data["camera_pan"])
        if "drift_events" in data:
            kwargs["drift_events"] = [DriftEvent(*ev) for ev in data["drift_events"]]
        spec = ScenarioSpec(**kwargs)
        spec.validate()
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise ValidationError(f"bad scenario field: {exc}")
    return spec


def _lerp(a, b, frac):
    return a + (b - a) * frac


@np.errstate(over="ignore")  # make_box rejects every non-finite box
def generate_scenario(spec: ScenarioSpec):
    """Build (hypotheses, ground_truth, ctx) for a scenario, fully seeded.

    Ground truth carries true identities with score 1; hypotheses reuse the
    ground-truth ids (an upstream tracker's output), except that drift events
    rewrite the victim's rows: three frames of interpolation onto the
    neighbor, a stretch riding it, then a stationary box parked at the
    neighbor's exit point. The entrant spawned at that exit point afterwards
    carries a fresh id from its first frame. Raises CapacityError naming
    num_frames or num_targets when numpy cannot hold the scenario's arrays.
    """
    ctx = spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_events = len(spec.drift_events)
    n_total = spec.num_targets + n_events
    frames = spec.num_frames

    try:  # numpy raises ValueError for arrays it cannot describe, MemoryError for the rest
        heights = rng.uniform(130.0, 170.0, n_total)
        widths = 0.42 * heights
        band_step = (spec.image_height - 400.0) / max(spec.num_targets, 1)
        band_y = (200.0 + band_step * np.arange(spec.num_targets)
                  + rng.uniform(-10, 10, spec.num_targets))
        start_x = rng.uniform(0.25 * spec.image_width, 0.85 * spec.image_width, spec.num_targets)
        vel_x = rng.uniform(-2.0, 2.0, spec.num_targets)
        vel_y = rng.uniform(-0.5, 0.5, spec.num_targets)
        jitter = rng.normal(0.0, spec.noise_std, (n_total, frames + 1, 2)) \
            if spec.noise_std > 0 else np.zeros((n_total, frames + 1, 2))
        score_noise = rng.normal(0.0, 0.008, (n_total, frames + 1))
    except (ValueError, MemoryError) as exc:
        raise CapacityError(f"num_targets {spec.num_targets} is too large for {frames} "
                            f"frames: {exc}") from None

    pan = spec.pan_offsets()

    # Base trajectories: an anchor (frame, pos, vel) puts the center at pos + vel * (t - frame).
    anchors = [(1, np.array([start_x[k], band_y[k]]), np.array([vel_x[k], vel_y[k]]))
               for k in range(spec.num_targets)]
    drift_frame = {}
    for ev in spec.drift_events:
        f = ev.frame
        victim_at_f = np.array([12.0, band_y[ev.victim]])
        anchors[ev.victim] = (f, victim_at_f, np.array([-EXIT_SPEED, 0.0]))
        neighbor_at_f = victim_at_f + np.array([NEIGHBOR_GAP, 8.0])
        nb_speed = neighbor_at_f[0] / RIDE_FRAMES
        anchors[ev.neighbor] = (f, neighbor_at_f, np.array([-nb_speed, 0.0]))
        drift_frame[ev.victim] = f

    def center_at(anchor, t):
        anchor_frame, pos, vel = anchor
        return pos + vel * (t - anchor_frame)

    def in_image(center):
        return (0.0 <= center[0] <= spec.image_width
                and 0.0 <= center[1] <= spec.image_height)

    def make_box(center, w, h):
        if not (math.isfinite(center[0]) and math.isfinite(center[1])):
            raise ValidationError("noise_std and camera_pan must keep every box finite")
        return (round_half_up(center[0] - w / 2.0, 2), round_half_up(center[1] - h / 2.0, 2),
                round_half_up(w, 2), round_half_up(h, 2))

    gt_rows = []
    hyp_rows = []

    def clip_score(value, lo=0.9):
        return round_half_up(min(1.0, max(lo, value)), 4)

    # Walker k's rows while it is in the image, hypotheses before hyp_until;
    # returns its last visible frame, or None.
    def walk(k, anchor, first_frame, hyp_until):
        last_visible = None
        for t in range(first_frame, frames + 1):
            center = center_at(anchor, t) + pan[t]
            if not in_image(center):
                continue
            last_visible = t
            gt_rows.append(TrackRecord(t, k + 1, *make_box(center, widths[k], heights[k]), 1.0))
            if t < hyp_until:
                hyp_box = make_box(center + jitter[k, t], widths[k], heights[k])
                hyp_rows.append(TrackRecord(t, k + 1, *hyp_box,
                                            clip_score(0.98 + score_noise[k, t])))
        return last_visible

    # A victim's hypothesis rows from its drift frame on are rewritten below.
    last_visible = [walk(k, anchors[k], 1, drift_frame.get(k, frames + 1))
                    for k in range(spec.num_targets)]

    # Drift events: the victim's hypothesis timeline, then an entrant walking
    # in through the neighbor's exit point.
    for e_idx, ev in enumerate(spec.drift_events):
        f = ev.frame
        vic, nb = ev.victim, ev.neighbor
        nb_exit = last_visible[nb] or f + RIDE_FRAMES
        park_base = center_at(anchors[nb], nb_exit)
        for t in range(f, frames + 1):
            if t < f + 2:
                frac = (t - f + 1) / 3.0
                center = _lerp(center_at(anchors[vic], t), center_at(anchors[nb], t),
                               frac) + pan[t]
                w = _lerp(widths[vic], widths[nb], frac)
                h = _lerp(heights[vic], heights[nb], frac)
            elif t <= nb_exit:
                center = center_at(anchors[nb], t) + pan[t]
                w, h = widths[nb], heights[nb]
            else:
                center = park_base + pan[t]
                w, h = widths[nb], heights[nb]
            box = make_box(center + jitter[vic, t], w, h)
            hyp_rows.append(TrackRecord(t, vic + 1, *box,
                                        clip_score(0.92 + score_noise[vic, t], lo=0.55)))

        g = nb_exit + ENTRANT_DELAY
        walk(spec.num_targets + e_idx, (g, park_base + np.array([1.0, 0.0]),
                                        np.array([ENTRANT_SPEED, 0.0])), g, frames + 1)

    gt_rows.sort(key=lambda r: (r.frame, r.track_id))
    hyp_rows.sort(key=lambda r: (r.frame, r.track_id))
    return TrackFile(hyp_rows), TrackFile(gt_rows), ctx
