"""Online tracking workflow over recorded hypothesis streams.

The tracker consumes precomputed per-frame hypotheses (recorded from an
upstream tracker or synthesized), maintains rolling three-frame histories,
and decides inactivation either by the plain score threshold or through the
per-frame CRF. Inactivated tracklets are never revived; new detections start
fresh tracklets after greedy IoU suppression against kept ones.

The scenario generator builds seeded synthetic sequences with constant
velocity pedestrians, camera pan, and injected boundary-drift events in which
a tracklet slides off its exiting target onto a neighbor, then lingers near
the boundary where it shadows a later entrant. A threshold-only tracker keeps
the drifted tracklet and suffers the resulting identity theft; kinematic
features let the CRF inactivate it at drift onset.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# The decision kinds are re-exported: callers read them as tracker.KEPT etc.
from .crf_model import (ACTIVE_KINDS, BYPASS, INACTIVATED_CRF,  # noqa: F401
                        INACTIVATED_THRESHOLD, KEPT, ModelParams, decide_frame)
from .errors import ValidationError
from .factor_graph import BpConfig
from .features import Box, FrameContext, HypothesisWindow
from .io import TrackFile, TrackRecord, round_half_up
from .metrics import iou

NMS_IOU = 0.5


@dataclass
class Tracklet:
    boxes: deque
    score: float
    length: int

    @classmethod
    def fresh(cls, box: Box, score: float) -> "Tracklet":
        return cls(boxes=deque([box], maxlen=3), score=score, length=1)

    def push(self, box: Box, score: float):
        self.boxes.append(box)
        self.score = score
        self.length += 1

    def window(self, track_id: int) -> HypothesisWindow:
        return HypothesisWindow(tracklet_id=track_id, boxes=tuple(self.boxes),
                                score=self.score, length=self.length)


@dataclass
class TrackerState:
    """Registry of active tracklets and the ids retired so far."""

    active: dict[int, Tracklet] = field(default_factory=dict)
    inactive: dict[int, int] = field(default_factory=dict)
    next_id: int = 1


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


def _inactivate(state: TrackerState, track_id: int, frame: int):
    state.active.pop(track_id, None)
    state.inactive[track_id] = frame


def step(state: TrackerState, frame: int, hypotheses, params: ModelParams,
         ctx: FrameContext, mode: str = "crf", inference: str = "loopy-bp",
         bp: BpConfig | None = None, observer=None):
    """Advance the tracker by one frame.

    hypotheses is a list of (track_id or None, Box, score); None entries and
    ids never seen before are new detections. Rows referencing inactivated
    ids are ignored (no re-identification). Returns (state, FrameResult);
    the state object is updated in place.
    """
    if mode not in ("threshold-only", "crf"):
        raise ValidationError(f"unknown tracking mode {mode!r}")

    existing = []
    detections = []
    seen = set()
    for tid, box, score in hypotheses:
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"hypothesis score {score} outside [0, 1] at frame {frame}")
        if tid is not None and tid in state.inactive:
            continue
        if tid is not None and tid in state.active:
            if tid in seen:
                raise ValidationError(f"duplicate hypothesis for tracklet {tid} at frame {frame}")
            seen.add(tid)
            existing.append((tid, box, score))
        else:
            detections.append((tid, box, score))

    decisions = []

    # Active tracklets with no hypothesis this frame lost their target.
    for tid in sorted(set(state.active) - seen):
        last_box = state.active[tid].boxes[-1]
        _inactivate(state, tid, frame)
        decisions.append(TrackletDecision(tid, last_box, 0.0, INACTIVATED_THRESHOLD))

    existing.sort(key=lambda t: t[0])
    for tid, box, score in existing:
        state.active[tid].push(box, score)

    if mode == "threshold-only":
        for tid, box, score in existing:
            if score < params.short_threshold:
                _inactivate(state, tid, frame)
                decisions.append(TrackletDecision(tid, box, score, INACTIVATED_THRESHOLD))
            else:
                decisions.append(TrackletDecision(tid, box, score, KEPT))
    else:
        windows = [state.active[tid].window(tid) for tid, _, _ in existing]
        if observer is not None and windows:
            observer(frame, windows)
        kinds, _ = decide_frame(windows, params, ctx, inference, bp)
        for tid, box, score in existing:
            kind = kinds[tid]
            if kind not in ACTIVE_KINDS:
                _inactivate(state, tid, frame)
            decisions.append(TrackletDecision(tid, box, score, kind))

    # New detections, greedy score-descending suppression against everything
    # kept. Detections below the short-tracklet threshold never start: a
    # length-1 tracklet would be inactivated by that same rule immediately.
    kept_boxes = [d.box for d in decisions if d.decision in ACTIVE_KINDS]
    detections.sort(key=lambda t: (-t[2], t[0] if t[0] is not None else -1))
    for tid, box, score in detections:
        if score < params.short_threshold:
            continue
        if any(iou(box, other) >= NMS_IOU for other in kept_boxes):
            continue
        if tid is None:
            tid = state.next_id
        if tid in state.active or tid in state.inactive:
            raise ValidationError(f"tracklet id {tid} reused at frame {frame}")
        state.next_id = max(state.next_id, tid + 1)
        state.active[tid] = Tracklet.fresh(box, score)
        kept_boxes.append(box)
        decisions.append(TrackletDecision(tid, box, score, KEPT))

    decisions.sort(key=lambda d: d.track_id)
    return state, FrameResult(frame=frame, decisions=decisions)


def run(hypotheses: TrackFile, params: ModelParams, ctx: FrameContext,
        mode: str = "crf", inference: str = "loopy-bp", bp: BpConfig | None = None,
        results: list | None = None, observer=None) -> TrackFile:
    """Fold step over all frames of a hypothesis file.

    Returns the kept rows as a new TrackFile. Pass a list as `results` to
    collect every FrameResult; `observer(frame, windows)` is called per frame
    in CRF mode before inference.
    """
    by_frame = hypotheses.by_frame()
    state = TrackerState()
    out = []
    for frame in sorted(by_frame):
        rows = [(r.track_id, r.box(), r.score) for r in by_frame[frame]]
        state, frame_result = step(state, frame, rows, params, ctx, mode=mode,
                                   inference=inference, bp=bp, observer=observer)
        if results is not None:
            results.append(frame_result)
        for d in frame_result.decisions:
            if d.decision in ACTIVE_KINDS:
                out.append(TrackRecord(frame, d.track_id, d.box.left, d.box.top,
                                       d.box.width, d.box.height, d.score))
    out.sort(key=lambda r: (r.frame, r.track_id))
    return TrackFile(out)


# --------------------------------------------------------------------------
# Synthetic scenarios
# --------------------------------------------------------------------------

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

    # Event geometry, in pixels and frames.
    exit_speed: float = 5.0        # victim's speed toward the boundary
    neighbor_gap: float = 75.0     # victim-to-neighbor offset at drift onset
    ride_frames: int = 12          # frames the drifted box rides the neighbor
    entrant_delay: int = 2         # frames between neighbor exit and new entrant
    entrant_speed: float = 3.2     # entrant's speed away from the boundary

    def validate(self):
        if self.num_frames < 1 or self.num_targets < 1:
            raise ValidationError("num_frames and num_targets must be >= 1")
        if self.noise_std < 0:
            raise ValidationError("noise_std must be >= 0")
        used = set()
        for ev in self.drift_events:
            if not (0 <= ev.victim < self.num_targets) or not (0 <= ev.neighbor < self.num_targets):
                raise ValidationError(f"drift event references unknown target: {ev}")
            if ev.victim == ev.neighbor:
                raise ValidationError(f"drift event needs distinct targets: {ev}")
            if ev.victim in used or ev.neighbor in used:
                raise ValidationError("each target may participate in at most one drift event")
            used.update((ev.victim, ev.neighbor))
            span = self.ride_frames + self.entrant_delay + 12
            if not (4 <= ev.frame and ev.frame + span <= self.num_frames):
                raise ValidationError(
                    f"drift event at frame {ev.frame} does not fit into {self.num_frames} frames")

    def pan_offsets(self) -> np.ndarray:
        """Cumulative pan offset per frame, shape (num_frames + 1, 2); frame 1 is zero."""
        if isinstance(self.camera_pan, (tuple, list)) and len(self.camera_pan) == 2 \
                and np.isscalar(self.camera_pan[0]):
            segments = [(1, (float(self.camera_pan[0]), float(self.camera_pan[1])))]
        else:
            segments = [(int(start), (float(p[0]), float(p[1])))
                        for start, p in self.camera_pan]
            segments.sort()
        offsets = np.zeros((self.num_frames + 1, 2))
        rate = (0.0, 0.0)
        for t in range(2, self.num_frames + 1):
            for start, seg_rate in segments:
                if start <= t:
                    rate = seg_rate
            offsets[t] = offsets[t - 1] + rate
        return offsets


def scenario_from_json(text: str) -> ScenarioSpec:
    """Parse a scenario spec from JSON text.

    Recognized keys: num_frames, image_width, image_height, frame_rate,
    num_targets, camera_pan ([px, py] or [[start_frame, [px, py]], ...]),
    drift_events ([[frame, victim, neighbor], ...]), noise_std, seed.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad scenario JSON: {exc}")
    if not isinstance(data, dict):
        raise ValidationError("scenario JSON must be an object")
    known = {"num_frames", "image_width", "image_height", "frame_rate",
             "num_targets", "camera_pan", "drift_events", "noise_std", "seed"}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown scenario keys {sorted(unknown)}")
    kwargs = {k: data[k] for k in known & set(data) if k not in ("camera_pan", "drift_events")}
    try:
        if "camera_pan" in data:
            pan = data["camera_pan"]
            if pan and isinstance(pan[0], (list, tuple)):
                kwargs["camera_pan"] = [(int(s), (float(p[0]), float(p[1]))) for s, p in pan]
            else:
                kwargs["camera_pan"] = (float(pan[0]), float(pan[1]))
        if "drift_events" in data:
            kwargs["drift_events"] = [DriftEvent(int(f), int(v), int(n))
                                      for f, v, n in data["drift_events"]]
        spec = ScenarioSpec(**kwargs)
        spec.validate()
    except (TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"bad scenario field: {exc}")
    return spec


def _lerp(a, b, frac):
    return a + (b - a) * frac


def generate_scenario(spec: ScenarioSpec):
    """Build (hypotheses, ground_truth, ctx) for a scenario, fully seeded.

    Ground truth carries true identities with score 1; hypotheses reuse the
    ground-truth ids (an upstream tracker's output), except that drift events
    rewrite the victim's rows: three frames of interpolation onto the
    neighbor, a stretch riding it, then a stationary box parked at the
    neighbor's exit point. The entrant spawned at that exit point afterwards
    carries a fresh id from its first frame.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_events = len(spec.drift_events)
    n_total = spec.num_targets + n_events
    frames = spec.num_frames

    heights = rng.uniform(130.0, 170.0, n_total)
    widths = 0.42 * heights
    band_step = (spec.image_height - 400.0) / max(spec.num_targets, 1)
    band_y = 200.0 + band_step * np.arange(spec.num_targets) + rng.uniform(-10, 10, spec.num_targets)
    start_x = rng.uniform(0.25 * spec.image_width, 0.85 * spec.image_width, spec.num_targets)
    vel_x = rng.uniform(-2.0, 2.0, spec.num_targets)
    vel_y = rng.uniform(-0.5, 0.5, spec.num_targets)
    jitter = rng.normal(0.0, spec.noise_std, (n_total, frames + 1, 2)) if spec.noise_std > 0 \
        else np.zeros((n_total, frames + 1, 2))
    score_noise = rng.normal(0.0, 0.008, (n_total, frames + 1))

    pan = spec.pan_offsets()
    ctx = FrameContext(spec.image_width, spec.image_height, spec.frame_rate)

    # Per-target base trajectories: center(t) = anchor + velocity * (t - anchor_frame).
    anchors = [(1, np.array([start_x[k], band_y[k]]), np.array([vel_x[k], vel_y[k]]))
               for k in range(spec.num_targets)]

    event_of_victim = {}
    event_of_neighbor = {}
    for e_idx, ev in enumerate(spec.drift_events):
        f = ev.frame
        y_ref = band_y[ev.victim]
        victim_at_f = np.array([12.0, y_ref])
        anchors[ev.victim] = (f, victim_at_f, np.array([-spec.exit_speed, 0.0]))
        neighbor_at_f = victim_at_f + np.array([spec.neighbor_gap, 8.0])
        nb_speed = neighbor_at_f[0] / spec.ride_frames
        anchors[ev.neighbor] = (f, neighbor_at_f, np.array([-nb_speed, 0.0]))
        event_of_victim[ev.victim] = e_idx
        event_of_neighbor[ev.neighbor] = e_idx

    def base_center(k, t):
        anchor_frame, pos, vel = anchors[k]
        return pos + vel * (t - anchor_frame)

    def image_center(k, t):
        return base_center(k, t) + pan[t]

    def in_image(center):
        return (0.0 <= center[0] <= spec.image_width
                and 0.0 <= center[1] <= spec.image_height)

    def make_box(center, w, h):
        return (round_half_up(center[0] - w / 2.0, 2), round_half_up(center[1] - h / 2.0, 2),
                round_half_up(w, 2), round_half_up(h, 2))

    gt_rows = []
    hyp_rows = []

    def clip_score(value, lo=0.9):
        return round_half_up(min(1.0, max(lo, value)), 4)

    # Ground truth and plain hypothesis rows for the original targets.
    last_visible = {}
    for k in range(spec.num_targets):
        tid = k + 1
        ev_idx = event_of_victim.get(k)
        for t in range(1, frames + 1):
            center = image_center(k, t)
            if not in_image(center):
                continue
            last_visible[k] = t
            box = make_box(center, widths[k], heights[k])
            gt_rows.append(TrackRecord(t, tid, *box, 1.0))
            if ev_idx is not None and t >= spec.drift_events[ev_idx].frame:
                continue  # the victim's hypothesis is rewritten below
            hyp_center = center + jitter[k, t]
            hyp_box = make_box(hyp_center, widths[k], heights[k])
            hyp_rows.append(TrackRecord(t, tid, *hyp_box,
                                        clip_score(0.98 + score_noise[k, t])))

    # Drift events: victim's hypothesis timeline plus the later entrant.
    for e_idx, ev in enumerate(spec.drift_events):
        f = ev.frame
        vic, nb = ev.victim, ev.neighbor
        vic_id = vic + 1
        spawn_idx = spec.num_targets + e_idx
        spawn_id = spawn_idx + 1

        nb_exit = last_visible.get(nb, f + spec.ride_frames)
        park_base = base_center(nb, nb_exit)
        for t in range(f, frames + 1):
            if t < f + 2:
                frac = (t - f + 1) / 3.0
                center = _lerp(base_center(vic, t), base_center(nb, t), frac) + pan[t]
                w = _lerp(widths[vic], widths[nb], frac)
                h = _lerp(heights[vic], heights[nb], frac)
            elif t <= nb_exit:
                center = base_center(nb, t) + pan[t]
                w, h = widths[nb], heights[nb]
            else:
                center = park_base + pan[t]
                w, h = widths[nb], heights[nb]
            hyp_center = center + jitter[vic, t]
            box = make_box(hyp_center, w, h)
            hyp_rows.append(TrackRecord(t, vic_id, *box,
                                        clip_score(0.92 + score_noise[vic, t], lo=0.55)))

        # Entrant walking in through the neighbor's exit point.
        g = nb_exit + spec.entrant_delay
        spawn_anchor = park_base + np.array([1.0, 0.0])
        for t in range(g, frames + 1):
            center = spawn_anchor + np.array([spec.entrant_speed, 0.0]) * (t - g) + pan[t]
            if not in_image(center):
                continue
            box = make_box(center, widths[spawn_idx], heights[spawn_idx])
            gt_rows.append(TrackRecord(t, spawn_id, *box, 1.0))
            hyp_center = center + jitter[spawn_idx, t]
            hyp_box = make_box(hyp_center, widths[spawn_idx], heights[spawn_idx])
            hyp_rows.append(TrackRecord(t, spawn_id, *hyp_box,
                                        clip_score(0.98 + score_noise[spawn_idx, t])))

    gt_rows.sort(key=lambda r: (r.frame, r.track_id))
    hyp_rows.sort(key=lambda r: (r.frame, r.track_id))
    return TrackFile(hyp_rows), TrackFile(gt_rows), ctx
