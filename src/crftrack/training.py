"""Maximum-likelihood estimation of the CRF weights from tracker runs.

Training data comes from replaying a threshold-only tracker's output against
ground truth: frames where the baseline kept a tracklet whose box no longer
covers its own trajectory become negative samples, and a multiple of
well-tracked frames is sampled as positives. Only the two shared weights are
trained; the feature hyperparameters stay fixed.

Each sample enters the likelihood only through the (2**n, 2) matrix Phi of the
feature sums (phi_u, phi_b) of all its labelings, built once: log Z is a
log-sum-exp of -Phi theta, and the gradient is E_p[Phi] - Phi[gold].
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .crf_model import (ModelParams, compute_feature_tables, graph_from_features, split_frame,
                        with_weights)
from .errors import FormatError, NumericalError, ValidationError
from .factor_graph import labeling_energies
from .features import FrameContext, HypothesisWindow, is_integer
from .io import TrackFile, _decode_json, frame_from_json, frame_to_json
from .metrics import iou

OWNER_IOU = 0.5

# A sample's feature tables depend on every ModelParams field but the weights.
_table_key = operator.attrgetter(*(f.name for f in fields(ModelParams)
                                   if f.name not in ("theta_u", "theta_b")))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 30
    positive_ratio: int = 3
    shuffle_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError("learning_rate must be finite and >= 0")
        for name, low in (("epochs", 1), ("positive_ratio", 0), ("shuffle_seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= low):
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class TrainingSample:
    """One frame's windows plus gold labels for its would-be CRF nodes."""

    windows: list[HypothesisWindow]
    ctx: FrameContext
    gold: dict[int, int]
    sequence: str
    frame: int
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def negative(self) -> bool:
        """Some would-be CRF node should be inactivated."""
        return 0 in self.gold.values()

    def tables(self, params: ModelParams):
        """(Phi, Phi[gold]), cached per setting of every ModelParams field but the weights.

        Row m of Phi is (phi_u, phi_b) of the labeling whose bit v is node v's label.
        """
        key = _table_key(params)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        nodes, unary_phi, pair_phi, _, _ = compute_feature_tables(
            self.windows, params, self.ctx)
        node_ids = [w.tracklet_id for w in nodes]
        if set(node_ids) != set(self.gold):
            raise ValidationError(
                f"gold labels {sorted(self.gold)} do not cover the CRF nodes {node_ids}")
        phi = np.stack([labeling_energies(graph_from_features(unary_phi, pair_phi, 1.0, 0.0)),
                        labeling_energies(graph_from_features(unary_phi, pair_phi, 0.0, 1.0))],
                       axis=-1).reshape(-1, 2)
        gold = sum(self.gold[tid] << v for v, tid in enumerate(node_ids))
        value = (phi, phi[gold].copy())
        self._cache[key] = value
        return value


@dataclass
class TrainResult:
    params: ModelParams
    epoch_loglik: list[float]


def _log_partition(phi, theta):
    """(log Z, E_p[Phi]) under the energies Phi theta, shifted by their minimum."""
    energies = phi @ theta
    e_min = energies.min()
    weights = np.exp(np.subtract(e_min, energies, out=energies), out=energies)
    total = weights.sum()
    return math.log(total) - float(e_min), (weights @ phi) / total


def log_likelihood(params: ModelParams, samples) -> float:
    """Sum of log p(gold labels | observations) over the samples, with exact log Z."""
    theta = np.array([params.theta_u, params.theta_b])
    total = 0.0
    for sample in samples:
        phi, phi_gold = sample.tables(params)
        log_z, _ = _log_partition(phi, theta)
        total += -float(phi_gold @ theta) - log_z
    return total


def gradient(params: ModelParams, sample: TrainingSample) -> tuple[float, float]:
    """d log-likelihood / d(theta_u, theta_b) for one sample: E_p[Phi] - Phi[gold].

    The expectation is exact. The test suite certifies it against finite
    differences of log_likelihood and against exact factor-graph marginals.
    """
    phi, phi_gold = sample.tables(params)
    _, expected = _log_partition(phi, np.array([params.theta_u, params.theta_b]))
    g_u, g_b = expected - phi_gold
    return float(g_u), float(g_b)


def sgd_train(samples, init: ModelParams, config: TrainConfig, bp=None) -> TrainResult:
    """Per-sample gradient ascent on the two shared weights.

    Samples are reshuffled every epoch with a seeded generator. The returned
    trace holds the exact full-data log-likelihood at initialization and
    after each epoch. `bp` is unused: training runs no inference routine.
    """
    if not samples:
        raise ValidationError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.shuffle_seed)
    theta_u, theta_b = init.theta_u, init.theta_b
    trace = [log_likelihood(init, samples)]
    for _ in range(config.epochs):
        for idx in rng.permutation(len(samples)):
            g_u, g_b = gradient(with_weights(init, theta_u, theta_b), samples[idx])
            if not (math.isfinite(g_u) and math.isfinite(g_b)):
                s = samples[idx]
                raise NumericalError(f"non-finite gradient on sample {s.sequence}:{s.frame}")
            theta_u += config.learning_rate * g_u
            theta_b += config.learning_rate * g_b
        trace.append(log_likelihood(with_weights(init, theta_u, theta_b), samples))
    return TrainResult(params=with_weights(init, theta_u, theta_b), epoch_loglik=trace)


def finite_diff_check(params: ModelParams, sample: TrainingSample, h: float) -> float:
    """Max relative error of the analytic gradient vs centered differences.

    A step too small to move a weight (theta +- h rounds back to theta) raises
    ValidationError; one whose perturbed energies overflow float range raises
    NumericalError.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValidationError(f"step h must be finite and > 0, got {h!r}")
    for theta in (params.theta_u, params.theta_b):
        if theta + h == theta or theta - h == theta:
            raise ValidationError(f"step h={h!r} is too small to move the weight {theta!r}: "
                                  f"theta +- h rounds back to theta")
    errors = []
    # Overflow in the energies shows as a non-finite gradient or difference.
    with np.errstate(all="ignore"):
        for g, (du, db) in zip(gradient(params, sample), ((h, 0.0), (0.0, h))):
            plus = with_weights(params, params.theta_u + du, params.theta_b + db)
            minus = with_weights(params, params.theta_u - du, params.theta_b - db)
            fd = (log_likelihood(plus, [sample]) - log_likelihood(minus, [sample])) / (2 * h)
            if not (math.isfinite(g) and math.isfinite(fd)):
                raise NumericalError(
                    f"gradient check with step h={h!r} is not finite on sample "
                    f"{sample.sequence}:{sample.frame}: a value overflows float range")
            vanishes = abs(g) < 1e-12 and abs(fd) < 1e-12
            errors.append(0.0 if vanishes else abs(g - fd) / max(abs(fd), 1e-8))
    return max(errors)


# --------------------------------------------------------------------------
# Dataset construction from a baseline run
# --------------------------------------------------------------------------

def generate_dataset(track_run: TrackFile, ground_truth: TrackFile,
                     params: ModelParams, config: TrainConfig, ctx: FrameContext,
                     sequence_id: str = "seq") -> list[TrainingSample]:
    """Label the frames of a baseline run against ground truth.

    A tracklet is owned by the trajectory it covered best (IoU >= 0.5) on its
    first frame; its gold label at a later frame is 0 when its box has
    IoU < 0.5 with that trajectory's box, or the trajectory is gone. Frames
    where any would-be CRF node is gold-0 are negatives; positive_ratio times
    as many all-correct frames are drawn with the shuffle seed.
    """
    run_frames = track_run.by_frame()
    gt_frames = {f: {r.track_id: r.box() for r in recs}
                 for f, recs in ground_truth.by_frame().items()}

    windows_by_id: dict[int, HypothesisWindow] = {}
    last_frame: dict[int, int] = {}
    owners: dict[int, int | None] = {}
    negatives, positives = [], []

    for frame in sorted(run_frames):
        for rec in run_frames[frame]:
            tid = rec.track_id
            box = rec.box()
            # A tracklet missing from the previous frame restarts its history.
            if last_frame.get(tid) != frame - 1:
                windows_by_id[tid] = HypothesisWindow(tid, (box,), rec.score)
                gt_here = gt_frames.get(frame, {})
                best = max(gt_here, key=lambda g: iou(box, gt_here[g]), default=None)
                owned = best is not None and iou(box, gt_here[best]) >= OWNER_IOU
                owners[tid] = best if owned else None
            else:
                windows_by_id[tid] = windows_by_id[tid].extended(box, rec.score)
            last_frame[tid] = frame

        windows = [windows_by_id[rec.track_id] for rec in run_frames[frame]]
        nodes, _, _ = split_frame(windows, params)
        if not nodes:
            continue

        gold = {}
        for w in nodes:
            owner = owners.get(w.tracklet_id)
            gt_box = gt_frames.get(frame, {}).get(owner) if owner is not None else None
            good = gt_box is not None and iou(w.boxes[-1], gt_box) >= OWNER_IOU
            gold[w.tracklet_id] = 1 if good else 0

        sample = TrainingSample(windows=windows, ctx=ctx, gold=gold,
                                sequence=sequence_id, frame=frame)
        (negatives if sample.negative else positives).append(sample)

    if not negatives:
        return []
    rng = np.random.default_rng(config.shuffle_seed)
    wanted = min(config.positive_ratio * len(negatives), len(positives))
    chosen = sorted(rng.choice(len(positives), size=wanted, replace=False)) if wanted else []
    return negatives + [positives[i] for i in chosen]


# --------------------------------------------------------------------------
# Dataset files: JSON Lines of frame objects
# --------------------------------------------------------------------------

def save_dataset(path, samples):
    """One line per sample: its sequence and frame, then io.frame_to_json with gold labels."""
    with open(path, "w", encoding="ascii") as fh:
        for s in samples:
            line = {"sequence": s.sequence, "frame": s.frame,
                    **frame_to_json(s.ctx, s.windows, s.gold)}
            fh.write(json.dumps(line) + "\n")


def load_dataset(path) -> list[TrainingSample]:
    samples = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = _decode_json(line, "dataset JSON")
                ctx, windows, gold = frame_from_json(data)
                if not (isinstance(data.get("sequence"), str) and is_integer(data.get("frame"))):
                    raise FormatError("dataset line needs a string sequence and an integer frame")
            except (FormatError, ValidationError) as exc:
                raise FormatError(str(exc), line=lineno)
            samples.append(TrainingSample(windows=windows, ctx=ctx, gold=gold,
                                          sequence=data["sequence"], frame=data["frame"]))
    return samples
