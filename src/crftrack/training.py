"""Maximum-likelihood estimation of the CRF weights from tracker runs.

Training data comes from replaying a threshold-only tracker's output against
ground truth: frames where the baseline kept a tracklet whose box no longer
covers its own trajectory become negative samples, and a multiple of
well-tracked frames is sampled as positives. Only the two shared weights are
trained; the feature hyperparameters stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .crf_model import ModelParams, compute_feature_tables, graph_from_features, with_weights
from .errors import FormatError, NumericalError, ValidationError
from .factor_graph import INFERENCE_MODES, BpConfig, exact_inference, infer
from .features import Box, FrameContext, HypothesisWindow
from .io import TrackFile
from .metrics import iou
from .tracker import Tracklet

OWNER_IOU = 0.5


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 30
    positive_ratio: int = 3
    shuffle_seed: int = 0
    inference_mode: str = "exact"

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be >= 0")
        if self.epochs < 1 or self.positive_ratio < 0:
            raise ValidationError("epochs must be >= 1 and positive_ratio >= 0")
        if self.inference_mode not in INFERENCE_MODES:
            raise ValidationError(f"unknown inference mode {self.inference_mode!r}")


@dataclass
class TrainingSample:
    """One frame's windows plus gold labels for its would-be CRF nodes."""

    windows: list[HypothesisWindow]
    ctx: FrameContext
    gold: dict[int, int]
    sequence: str
    frame: int
    negative: bool
    _cache: dict = field(default_factory=dict, repr=False)

    def tables(self, params: ModelParams):
        """Feature tables, stacked pair tables and gold-labeling feature sums.

        Cached per feature settings.
        """
        key = (params.features, params.node_budget, params.pre_threshold,
               params.short_threshold)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        nodes, unary_phi, pair_phi, _, _ = compute_feature_tables(
            self.windows, params, self.ctx)
        node_ids = [w.tracklet_id for w in nodes]
        if set(node_ids) != set(self.gold):
            raise ValidationError(
                f"gold labels {sorted(self.gold)} do not cover the CRF nodes {node_ids}")
        gold = np.array([self.gold[tid] for tid in node_ids], dtype=int)
        ends = np.array([(a, b) for a, b, _ in pair_phi], dtype=int).reshape(-1, 2)
        pair_stack = np.array([tbl for _, _, tbl in pair_phi]).reshape(-1, 2, 2)
        phi_u_gold = float(unary_phi[np.arange(len(gold)), gold].sum())
        phi_b_gold = float(pair_stack[np.arange(len(ends)), gold[ends[:, 0]],
                                      gold[ends[:, 1]]].sum())
        value = (unary_phi, pair_phi, pair_stack, phi_u_gold, phi_b_gold)
        self._cache[key] = value
        return value


@dataclass
class TrainResult:
    params: ModelParams
    epoch_loglik: list[float]


def _sample_terms(sample, params):
    """Gold-labeling feature sums and the CRF graph at current weights."""
    unary_phi, pair_phi, pair_stack, phi_u_gold, phi_b_gold = sample.tables(params)
    graph = graph_from_features(unary_phi, pair_phi, params.theta_u, params.theta_b)
    return unary_phi, pair_stack, phi_u_gold, phi_b_gold, graph


def log_likelihood(params: ModelParams, samples) -> float:
    """Sum of log p(gold labels | observations) over the samples.

    The partition function is always exact: it is cheap at the node budgets
    used here, and a belief-propagation surrogate would add unquantified
    error to a value whose whole point is being exact.
    """
    total = 0.0
    for sample in samples:
        _, _, phi_u_gold, phi_b_gold, graph = _sample_terms(sample, params)
        energy = params.theta_u * phi_u_gold + params.theta_b * phi_b_gold
        log_z = exact_inference(graph).log_partition
        total += -energy - log_z
    return total


def gradient(params: ModelParams, sample: TrainingSample, mode: str = "exact",
             bp: BpConfig | None = None) -> tuple[float, float]:
    """d log-likelihood / d(theta_u, theta_b) for one sample.

    The expectation term uses exact factor marginals or, in loopy-bp mode,
    the factor beliefs of sum-product BP. The analytic form is certified
    against finite differences of log_likelihood in the test suite.
    """
    unary_phi, pair_stack, phi_u_gold, phi_b_gold, graph = _sample_terms(sample, params)
    result = infer(graph, mode, bp, maximize=False)
    exp_u = float((unary_phi * result.node_marginals).sum())
    exp_b = float(np.einsum("pab,pab->", pair_stack, result.pair_beliefs))
    return (-phi_u_gold + exp_u, -phi_b_gold + exp_b)


def sgd_train(samples, init: ModelParams, config: TrainConfig,
              bp: BpConfig | None = None) -> TrainResult:
    """Per-sample gradient ascent on the two shared weights.

    Samples are reshuffled every epoch with a seeded generator. The returned
    trace holds the exact full-data log-likelihood at initialization and
    after each epoch.
    """
    if not samples:
        raise ValidationError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.shuffle_seed)
    theta_u, theta_b = init.theta_u, init.theta_b
    trace = [log_likelihood(with_weights(init, theta_u, theta_b), samples)]
    for _ in range(config.epochs):
        order = rng.permutation(len(samples))
        for idx in order:
            current = with_weights(init, theta_u, theta_b)
            g_u, g_b = gradient(current, samples[idx], config.inference_mode, bp)
            if not (math.isfinite(g_u) and math.isfinite(g_b)):
                s = samples[idx]
                raise NumericalError(
                    f"non-finite gradient on sample {s.sequence}:{s.frame}")
            theta_u += config.learning_rate * g_u
            theta_b += config.learning_rate * g_b
        trace.append(log_likelihood(with_weights(init, theta_u, theta_b), samples))
    return TrainResult(params=with_weights(init, theta_u, theta_b), epoch_loglik=trace)


def finite_diff_check(params: ModelParams, sample: TrainingSample, h: float) -> float:
    """Max relative error of the analytic gradient vs centered differences."""
    if not h > 0:
        raise ValidationError("step h must be > 0")
    g = gradient(params, sample, mode="exact")
    errors = []
    for component, delta in ((0, (h, 0.0)), (1, (0.0, h))):
        plus = with_weights(params, params.theta_u + delta[0], params.theta_b + delta[1])
        minus = with_weights(params, params.theta_u - delta[0], params.theta_b - delta[1])
        fd = (log_likelihood(plus, [sample]) - log_likelihood(minus, [sample])) / (2 * h)
        if abs(g[component]) < 1e-12 and abs(fd) < 1e-12:
            errors.append(0.0)
        else:
            errors.append(abs(g[component] - fd) / max(abs(fd), 1e-8))
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

    tracklets: dict[int, Tracklet] = {}
    last_frame: dict[int, int] = {}
    owners: dict[int, int | None] = {}
    negatives, positives = [], []

    for frame in sorted(run_frames):
        present = set()
        for rec in run_frames[frame]:
            tid = rec.track_id
            box = rec.box()
            present.add(tid)
            # A tracklet missing from the previous frame restarts its history.
            if last_frame.get(tid) != frame - 1:
                tracklets[tid] = Tracklet.fresh(box, rec.score)
                gt_here = gt_frames.get(frame, {})
                best = max(gt_here, key=lambda g: iou(box, gt_here[g]), default=None)
                if best is not None and iou(box, gt_here[best]) >= OWNER_IOU:
                    owners[tid] = best
                else:
                    owners[tid] = None
            else:
                tracklets[tid].push(box, rec.score)
            last_frame[tid] = frame

        windows = [tracklets[tid].window(tid) for tid in sorted(present)]
        nodes, _, _, _, _ = compute_feature_tables(windows, params, ctx)
        if not nodes:
            continue

        gold = {}
        for w in nodes:
            owner = owners.get(w.tracklet_id)
            gt_box = gt_frames.get(frame, {}).get(owner) if owner is not None else None
            good = gt_box is not None and iou(w.boxes[-1], gt_box) >= OWNER_IOU
            gold[w.tracklet_id] = 1 if good else 0

        sample = TrainingSample(windows=windows, ctx=ctx, gold=gold,
                                sequence=sequence_id, frame=frame,
                                negative=0 in gold.values())
        (negatives if sample.negative else positives).append(sample)

    if not negatives:
        return []
    rng = np.random.default_rng(config.shuffle_seed)
    wanted = min(config.positive_ratio * len(negatives), len(positives))
    chosen = sorted(rng.choice(len(positives), size=wanted, replace=False)) if wanted else []
    return negatives + [positives[i] for i in chosen]


# --------------------------------------------------------------------------
# Dataset files: line-oriented text blocks
# --------------------------------------------------------------------------

def save_dataset(path, samples):
    with open(path, "w", encoding="ascii") as fh:
        for s in samples:
            fh.write(f"sample {s.sequence} {s.frame} {'neg' if s.negative else 'pos'}\n")
            fh.write(f"ctx {s.ctx.image_width!r} {s.ctx.image_height!r} {s.ctx.frame_rate!r}\n")
            for w in s.windows:
                parts = ["win", str(w.tracklet_id), str(len(w.boxes))]
                for b in w.boxes:
                    parts += [repr(b.left), repr(b.top), repr(b.width), repr(b.height)]
                gold = s.gold.get(w.tracklet_id)
                parts += [repr(w.score), str(w.length),
                          "-" if gold is None else str(gold)]
                fh.write(" ".join(parts) + "\n")
            fh.write("end\n")


def load_dataset(path) -> list[TrainingSample]:
    samples = []
    state = None
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            try:
                if fields[0] == "sample":
                    if state is not None:
                        raise FormatError("nested sample block", line=lineno)
                    state = {"sequence": fields[1], "frame": int(fields[2]),
                             "negative": fields[3] == "neg", "ctx": None,
                             "windows": [], "gold": {}}
                elif fields[0] == "ctx":
                    state["ctx"] = FrameContext(float(fields[1]), float(fields[2]),
                                                float(fields[3]))
                elif fields[0] == "win":
                    tid = int(fields[1])
                    n_boxes = int(fields[2])
                    vals = [float(v) for v in fields[3:3 + 4 * n_boxes]]
                    boxes = tuple(Box(*vals[i:i + 4]) for i in range(0, len(vals), 4))
                    rest = fields[3 + 4 * n_boxes:]
                    score, length, gold = float(rest[0]), int(rest[1]), rest[2]
                    state["windows"].append(HypothesisWindow(
                        tracklet_id=tid, boxes=boxes, score=score, length=length))
                    if gold != "-":
                        state["gold"][tid] = int(gold)
                elif fields[0] == "end":
                    samples.append(TrainingSample(
                        windows=state["windows"], ctx=state["ctx"], gold=state["gold"],
                        sequence=state["sequence"], frame=state["frame"],
                        negative=state["negative"]))
                    state = None
                else:
                    raise FormatError(f"unknown dataset line {fields[0]!r}", line=lineno)
            except (IndexError, ValueError, TypeError):
                raise FormatError(f"malformed dataset line: {line!r}", line=lineno)
    if state is not None:
        raise FormatError("dataset ends inside a sample block")
    return samples
