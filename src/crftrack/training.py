"""Maximum-likelihood estimation of the CRF weights from tracker runs.

Training data comes from replaying a threshold-only tracker's output against
ground truth: frames where the baseline kept a tracklet whose box no longer
covers its own trajectory become negative samples, and a multiple of
well-tracked frames is sampled as positives. Coverage is evaluation's IoU >=
0.5 test: the labels fold over the same IoU pass, metrics._walk, and the
replay carries one frame of tracklet history. Only the two shared weights are
trained; the feature hyperparameters stay fixed.

Each sample enters the likelihood only through the (2**n, 2) matrix Phi of the
feature sums (phi_u, phi_b) of all its labelings, built once from the feature
tables, with no factor graph: its columns are the unary form c + a.y and the
pair form y'Qy of factor_graph.quadratic_form on exact inference's labeling
grid. log Z is a log-sum-exp of -Phi theta; the gradient, E_p[Phi] - Phi[gold].

One array pass (`_fill_tables`) computes the feature tables of all uncached
samples and writes their Phi into one (S_n, 2**n, 2) stack per node count n;
tracking's per-frame crf_model.compute_feature_tables gives the same tables
bit for bit and is the tests' reference.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .crf_model import ModelParams, check_features, pair_ends, split_frame, with_weights
from .errors import FormatError, NumericalError, ValidationError
from .factor_graph import _check_capacity, _energy_grid, quadratic_form
from .features import (Box, FrameContext, HypothesisWindow, is_integer, pair_penalties,
                       window_features)
from .io import TrackFile, _decode_json, frame_from_json, frame_to_json
from .metrics import _walk

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
    _rows: dict = field(default_factory=dict, repr=False)  # key -> (cached Phi, its stack row)
    _nodes: tuple = field(default=(), repr=False)  # (key, CRF nodes) from generate_dataset

    @property
    def negative(self) -> bool:
        """Some would-be CRF node should be inactivated."""
        return 0 in self.gold.values()

    def tables(self, params: ModelParams):
        """(Phi, Phi[gold]), cached per setting of every ModelParams field but the weights.

        Row m of Phi is (phi_u, phi_b) of the labeling whose bit v is node v's label.
        """
        key = _table_key(params)
        if key not in self._cache:
            _fill_tables([self], params)
        return self._cache[key]


def _fill_tables(samples, params: ModelParams):
    """Cache (Phi, Phi[gold]) for every sample that lacks them, from one feature pass.

    Samples from generate_dataset under these params bring their CRF nodes.
    Raises the error of the first failing sample in order, as building the
    tables sample by sample would: split_frame's, a non-finite feature
    naming its tracklets, gold labels that do not cover the nodes, or
    CapacityError before Phi is allocated. The samples before it keep
    their tables.
    """
    key = _table_key(params)
    todo, node_lists, failure = [], [], None
    for sample in samples:
        if key in sample._cache:
            continue
        nodes = sample._nodes[1] if sample._nodes[:1] == (key,) else None
        if nodes is None:
            try:
                nodes, _, _ = split_frame(sample.windows, params)
            except ValidationError as exc:
                failure = exc
                break
        todo.append(sample)
        node_lists.append(nodes)
    if todo:
        _build_tables(todo, node_lists, params, key)
    if failure is not None:
        raise failure


def _build_tables(samples, node_lists, params: ModelParams, key):
    """_fill_tables' work on samples whose CRF nodes are node_lists.

    The node windows of all samples go through features.window_features and
    features.pair_penalties at once, with pairs indexed across the samples.
    A pass whose features are not all finite runs check_features per sample.
    Each sample's Phi then comes from its quadratic_form and two energy grids,
    written into its row of the stack of its node count.
    """
    counts = np.array([len(nodes) for nodes in node_lists], dtype=np.intp)
    windows = [w for nodes in node_lists for w in nodes]
    boxes = np.array([v for w in windows for b in w.boxes
                      for v in (b.left, b.top, b.width, b.height)], dtype=float).reshape(-1, 3, 4)
    contexts = np.repeat([(s.ctx.image_width, s.ctx.image_height, s.ctx.frame_rate)
                          for s in samples], counts, axis=0).astype(float)
    fp = params.features
    unary, kinematics = window_features(boxes, np.array([w.score for w in windows], dtype=float),
                                        contexts, fp)
    window_bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
    i, j = np.concatenate([pair_ends(n) + start for n, start
                           in zip(counts.tolist(), window_bounds)]).T
    with np.errstate(all="ignore"):  # reported by check_features
        keep_keep = pair_penalties(kinematics, i, j, fp)
    pair_bounds = np.concatenate([[0], np.cumsum(counts * (counts - 1) // 2)]).tolist()
    all_finite = np.isfinite(unary).all() and np.isfinite(keep_keep).all()
    sizes, stacks, rows = np.bincount(counts), {}, {}

    for s, (sample, nodes) in enumerate(zip(samples, node_lists)):
        unary_phi = unary[window_bounds[s]:window_bounds[s + 1]]
        pair_phi = keep_keep[pair_bounds[s]:pair_bounds[s + 1]]
        if not all_finite:
            check_features(nodes, unary_phi, pair_phi)
        node_ids = [w.tracklet_id for w in nodes]
        if set(node_ids) != set(sample.gold):
            raise ValidationError(
                f"gold labels {sorted(sample.gold)} do not cover the CRF nodes {node_ids}")
        n = len(nodes)
        _check_capacity(n, ", so lower node_budget")
        if n not in stacks:  # after the capacity check: an oversized Phi is never allocated
            stacks[n] = np.empty((sizes[n], 1 << n, 2)), np.empty((sizes[n], 2))
        row = rows[n] = rows.get(n, -1) + 1
        phi, phi_gold = stacks[n]
        c, a, q = quadratic_form(unary_phi, pair_ends(n), pair_phi)
        phi[row, :, 0] = _energy_grid(n, c, a, None).ravel()
        phi[row, :, 1] = _energy_grid(n, 0.0, None, q).ravel()
        phi_gold[row] = phi[row, sum(sample.gold[tid] << v for v, tid in enumerate(node_ids))]
        sample._cache[key] = (phi[row], phi_gold[row])
        sample._rows[key] = (sample._cache[key][0], row)


@dataclass
class TrainResult:
    params: ModelParams
    epoch_loglik: list[float]


def _gradient(phi, phi_gold, theta) -> tuple[float, float]:
    """E_p[Phi] - Phi[gold] under the energies Phi theta, shifted by their minimum."""
    energies = phi @ theta
    weights = np.exp(np.subtract(energies.min(), energies, out=energies), out=energies)
    g_u, g_b = (weights @ phi) / weights.sum() - phi_gold
    return float(g_u), float(g_b)


def log_likelihood(params: ModelParams, samples) -> float:
    """Sum of log p(gold labels | observations) over the samples, with exact log Z.

    Phi theta, its row minima, exp and row sums are one array call each over
    the samples' rows of one stack; the gold energies, math.log and the terms'
    sum go sample by sample, in order. Weights whose energies overflow float
    range give a non-finite value, not a numpy warning.
    """
    _fill_tables(samples, params)
    key = _table_key(params)
    theta = np.array([params.theta_u, params.theta_b])
    stacks, order = {}, []
    for sample in samples:
        phi, phi_gold = sample._cache[key]
        hint = sample._rows.get(key)  # None, or stale once _cache[key] was replaced
        stack, row = (phi.base, hint[1]) if hint and hint[0] is phi else (phi[None], 0)
        _, rows, log_z = stacks.setdefault(id(stack), (stack, [], []))
        order.append((log_z, len(rows), phi_gold))
        rows.append(row)
    with np.errstate(over="ignore", invalid="ignore"):
        for stack, rows, log_z in stacks.values():
            # Blocks of at most 2**15 labelings keep the energies small beside Phi.
            whole, step = rows == list(range(len(stack))), max(1, (1 << 15) // stack.shape[1])
            for start in range(0, len(rows), step):
                block = stack[start:start + step] if whole else stack[rows[start:start + step]]
                energies = block @ theta
                e_min = energies.min(axis=1)
                weights = np.exp(np.subtract(e_min[:, None], energies, out=energies), out=energies)
                log_z += [math.log(total) - e for total, e
                          in zip(weights.sum(axis=1).tolist(), e_min.tolist())]
        total = 0.0
        for log_z, k, phi_gold in order:
            total += -float(phi_gold @ theta) - log_z[k]
    return total


def gradient(params: ModelParams, sample: TrainingSample) -> tuple[float, float]:
    """d log-likelihood / d(theta_u, theta_b) for one sample: E_p[Phi] - Phi[gold].

    The expectation is exact. The test suite certifies it against finite
    differences of log_likelihood and against exact factor-graph marginals.
    """
    return _gradient(*sample.tables(params), np.array([params.theta_u, params.theta_b]))


def sgd_train(samples, init: ModelParams, config: TrainConfig, bp=None) -> TrainResult:
    """Per-sample gradient ascent on the two shared weights.

    Each update reads its sample's cached tables and steps the weights as
    numbers. Samples are reshuffled every epoch with a seeded generator. The
    returned trace holds the exact full-data log-likelihood at initialization
    (epoch 0) and after each epoch. A step that leaves the weights non-finite,
    or a trace entry that is not finite, raises NumericalError naming its
    epoch; a finite but falling likelihood is returned.
    `bp` is unused: training runs no inference routine.
    """
    if not samples:
        raise ValidationError("cannot train on an empty dataset")
    _fill_tables(samples, init)
    key = _table_key(init)
    tables = [sample._cache[key] for sample in samples]
    rng = np.random.default_rng(config.shuffle_seed)
    theta_u, theta_b = init.theta_u, init.theta_b
    trace = []
    # Overflow shows as non-finite weights or a non-finite trace entry, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            if epoch:
                for idx in rng.permutation(len(samples)):
                    g_u, g_b = _gradient(*tables[idx], np.array([theta_u, theta_b]))
                    theta_u += config.learning_rate * g_u
                    theta_b += config.learning_rate * g_b
                    if not (math.isfinite(theta_u) and math.isfinite(theta_b)):
                        s = samples[idx]
                        raise NumericalError(f"SGD step on sample {s.sequence}:{s.frame} in "
                                             f"epoch {epoch} leaves the weights non-finite")
            trace.append(log_likelihood(with_weights(init, theta_u, theta_b), samples))
            if not math.isfinite(trace[-1]):
                raise NumericalError(f"log-likelihood {trace[-1]} after epoch {epoch} of "
                                     f"{config.epochs} is not finite: the energies "
                                     f"overflow float range")
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

    A run box covers a trajectory when metrics._walk pairs them (IoU >= 0.5).
    A tracklet is owned by the trajectory it covers best on its first frame
    or after a gap, of equal IoUs the smaller GT id; its gold label is 1
    exactly when it covers its owner in the frame. Frames where any would-be
    CRF node is gold-0 are negatives; positive_ratio times as many
    all-correct frames are drawn with the shuffle seed. The replay keeps each
    tracklet's (window, owner) of the previous frame only, and looks run rows
    up by frame number.
    """
    run_rows = dict(track_run.frames())
    key = _table_key(params)
    state: dict[int, tuple[HypothesisWindow, int | None]] = {}  # tracklet -> (window, owner)
    state_frame = None
    negatives, positives = [], []

    for frame, _, n_run, hits in _walk(ground_truth, track_run):
        if not n_run:
            continue
        covered = {(gid, tid) for _, gid, tid in hits}
        # Sorted so each tracklet's last hit is its best, of equal IoUs the smaller GT id.
        best = {tid: gid for _, gid, tid in sorted(hits, key=lambda h: (h[0], -h[1]))}
        # A tracklet missing from the previous frame restarts its history.
        previous = state if state_frame == frame - 1 else {}
        state, state_frame = {}, frame
        for tid, xywh, score in run_rows[frame]:
            try:
                if tid in previous:
                    window, owner = previous[tid]
                    state[tid] = window.extended(Box(*xywh), score), owner
                else:
                    state[tid] = HypothesisWindow(tid, (Box(*xywh),), score), best.get(tid)
            except ValidationError as exc:
                raise ValidationError(f"run {sequence_id}, frame {frame}, tracklet {tid}: {exc}")

        windows = [window for window, _ in state.values()]
        nodes, _, _ = split_frame(windows, params)
        if not nodes:
            continue

        gold = {w.tracklet_id: int((state[w.tracklet_id][1], w.tracklet_id) in covered)
                for w in nodes}
        sample = TrainingSample(windows=windows, ctx=ctx, gold=gold, sequence=sequence_id,
                                frame=frame, _nodes=(key, nodes))
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
