"""Per-frame CRF: filtering, shared-weight energies, and the frame decision.

`split_frame` (the paper's hypothesis filtering) first splits tracklets by
score and history thresholds; of the remaining candidates at most
`node_budget` of the lowest-scoring ones become CRF nodes (confident
tracklets need no joint reasoning) and the rest stay active without
entering the graph. The graph has one variable per CRF node and one
pair factor per pair of nodes, in the order `pair_ends` fixes; all pair
tables are computed together as one (P, 2, 2) array. `decide_frame` is the
one path from a frame's windows to its decisions: it assembles the graph,
takes its MAP labels from `factor_graph.infer`, and maps labels and
bypasses to decision kinds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np

from .errors import FormatError, ValidationError
from .factor_graph import BpConfig, FactorGraph, InferenceResult, infer
from .features import FeatureParams, FrameContext, keep_keep_penalties, unary_feature

# Windows with fewer boxes than this (tracklets younger than this many
# frames) skip the CRF: the kinematic features need three boxes.
MIN_CRF_LENGTH = 3

# Decision kinds of one tracklet in one frame.
KEPT = "kept"
INACTIVATED_THRESHOLD = "inactivated-threshold"
INACTIVATED_CRF = "inactivated-crf"
BYPASS = "bypass"
ACTIVE_KINDS = (KEPT, BYPASS)


@dataclass(frozen=True)
class ModelParams:
    """CRF weights, feature hyperparameters, and workflow thresholds."""

    theta_u: float = 0.98
    theta_b: float = 0.12
    features: FeatureParams = field(default_factory=FeatureParams)
    node_budget: int = 10
    pre_threshold: float = 0.4
    short_threshold: float = 0.5

    def __post_init__(self):
        for name in ("theta_u", "theta_b"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.node_budget < 1:
            raise ValidationError("node_budget must be >= 1")
        for name in ("pre_threshold", "short_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")


@dataclass
class FrameAssembly:
    """One frame's CRF plus the tracklets routed around it.

    node_map[v] is the tracklet id of graph variable v; bypass_active and
    bypass_inactive hold the tracklets decided without the graph.
    """

    graph: FactorGraph
    node_map: tuple[int, ...]
    bypass_active: list[int]
    bypass_inactive: list[int]


@functools.lru_cache(maxsize=64)
def pair_ends(num_nodes):
    """Endpoints (i, j), i < j, of every pair of num_nodes nodes as a read-only (P, 2) array.

    Pairs come in row-major order: (0, 1), (0, 2), ..., (1, 2), ...
    """
    ends = np.stack(np.triu_indices(num_nodes, 1), axis=1)
    ends.flags.writeable = False
    return ends


def split_frame(windows, params: ModelParams):
    """Hypothesis filtering: (nodes, bypass_active, bypass_inactive) of a frame's windows.

    nodes are the windows that enter the CRF, ordered by tracklet id; the
    bypasses are sorted tracklet ids.
    """
    if len({w.tracklet_id for w in windows}) != len(windows):
        raise ValidationError("duplicate tracklet ids in frame")

    bypass_active, bypass_inactive, candidates = [], [], []
    for w in windows:
        if w.score < params.pre_threshold:
            bypass_inactive.append(w.tracklet_id)
        elif len(w.boxes) < MIN_CRF_LENGTH:
            if w.score < params.short_threshold:
                bypass_inactive.append(w.tracklet_id)
            else:
                bypass_active.append(w.tracklet_id)
        else:
            candidates.append(w)

    # Over budget: the highest-score candidates are filtered out and simply
    # stay active. Ties break toward the smaller tracklet id entering the CRF.
    candidates.sort(key=lambda w: (w.score, w.tracklet_id))
    if len(candidates) > params.node_budget:
        bypass_active.extend(w.tracklet_id for w in candidates[params.node_budget:])
        candidates = candidates[:params.node_budget]
    nodes = sorted(candidates, key=lambda w: w.tracklet_id)
    return nodes, sorted(bypass_active), sorted(bypass_inactive)


def compute_feature_tables(windows, params: ModelParams, ctx: FrameContext):
    """split_frame's split of the windows, plus the feature tables of its nodes.

    Returns (nodes, unary_phi, pair_phi, bypass_active, bypass_inactive);
    unary_phi has shape (n, 2) and pair_phi (P, 2, 2), for the pairs of pair_ends(n).
    """
    nodes, bypass_active, bypass_inactive = split_frame(windows, params)
    fp = params.features
    unary_phi = np.array([[unary_feature(w, 0, fp), unary_feature(w, 1, fp)] for w in nodes],
                         dtype=float).reshape(-1, 2)
    i, j = pair_ends(len(nodes)).T
    pair_phi = np.zeros((len(i), 2, 2))
    pair_phi[:, 1, 1] = keep_keep_penalties(nodes, i, j, fp, ctx)

    return nodes, unary_phi, pair_phi, bypass_active, bypass_inactive


def graph_from_features(unary_phi, pair_phi, theta_u, theta_b) -> FactorGraph:
    """Energy graph E = theta * phi over the CRF nodes."""
    n = unary_phi.shape[0]
    return FactorGraph(n, theta_u * unary_phi, pair_ends(n), theta_b * pair_phi)


def assemble_frame_graph(windows, params: ModelParams, ctx: FrameContext) -> FrameAssembly:
    """Build the CRF for one frame of tracking hypotheses."""
    nodes, unary_phi, pair_phi, bypass_active, bypass_inactive = \
        compute_feature_tables(windows, params, ctx)
    graph = graph_from_features(unary_phi, pair_phi, params.theta_u, params.theta_b)
    return FrameAssembly(graph=graph, node_map=tuple(w.tracklet_id for w in nodes),
                         bypass_active=bypass_active, bypass_inactive=bypass_inactive)


def decide_frame(windows, params: ModelParams, ctx: FrameContext,
                 inference: str = "loopy-bp", bp: BpConfig | None = None,
                 trace: list | None = None) -> tuple[dict[int, str], InferenceResult]:
    """Decision kind of every tracklet in the frame, plus the CRF's inference result.

    CRF nodes are KEPT or INACTIVATED_CRF by the MAP labels of `infer`
    (the exact energy argmin, or loopy max-product); bypassed tracklets are
    BYPASS or INACTIVATED_THRESHOLD. `trace` collects loopy-bp messages.
    """
    assembly = assemble_frame_graph(windows, params, ctx)
    result = infer(assembly.graph, inference, bp, trace=trace)
    kinds = {tid: KEPT if label == 1 else INACTIVATED_CRF
             for tid, label in zip(assembly.node_map, result.map_labels)}
    kinds.update((tid, BYPASS) for tid in assembly.bypass_active)
    kinds.update((tid, INACTIVATED_THRESHOLD) for tid in assembly.bypass_inactive)
    return kinds, result


def decide_inactivation(windows, params: ModelParams, ctx: FrameContext,
                        inference: str = "loopy-bp", bp: BpConfig | None = None,
                        trace: list | None = None) -> dict[int, int]:
    """The 0/1 view of decide_frame: 1 keeps a tracklet active, 0 inactivates it."""
    kinds, _ = decide_frame(windows, params, ctx, inference, bp, trace)
    return {tid: int(kind in ACTIVE_KINDS) for tid, kind in kinds.items()}


# --------------------------------------------------------------------------
# Parameter files: flat key=value text. The keys are the fields of
# ModelParams (its `features` excepted), FeatureParams and BpConfig, and each
# value is read as the type of its field's default. The shipped default
# reproduces the published weights and workflow constants.
# --------------------------------------------------------------------------

PARAM_FIELDS = {f.name: (owner, type(f.default))
                for owner in (ModelParams, FeatureParams, BpConfig)
                for f in fields(owner) if f.name != "features"}


def save_params(path, params: ModelParams, bp: BpConfig | None = None):
    objects = {ModelParams: params, FeatureParams: params.features, BpConfig: bp or BpConfig()}
    with open(path, "w", encoding="ascii") as fh:
        for key, (owner, _) in PARAM_FIELDS.items():
            fh.write(f"{key}={getattr(objects[owner], key)}\n")


def _parse_params(lines, source) -> tuple[ModelParams, BpConfig]:
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{source}: expected key=value, got {line!r}", line=lineno)
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in PARAM_FIELDS:
            raise FormatError(f"{source}: unknown parameter {key!r}", line=lineno)
        if key in values:
            raise FormatError(f"{source}: duplicate parameter {key!r}", line=lineno)
        try:
            values[key] = PARAM_FIELDS[key][1](text)
        except ValueError:
            raise FormatError(f"{source}: bad value for {key!r}: {text!r}", line=lineno)
    missing = [k for k in PARAM_FIELDS if k not in values]
    if missing:
        raise FormatError(f"{source}: missing parameters {missing}")

    def owned_by(owner):
        return {k: v for k, v in values.items() if PARAM_FIELDS[k][0] is owner}

    features = FeatureParams(**owned_by(FeatureParams))
    return ModelParams(features=features, **owned_by(ModelParams)), BpConfig(**owned_by(BpConfig))


def load_params(path) -> tuple[ModelParams, BpConfig]:
    """Read a parameter file and split it into model and inference settings."""
    with open(path, encoding="ascii") as fh:
        return _parse_params(fh, str(path))


def default_params() -> tuple[ModelParams, BpConfig]:
    """The shipped defaults: published weight values and workflow constants."""
    text = resources.files("crftrack.data").joinpath("default_params.txt").read_text("ascii")
    return _parse_params(text.splitlines(), "default_params.txt")


def with_weights(params: ModelParams, theta_u: float, theta_b: float) -> ModelParams:
    """Copy of params with new CRF weights (feature hyperparameters untouched)."""
    return replace(params, theta_u=theta_u, theta_b=theta_b)
