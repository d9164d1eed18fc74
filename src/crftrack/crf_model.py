"""Per-frame CRF: filtering, shared-weight energies, and the frame decision.

`split_frame` (the paper's hypothesis filtering) first splits tracklets by
score and history thresholds; of the remaining candidates at most
`node_budget` of the lowest-scoring ones become CRF nodes (confident
tracklets need no joint reasoning) and the rest stay active without
entering the CRF. Its pair feature is one keep-keep column per pair of
nodes, in the order `pair_ends` fixes. `decide_frame` is the one path from
a frame's windows to its decisions and the one inference dispatch: it weighs
the energies once, maps a name of INFERENCE_MODES to its engine (exact MAP
off the energies' quadratic form, or loopy-bp off the factor graph that only
loopy BP builds; energy_graph pads the column into 2x2 tables), and maps
labels and bypasses to decision kinds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np

from .errors import FormatError, NumericalError, ValidationError
from .factor_graph import (BpConfig, FactorGraph, InferenceResult, _check_capacity, exact_map,
                           max_product, quadratic_form)
from .features import (FeatureParams, FrameContext, is_integer, keep_keep_penalties,
                       unary_feature)

# Windows with fewer boxes than this (tracklets younger than this many
# frames) skip the CRF: the kinematic features need three boxes.
MIN_CRF_LENGTH = 3

# Decision kinds of one tracklet in one frame.
KEPT = "kept"
INACTIVATED_THRESHOLD = "inactivated-threshold"
INACTIVATED_CRF = "inactivated-crf"
BYPASS = "bypass"
ACTIVE_KINDS = (KEPT, BYPASS)

# Inference modes of decide_frame and the CLI, and the one tracking and the
# CLI use unless told otherwise.
INFERENCE_MODES = ("exact", "loopy-bp")
DEFAULT_INFERENCE = "loopy-bp"


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
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not (is_integer(self.node_budget) and self.node_budget >= 1):
            raise ValidationError(f"node_budget must be an integer >= 1, got {self.node_budget!r}")
        for name in ("pre_threshold", "short_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")


@dataclass
class FrameAssembly:
    """One frame's energies unary = theta_u * unary_phi (n, 2) and keep_keep =
    theta_b * keep_keep (P,); node_map[v] is CRF node v's tracklet id, and
    bypass_active and bypass_inactive hold the tracklets decided without the CRF."""

    unary: np.ndarray
    keep_keep: np.ndarray
    node_map: tuple[int, ...]
    bypass_active: list[int]
    bypass_inactive: list[int]

    @property
    def graph(self) -> FactorGraph:  # built on every read: only loopy BP reads it
        return energy_graph(self.unary, self.keep_keep)


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

    Returns (nodes, unary_phi, keep_keep, bypass_active, bypass_inactive);
    unary_phi has shape (n, 2) and keep_keep (P,), for the pairs of pair_ends(n).
    Raises NumericalError naming the tracklets of a feature that overflowed.
    """
    nodes, bypass_active, bypass_inactive = split_frame(windows, params)
    fp = params.features
    unary_phi = np.array([[unary_feature(w, 0, fp), unary_feature(w, 1, fp)] for w in nodes],
                         dtype=float).reshape(-1, 2)
    i, j = pair_ends(len(nodes)).T
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        keep_keep = keep_keep_penalties(nodes, i, j, fp, ctx)
    check_features(nodes, unary_phi, keep_keep)
    return nodes, unary_phi, keep_keep, bypass_active, bypass_inactive


def check_features(nodes, unary_phi, keep_keep):
    """Raise NumericalError naming the tracklets of the first feature that is not finite.

    unary_phi is the nodes' (n, 2) table; keep_keep the pair feature of pair_ends(n).
    """
    if not np.isfinite(unary_phi).all():
        v = np.argmin(np.isfinite(unary_phi).all(axis=1))
        raise NumericalError(f"non-finite unary feature of tracklet {nodes[v].tracklet_id}")
    if not np.isfinite(keep_keep).all():
        i, j = pair_ends(len(nodes))[np.argmin(np.isfinite(keep_keep))]
        raise NumericalError(f"non-finite pairwise feature of tracklets "
                             f"{nodes[i].tracklet_id} and {nodes[j].tracklet_id}")


def weighted_energies(unary_phi, keep_keep, theta_u, theta_b):
    """(theta_u * unary_phi, theta_b * keep_keep); NumericalError names a weight that overflows."""
    weight = "theta_u"
    try:
        # Trapping the overflow costs less than testing the products for infinity.
        with np.errstate(over="raise"):
            unary = theta_u * unary_phi
            weight = "theta_b"
            return unary, theta_b * keep_keep
    except FloatingPointError:
        raise NumericalError(f"energies of weight {weight} overflow float range") from None


def energy_graph(unary, keep_keep) -> FactorGraph:
    """Graph of the (n, 2) unary energies whose pair k's 2x2 table is keep_keep[k]
    at labels (1, 1) and 0 elsewhere, for the pairs of pair_ends(n)."""
    tables = np.zeros((len(keep_keep), 2, 2))
    tables[:, 1, 1] = keep_keep
    return FactorGraph(len(unary), unary, pair_ends(len(unary)), tables)


def graph_from_features(unary_phi, keep_keep, theta_u, theta_b) -> FactorGraph:
    """Energy graph E = theta * phi over the CRF nodes, with weighted_energies' errors."""
    return energy_graph(*weighted_energies(unary_phi, keep_keep, theta_u, theta_b))


def assemble_frame_graph(windows, params: ModelParams, ctx: FrameContext) -> FrameAssembly:
    """Split one frame of tracking hypotheses and weigh its CRF energies."""
    nodes, unary_phi, keep_keep, bypass_active, bypass_inactive = \
        compute_feature_tables(windows, params, ctx)
    unary, pair = weighted_energies(unary_phi, keep_keep, params.theta_u, params.theta_b)
    return FrameAssembly(unary, pair, tuple(w.tracklet_id for w in nodes),
                         bypass_active, bypass_inactive)


def decide_frame(windows, params: ModelParams, ctx: FrameContext,
                 inference: str = DEFAULT_INFERENCE, bp: BpConfig | None = None,
                 trace: list | None = None) -> tuple[dict[int, str], InferenceResult]:
    """Decision kind of every tracklet in the frame, plus the CRF's inference result.

    The one inference dispatch: CRF nodes are KEPT or INACTIVATED_CRF by the
    MAP labels of "exact" (`exact_map` of the energies' quadratic form, no
    graph) or "loopy-bp" (max-product on the factor graph, appending its
    messages to `trace`; exact inference rejects a trace). Bypassed tracklets
    are BYPASS or INACTIVATED_THRESHOLD.
    """
    assembly = assemble_frame_graph(windows, params, ctx)
    if inference == "exact":
        if trace is not None:
            raise ValidationError("message traces need loopy-bp inference")
        n = len(assembly.node_map)
        _check_capacity(n, ", so use loopy-bp")
        result = exact_map(n, quadratic_form, assembly.unary, pair_ends(n), assembly.keep_keep)
    elif inference == "loopy-bp":
        result = max_product(assembly.graph, bp, trace=trace)
    else:
        raise ValidationError(f"unknown inference mode {inference!r}")
    kinds = {tid: KEPT if label == 1 else INACTIVATED_CRF
             for tid, label in zip(assembly.node_map, result.map_labels)}
    kinds.update((tid, BYPASS) for tid in assembly.bypass_active)
    kinds.update((tid, INACTIVATED_THRESHOLD) for tid in assembly.bypass_inactive)
    return kinds, result


def decide_inactivation(windows, params: ModelParams, ctx: FrameContext,
                        inference: str = DEFAULT_INFERENCE, bp: BpConfig | None = None,
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
