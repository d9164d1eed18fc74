"""Binary-label factor graphs with exact and message-passing inference.

A graph holds energy tables; a labeling y has probability proportional to
exp(-sum_f E_f(y_f)), so lower energy means more probable. Three inference
routines are provided: brute-force enumeration (the oracle, exact marginals
and log partition function), sum-product belief propagation (approximate
marginals on loopy graphs, exact on trees), and max-product belief
propagation (approximate MAP). `infer` is the one dispatch from an inference
mode name to these routines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import CapacityError, NumericalError, ValidationError

# Enumeration bound for exact inference: 2**20 labelings is the ceiling.
MAX_EXACT_VARS = 20

# Inference modes accepted by `infer`, the CLI and training.
INFERENCE_MODES = ("exact", "loopy-bp")


@dataclass(frozen=True)
class PairFactor:
    """Pairwise factor between variables i < j with energy table[y_i, y_j]."""

    i: int
    j: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))


@dataclass
class FactorGraph:
    """num_vars binary variables, one unary energy table each, plus pair factors."""

    num_vars: int
    unary: np.ndarray
    pairs: list[PairFactor] = field(default_factory=list)

    def __post_init__(self):
        self.unary = np.asarray(self.unary, dtype=float)
        self.validate()

    def validate(self):
        if self.num_vars < 0:
            raise ValidationError("num_vars must be >= 0")
        if self.unary.shape != (self.num_vars, 2):
            raise ValidationError(
                f"unary table shape {self.unary.shape}, expected {(self.num_vars, 2)}"
            )
        if not np.isfinite(self.unary).all():
            raise ValidationError("non-finite unary energy")
        for k, pf in enumerate(self.pairs):
            if not (0 <= pf.i < pf.j < self.num_vars):
                raise ValidationError(
                    f"pair factor {k} references ({pf.i}, {pf.j}); need 0 <= i < j < num_vars"
                )
            if pf.table.shape != (2, 2):
                raise ValidationError(f"pair factor {k} table must be 2x2")
            if not np.isfinite(pf.table).all():
                raise ValidationError(f"non-finite energy in pair factor {k}")


@dataclass(frozen=True)
class BpConfig:
    """Knobs for loopy belief propagation.

    Flooding schedule: every sweep recomputes all variable-to-factor messages
    from the previous factor-to-variable messages, then all factor-to-variable
    messages, which are damped against their previous values. Convergence is
    declared when the max absolute change of any factor-to-variable message
    entry falls below `tolerance`.
    """

    max_iterations: int = 50
    tolerance: float = 1e-6
    damping: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValidationError("tolerance must be > 0")
        if not (0.0 <= self.damping < 1.0):
            raise ValidationError("damping must lie in [0, 1)")


@dataclass
class InferenceResult:
    """Marginals, factor marginals, and MAP labels from one inference call.

    `pair_beliefs[k]` is the joint belief of pair factor k. `log_partition` is
    populated by exact inference only.
    """

    node_marginals: np.ndarray
    pair_beliefs: np.ndarray
    map_labels: np.ndarray
    log_partition: float | None
    converged: bool
    iterations_used: int


def _enumerate_labelings(num_vars):
    """All 2**K labelings as a (2**K, K) int array; bit v of row m is label of var v."""
    m = np.arange(1 << num_vars, dtype=np.int64)
    return ((m[:, None] >> np.arange(num_vars)) & 1).astype(np.int8)


def _total_energies(graph, labelings):
    energies = np.zeros(labelings.shape[0])
    for v in range(graph.num_vars):
        energies += graph.unary[v, labelings[:, v]]
    for pf in graph.pairs:
        energies += pf.table[labelings[:, pf.i], labelings[:, pf.j]]
    return energies


def exact_inference(graph: FactorGraph) -> InferenceResult:
    """Brute-force enumeration of all labelings.

    Returns exact node marginals, factor marginals, the MAP labeling (ties
    broken toward label 1: among equal-probability labelings the one with the
    highest enumeration index wins, which resolves a single tied variable to
    label 1), and the log partition function.
    """
    graph.validate()
    if graph.num_vars > MAX_EXACT_VARS:
        raise CapacityError(
            f"exact inference enumerates 2**K labelings; K={graph.num_vars} exceeds {MAX_EXACT_VARS}"
        )
    labelings = _enumerate_labelings(graph.num_vars)
    energies = _total_energies(graph, labelings)

    log_z = float(logsumexp(-energies))
    probs = np.exp(-energies - log_z)

    marginals = np.empty((graph.num_vars, 2))
    for v in range(graph.num_vars):
        p1 = float(probs @ labelings[:, v])
        marginals[v] = (1.0 - p1, p1)

    pair_beliefs = np.empty((len(graph.pairs), 2, 2))
    for k, pf in enumerate(graph.pairs):
        idx = labelings[:, pf.i] * 2 + labelings[:, pf.j]
        pair_beliefs[k] = np.bincount(idx, weights=probs, minlength=4).reshape(2, 2)

    best = np.flatnonzero(energies == energies.min())
    map_labels = labelings[best.max()].astype(int)

    return InferenceResult(
        node_marginals=marginals,
        pair_beliefs=pair_beliefs,
        map_labels=map_labels,
        log_partition=log_z,
        converged=True,
        iterations_used=0,
    )


def infer(graph: FactorGraph, mode: str, config: BpConfig | None = None,
          maximize: bool = True, trace: list | None = None) -> InferenceResult:
    """Run inference in one of INFERENCE_MODES.

    "exact" enumerates every labeling, which yields the MAP labels and the
    marginals at once. "loopy-bp" runs max-product when `maximize` is set,
    sum-product otherwise, and appends its messages to `trace` when one is
    given; exact inference passes no messages, so it rejects a trace.
    """
    if mode == "exact":
        if trace is not None:
            raise ValidationError("message traces need loopy-bp inference")
        return exact_inference(graph)
    if mode == "loopy-bp":
        return (max_product if maximize else sum_product)(graph, config, trace=trace)
    raise ValidationError(f"unknown inference mode {mode!r}")


def sum_product(graph: FactorGraph, config: BpConfig | None = None,
                trace: list | None = None) -> InferenceResult:
    """Loopy sum-product BP; exact on acyclic graphs once converged."""
    return _message_passing(graph, config or BpConfig(), maximize=False, trace=trace)


def max_product(graph: FactorGraph, config: BpConfig | None = None,
                trace: list | None = None) -> InferenceResult:
    """Loopy max-product BP for approximate MAP; ties resolve to label 1."""
    return _message_passing(graph, config or BpConfig(), maximize=True, trace=trace)


def _message_passing(graph, config, maximize, trace=None):
    graph.validate()
    n = graph.num_vars
    n_pairs = len(graph.pairs)

    # Unary factor-to-variable messages never change: normalize exp(-E) once.
    unary_msg = np.exp(-graph.unary)
    row_sums = unary_msg.sum(axis=1)
    if not np.isfinite(row_sums).all() or np.any(row_sums <= 0.0):
        v = int(np.flatnonzero(~np.isfinite(row_sums) | (row_sums <= 0.0))[0])
        raise NumericalError(f"unary factor {v}: message underflowed to zero")
    unary_msg /= row_sums[:, None]

    kernels = np.exp(-np.stack([pf.table for pf in graph.pairs])) if n_pairs else \
        np.zeros((0, 2, 2))
    idx_i = np.array([pf.i for pf in graph.pairs], dtype=int)
    idx_j = np.array([pf.j for pf in graph.pairs], dtype=int)
    # Flattened endpoint variable index per (pair, endpoint) message slot.
    endpoints = np.stack([idx_i, idx_j], axis=1).reshape(-1) if n_pairs else \
        np.zeros(0, dtype=int)

    f2v = np.full((n_pairs, 2, 2), 0.5)  # [pair, endpoint, label]
    v2f = np.full((n_pairs, 2, 2), 0.5)

    def beliefs_from(f2v_cur):
        b = unary_msg.copy()
        if n_pairs:
            np.multiply.at(b, endpoints, f2v_cur.reshape(-1, 2))
        return b

    def emit_trace(iteration, f2v_cur, v2f_cur):
        if trace is None:
            return
        for k in range(n_pairs):
            for e, v in ((0, idx_i[k]), (1, idx_j[k])):
                trace.append((iteration, n + k, int(v), "f2v",
                              float(f2v_cur[k, e, 0]), float(f2v_cur[k, e, 1])))
                trace.append((iteration, n + k, int(v), "v2f",
                              float(v2f_cur[k, e, 0]), float(v2f_cur[k, e, 1])))

    converged = n_pairs == 0
    iterations = 0
    for iterations in range(1, (config.max_iterations + 1) if n_pairs else 1):
        # Variable-to-factor: cavity belief, i.e. full belief with this
        # factor's own message divided out. Zero entries fall back to an
        # explicit leave-one-out product.
        b = beliefs_from(f2v)
        with np.errstate(divide="ignore", invalid="ignore"):
            v2f = b[endpoints].reshape(n_pairs, 2, 2) / f2v
        bad = ~np.isfinite(v2f)
        if bad.any():
            flat_f2v = f2v.reshape(-1, 2)
            for k, e in zip(*np.nonzero(bad.any(axis=2))):
                slot_self = 2 * k + e
                v = endpoints[slot_self]
                prod = unary_msg[v].copy()
                for slot in np.flatnonzero(endpoints == v):
                    if slot != slot_self:
                        prod = prod * flat_f2v[slot]
                v2f[k, e] = prod
        sums = v2f.sum(axis=2)
        if np.any(sums <= 0.0) or not np.isfinite(sums).all():
            k = int(np.flatnonzero((sums <= 0.0) | ~np.isfinite(sums))[0] // 2)
            raise NumericalError(f"pair factor {k}: variable-to-factor message vanished")
        v2f = v2f / sums[:, :, None]

        # Factor-to-variable.
        if maximize:
            to_i = (kernels * v2f[:, 1, None, :]).max(axis=2)
            to_j = (kernels * v2f[:, 0, :, None]).max(axis=1)
        else:
            to_i = np.einsum("kab,kb->ka", kernels, v2f[:, 1, :])
            to_j = np.einsum("kab,ka->kb", kernels, v2f[:, 0, :])
        new_f2v = np.stack([to_i, to_j], axis=1)
        sums = new_f2v.sum(axis=2)
        if np.any(sums <= 0.0) or not np.isfinite(sums).all():
            k = int(np.flatnonzero((sums <= 0.0) | ~np.isfinite(sums))[0] // 2)
            raise NumericalError(f"pair factor {k}: factor-to-variable message vanished")
        new_f2v = new_f2v / sums[:, :, None]

        new_f2v = config.damping * f2v + (1.0 - config.damping) * new_f2v
        change = float(np.abs(new_f2v - f2v).max())
        f2v = new_f2v
        emit_trace(iterations, f2v, v2f)
        if change <= config.tolerance:
            converged = True
            break

    beliefs = beliefs_from(f2v)
    sums = beliefs.sum(axis=1)
    if np.any(sums <= 0.0) or not np.isfinite(sums).all():
        v = int(np.flatnonzero((sums <= 0.0) | ~np.isfinite(sums))[0])
        raise NumericalError(f"variable {v}: belief vanished")
    marginals = beliefs / sums[:, None]

    # Factor beliefs from the final variable-to-factor messages.
    if n_pairs:
        with np.errstate(divide="ignore", invalid="ignore"):
            v2f = beliefs[endpoints].reshape(n_pairs, 2, 2) / f2v
        v2f = np.where(np.isfinite(v2f), v2f, 0.0)
        v2f_sums = v2f.sum(axis=2)
        v2f_sums[v2f_sums == 0.0] = 1.0
        v2f = v2f / v2f_sums[:, :, None]
        pair_beliefs = kernels * v2f[:, 0, :, None] * v2f[:, 1, None, :]
        pb_sums = pair_beliefs.sum(axis=(1, 2))
        if np.any(pb_sums <= 0.0) or not np.isfinite(pb_sums).all():
            k = int(np.flatnonzero((pb_sums <= 0.0) | ~np.isfinite(pb_sums))[0])
            raise NumericalError(f"pair factor {k}: factor belief vanished")
        pair_beliefs /= pb_sums[:, None, None]
    else:
        pair_beliefs = np.zeros((0, 2, 2))

    map_labels = (marginals[:, 1] >= marginals[:, 0]).astype(int)

    return InferenceResult(
        node_marginals=marginals,
        pair_beliefs=pair_beliefs,
        map_labels=map_labels,
        log_partition=None,
        converged=converged,
        iterations_used=iterations,
    )
