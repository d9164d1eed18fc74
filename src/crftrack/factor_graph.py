"""Binary-label factor graphs with exact and message-passing inference.

A graph holds energy tables as read-only arrays: one (K, 2) unary array and
the pair factors stacked as (P, 2) endpoints and (P, 2, 2) tables. A labeling
y has probability proportional to exp(-sum_f E_f(y_f)), so lower energy means
more probable. Three inference routines are provided: exact enumeration (the
oracle, exact marginals and log partition function), sum-product belief
propagation (approximate marginals on loopy graphs, exact on trees), and
max-product belief propagation (approximate MAP). `infer` is the one MAP
dispatch from an inference mode name to a labeling.

With binary labels the energy is a quadratic form in the labeling, so
`labeling_energies` evaluates all 2**K labelings with a few matrix products
over cached labeling halves, holding one number per labeling. Exact inference,
the exact MAP of `infer` and the training likelihood all start from that grid;
the MAP is its argmin alone, with no exponentials and no marginals.

Belief propagation keeps its messages as normalized log-probabilities, so an
energy table whose exp(-E) underflows to zero still passes a finite message;
only energies near the float limit can overflow it, which raises
NumericalError. Damping and the convergence tolerance still read the messages
as probabilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError

# Enumeration bound for exact inference: 2**20 labelings is the ceiling.
MAX_EXACT_VARS = 20

# Exact inference lays the labelings out on a grid: the first COLUMN_VARS
# variables index its columns and the rest its rows, so each cached labeling
# half has at most 2**COLUMN_VARS rows.
COLUMN_VARS = 10

# Inference modes accepted by `infer` and the CLI.
INFERENCE_MODES = ("exact", "loopy-bp")

# Largest log-probability step of any message that loopy BP still counts as
# converged, whatever its step in probability units.
MAX_SETTLED_NATS = 1.0


@dataclass(frozen=True)
class FactorGraph:
    """num_vars binary variables with unary energy tables, plus pair factors.

    unary[v, y_v] is the energy of variable v. Pair factor k joins variables
    ends[k] = (i, j), i < j, with energy tables[k, y_i, y_j]; `ends` has shape
    (P, 2) and `tables` (P, 2, 2). The graph copies its arrays into read-only
    ones and validates them once, when it is built; it cannot change after.
    """

    num_vars: int
    unary: np.ndarray
    ends: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.intp))
    tables: np.ndarray = field(default_factory=lambda: np.empty((0, 2, 2)))

    def __post_init__(self):
        for name, dtype in (("unary", float), ("ends", np.intp), ("tables", float)):
            frozen = np.array(getattr(self, name), dtype=dtype)
            frozen.flags.writeable = False
            object.__setattr__(self, name, frozen)
        self.validate()

    def validate(self):
        n, ends, tables = self.num_vars, self.ends, self.tables
        if n < 0:
            raise ValidationError("num_vars must be >= 0")
        if self.unary.shape != (n, 2):
            raise ValidationError(f"unary table shape {self.unary.shape}, expected {(n, 2)}")
        if not np.isfinite(self.unary).all():
            raise ValidationError("non-finite unary energy")
        if tables.ndim != 3 or tables.shape[1:] != (2, 2) or ends.shape != (len(tables), 2):
            raise ValidationError(
                f"pair ends shape {ends.shape} and tables shape {tables.shape}; "
                "expected (P, 2) and (P, 2, 2)")
        i, j = ends.T
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= n))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"pair factor {k} references ({i[k]}, {j[k]}); need 0 <= i < j < num_vars")
        finite = np.isfinite(tables).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError(f"non-finite energy in pair factor {int(np.argmin(finite))}")


@dataclass(frozen=True)
class BpConfig:
    """Knobs for loopy belief propagation.

    Flooding schedule: every sweep recomputes all variable-to-factor messages
    from the previous factor-to-variable messages, then all factor-to-variable
    messages. Damping mixes each new message with its previous value as
    probabilities: damping * old + (1 - damping) * new. Convergence is
    declared when no factor-to-variable message entry changes by more than
    `tolerance` in probability units (and none by more than
    MAX_SETTLED_NATS in log-probability).
    """

    max_iterations: int = 50
    tolerance: float = 1e-6
    damping: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError("tolerance must be finite and > 0")
        if not (0.0 <= self.damping < 1.0):
            raise ValidationError("damping must lie in [0, 1)")


@dataclass
class InferenceResult:
    """Marginals, factor marginals, and MAP labels from one inference call.

    `pair_beliefs[k]` is the joint belief of pair factor k. `log_partition` is
    populated by exact inference only. The exact MAP of `infer` computes the
    labels alone, so its marginals and pair beliefs are None.
    """

    node_marginals: np.ndarray | None
    pair_beliefs: np.ndarray | None
    map_labels: np.ndarray
    log_partition: float | None
    converged: bool
    iterations_used: int


@functools.lru_cache(maxsize=COLUMN_VARS + 1)
def _labeling_half(num_vars):
    """[1 - Y, Y] for the 2**n labelings Y of n variables, as a read-only array.

    Bit v of row m is the label of variable v: Y[m, v] = (m >> v) & 1.
    """
    m = np.arange(1 << num_vars)
    y = ((m[:, None] >> np.arange(num_vars)) & 1).astype(float)
    half = np.hstack([1.0 - y, y])
    half.flags.writeable = False
    return half


def _quadratic_form(graph):
    """(c, a, Q) with E(y) = c + a.y + y'Qy; Q[i, j] is non-zero only for pairs i < j.

    A 2x2 table is t00 + (t10 - t00) y_i + (t01 - t00) y_j
    + (t11 - t10 - t01 + t00) y_i y_j in the binary labels.
    """
    n = graph.num_vars
    t00, t01, t10, t11 = graph.tables.reshape(-1, 4).T
    i, j = graph.ends.T
    c = graph.unary[:, 0].sum() + t00.sum()
    a = (graph.unary[:, 1] - graph.unary[:, 0]
         + np.bincount(np.concatenate([i, j]), np.concatenate([t10 - t00, t01 - t00]),
                       minlength=n))
    q = np.bincount(i * n + j, t11 - t10 - t01 + t00, minlength=n * n).reshape(n, n)
    return c, a, q


def _half_energies(half, a, q):
    """a.y + y'Qy for every labeling y of one half."""
    y = half[:, half.shape[1] // 2:]
    return y @ a + ((y @ q) * y).sum(axis=1)


def labeling_energies(graph: FactorGraph) -> np.ndarray:
    """Energies of all 2**K labelings as a grid whose row-major order is enumeration order.

    With k = min(K, COLUMN_VARS), entry [r, c] is labeling (r << k) | c. The grid
    is c + e_rows + e_cols + (R Q_cross) C' over the two cached labeling halves.
    """
    n = graph.num_vars
    if n > MAX_EXACT_VARS:
        raise CapacityError(f"exact inference enumerates 2**K labelings; "
                            f"K={n} exceeds {MAX_EXACT_VARS}, so use loopy-bp")
    c, a, q = _quadratic_form(graph)
    k = min(n, COLUMN_VARS)
    cols, rows = _labeling_half(k), _labeling_half(n - k)

    energies = (rows[:, n - k:] @ q[:k, k:].T) @ cols[:, k:].T
    energies += _half_energies(rows, a[k:], q[k:, k:])[:, None]
    energies += _half_energies(cols, a[:k], q[:k, :k]) + c
    return energies


def _map_index(energies):
    """Enumeration index of the MAP: the highest index among the exact energy minima.

    The highest index resolves a single tied variable to label 1.
    """
    flat = energies.ravel()
    best = flat.size - 1 - int(np.argmin(flat[::-1]))
    if math.isnan(flat[best]):
        raise NumericalError("labeling energies are not numbers: energies overflow float range")
    return best


def exact_inference(graph: FactorGraph) -> InferenceResult:
    """Exact marginals, pair beliefs, log partition function and MAP labeling.

    All 2**K labeling energies come from `labeling_energies`. Marginals and
    pair beliefs are entries of the moment matrix E[z z'] of z = [1 - y, y].
    The MAP labeling is the one `infer` picks in exact mode (`_map_index`).
    """
    energies = labeling_energies(graph)
    n, k = graph.num_vars, min(graph.num_vars, COLUMN_VARS)
    h = n - k
    cols, rows = _labeling_half(k), _labeling_half(h)
    best = _map_index(energies)
    e_min = energies.flat[best]

    probs = np.exp(np.subtract(e_min, energies, out=energies), out=energies)
    total = probs.sum()
    probs /= total
    # Moment matrix E[z z'] of z = [1 - y, y], indexed [label, var, label, var].
    moments = np.empty((2, n, 2, n))
    moments[:, :k, :, :k] = ((cols.T * probs.sum(axis=0)) @ cols).reshape(2, k, 2, k)
    moments[:, k:, :, k:] = ((rows.T * probs.sum(axis=1)) @ rows).reshape(2, h, 2, h)
    cross = ((rows.T @ probs) @ cols).reshape(2, h, 2, k)
    moments[:, k:, :, :k] = cross
    moments[:, :k, :, k:] = cross.transpose(2, 3, 0, 1)
    v = np.arange(n)
    i, j = graph.ends.T

    return InferenceResult(
        node_marginals=np.stack([moments[0, v, 0, v], moments[1, v, 1, v]], axis=1),
        pair_beliefs=moments[:, i, :, j],
        map_labels=(best >> v) & 1,
        log_partition=float(np.log(total) - e_min),
        converged=True,
        iterations_used=0,
    )


def infer(graph: FactorGraph, mode: str, config: BpConfig | None = None,
          trace: list | None = None) -> InferenceResult:
    """MAP inference in one of INFERENCE_MODES.

    "exact" takes the argmin of `labeling_energies` under exact_inference's
    tie rule and returns the MAP labels alone, without marginals. "loopy-bp"
    runs max-product and appends its messages to `trace` when one is given;
    exact inference passes no messages, so it rejects a trace.
    """
    if mode == "exact":
        if trace is not None:
            raise ValidationError("message traces need loopy-bp inference")
        best = _map_index(labeling_energies(graph))
        return InferenceResult(node_marginals=None, pair_beliefs=None,
                               map_labels=(best >> np.arange(graph.num_vars)) & 1,
                               log_partition=None, converged=True, iterations_used=0)
    if mode == "loopy-bp":
        return max_product(graph, config, trace=trace)
    raise ValidationError(f"unknown inference mode {mode!r}")


def sum_product(graph: FactorGraph, config: BpConfig | None = None,
                trace: list | None = None) -> InferenceResult:
    """Loopy sum-product BP; exact on acyclic graphs once converged."""
    return _message_passing(graph, config or BpConfig(), maximize=False, trace=trace)


def max_product(graph: FactorGraph, config: BpConfig | None = None,
                trace: list | None = None) -> InferenceResult:
    """Loopy max-product BP for approximate MAP; ties resolve to label 1."""
    return _message_passing(graph, config or BpConfig(), maximize=True, trace=trace)


def _normalized(log_msg):
    """Shift log-messages so each last-axis pair of entries sums to probability 1."""
    return log_msg - np.logaddexp(log_msg[..., :1], log_msg[..., 1:])


def _message_passing(graph, config, maximize, trace=None):
    n = graph.num_vars
    n_pairs = len(graph.tables)
    # Messages and beliefs are log-probabilities. Sum-product and max-product
    # differ only in how a factor folds out the other endpoint's label.
    combine = np.maximum if maximize else np.logaddexp
    log_keep = -np.inf if config.damping == 0.0 else math.log(config.damping)
    log_mix = math.log1p(-config.damping)

    log_unary = _normalized(-graph.unary)
    log_kernels = -graph.tables
    # Flattened endpoint variable index per (pair, endpoint) message slot.
    endpoints = graph.ends.reshape(-1)

    f2v = np.full((n_pairs, 2, 2), math.log(0.5))  # [pair, endpoint, label]

    def beliefs_from(f2v_cur):
        b = log_unary.copy()
        np.add.at(b, endpoints, f2v_cur.reshape(-1, 2))
        return b

    def cavity(b, f2v_cur):
        # Variable-to-factor: the belief with this factor's own message taken out.
        return _normalized(b[endpoints].reshape(n_pairs, 2, 2) - f2v_cur)

    converged = n_pairs == 0
    iterations = 0
    for iterations in range(1, (config.max_iterations + 1) if n_pairs else 1):
        v2f = cavity(beliefs_from(f2v), f2v)
        to_i = combine(log_kernels[:, :, 0] + v2f[:, 1, None, 0],
                       log_kernels[:, :, 1] + v2f[:, 1, None, 1])
        to_j = combine(log_kernels[:, 0, :] + v2f[:, 0, 0, None],
                       log_kernels[:, 1, :] + v2f[:, 0, 1, None])
        new_f2v = _normalized(np.stack([to_i, to_j], axis=1))
        # Damping mixes old and new messages as probabilities.
        damped = np.logaddexp(log_keep + f2v, log_mix + new_f2v)
        change = float(np.abs(np.exp(damped) - np.exp(f2v)).max())
        # Saturated messages can move by many nats and still read as no
        # change in probability; such a message has not converged either.
        settled = float(np.abs(damped - f2v).max()) <= MAX_SETTLED_NATS
        f2v = damped
        if trace is not None:
            f2v_prob, v2f_prob = np.exp(f2v), np.exp(v2f)
            for k, pair in enumerate(graph.ends.tolist()):
                for e, v in enumerate(pair):
                    trace.append((iterations, n + k, v, "f2v", *map(float, f2v_prob[k, e])))
                    trace.append((iterations, n + k, v, "v2f", *map(float, v2f_prob[k, e])))
        if change <= config.tolerance and settled:
            converged = True
            break

    beliefs = beliefs_from(f2v)
    log_marginals = _normalized(beliefs)
    # Factor beliefs from the final variable-to-factor messages.
    v2f = cavity(beliefs, f2v)
    log_pairs = (log_kernels + v2f[:, 0, :, None] + v2f[:, 1, None, :]).reshape(-1, 4)
    log_pairs = log_pairs - np.logaddexp.reduce(log_pairs, axis=1, keepdims=True)
    if not (np.isfinite(log_marginals).all() and np.isfinite(log_pairs).all()):
        raise NumericalError("loopy BP beliefs are not finite: energies overflow float range")

    return InferenceResult(
        node_marginals=np.exp(log_marginals),
        pair_beliefs=np.exp(log_pairs).reshape(-1, 2, 2),
        map_labels=(log_marginals[:, 1] >= log_marginals[:, 0]).astype(int),
        log_partition=None,
        converged=converged,
        iterations_used=iterations,
    )
