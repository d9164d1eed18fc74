"""Shared helpers: independent enumeration oracle and random graph builders."""

import itertools
import math

import numpy as np
import pytest

from crftrack.factor_graph import FactorGraph


def reference_enumeration(graph):
    """Second, independent enumeration of the joint distribution.

    Deliberately written with plain dicts, itertools and math so it shares no
    code path with the vectorized implementation it checks. Returns
    (marginals, log_z, probs) where probs maps each labeling tuple to its
    probability and marginals is a list of [p0, p1] per variable. Weights are
    taken relative to the lowest energy, so large energies do not overflow.
    """
    energies = {}
    for labels in itertools.product((0, 1), repeat=graph.num_vars):
        energy = 0.0
        for v, y in enumerate(labels):
            energy += float(graph.unary[v][y])
        for (i, j), table in zip(graph.ends.tolist(), graph.tables):
            energy += float(table[labels[i]][labels[j]])
        energies[labels] = energy
    e_min = min(energies.values())
    weights = {labels: math.exp(e_min - energy) for labels, energy in energies.items()}
    z = sum(weights.values())
    marginals = [[0.0, 0.0] for _ in range(graph.num_vars)]
    probs = {}
    for labels, w in weights.items():
        p = w / z
        probs[labels] = p
        for v, y in enumerate(labels):
            marginals[v][y] += p
    return marginals, math.log(z) - e_min, probs


def random_tree_graph(rng, max_vars=10, scale=1.0):
    """Random acyclic graph: each new variable attaches to one earlier one."""
    k = int(rng.integers(1, max_vars + 1))
    unary = rng.normal(0.0, scale, (k, 2))
    ends, tables = [], []
    for v in range(1, k):
        ends.append((int(rng.integers(0, v)), v))
        tables.append(rng.normal(0.0, scale, (2, 2)))
    return FactorGraph(num_vars=k, unary=unary, ends=np.reshape(ends, (-1, 2)),
                       tables=np.reshape(tables, (-1, 2, 2)))


def random_full_graph(rng, k, scale=1.0):
    """Fully connected graph on k variables with gaussian energies."""
    unary = rng.normal(0.0, scale, (k, 2))
    ends = np.transpose(np.triu_indices(k, 1))
    tables = rng.normal(0.0, scale, (len(ends), 2, 2))
    return FactorGraph(num_vars=k, unary=unary, ends=ends, tables=tables)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
