#!/usr/bin/env python3
"""
Binary factor graphs: exact enumeration vs belief propagation
=============================================================

Builds small energy-based graphs and compares the brute-force oracle with
sum-product and max-product message passing. A graph takes its pair factors
as two stacked arrays: `ends`, the (P, 2) variable pairs, and `tables`, their
(P, 2, 2) energy tables.
"""
import numpy as np

from crftrack import BpConfig, FactorGraph
from crftrack import exact_inference, max_product, sum_product

# A single variable with equal energies: both labels equally likely,
# the MAP tie resolves toward label 1 (keep the tracklet).
g = FactorGraph(num_vars=1, unary=np.array([[0.0, 0.0]]))
res = exact_inference(g)
print("single variable, flat energies")
print("  marginals:", res.node_marginals[0], " log Z:", round(res.log_partition, 6),
      " MAP:", res.map_labels[0])

# A three-variable chain. Belief propagation is exact on acyclic graphs:
# run it undamped until the messages stop changing.
rng = np.random.default_rng(0)
chain = FactorGraph(
    num_vars=3,
    unary=rng.normal(0, 1, (3, 2)),
    ends=[(0, 1), (1, 2)],
    tables=rng.normal(0, 1, (2, 2, 2)),
)
tree_bp = BpConfig(max_iterations=100, tolerance=1e-12, damping=0.0)
ex = exact_inference(chain)
sp = sum_product(chain, tree_bp)
print("\nthree-variable chain")
print("  exact marginals:\n", np.round(ex.node_marginals, 6))
print("  BP marginals:  \n", np.round(sp.node_marginals, 6))
print("  max abs difference:", float(np.abs(ex.node_marginals - sp.node_marginals).max()))

# A fully connected graph has cycles, so loopy BP is only approximate.
# Damping (the default config) helps it settle.
full = FactorGraph(
    num_vars=4,
    unary=rng.normal(0, 1, (4, 2)),
    ends=np.transpose(np.triu_indices(4, 1)),
    tables=rng.normal(0, 1, (6, 2, 2)),
)
ex = exact_inference(full)
sp = sum_product(full, BpConfig())
mp = max_product(full, BpConfig())
print("\nfully connected four-variable graph (loopy)")
print("  converged:", sp.converged, "after", sp.iterations_used, "sweeps")
print("  marginal deviation from exact:",
      round(float(np.abs(ex.node_marginals - sp.node_marginals).max()), 6))
print("  exact MAP:", ex.map_labels, " max-product MAP:", mp.map_labels)

