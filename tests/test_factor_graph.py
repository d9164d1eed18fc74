import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_full_graph, random_tree_graph, reference_enumeration
from crftrack.errors import CapacityError, NumericalError, ValidationError
from crftrack.factor_graph import (COLUMN_VARS, MAX_EXACT_VARS, MAX_SETTLED_NATS, BpConfig,
                                   FactorGraph, _labeling_half, _map_index, _quadratic_form,
                                   exact_inference, exact_map, labeling_energies, max_product,
                                   sum_product)

# BP settings for acyclic graphs: undamped flooding reaches the exact fixed
# point in finitely many sweeps.
TREE_BP = BpConfig(max_iterations=100, tolerance=1e-12, damping=0.0)

# Regression fixtures measured once against exact_inference (loopy BP is
# approximate; these pin the observed behavior, they are not a-priori claims).
FC4_SEED7_MAX_DEVIATION = 0.00022393264555477417
FC5_SEED11_MAP_AGREEMENT = 0.9696


def single_var_graph(e0, e1):
    return FactorGraph(num_vars=1, unary=np.array([[e0, e1]], dtype=float))


def _reference_normalized(log_msg):
    return log_msg - np.logaddexp(log_msg[..., :1], log_msg[..., 1:])


def reference_message_passing(graph, config, maximize, trace=None):
    """The flooding loop one numpy call at a time, kept as the bit-level reference.

    Each sweep copies the unary table and adds the messages in with np.add.at,
    folds each factor endpoint separately and computes every exponential anew;
    `_message_passing` must reproduce it bit for bit.
    """
    n = graph.num_vars
    n_pairs = len(graph.tables)
    combine = np.maximum if maximize else np.logaddexp
    log_keep = -np.inf if config.damping == 0.0 else math.log(config.damping)
    log_mix = math.log1p(-config.damping)
    log_unary = _reference_normalized(-graph.unary)
    log_kernels = -graph.tables
    endpoints = graph.ends.reshape(-1)
    f2v = np.full((n_pairs, 2, 2), math.log(0.5))

    def beliefs_from(f2v_cur):
        b = log_unary.copy()
        np.add.at(b, endpoints, f2v_cur.reshape(-1, 2))
        return b

    def cavity(b, f2v_cur):
        return _reference_normalized(b[endpoints].reshape(n_pairs, 2, 2) - f2v_cur)

    converged = n_pairs == 0
    iterations = 0
    for iterations in range(1, (config.max_iterations + 1) if n_pairs else 1):
        v2f = cavity(beliefs_from(f2v), f2v)
        to_i = combine(log_kernels[:, :, 0] + v2f[:, 1, None, 0],
                       log_kernels[:, :, 1] + v2f[:, 1, None, 1])
        to_j = combine(log_kernels[:, 0, :] + v2f[:, 0, 0, None],
                       log_kernels[:, 1, :] + v2f[:, 0, 1, None])
        new_f2v = _reference_normalized(np.stack([to_i, to_j], axis=1))
        damped = np.logaddexp(log_keep + f2v, log_mix + new_f2v)
        change = float(np.abs(np.exp(damped) - np.exp(f2v)).max())
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
    log_marginals = _reference_normalized(beliefs)
    v2f = cavity(beliefs, f2v)
    log_pairs = (log_kernels + v2f[:, 0, :, None] + v2f[:, 1, None, :]).reshape(-1, 4)
    log_pairs = log_pairs - np.logaddexp.reduce(log_pairs, axis=1, keepdims=True)
    return (np.exp(log_marginals), np.exp(log_pairs).reshape(-1, 2, 2),
            (log_marginals[:, 1] >= log_marginals[:, 0]).astype(int), converged, iterations)


def reference_grid(graph):
    """One grid formula for every K, kept as the bit-level reference of labeling_energies.

    Every grid is the cross product, plus the row half, plus the column half
    and c; each half adds its linear term to its quadratic one.
    """
    n = graph.num_vars
    c, a, q = _quadratic_form(graph)
    k = min(n, COLUMN_VARS)
    cols, rows = _labeling_half(k), _labeling_half(n - k)

    def half(labels, a_part, q_part):
        y = labels[:, labels.shape[1] // 2:]
        return y @ a_part + ((y @ q_part) * y).sum(axis=1)

    energies = (rows[:, n - k:] @ q[:k, k:].T) @ cols[:, k:].T
    energies += half(rows, a[k:], q[k:, k:])[:, None]
    energies += half(cols, a[:k], q[:k, :k]) + c
    return energies


@pytest.mark.parametrize("k", range(MAX_EXACT_VARS + 1))
def test_labeling_energies_match_reference_grid(k):
    rng = np.random.default_rng(500 + k)
    ends = np.transpose(np.triu_indices(k, 1))
    # The all-zero graph ties every labeling; small-integer energies plant
    # ties among a few minima.
    graphs = [FactorGraph(k, np.zeros((k, 2)), ends, np.zeros((len(ends), 2, 2)))]
    for integer in (False, True, False, True):
        draw = ((lambda shape: rng.integers(-2, 3, shape).astype(float)) if integer
                else (lambda shape: rng.normal(0.0, 1.0, shape)))
        keep = rng.random(len(ends)) < rng.random()
        graphs.append(FactorGraph(k, draw((k, 2)), ends[keep], draw((int(keep.sum()), 2, 2))))
    for graph in graphs:
        grid, expected = labeling_energies(graph), reference_grid(graph)
        assert grid.shape == expected.shape
        assert np.array_equal(grid, expected)
        best = _map_index(expected)
        assert _map_index(grid) == best
        assert exact_map(graph.num_vars, _quadratic_form, graph).map_labels.tolist() == \
            [(best >> v) & 1 for v in range(k)]


class TestExactInference:
    def test_symmetric_single_variable(self):
        res = exact_inference(single_var_graph(0.0, 0.0))
        assert np.allclose(res.node_marginals, [[0.5, 0.5]])
        assert res.log_partition == pytest.approx(math.log(2.0), abs=1e-12)
        assert res.map_labels[0] == 1  # tie resolves to keeping the tracklet

    def test_hand_evaluated_single_variable(self):
        res = exact_inference(single_var_graph(math.log(2.0), 0.0))
        assert res.node_marginals[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.node_marginals[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_against_independent_enumeration(self, rng):
        for _ in range(20):
            graph = random_full_graph(rng, 3)
            res = exact_inference(graph)
            ref_marginals, ref_logz, ref_probs = reference_enumeration(graph)
            assert np.allclose(res.node_marginals, ref_marginals, atol=1e-12)
            assert res.log_partition == pytest.approx(ref_logz, abs=1e-12)
            best = max(ref_probs.values())
            # MAP must be one of the maximizers of the reference distribution
            assert ref_probs[tuple(res.map_labels)] == pytest.approx(best, rel=1e-12)

    def test_factor_marginals_match_reference(self, rng):
        graph = random_full_graph(rng, 4)
        res = exact_inference(graph)
        _, _, ref_probs = reference_enumeration(graph)
        for k, (i, j) in enumerate(graph.ends.tolist()):
            table = np.zeros((2, 2))
            for labels, p in ref_probs.items():
                table[labels[i], labels[j]] += p
            assert np.allclose(res.pair_beliefs[k], table, atol=1e-12)

    def test_marginals_normalized(self, rng):
        graph = random_full_graph(rng, 6)
        res = exact_inference(graph)
        assert np.allclose(res.node_marginals.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(res.pair_beliefs.sum(axis=(1, 2)), 1.0, atol=1e-9)
        assert (res.node_marginals >= 0).all() and (res.pair_beliefs >= 0).all()

    @pytest.mark.parametrize("scale", (1.0, 400.0))
    @pytest.mark.parametrize("k", (*range(1, 9), COLUMN_VARS + 2))
    def test_matches_reference_across_grid_split(self, k, scale):
        graph = random_full_graph(np.random.default_rng(k), k, scale)
        res = exact_inference(graph)
        ref_marginals, ref_logz, ref_probs = reference_enumeration(graph)
        ref_pairs = np.zeros((len(graph.tables), 2, 2))
        for labels, p in ref_probs.items():
            for q, (i, j) in enumerate(graph.ends.tolist()):
                ref_pairs[q, labels[i], labels[j]] += p
        assert res.node_marginals == pytest.approx(np.array(ref_marginals), rel=1e-12)
        assert res.pair_beliefs == pytest.approx(ref_pairs, rel=1e-12)
        assert res.log_partition == pytest.approx(ref_logz, rel=1e-12)

    def test_map_ties_take_highest_enumeration_index(self):
        res = exact_inference(FactorGraph(num_vars=3, unary=np.zeros((3, 2))))
        assert res.map_labels.tolist() == [1, 1, 1]
        # (1, 0) has index 1 and (0, 1) index 2; both have the minimum energy 0.
        xor = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = exact_inference(FactorGraph(num_vars=2, unary=np.zeros((2, 2)),
                                          ends=[(0, 1)], tables=[xor]))
        assert res.map_labels.tolist() == [0, 1]
        # Variable 0 indexes grid columns and variable 11 grid rows: the tied
        # minima sit at row 0, column 1 and at row 2, column 0.
        unary = np.tile([0.0, 5.0], (12, 1))
        unary[[0, 11]] = 0.0
        res = exact_inference(FactorGraph(num_vars=12, unary=unary,
                                          ends=[(0, 11)], tables=[xor]))
        assert res.map_labels.tolist() == [0] * 11 + [1]

    @pytest.mark.parametrize("k", range(13))
    def test_exact_map_path_matches_oracle(self, rng, k):
        # Small-integer energies tie often, so the shared tie rule is exercised.
        ends = np.transpose(np.triu_indices(k, 1))
        graphs = [FactorGraph(k, np.zeros((k, 2)), ends, np.zeros((len(ends), 2, 2)))]
        for _ in range(20):
            keep = rng.random(len(ends)) < rng.random()
            integer = rng.random() < 0.5
            draw = ((lambda shape: rng.integers(-2, 3, shape).astype(float)) if integer
                    else (lambda shape: rng.normal(0.0, 1.0, shape)))
            graphs.append(FactorGraph(k, draw((k, 2)), ends[keep], draw((int(keep.sum()), 2, 2))))
        for graph in graphs:
            res = exact_map(graph.num_vars, _quadratic_form, graph)
            assert res.map_labels.tolist() == exact_inference(graph).map_labels.tolist()
            assert res.node_marginals is None and res.pair_beliefs is None
        assert exact_map(k, _quadratic_form, graphs[0]).map_labels.tolist() == [1] * k

    def test_twenty_variable_chain_matches_tree_bp(self, rng):
        k = 20
        graph = FactorGraph(num_vars=k, unary=rng.normal(0, 1, (k, 2)),
                            ends=[(v, v + 1) for v in range(k - 1)],
                            tables=rng.normal(0, 1, (k - 1, 2, 2)))
        tracemalloc.start()
        try:
            ex = exact_inference(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        bp = sum_product(graph, TREE_BP)
        assert np.abs(ex.node_marginals - bp.node_marginals).max() < 1e-9

    @pytest.mark.parametrize("k", [0, 3, COLUMN_VARS + 2])
    def test_labeling_energies_in_enumeration_order(self, rng, k):
        graph = random_full_graph(rng, k)
        grid = labeling_energies(graph)
        assert grid.shape == (2 ** (k - min(k, COLUMN_VARS)), 2 ** min(k, COLUMN_VARS))
        for m, energy in enumerate(grid.ravel()):
            y = [(m >> v) & 1 for v in range(k)]
            expected = sum(graph.unary[v, y[v]] for v in range(k)) + sum(
                t[y[i], y[j]] for (i, j), t in zip(graph.ends.tolist(), graph.tables))
            assert energy == pytest.approx(expected, abs=1e-12)

    def test_graph_is_frozen(self):
        graph = single_var_graph(0.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.num_vars = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.tables = ()

    def test_graph_arrays_are_read_only_copies(self, rng):
        unary = rng.normal(0, 1, (3, 2))
        ends = np.array([(0, 1), (1, 2)])
        tables = rng.normal(0, 1, (2, 2, 2))
        graph = FactorGraph(num_vars=3, unary=unary, ends=ends, tables=tables)
        with pytest.raises(ValueError):
            graph.unary[0, 0] = np.inf
        with pytest.raises(ValueError):
            graph.ends[0, 0] = 2
        with pytest.raises(ValueError):
            graph.tables[0, 0, 0] = np.inf
        before = (exact_inference(graph), max_product(graph))
        # Editing the caller's arrays after the build leaves the graph as it was.
        unary[0] = (50.0, -50.0)
        ends[1] = (0, 2)
        tables *= -20.0
        after = (exact_inference(graph), max_product(graph))
        for old, new in zip(before, after):
            assert np.array_equal(old.node_marginals, new.node_marginals)
            assert np.array_equal(old.pair_beliefs, new.pair_beliefs)
            assert np.array_equal(old.map_labels, new.map_labels)

    def test_cached_labelings_are_read_only(self):
        half = _labeling_half(3)
        assert half.shape == (8, 6)
        assert not half.flags.writeable
        with pytest.raises(ValueError):
            half[0, 0] = 1.0

    def test_capacity_bound(self):
        graph = FactorGraph(num_vars=21, unary=np.zeros((21, 2)))
        message = "exact inference enumerates 2**K labelings; K=21 exceeds 20"
        for solve in (exact_inference, lambda g: exact_map(g.num_vars, _quadratic_form, g)):
            with pytest.raises(CapacityError) as raised:
                solve(graph)
            assert str(raised.value) == message

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_energies_raise_numerical_error(self):
        # Every table is finite, but labeling (1, 1, 1, 1) sums +inf and -inf.
        big = np.finfo(float).max
        tables = [[[0.0, 0.0], [0.0, e]] for e in (big, -big, big, -big)]
        graph = FactorGraph(num_vars=4, unary=np.zeros((4, 2)),
                            ends=[(0, 2), (0, 3), (1, 2), (1, 3)], tables=tables)
        for solve in (exact_inference, lambda g: exact_map(g.num_vars, _quadratic_form, g)):
            with pytest.raises(NumericalError):
                solve(graph)

    def test_non_finite_energy_rejected(self):
        with pytest.raises(ValidationError):
            FactorGraph(num_vars=1, unary=np.array([[np.inf, 0.0]]))
        with pytest.raises(ValidationError):
            FactorGraph(num_vars=2, unary=np.zeros((2, 2)),
                        ends=[(0, 1)], tables=[np.array([[np.nan, 0], [0, 0]])])
        with pytest.raises(ValidationError, match="pair factor 1"):
            FactorGraph(num_vars=3, unary=np.zeros((3, 2)), ends=[(0, 1), (1, 2)],
                        tables=[np.zeros((2, 2)), [[0, 0], [0, np.inf]]])

    def test_pair_index_validation(self):
        with pytest.raises(ValidationError):
            FactorGraph(num_vars=2, unary=np.zeros((2, 2)),
                        ends=[(1, 0)], tables=np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError):
            FactorGraph(num_vars=2, unary=np.zeros((2, 2)),
                        ends=[(0, 2)], tables=np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError, match=r"pair factor 1 references \(2, 1\)"):
            FactorGraph(num_vars=3, unary=np.zeros((3, 2)),
                        ends=[(0, 1), (2, 1)], tables=np.zeros((2, 2, 2)))
        for ends, tables in (([(0, 1)], np.zeros((2, 2, 2))), ([(0, 1)], np.zeros((1, 3, 2))),
                             ([0, 1], np.zeros((1, 2, 2)))):
            with pytest.raises(ValidationError, match="shape"):
                FactorGraph(num_vars=2, unary=np.zeros((2, 2)), ends=ends, tables=tables)


class TestSumProduct:
    def test_exact_on_chain(self, rng):
        unary = rng.normal(0, 1, (3, 2))
        graph = FactorGraph(num_vars=3, unary=unary, ends=[(0, 1), (1, 2)],
                            tables=rng.normal(0, 1, (2, 2, 2)))
        res = sum_product(graph, TREE_BP)
        ex = exact_inference(graph)
        assert res.converged
        assert np.abs(res.node_marginals - ex.node_marginals).max() < 1e-9

    def test_zero_pair_tables_give_independence(self, rng):
        unary = rng.normal(0, 1, (4, 2))
        graph = FactorGraph(num_vars=4, unary=unary, ends=np.transpose(np.triu_indices(4, 1)),
                            tables=np.zeros((6, 2, 2)))
        res = sum_product(graph, BpConfig())
        expected = np.exp(-unary)
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.abs(res.node_marginals - expected).max() < 1e-12

    def test_loopy_deviation_fixture(self):
        graph = random_full_graph(np.random.default_rng(7), 4)
        res = sum_product(graph, BpConfig())
        ex = exact_inference(graph)
        deviation = float(np.abs(res.node_marginals - ex.node_marginals).max())
        assert deviation == pytest.approx(FC4_SEED7_MAX_DEVIATION, rel=1e-6)

    def test_factor_beliefs_normalized(self, rng):
        graph = random_full_graph(rng, 5)
        res = sum_product(graph, BpConfig())
        assert np.allclose(res.node_marginals.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(res.pair_beliefs.sum(axis=(1, 2)), 1.0, atol=1e-9)

    def test_extreme_unary_energies_stay_exact(self):
        # Both unary entries underflow exp(-E) to zero; log-domain messages
        # still carry the 100-nat gap between the labels.
        graph = FactorGraph(num_vars=1, unary=np.array([[800.0, 900.0]]))
        ex = exact_inference(graph)
        for solver in (sum_product, max_product):
            res = solver(graph, BpConfig())
            assert np.array_equal(res.node_marginals, ex.node_marginals)
            assert np.array_equal(res.map_labels, ex.map_labels)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_energies_raise(self):
        # Energies near the float limit overflow log-messages to -inf.
        huge = np.array([[0.0, 1.7e308], [1.7e308, 0.0]])
        graph = FactorGraph(num_vars=2, unary=np.array([[0.0, -1.7e308], [0.0, 0.0]]),
                            ends=[(0, 1)], tables=[huge])
        with pytest.raises(NumericalError, match="not finite"):
            sum_product(graph, BpConfig())

    def test_hard_constraints_reach_tree_fixed_point(self):
        # Energies of 800+ underflow exp(-E) to exact zeros; log-domain
        # messages keep them finite, so BP still reaches the exact tree
        # fixed point.
        flip = np.array([[0.0, 800.0], [800.0, 0.0]])
        graph = FactorGraph(num_vars=3, unary=np.array([[0.0, 900.0], [0, 0], [0, 0]]),
                            ends=[(0, 1), (1, 2)], tables=[flip, flip])
        ex = exact_inference(graph)
        sp = sum_product(graph, TREE_BP)
        mp = max_product(graph, TREE_BP)
        assert np.abs(sp.node_marginals - ex.node_marginals).max() < 1e-12
        assert np.array_equal(mp.map_labels, ex.map_labels)


class TestMaxProduct:
    def test_single_variable_argmin_energy(self):
        res = max_product(single_var_graph(5.0, 0.0), BpConfig())
        assert res.map_labels[0] == 1
        res = max_product(single_var_graph(0.0, 5.0), BpConfig())
        assert res.map_labels[0] == 0

    def test_exact_on_trees(self, rng):
        for _ in range(25):
            graph = random_tree_graph(rng, max_vars=8)
            mp = max_product(graph, TREE_BP)
            ex = exact_inference(graph)
            assert np.array_equal(mp.map_labels, ex.map_labels)

    def test_loopy_agreement_fixture(self):
        rng = np.random.default_rng(11)
        agree = total = 0
        for _ in range(1000):
            graph = random_full_graph(rng, 5)
            mp = max_product(graph, BpConfig())
            ex = exact_inference(graph)
            agree += int((mp.map_labels == ex.map_labels).sum())
            total += 5
        assert agree / total == pytest.approx(FC5_SEED11_MAP_AGREEMENT, abs=0.01)


def _sweep_cases():
    """Seeded complete and random graphs of 0-12 variables, and saturated tables."""
    for k in range(13):
        rng = np.random.default_rng(100 + k)
        ends = np.transpose(np.triu_indices(k, 1))
        yield f"complete{k}", random_full_graph(rng, k)
        kept = ends[rng.random(len(ends)) < 0.4]
        yield f"random{k}", FactorGraph(num_vars=k, unary=rng.normal(0.0, 2.0, (k, 2)),
                                        ends=kept, tables=rng.normal(0.0, 2.0, (len(kept), 2, 2)))
    yield "single", single_var_graph(0.3, -0.2)
    yield "no-pairs", FactorGraph(num_vars=4, unary=np.random.default_rng(5).normal(0, 1, (4, 2)))
    rng = np.random.default_rng(6)
    saturated = rng.choice([0.0, 800.0], (10, 2, 2)) + rng.normal(0.0, 1.0, (10, 2, 2))
    yield "saturated", FactorGraph(num_vars=5, unary=rng.normal(0.0, 800.0, (5, 2)),
                                   ends=np.transpose(np.triu_indices(5, 1)), tables=saturated)


SWEEP_CASES = dict(_sweep_cases())


class TestSweepMatchesFloodingReference:
    @pytest.mark.parametrize("config", (BpConfig(), BpConfig(damping=0.0),
                                        BpConfig(max_iterations=1)),
                             ids=("default", "undamped", "one-sweep"))
    @pytest.mark.parametrize("name", SWEEP_CASES)
    def test_bit_identical_results(self, name, config):
        graph = SWEEP_CASES[name]
        for solver, maximize in ((sum_product, False), (max_product, True)):
            res = solver(graph, config)
            marginals, pairs, labels, converged, iterations = reference_message_passing(
                graph, config, maximize)
            assert np.array_equal(res.node_marginals, marginals)
            assert np.array_equal(res.pair_beliefs, pairs)
            assert np.array_equal(res.map_labels, labels)
            assert (res.converged, res.iterations_used) == (converged, iterations)

    @pytest.mark.parametrize("name", ("complete6", "random12", "saturated"))
    def test_identical_traces(self, name):
        graph, config = SWEEP_CASES[name], BpConfig(max_iterations=5)
        for solver, maximize in ((sum_product, False), (max_product, True)):
            trace, expected = [], []
            solver(graph, config, trace=trace)
            reference_message_passing(graph, config, maximize, trace=expected)
            assert trace and trace == expected


class TestProperties:
    @pytest.mark.parametrize("scale", (1.0, 400.0))
    def test_tree_exactness(self, rng, scale):
        for _ in range(50):
            graph = random_tree_graph(rng, scale=scale)
            ex = exact_inference(graph)
            sp = sum_product(graph, TREE_BP)
            mp = max_product(graph, TREE_BP)
            assert np.abs(sp.node_marginals - ex.node_marginals).max() < 1e-9
            assert np.array_equal(mp.map_labels, ex.map_labels)

    def test_energy_shift_invariance_exact(self, rng):
        graph = random_full_graph(rng, 4)
        base = exact_inference(graph)
        shift = 2.5
        shifted = FactorGraph(num_vars=4, unary=graph.unary, ends=graph.ends,
                              tables=graph.tables + shift)
        res = exact_inference(shifted)
        assert np.abs(res.node_marginals - base.node_marginals).max() < 1e-12
        assert np.array_equal(res.map_labels, base.map_labels)
        expected_logz = base.log_partition - shift * len(graph.tables)
        assert res.log_partition == pytest.approx(expected_logz, abs=1e-9)

    def test_energy_shift_invariance_bp(self, rng):
        graph = random_full_graph(rng, 4)
        base = sum_product(graph, BpConfig())
        shifted = FactorGraph(num_vars=4, unary=graph.unary + 0.9, ends=graph.ends,
                              tables=graph.tables + 1.7)
        res = sum_product(shifted, BpConfig())
        assert np.abs(res.node_marginals - base.node_marginals).max() < 1e-9

    def test_temperature_argmax_invariance(self, rng):
        for lam in (0.3, 2.0, 17.0):
            graph = random_full_graph(rng, 5)
            base = exact_inference(graph)
            scaled = FactorGraph(num_vars=5, unary=lam * graph.unary, ends=graph.ends,
                                 tables=lam * graph.tables)
            assert np.array_equal(exact_inference(scaled).map_labels, base.map_labels)

    def test_dummy_node_neutrality(self, rng):
        # Isolated variables with zero energies leave the other nodes untouched.
        graph = random_full_graph(rng, 4)
        padded = FactorGraph(num_vars=7, unary=np.vstack([graph.unary, np.zeros((3, 2))]),
                             ends=graph.ends, tables=graph.tables)
        for solver, kwargs in ((exact_inference, {}), (sum_product, {"config": BpConfig()}),
                               (max_product, {"config": BpConfig()})):
            base = solver(graph, **kwargs)
            res = solver(padded, **kwargs)
            assert np.abs(res.node_marginals[:4] - base.node_marginals).max() < 1e-12
            assert np.array_equal(res.map_labels[:4], base.map_labels)

    def test_permutation_equivariance(self, rng):
        graph = random_full_graph(rng, 5)
        perm = rng.permutation(5)
        unary = np.empty_like(graph.unary)
        unary[perm] = graph.unary
        ends, tables = [], []
        for (i, j), table in zip(graph.ends.tolist(), graph.tables):
            a, b = perm[i], perm[j]
            ends.append((min(a, b), max(a, b)))
            tables.append(table if a < b else table.T)
        permuted = FactorGraph(num_vars=5, unary=unary, ends=ends, tables=tables)
        base = exact_inference(graph)
        res = exact_inference(permuted)
        assert np.abs(res.node_marginals[perm] - base.node_marginals).max() < 1e-12
        base_bp = sum_product(graph, BpConfig())
        res_bp = sum_product(permuted, BpConfig())
        assert np.abs(res_bp.node_marginals[perm] - base_bp.node_marginals).max() < 1e-12

    def test_determinism(self, rng):
        graph = random_full_graph(rng, 6)
        a = sum_product(graph, BpConfig())
        b = sum_product(graph, BpConfig())
        assert np.array_equal(a.node_marginals, b.node_marginals)
        assert np.array_equal(a.pair_beliefs, b.pair_beliefs)
        ea, eb = exact_inference(graph), exact_inference(graph)
        assert np.array_equal(ea.node_marginals, eb.node_marginals)
        assert ea.log_partition == eb.log_partition

    def test_message_trace_normalized(self, rng):
        graph = random_full_graph(rng, 3)
        trace = []
        sum_product(graph, BpConfig(max_iterations=5), trace=trace)
        assert trace, "trace should record messages"
        for _, _, _, direction, p0, p1 in trace:
            assert direction in ("f2v", "v2f")
            assert p0 + p1 == pytest.approx(1.0, abs=1e-9)
            assert p0 >= 0 and p1 >= 0

    def test_bp_config_defaults(self):
        config = BpConfig()
        assert config.max_iterations == 50
        assert config.tolerance == 1e-6
        assert config.damping == 0.5

    def test_bp_config_validation(self):
        with pytest.raises(ValidationError):
            BpConfig(max_iterations=0)
        for value in (2.5, math.inf, True, "5"):
            with pytest.raises(ValidationError, match="max_iterations must be an integer"):
                BpConfig(max_iterations=value)
        assert BpConfig(max_iterations=np.int64(3)).max_iterations == 3
        with pytest.raises(ValidationError):
            BpConfig(tolerance=0.0)
        with pytest.raises(ValidationError):
            BpConfig(damping=1.0)
