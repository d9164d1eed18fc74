import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import reference_enumeration
from crftrack.crf_model import (ModelParams, assemble_frame_graph, compute_feature_tables,
                                decide_inactivation, default_params, load_params, pair_ends,
                                save_params)
from crftrack.errors import ValidationError
from crftrack.factor_graph import BpConfig, labeling_energies
from crftrack.features import (Box, FeatureParams, FrameContext, HypothesisWindow,
                               boundary_flag, height_change_rate, velocity_change)
from crftrack.tracker import DriftEvent, ScenarioSpec, generate_scenario, run

CTX = FrameContext(1920, 1080, 30.0)


def steady_window(tid, score, x=100.0, y=100.0, w=40.0, h=100.0, step=2.0):
    boxes = tuple(Box(x + step * t, y, w, h) for t in range(3))
    return HypothesisWindow(tracklet_id=tid, boxes=boxes, score=score)


def short_window(tid, score, n=2):
    boxes = tuple(Box(100.0 + 2 * t, 100.0, 40.0, 100.0) for t in range(n))
    return HypothesisWindow(tracklet_id=tid, boxes=boxes, score=score)


@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture(scope="module")
def scenario_frames():
    """Windows of every CRF frame of one 8-target and one 20-target drift scenario."""
    params, bp = default_params()
    frames = {}
    for num_targets in (8, 20):
        spec = ScenarioSpec(num_frames=130, num_targets=num_targets, camera_pan=(0.0, 0.8),
                            seed=num_targets,
                            drift_events=[DriftEvent(f, 2 * k, 2 * k + 1)
                                          for k, f in enumerate((18, 44, 70, 96))])
        hyp, _, ctx = generate_scenario(spec)
        captured = []
        run(hyp, params, ctx, mode="crf", inference="exact", bp=bp,
            observer=lambda frame, windows: captured.append(windows))
        frames[num_targets] = (captured, ctx)
    return params, frames


def reference_pair_phi(nodes, fp, ctx):
    """Pair tables one pair at a time, by the printed pairwise formula."""
    tables = []
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            (dvx_a, dvy_a), (dvx_b, dvy_b) = (velocity_change(nodes[a], ctx),
                                              velocity_change(nodes[b], ctx))
            box_a, box_b = nodes[a].boxes[-1], nodes[b].boxes[-1]
            tau = 1.0 / (box_a.height + box_b.height)
            value = tau * (dvx_a - dvx_b) ** 2 + tau * (dvy_a - dvy_b) ** 2
            if boundary_flag(box_a, ctx) and boundary_flag(box_b, ctx):
                value += fp.beta * abs(height_change_rate(nodes[a], ctx, fp)
                                       - height_change_rate(nodes[b], ctx, fp))
            tables.append([[0.0, 0.0], [0.0, value]])
    return np.reshape(tables, (-1, 2, 2))


class TestAssembly:
    def test_two_nodes_two_variables(self, params):
        windows = [steady_window(1, 0.9), steady_window(2, 0.8, x=500)]
        asm = assemble_frame_graph(windows, params, CTX)
        assert asm.graph.num_vars == 2
        assert len(asm.graph.tables) == 1
        assert asm.node_map == (1, 2)
        assert asm.bypass_active == [] and asm.bypass_inactive == []

    def test_highest_scores_filtered_when_over_budget(self, params):
        windows = [steady_window(i, 0.5 + 0.04 * i, x=100 + 150 * i) for i in range(12)]
        asm = assemble_frame_graph(windows, params, CTX)
        assert len(asm.node_map) == 10
        # The two highest scores (ids 10, 11) stay active without CRF nodes.
        assert asm.bypass_active == [10, 11]
        node_scores = [0.5 + 0.04 * tid for tid in asm.node_map]
        assert max(node_scores) <= min(0.5 + 0.04 * 10, 0.5 + 0.04 * 11)

    def test_low_score_bypasses_inactive(self, params):
        windows = [steady_window(1, 0.3), steady_window(2, 0.9, x=500)]
        asm = assemble_frame_graph(windows, params, CTX)
        assert asm.bypass_inactive == [1]
        assert asm.node_map == (2,)

    def test_short_tracklets_use_short_threshold(self, params):
        windows = [short_window(1, 0.45), short_window(2, 0.8)]
        asm = assemble_frame_graph(windows, params, CTX)
        assert asm.bypass_inactive == [1]
        assert asm.bypass_active == [2]
        assert len(asm.node_map) == 0

    def test_partition_property(self, params, rng):
        for _ in range(10):
            windows = []
            for tid in range(1, 15):
                age = int(rng.integers(1, 6))
                score = float(rng.uniform(0, 1))
                if age >= 3:
                    windows.append(steady_window(tid, score, x=50 + 40 * tid))
                else:
                    windows.append(short_window(tid, score, n=age))
            asm = assemble_frame_graph(windows, params, CTX)
            routed = sorted(list(asm.node_map) + asm.bypass_active
                            + asm.bypass_inactive)
            assert routed == [w.tracklet_id for w in sorted(windows, key=lambda w: w.tracklet_id)]
            assert asm.graph.num_vars == len(asm.node_map) <= params.node_budget

    def test_pair_tables_support_only_keep_keep(self, params, rng):
        windows = [steady_window(tid, 0.9, x=100 + 200 * tid, step=float(rng.uniform(0, 4)))
                   for tid in range(1, 5)]
        asm = assemble_frame_graph(windows, params, CTX)
        for table in asm.graph.tables:
            assert table[0, 0] == table[0, 1] == table[1, 0] == 0.0
            assert table[1, 1] >= 0.0

    @pytest.mark.parametrize("num_targets", (8, 20))
    def test_pair_tables_equal_per_pair_reference(self, scenario_frames, num_targets):
        params, frames = scenario_frames
        windows_per_frame, ctx = frames[num_targets]
        pairs = gated = 0
        for windows in windows_per_frame:
            nodes, _, pair_phi, _, _ = compute_feature_tables(windows, params, ctx)
            assert np.array_equal(pair_phi, reference_pair_phi(nodes, params.features, ctx))
            inside = [boundary_flag(w.boxes[-1], ctx) for w in nodes]
            pairs += len(pair_phi)
            gated += sum(1 for i, j in pair_ends(len(nodes)) if not inside[i] * inside[j])
        # Both branches of the height term are exercised.
        assert 0 < gated < pairs

    def test_pair_ends_are_cached_and_read_only(self):
        ends = pair_ends(4)
        assert ends.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert pair_ends(4) is ends
        with pytest.raises(ValueError):
            ends[0, 0] = 3
        assert pair_ends(0).shape == (0, 2)

    def test_duplicate_ids_rejected(self, params):
        windows = [steady_window(1, 0.9), steady_window(1, 0.8, x=500)]
        with pytest.raises(ValidationError):
            assemble_frame_graph(windows, params, CTX)


class TestDecide:
    def test_single_confident_node_kept(self, params):
        win = steady_window(1, 0.9, step=2.0)
        asm = assemble_frame_graph([win], params, CTX)
        # Hand evaluation: E(0) = 0.98 * 0.9, E(1) = 0.98 * 0.1.
        assert asm.graph.unary[0, 0] == pytest.approx(0.882)
        assert asm.graph.unary[0, 1] == pytest.approx(0.098)
        for inference in ("exact", "loopy-bp"):
            assert decide_inactivation([win], params, CTX, inference) == {1: 1}

    def test_collapsing_box_inactivated(self, params):
        boxes = (Box(0, 0, 10, 20), Box(0, 0, 10, 20), Box(0, 0, 30, 20))
        win = HypothesisWindow(tracklet_id=1, boxes=boxes, score=0.45)
        asm = assemble_frame_graph([win], params, CTX)
        assert asm.graph.unary[0, 0] == pytest.approx(0.98 * 0.45)
        assert asm.graph.unary[0, 1] == pytest.approx(0.98 * (0.55 + 1.2 * 2.0))
        assert decide_inactivation([win], params, CTX, "exact") == {1: 0}

    def test_dummy_count_does_not_change_decisions(self, params):
        windows = [steady_window(1, 0.85), steady_window(2, 0.85, x=600)]
        base = decide_inactivation(windows, params, CTX, "loopy-bp")
        tight = decide_inactivation(windows, with_tight_budget(params, 2), CTX, "loopy-bp")
        assert base == tight

    def test_pre_threshold_never_kept(self, params, rng):
        for _ in range(20):
            score = float(rng.uniform(0, params.pre_threshold - 1e-6))
            windows = [steady_window(1, score), steady_window(2, 0.95, x=700)]
            labels = decide_inactivation(windows, params, CTX, "loopy-bp")
            assert labels[1] == 0


def with_tight_budget(params, budget):
    return replace(params, node_budget=budget)


class TestLabelingEnergy:
    # Entry m of labeling_energies' raveled grid is the labeling whose bit v
    # is the label of node v, in node_map order.
    def test_empty_graph_is_free(self, params):
        asm = assemble_frame_graph([], params, CTX)
        assert labeling_energies(asm.graph).tolist() == [[0.0]]

    def test_single_node_hand_value(self, params):
        asm = assemble_frame_graph([steady_window(1, 0.9)], params, CTX)
        assert labeling_energies(asm.graph).ravel()[1] == pytest.approx(0.98 * 0.1)

    def test_matches_exact_joint_probability(self, params, rng):
        windows = [steady_window(tid, float(rng.uniform(0.55, 0.99)),
                                 x=100 + 180 * tid, step=float(rng.uniform(0, 3)))
                   for tid in range(1, 4)]
        tight = with_tight_budget(params, 3)
        asm = assemble_frame_graph(windows, tight, CTX)
        energies = labeling_energies(asm.graph).ravel()
        # exp(-energy)/Z is the joint probability of the independent
        # enumeration, for every labeling.
        _, log_z, probs = reference_enumeration(asm.graph)
        for m, energy in enumerate(energies):
            labeling = tuple((m >> v) & 1 for v in range(3))
            assert math.exp(-energy - log_z) == pytest.approx(probs[labeling], abs=1e-12)

    def test_every_labeling_of_a_scenario_frame(self, scenario_frames):
        params, frames = scenario_frames
        windows_per_frame, ctx = frames[8]
        asm = max((assemble_frame_graph(w, params, ctx) for w in windows_per_frame),
                  key=lambda a: a.graph.num_vars)
        n = asm.graph.num_vars
        assert n >= 6 and len(asm.graph.tables) == n * (n - 1) // 2
        energies = labeling_energies(asm.graph).ravel()
        _, log_z, probs = reference_enumeration(asm.graph)
        assert np.exp(-energies - log_z).sum() == pytest.approx(1.0, abs=1e-12)
        best = int(np.argmin(energies))
        assert tuple((best >> v) & 1 for v in range(n)) == max(probs, key=probs.get)


class TestParameterFiles:
    def test_defaults_carry_published_values(self):
        params, bp = default_params()
        assert params.theta_u == 0.98
        assert params.theta_b == 0.12
        assert params.features.alpha1 == 1.05
        assert params.features.alpha2 == 1.20
        assert params.features.beta == 10.80
        assert params.node_budget == 10
        assert params.pre_threshold == 0.4
        assert params.short_threshold == 0.5
        assert params.features.high_score_cut == 0.95
        assert bp.damping == 0.5 and bp.max_iterations == 50
        assert (params, bp) == (ModelParams(), BpConfig())

    def test_round_trip(self, tmp_path):
        params = ModelParams(theta_u=0.7, theta_b=0.3,
                             features=FeatureParams(alpha1=2.0, beta=5.5))
        bp = BpConfig(max_iterations=33, tolerance=1e-8, damping=0.25)
        path = tmp_path / "params.txt"
        save_params(path, params, bp)
        loaded, loaded_bp = load_params(path)
        assert loaded == params
        assert loaded_bp == bp

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("theta_u=1.0\nbogus=3\n")
        from crftrack.errors import FormatError
        with pytest.raises(FormatError):
            load_params(path)
