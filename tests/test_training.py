import dataclasses
import json
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from crftrack import cli, crf_model, features, io, training
from crftrack.crf_model import (ModelParams, compute_feature_tables, default_params,
                                graph_from_features, pair_ends, save_params, split_frame,
                                with_weights)
from crftrack.errors import CapacityError, NumericalError, ValidationError
from crftrack.factor_graph import exact_inference, labeling_energies
from crftrack.features import Box, FrameContext, HypothesisWindow
from crftrack.io import TrackFile, TrackRecord, frame_from_json, frame_to_json
from crftrack.metrics import iou
from crftrack.tracker import DriftEvent, ScenarioSpec, generate_scenario, run
from crftrack.training import (TrainConfig, TrainingSample, finite_diff_check,
                               generate_dataset, gradient, load_dataset,
                               log_likelihood, save_dataset, sgd_train)

CTX = FrameContext(1920, 1080, 30.0)


def steady_window(tid, score, x=100.0, step=2.0, h=100.0):
    boxes = tuple(Box(x + step * t, 100.0, 0.4 * h, h) for t in range(3))
    return HypothesisWindow(tracklet_id=tid, boxes=boxes, score=score)


def single_node_sample(score=0.9, gold=1):
    win = steady_window(1, score)
    return TrainingSample(windows=[win], ctx=CTX, gold={1: gold},
                          sequence="unit", frame=1)


def empty_node_sample():
    # Score below the pre-threshold: the window bypasses the CRF entirely,
    # leaving a sample whose feature sums are all zero.
    win = steady_window(1, 0.2)
    return TrainingSample(windows=[win], ctx=CTX, gold={}, sequence="unit",
                          frame=1)


def scenario_dataset(seed=201, frames=130):
    spec = ScenarioSpec(num_frames=frames, num_targets=8, camera_pan=(0.0, 0.8),
                        seed=seed,
                        drift_events=[DriftEvent(18, 0, 1), DriftEvent(44, 2, 3),
                                      DriftEvent(70, 4, 5), DriftEvent(96, 6, 7)])
    hyp, gt, ctx = generate_scenario(spec)
    params, _ = default_params()
    baseline = run(hyp, params, ctx, mode="threshold-only")
    config = TrainConfig(shuffle_seed=seed)
    return generate_dataset(baseline, gt, params, config, ctx,
                            sequence_id=f"s{seed}"), ctx


@pytest.fixture(scope="module")
def table_params():
    params, _ = default_params()
    return params


class TestGenerateDataset:
    def test_drifted_box_marks_negative_frame(self, table_params):
        gt_rows = [TrackRecord(f, 1, 0.0, 0.0, 10.0, 10.0, 1.0) for f in range(1, 6)]
        run_rows = [TrackRecord(f, 1, 0.0, 0.0, 10.0, 10.0, 0.9) for f in range(1, 5)]
        run_rows.append(TrackRecord(5, 1, 7.0, 0.0, 10.0, 10.0, 0.9))  # IoU about 0.18
        samples = generate_dataset(TrackFile(run_rows), TrackFile(gt_rows),
                                   table_params, TrainConfig(), CTX)
        negatives = [s for s in samples if s.negative]
        assert len(negatives) == 1
        assert negatives[0].frame == 5
        assert negatives[0].gold == {1: 0}

    def test_clean_run_yields_empty_dataset(self, table_params):
        rows = [TrackRecord(f, 1, 2.0 * f, 0.0, 10.0, 10.0, 0.9) for f in range(1, 8)]
        gt = TrackFile([TrackRecord(f, 1, 2.0 * f, 0.0, 10.0, 10.0, 1.0)
                        for f in range(1, 8)])
        samples = generate_dataset(TrackFile(rows), gt, table_params, TrainConfig(), CTX)
        assert samples == []

    def test_positive_sampling_ratio(self, table_params):
        gt_rows, run_rows = [], []
        for f in range(1, 41):
            for tid, x in ((1, 0.0), (2, 300.0)):
                gt_rows.append(TrackRecord(f, tid, x + 2.0 * f, 0.0, 10.0, 10.0, 1.0))
                drifted = tid == 2 and f >= 30
                run_rows.append(TrackRecord(f, tid, x + 2.0 * f + (8.0 if drifted else 0.0),
                                            0.0, 10.0, 10.0, 0.9))
        samples = generate_dataset(TrackFile(run_rows), TrackFile(gt_rows),
                                   table_params, TrainConfig(positive_ratio=3), CTX)
        n_neg = sum(1 for s in samples if s.negative)
        n_pos = sum(1 for s in samples if not s.negative)
        assert n_neg == 11                      # frames 30..40
        assert n_pos == min(3 * n_neg, 27)      # frames 3..29 are available positives

    def test_deterministic_given_seed(self):
        a, _ = scenario_dataset(seed=207)
        b, _ = scenario_dataset(seed=207)
        assert [(s.frame, s.negative, tuple(sorted(s.gold.items()))) for s in a] \
            == [(s.frame, s.negative, tuple(sorted(s.gold.items()))) for s in b]

    def test_replay_computes_no_feature_tables(self, monkeypatch):
        expected, _ = scenario_dataset(seed=207)

        def fail(*args, **kwargs):
            raise AssertionError("generate_dataset computed feature tables")

        monkeypatch.setattr("crftrack.training._fill_tables", fail)
        samples, _ = scenario_dataset(seed=207)
        assert [(s.frame, s.windows, s.gold) for s in samples] \
            == [(s.frame, s.windows, s.gold) for s in expected]


def scalar_generate_dataset(track_run, ground_truth, params, config, ctx, sequence_id="seq"):
    """generate_dataset as it was before it folded over metrics._walk: scalar iou per Box.

    A tracklet's owner is, on its first frame or after a gap, the first GT id
    in id order of the largest IoU with its box, if that IoU is >= 0.5; its
    gold label is 1 when its box has IoU >= 0.5 with the owner's box there.
    """
    run_frames = track_run.by_frame()
    gt_frames = {f: {r.track_id: r.box() for r in recs}
                 for f, recs in ground_truth.by_frame().items()}
    windows_by_id, last_frame, owners = {}, {}, {}
    negatives, positives = [], []
    for frame in sorted(run_frames):
        for rec in run_frames[frame]:
            tid = rec.track_id
            box = rec.box()
            if last_frame.get(tid) != frame - 1:
                windows_by_id[tid] = HypothesisWindow(tid, (box,), rec.score)
                gt_here = gt_frames.get(frame, {})
                best = max(gt_here, key=lambda g: iou(box, gt_here[g]), default=None)
                owned = best is not None and iou(box, gt_here[best]) >= 0.5
                owners[tid] = best if owned else None
            else:
                windows_by_id[tid] = windows_by_id[tid].extended(box, rec.score)
            last_frame[tid] = frame
        windows = [windows_by_id[rec.track_id] for rec in run_frames[frame]]
        nodes, _, _ = split_frame(windows, params)
        if not nodes:
            continue
        gold = {}
        for w in nodes:
            owner = owners.get(w.tracklet_id)
            gt_box = gt_frames.get(frame, {}).get(owner) if owner is not None else None
            gold[w.tracklet_id] = int(gt_box is not None and iou(w.boxes[-1], gt_box) >= 0.5)
        sample = TrainingSample(windows=windows, ctx=ctx, gold=gold,
                                sequence=sequence_id, frame=frame)
        (negatives if sample.negative else positives).append(sample)
    if not negatives:
        return []
    rng = np.random.default_rng(config.shuffle_seed)
    wanted = min(config.positive_ratio * len(negatives), len(positives))
    chosen = sorted(rng.choice(len(positives), size=wanted, replace=False)) if wanted else []
    return negatives + [positives[i] for i in chosen]


STRAY = 99  # a tracklet far from every trajectory, so every frame with a CRF node is negative


def node_labels(run_boxes, gt_boxes, params):
    """(frame, tracklet) -> gold label of every would-be CRF node but the stray.

    run_boxes and gt_boxes are (frame, id, left, top, width, height) rows
    with scores 0.9 and 1. The stray runs on every frame, so no frame is
    subsampled away. Both labellers must agree.
    """
    last = max(row[0] for row in run_boxes)
    run_boxes = run_boxes + [(f, STRAY, 1500.0, 900.0, 10.0, 10.0) for f in range(1, last + 1)]
    track_run = TrackFile(sorted(TrackRecord(*row, 0.9) for row in run_boxes))
    ground_truth = TrackFile(sorted(TrackRecord(*row, 1.0) for row in gt_boxes))
    labels = []
    for labeller in (generate_dataset, scalar_generate_dataset):
        samples = labeller(track_run, ground_truth, params, TrainConfig(), CTX)
        assert all(s.gold[STRAY] == 0 for s in samples)
        labels.append({(s.frame, tid): g for s in samples for tid, g in s.gold.items()
                       if tid != STRAY})
    assert labels[0] == labels[1]
    return labels[0]


def still(tid, left, frames, width=10.0, height=10.0):
    return [(f, tid, left, 0.0, width, height) for f in frames]


class TestOwnership:
    @pytest.mark.parametrize("left_2, left_5", [(2.0, -2.0), (-2.0, 2.0)])
    def test_equal_ious_go_to_the_smaller_gt_id(self, table_params, left_2, left_5):
        # The run box overlaps GT 2 and GT 5 by 80 of 120 px2 each; GT 2 leaves on frame 4.
        assert iou(Box(0, 0, 10, 10), Box(left_2, 0, 10, 10)) \
            == iou(Box(0, 0, 10, 10), Box(left_5, 0, 10, 10))
        gt = still(2, left_2, range(1, 4)) + still(2, 300.0, [4]) + still(5, left_5, range(1, 5))
        assert node_labels(still(1, 0.0, range(1, 5)), gt, table_params) \
            == {(3, 1): 1, (4, 1): 0}

    def test_larger_gt_id_with_larger_iou_wins(self, table_params):
        # IoU 70/130 with GT 2 and 90/110 with GT 5; GT 5 leaves on frame 4.
        gt = still(2, 3.0, range(1, 5)) + still(5, -1.0, range(1, 4)) + still(5, 300.0, [4])
        assert node_labels(still(1, 0.0, range(1, 5)), gt, table_params) \
            == {(3, 1): 1, (4, 1): 0}

    @pytest.mark.parametrize("height, gold", [(20.0, 1), (20.01, 0)])
    def test_iou_of_exactly_one_half_counts(self, table_params, height, gold):
        # A 10x10 run box inside a 10x20 trajectory covers half of it.
        assert (iou(Box(0, 0, 10, 10), Box(0, 0, 10, height)) >= 0.5) == bool(gold)
        gt = still(1, 0.0, range(1, 4), height=height)
        assert node_labels(still(1, 0.0, range(1, 4)), gt, table_params) == {(3, 1): gold}

    def test_gone_trajectory_and_frame_without_ground_truth_give_gold_0(self, table_params):
        # Trajectory 1 ends after frame 3; frame 4 holds only trajectory 2, frame 5 none.
        gt = still(1, 0.0, range(1, 4)) + still(2, 500.0, [4])
        assert node_labels(still(1, 0.0, range(1, 6)), gt, table_params) \
            == {(3, 1): 1, (4, 1): 0, (5, 1): 0}

    def test_tracklet_back_after_a_gap_picks_its_owner_again(self, table_params):
        # Tracklet 1 covers trajectory 1, skips frame 4, then covers trajectory 2.
        run_boxes = still(1, 0.0, range(1, 4)) + still(1, 300.0, range(5, 8))
        gt = still(1, 0.0, range(1, 8)) + still(2, 300.0, range(1, 8))
        assert node_labels(run_boxes, gt, table_params) == {(3, 1): 1, (7, 1): 1}


@pytest.mark.parametrize("targets, seed", [(8, 3), (8, 12), (20, 7)])
def test_saved_dataset_equals_scalar_reference(tmp_path, table_params, targets, seed):
    # Battery and crowd scenarios, with the threshold run and the raw hypotheses as runs.
    spec = ScenarioSpec(num_frames=130, num_targets=targets, camera_pan=(0.0, 0.8),
                        noise_std=0.1, seed=seed,
                        drift_events=[DriftEvent(18, 0, 1), DriftEvent(44, 2, 3),
                                      DriftEvent(70, 4, 5), DriftEvent(96, 6, 7)])
    hyp, gt, ctx = generate_scenario(spec)
    config = TrainConfig(shuffle_seed=seed)
    for track_run in (run(hyp, table_params, ctx, mode="threshold-only"), hyp):
        samples = generate_dataset(track_run, gt, table_params, config, ctx)
        assert samples
        save_dataset(tmp_path / "new.jsonl", samples)
        save_dataset(tmp_path / "scalar.jsonl",
                     scalar_generate_dataset(track_run, gt, table_params, config, ctx))
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "scalar.jsonl").read_bytes()


def gappy_run(rng, frames=40, targets=4):
    """(run, ground truth) of a seeded run whose tracklets come and go.

    Run tracklets follow a target, sometimes switch to another and sometimes
    sit 30 px off it; each row is dropped with probability 0.15, so ids vanish
    and come back. Three frames have no ground truth and three others no run
    rows, so run frames follow frames without run rows.
    """
    start = rng.uniform(100.0, 1500.0, (targets, 2))
    velocity = rng.uniform(-6.0, 6.0, (targets, 2))
    no_gt, no_run = np.split(rng.choice(np.arange(1, frames + 1), 6, replace=False), 2)
    follows = {tid: (tid - 1) % targets for tid in range(1, targets + 2)}
    gt_rows, run_rows = [], []
    for f in range(1, frames + 1):
        centers = start + velocity * f
        gt_rows += [TrackRecord(f, g + 1, *centers[g], 40.0, 100.0, 1.0)
                    for g in range(targets) if f not in no_gt and rng.random() < 0.9]
        for tid in follows:
            if rng.random() < 0.1:
                follows[tid] = int(rng.integers(targets))
            left, top = centers[follows[tid]] + rng.normal(0.0, 2.0, 2)
            if rng.random() < 0.15:
                left += 30.0
            if f not in no_run and rng.random() >= 0.15:
                run_rows.append(TrackRecord(f, tid, left, top, 40.0, 100.0,
                                            rng.uniform(0.3, 1.0)))
    return TrackFile(run_rows), TrackFile(gt_rows)


@pytest.mark.parametrize("seed", range(8))
def test_replay_of_gappy_runs_equals_scalar_reference(tmp_path, table_params, seed):
    track_run, gt = gappy_run(np.random.default_rng(seed))
    config = TrainConfig(shuffle_seed=seed)
    samples = generate_dataset(track_run, gt, table_params, config, CTX)
    assert any(s.negative for s in samples)
    save_dataset(tmp_path / "new.jsonl", samples)
    save_dataset(tmp_path / "scalar.jsonl",
                 scalar_generate_dataset(track_run, gt, table_params, config, CTX))
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "scalar.jsonl").read_bytes()


class TestNegativeFlag:
    def test_follows_gold(self):
        sample = single_node_sample(gold=1)
        assert not sample.negative
        sample.gold[1] = 0
        assert sample.negative
        assert not empty_node_sample().negative

    def test_is_not_a_field(self):
        assert "negative" not in {f.name for f in dataclasses.fields(TrainingSample)}
        with pytest.raises(TypeError):
            TrainingSample(windows=[], ctx=CTX, gold={}, sequence="s", frame=1, negative=True)


class TestLogLikelihood:
    def test_uniform_model_is_log_half(self):
        params = with_weights(ModelParams(), 0.0, 0.0)
        assert log_likelihood(params, [single_node_sample()]) \
            == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_hand_value_with_published_weights(self, table_params):
        # E(0) = 0.882, E(1) = 0.098 for the S=0.9 steady window.
        expected = -0.098 - math.log(math.exp(-0.882) + math.exp(-0.098))
        assert log_likelihood(table_params, [single_node_sample()]) \
            == pytest.approx(expected, abs=1e-9)

    def test_additivity(self, table_params):
        one = log_likelihood(table_params, [single_node_sample()])
        two = log_likelihood(table_params, [single_node_sample(), single_node_sample()])
        assert two == pytest.approx(2 * one, abs=1e-12)


class TestGradient:
    def test_single_node_formula(self, table_params):
        sample = single_node_sample(score=0.9, gold=1)
        g_u, g_b = gradient(table_params, sample)
        phi0, phi1 = 0.9, 0.1
        e0, e1 = 0.98 * phi0, 0.98 * phi1
        z = math.exp(-e0) + math.exp(-e1)
        p0, p1 = math.exp(-e0) / z, math.exp(-e1) / z
        assert g_u == pytest.approx(-phi1 + p0 * phi0 + p1 * phi1, abs=1e-12)
        assert g_b == 0.0

    def test_saturated_gradient_vanishes(self):
        params = with_weights(ModelParams(), 100.0, 0.12)
        g_u, _ = gradient(params, single_node_sample(score=0.9, gold=1))
        assert abs(g_u) < 1e-12

    def test_matches_finite_differences_on_scenario_samples(self, table_params):
        samples, _ = scenario_dataset(seed=203)
        assert len(samples) >= 30
        for sample in samples[:30]:
            assert finite_diff_check(table_params, sample, h=1e-5) <= 1e-4


def reference_terms(params, sample):
    """Log-likelihood and gradient of one sample from exact factor-graph inference."""
    _, unary_phi, keep_keep, _, _ = compute_feature_tables(sample.windows, params, sample.ctx)
    graph = graph_from_features(unary_phi, keep_keep, params.theta_u, params.theta_b)
    ex = exact_inference(graph)
    gold = np.array([sample.gold[tid] for tid in sorted(sample.gold)], dtype=np.intp)
    i, j = pair_ends(len(gold)).T
    phi_u_gold = unary_phi[np.arange(len(gold)), gold].sum()
    # The pair feature is charged only when both ends are kept.
    phi_b_gold = keep_keep[(gold[i] == 1) & (gold[j] == 1)].sum()
    loglik = -(params.theta_u * phi_u_gold + params.theta_b * phi_b_gold) - ex.log_partition
    grad = ((unary_phi * ex.node_marginals).sum() - phi_u_gold,
            keep_keep @ ex.pair_beliefs[:, 1, 1] - phi_b_gold)
    return loglik, grad


def crowded_sample(num_nodes):
    """num_nodes steady, well-separated windows that all become CRF nodes."""
    windows = [steady_window(tid, 0.5 + 0.02 * tid, x=90.0 * tid) for tid in range(num_nodes)]
    return TrainingSample(windows=windows, ctx=CTX,
                          gold={tid: tid % 2 for tid in range(num_nodes)},
                          sequence="unit", frame=1)


class TestStatisticsEngine:
    def test_matches_factor_graph_reference(self, table_params):
        samples, _ = scenario_dataset(seed=203)
        assert len(samples) >= 30
        for params in (table_params, with_weights(table_params, 2.0, 0.5)):
            for sample in samples[:30]:
                loglik, grad = reference_terms(params, sample)
                assert log_likelihood(params, [sample]) == pytest.approx(loglik, rel=1e-12)
                assert gradient(params, sample) == pytest.approx(grad, rel=1e-12)

    def test_gold_row_is_the_gold_labeling(self, table_params):
        samples, _ = scenario_dataset(seed=203)
        sample = next(s for s in samples if s.negative and len(s.gold) > 2)
        phi, phi_gold = sample.tables(table_params)
        n = len(sample.gold)
        assert phi.shape == (2 ** n, 2)
        labels = [sample.gold[tid] for tid in sorted(sample.gold)]
        assert np.array_equal(phi_gold, phi[sum(y << v for v, y in enumerate(labels))])

    def test_tables_cached_per_setting_other_than_weights(self, table_params):
        sample = single_node_sample()
        first = sample.tables(table_params)
        assert sample.tables(with_weights(table_params, 2.0, 0.5)) is first
        features = dataclasses.replace(table_params.features, beta=1.0)
        assert sample.tables(dataclasses.replace(table_params, features=features)) is not first
        assert len(sample._cache) == 2

    def test_memory_bound_at_capacity(self, table_params):
        params = dataclasses.replace(table_params, node_budget=20)
        sample = crowded_sample(20)
        tracemalloc.start()
        try:
            log_likelihood(params, [sample])
            gradient(params, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.tables(params)[0].shape == (2 ** 20, 2)
        assert peak < 64 * 2**20

    def test_over_capacity_rejected(self, table_params):
        params = dataclasses.replace(table_params, node_budget=21)
        with pytest.raises(CapacityError):
            log_likelihood(params, [crowded_sample(21)])

    def test_phi_build_peak_at_capacity(self, table_params):
        params = dataclasses.replace(table_params, node_budget=20)
        sample = crowded_sample(20)
        tracemalloc.start()
        try:
            sample.tables(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Phi itself is 16 MiB; one 8 MiB column grid is alive while it fills.
        assert peak < 28 * 2**20

    def test_capacity_checked_before_allocation(self, table_params, tmp_path):
        # 2**40 labelings: allocating Phi first would raise numpy's MemoryError.
        params = dataclasses.replace(table_params, node_budget=40)
        windows = [steady_window(tid, 0.5 + 0.01 * tid, x=45.0 * tid) for tid in range(40)]
        sample = TrainingSample(windows=windows, ctx=CTX, gold={tid: 1 for tid in range(40)},
                                sequence="unit", frame=1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                sample.tables(params)
            with pytest.raises(CapacityError):
                log_likelihood(params, [sample])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        save_params(tmp_path / "params.txt", params)
        save_dataset(tmp_path / "dataset.txt", [sample])
        assert cli.main(["check-gradients", "--params", str(tmp_path / "params.txt"),
                         "--dataset", str(tmp_path / "dataset.txt")]) == 4


def reference_tables(params, sample):
    """Phi from two factor graphs at theta = (1, 0) and (0, 1), kept as the bit-level reference."""
    nodes, unary_phi, keep_keep, _, _ = compute_feature_tables(sample.windows, params, sample.ctx)
    phi = np.stack([labeling_energies(graph_from_features(unary_phi, keep_keep, 1.0, 0.0)),
                    labeling_energies(graph_from_features(unary_phi, keep_keep, 0.0, 1.0))],
                   axis=-1).reshape(-1, 2)
    gold = sum(sample.gold[w.tracklet_id] << v for v, w in enumerate(nodes))
    return phi, phi[gold].copy()


@pytest.fixture(scope="module")
def crowd_datasets(table_params):
    """Datasets of a 20-target scenario at node budgets on both sides of the grid split."""
    spec = ScenarioSpec(num_targets=20, camera_pan=(0.0, 0.8), seed=7,
                        drift_events=[DriftEvent(f, 2 * k, 2 * k + 1)
                                      for k, f in enumerate((18, 44, 70, 96))])
    hyp, gt, ctx = generate_scenario(spec)
    baseline = run(hyp, table_params, ctx, mode="threshold-only")
    datasets = {}
    for budget in (1, 10, 11, 12, 14):
        params = dataclasses.replace(table_params, node_budget=budget)
        datasets[budget] = (params, generate_dataset(baseline, gt, params, TrainConfig(), ctx))
    return datasets


class TestPhiMatchesFactorGraphReference:
    @pytest.mark.parametrize("budget", (1, 10, 11, 12, 14))
    def test_every_sample_of_a_crowd_dataset(self, crowd_datasets, budget):
        params, samples = crowd_datasets[budget]
        assert max(len(s.gold) for s in samples) == budget
        for sample in samples:
            phi, phi_gold = sample.tables(params)
            expected, expected_gold = reference_tables(params, sample)
            assert phi.shape == expected.shape
            assert np.array_equal(phi, expected)
            assert np.array_equal(phi_gold, expected_gold)

    @pytest.mark.parametrize("make", (empty_node_sample, single_node_sample))
    def test_zero_and_one_node_samples(self, table_params, make):
        phi, phi_gold = make().tables(table_params)
        expected, expected_gold = reference_tables(table_params, make())
        assert phi.shape == expected.shape
        assert np.array_equal(phi, expected) and np.array_equal(phi_gold, expected_gold)

    def test_sgd_on_reference_tables_is_identical(self, crowd_datasets):
        params, samples = crowd_datasets[12]
        patched = [dataclasses.replace(s, _cache={}) for s in samples]
        for sample in patched:
            sample._cache[training._table_key(params)] = reference_tables(params, sample)
        fresh = [dataclasses.replace(s, _cache={}) for s in samples]
        config = TrainConfig(epochs=2, shuffle_seed=3)
        expected = sgd_train(patched, params, config)
        result = sgd_train(fresh, params, config)
        assert result.epoch_loglik == expected.epoch_loglik
        assert (result.params.theta_u, result.params.theta_b) \
            == (expected.params.theta_u, expected.params.theta_b)


def reference_terms_of(phi, theta):
    """(log Z, E_p[Phi]) of one sample's Phi, as the log-likelihood was summed sample by sample."""
    energies = phi @ theta
    e_min = energies.min()
    weights = np.exp(np.subtract(e_min, energies, out=energies), out=energies)
    total = weights.sum()
    return math.log(total) - float(e_min), (weights @ phi) / total


def reference_sgd(samples, init, config):
    """(theta_u, theta_b, epoch log-likelihoods) of SGD as it was before the stacked tables.

    Each update rebuilds the params with with_weights and steps on one sample's
    gradient; each trace entry sums the samples' terms one by one. Phi comes
    from reference_tables, so nothing here reads the table pass.
    """
    tables = [reference_tables(init, s) for s in samples]

    def loglik(params):
        theta = np.array([params.theta_u, params.theta_b])
        total = 0.0
        for phi, phi_gold in tables:
            total += -float(phi_gold @ theta) - reference_terms_of(phi, theta)[0]
        return total

    rng = np.random.default_rng(config.shuffle_seed)
    theta_u, theta_b = init.theta_u, init.theta_b
    trace = [loglik(init)]
    for _ in range(config.epochs):
        for idx in rng.permutation(len(samples)):
            params = with_weights(init, theta_u, theta_b)
            phi, phi_gold = tables[idx]
            _, expected = reference_terms_of(phi, np.array([params.theta_u, params.theta_b]))
            g_u, g_b = expected - phi_gold
            theta_u += config.learning_rate * float(g_u)
            theta_b += config.learning_rate * float(g_b)
        trace.append(loglik(with_weights(init, theta_u, theta_b)))
    return theta_u, theta_b, trace


def boxes_window(tid, boxes, score=0.9):
    return HypothesisWindow(tracklet_id=tid, boxes=tuple(Box(*b) for b in boxes), score=score)


# A previous box whose aspect ratio underflows to 0: the keep feature is infinite.
UNDERFLOWED_ASPECT = [(100.0, 100.0, 40.0, 100.0), (100.0, 100.0, 1e-30, 1e300),
                      (100.0, 100.0, 40.0, 100.0)]
# An accelerating box: at 1e200 fps its velocity change overflows.
ACCELERATING = [(100.0, 100.0, 40.0, 100.0), (104.0, 100.0, 40.0, 100.0),
                (110.0, 100.0, 40.0, 100.0)]


def failing_samples():
    """One sample per way building tables can fail, with the error it raises."""
    def sample(windows, gold, ctx=CTX):
        return TrainingSample(windows=windows, ctx=ctx, gold=gold, sequence="unit", frame=1)

    steady = [steady_window(1, 0.9), steady_window(2, 0.8, x=500.0)]
    crowd = [steady_window(tid, 0.5 + 0.01 * tid, x=45.0 * tid) for tid in range(40)]
    return {
        "unary": (sample([boxes_window(7, UNDERFLOWED_ASPECT), steady_window(8, 0.8, x=500.0)],
                         {7: 0, 8: 1}),
                  NumericalError, "non-finite unary feature of tracklet 7"),
        "pair": (sample([boxes_window(3, ACCELERATING), steady_window(4, 0.8, x=500.0)],
                        {3: 1, 4: 1}, FrameContext(1920, 1080, 1e200)),
                 NumericalError, "non-finite pairwise feature of tracklets 3 and 4"),
        "gold": (sample(steady, {1: 1}),
                 ValidationError, "gold labels [1] do not cover the CRF nodes [1, 2]"),
        "duplicate": (sample([steady_window(5, 0.9), steady_window(5, 0.8)], {5: 1}),
                      ValidationError, "duplicate tracklet ids in frame"),
        "capacity": (sample(crowd, {tid: 1 for tid in range(40)}), CapacityError,
                     "exact inference enumerates 2**K labelings; K=40 exceeds 20, "
                     "so lower node_budget"),
    }


class TestDatasetPassErrors:
    """The dataset pass raises what building tables sample by sample raised."""

    @pytest.mark.parametrize("first", ("unary", "pair", "gold", "duplicate", "capacity"))
    def test_first_failing_sample_in_order_raises(self, table_params, first):
        params = dataclasses.replace(table_params, node_budget=40)
        failing = failing_samples()
        bad, error, message = failing.pop(first)
        valid = [single_node_sample(), crowded_sample(3)]
        later = [s for s, _, _ in failing.values()] + [single_node_sample()]
        with pytest.raises(error) as raised:
            log_likelihood(params, valid + [bad] + later)
        assert str(raised.value) == message
        key = training._table_key(params)
        for sample in valid:
            expected, expected_gold = reference_tables(params, sample)
            phi, phi_gold = sample._cache[key]
            assert np.array_equal(phi, expected) and np.array_equal(phi_gold, expected_gold)
        assert not any(s._cache for s in [bad] + later)

    def test_over_capacity_after_valid_samples_allocates_no_phi(self, table_params):
        params = dataclasses.replace(table_params, node_budget=40)
        capacity, _, message = failing_samples()["capacity"]
        samples = [single_node_sample(), crowded_sample(3), empty_node_sample(), capacity]
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as raised:
                log_likelihood(params, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert str(raised.value) == message
        assert all(s._cache for s in samples[:3]) and not capacity._cache


FUZZ_CONTEXTS = (FrameContext(1920.0, 1080.0, 5.0), FrameContext(640.0, 480.0, 14.0))


def fuzz_sample(rng, frame):
    """A seeded sample of either context with 0, 1, 2-10 or 11-14 CRF nodes and two
    bypassed windows; boxes may straddle the image edge."""
    ctx = FUZZ_CONTEXTS[rng.integers(2)]
    n = int(rng.choice([0, 1, rng.integers(2, 11), rng.integers(11, 15)]))
    windows = []
    for tid in range(n):
        left = rng.uniform(-30.0, ctx.image_width - 10.0)
        top = rng.uniform(-30.0, ctx.image_height - 40.0)
        width, height = rng.uniform(10.0, 80.0), rng.uniform(30.0, 200.0)
        boxes = []
        for _ in range(3):
            boxes.append((left, top, width, height))
            left, top = left + rng.normal(0.0, 4.0), top + rng.normal(0.0, 2.0)
            width, height = width * rng.uniform(0.97, 1.03), height * rng.uniform(0.97, 1.03)
        windows.append(boxes_window(tid, boxes, score=rng.uniform(0.4, 1.0)))
    windows.append(boxes_window(100, [(10.0, 10.0, 20.0, 50.0)], score=0.7))
    windows.append(boxes_window(101, [(10.0, 10.0, 20.0, 50.0)] * 3, score=0.1))
    gold = {tid: int(rng.integers(2)) for tid in range(n)}
    return TrainingSample(windows=windows, ctx=ctx, gold=gold, sequence="fuzz", frame=frame)


def edge_samples():
    """Windows on the edge cases of the per-window helpers whose features stay finite."""
    # At 0.1 fps the growth 0.1 * (5e-324 - 1e-323) / 1e-323 underflows to -0.0,
    # whose sign the height-change rate takes as +1.
    shrinking = [(100.0, 100.0, h, h) for h in (1e-323, 5e-324, 5e-324)]
    straddling = [(-5.0, 100.0, 40.0, 100.0), (1900.0, 100.0, 40.0, 100.0),
                  (100.0, 1000.0, 40.0, 100.0)]
    touching = [(1870.0, 970.0, 40.0, 100.0), (1875.0, 975.0, 40.0, 100.0),
                (1880.0, 980.0, 40.0, 100.0)]  # inside: right edge 1920, bottom 1080
    windows = [boxes_window(1, shrinking), boxes_window(2, straddling, score=0.6),
               steady_window(3, 0.7, x=800.0), boxes_window(4, touching, score=0.5)]
    return [TrainingSample(windows=windows, ctx=ctx, gold={1: 1, 2: 0, 3: 1, 4: 0},
                           sequence="edge", frame=1)
            for ctx in (FrameContext(1920.0, 1080.0, 0.1), CTX)]


def same_bits(a, b):
    """Equal values, nan where nan, and the same sign on every zero."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestDatasetPassOracle:
    """Seeded datasets through the dataset pass against the scalar reference."""

    @pytest.mark.parametrize("case", range(12))
    def test_seeded_dataset_matches_reference_tables(self, table_params, case):
        params = dataclasses.replace(table_params, node_budget=14)
        rng = np.random.default_rng(case)
        samples = [fuzz_sample(rng, frame) for frame in range(8)] + edge_samples()
        log_likelihood(params, samples)
        for sample in samples:
            phi, phi_gold = sample.tables(params)
            expected, expected_gold = reference_tables(params, sample)
            assert same_bits(phi, expected) and same_bits(phi_gold, expected_gold)

    @pytest.mark.parametrize("case", range(4))
    def test_window_features_equal_the_scalar_helpers(self, table_params, case):
        rng = np.random.default_rng(case)
        fp = table_params.features
        pairs = [(w, s.ctx) for s in [fuzz_sample(rng, 0) for _ in range(6)] + edge_samples()
                 for w in s.windows if len(w.boxes) == 3]
        pairs.append((boxes_window(9, UNDERFLOWED_ASPECT), CTX))
        both_underflowed = UNDERFLOWED_ASPECT[:2] + UNDERFLOWED_ASPECT[1:2]
        pairs.append((boxes_window(10, both_underflowed), CTX))  # inf, not 0 / 0
        pairs.append((boxes_window(11, ACCELERATING), FrameContext(1920, 1080, 1e200)))
        boxes = np.array([[(b.left, b.top, b.width, b.height) for b in w.boxes]
                          for w, _ in pairs])
        contexts = np.array([(c.image_width, c.image_height, c.frame_rate) for _, c in pairs])
        unary, kinematics = features.window_features(
            boxes, np.array([w.score for w, _ in pairs]), contexts, fp)
        assert same_bits(unary, np.array([[features.unary_feature(w, 0, fp),
                                           features.unary_feature(w, 1, fp)]
                                          for w, _ in pairs]))
        assert same_bits(kinematics, np.array(
            [(*features.velocity_change(w, c), features.height_change_rate(w, c, fp),
              w.boxes[-1].height, features.boundary_flag(w.boxes[-1], c)) for w, c in pairs],
            dtype=float))
        assert np.isinf(unary[-3:-1, 1]).all() and np.isinf(kinematics[-1, 0])


class TestStackedTables:
    """Phi stacked per node count gives what per-sample arrays gave, bit for bit."""

    @staticmethod
    def mixed_samples():
        """Fuzz samples of 0, 1, 2-10 and 11-14 CRF nodes at node budget 14, plus edge cases.

        The five 13-node samples take more than one of log_likelihood's blocks.
        """
        rng = np.random.default_rng(21)
        samples = [fuzz_sample(rng, frame) for frame in range(24)] + edge_samples()
        samples += [empty_node_sample(), single_node_sample()]
        samples += [crowded_sample(13) for _ in range(5)]
        sizes = {len(s.gold) for s in samples}
        assert {0, 1} <= sizes and sizes & set(range(2, 11)) and sizes & set(range(11, 15))
        return samples

    def test_sgd_equals_per_sample_reference(self, table_params):
        params = dataclasses.replace(table_params, node_budget=14)
        samples = self.mixed_samples()
        config = TrainConfig(epochs=3, shuffle_seed=5)
        expected = reference_sgd(samples, params, config)
        # Three table passes: a third of the samples, one sample alone, and
        # the rest inside sgd_train.
        log_likelihood(params, samples[::3])
        samples[1].tables(params)
        result = sgd_train(samples, params, config)
        assert (result.params.theta_u, result.params.theta_b, result.epoch_loglik) == expected

    def test_log_likelihood_of_any_selection_equals_reference(self, table_params):
        params = with_weights(dataclasses.replace(table_params, node_budget=14), 1.5, 0.25)
        samples = self.mixed_samples()
        log_likelihood(params, samples[::2])
        theta = np.array([params.theta_u, params.theta_b])
        for selection in (samples, samples[::-1], samples[3:9], samples[:4] * 2, samples[5:6]):
            expected = 0.0
            for sample in selection:
                phi, phi_gold = reference_tables(params, sample)
                expected += -float(phi_gold @ theta) - reference_terms_of(phi, theta)[0]
            assert log_likelihood(params, selection) == expected
        # Entries put in a copy's cache by hand are read as they are, whatever
        # rows the shared _rows records.
        key = training._table_key(params)
        patched = [dataclasses.replace(s, _cache={key: reference_tables(params, s)})
                   for s in samples]
        assert log_likelihood(params, patched) == log_likelihood(params, samples)

    def test_sgd_calls_per_epoch_not_per_update(self, table_params, tmp_path, monkeypatch):
        generated, _ = scenario_dataset(seed=203)
        save_dataset(tmp_path / "dataset.txt", generated)
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((training, "with_weights"), (training, "split_frame"),
                            (TrainingSample, "tables"), (training, "gradient")):
            count(owner, name)
        for epochs in (1, 4):
            for samples, splits in ((scenario_dataset(seed=203)[0], 0),
                                    (load_dataset(tmp_path / "dataset.txt"), len(generated))):
                calls.clear()
                sgd_train(samples, table_params, TrainConfig(epochs=epochs))
                assert calls == Counter(with_weights=epochs + 2, split_frame=splits)
        # Generated samples bring their nodes only for the params that made them.
        other = dataclasses.replace(table_params,
                                    features=dataclasses.replace(table_params.features, beta=1.0))
        fresh, loaded = scenario_dataset(seed=203)[0], load_dataset(tmp_path / "dataset.txt")
        calls.clear()
        assert log_likelihood(other, fresh) == log_likelihood(other, loaded)
        assert calls == {"split_frame": 2 * len(generated)}


def test_cli_train_reaches_layer_functions_through_module_attributes(tmp_path, monkeypatch):
    """Each training function the benchmark wraps in a span is called through its module.

    As the benchmark's tracer does, the counter replaces every binding a
    crftrack module holds of the function.
    """
    spec = ScenarioSpec(camera_pan=(0.0, 0.8), seed=201,
                        drift_events=[DriftEvent(18, 0, 1), DriftEvent(44, 2, 3)])
    hyp, gt, ctx = generate_scenario(spec)
    params, _ = default_params()
    for folder in ("runs", "gt"):
        (tmp_path / folder).mkdir()
    io.write_mot(run(hyp, params, ctx, mode="threshold-only"), tmp_path / "runs" / "s.txt")
    io.write_mot(gt, tmp_path / "gt" / "s.txt")
    io.write_seqinfo(tmp_path / "runs" / "s.seqinfo", ctx, spec.num_frames)
    save_params(tmp_path / "params.txt", *default_params())

    calls = Counter()

    def count(name, owners, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    monkeypatch.setattr(owner, attr, counted)

    count("tables", [TrainingSample], TrainingSample.tables)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "crftrack"]
    for module, name in ((training, "log_likelihood"), (training, "gradient"),
                         (crf_model, "compute_feature_tables"),
                         (crf_model, "graph_from_features"),
                         (features, "window_features")):
        count(name, modules, getattr(module, name))
    assert cli.main(["train", "--runs", str(tmp_path / "runs"), "--gt", str(tmp_path / "gt"),
                     "--params-init", str(tmp_path / "params.txt"), "--epochs", "1",
                     "--out-params", str(tmp_path / "out.txt"),
                     "--out-dataset", str(tmp_path / "dataset.txt")]) == 0
    n = len(load_dataset(tmp_path / "dataset.txt"))
    assert n > 0
    # Training builds no factor graph and no per-sample feature tables, so
    # graph_from_features and compute_feature_tables are not reached: one
    # feature pass over the dataset fills every sample's tables. SGD steps
    # read the cached tables, so TrainingSample.tables and gradient are not
    # reached either.
    assert calls == {"window_features": 1, "log_likelihood": 2}


class TestFiniteDiffCheck:
    def test_zero_feature_sample(self, table_params):
        assert finite_diff_check(table_params, empty_node_sample(), h=1e-5) == 0.0

    def test_truncation_error_grows_with_step(self, table_params):
        sample = single_node_sample(score=0.7)
        small = finite_diff_check(table_params, sample, h=1e-5)
        large = finite_diff_check(table_params, sample, h=0.8)
        assert large > small

    def test_rejects_bad_step(self, table_params):
        for h in (0.0, -1e-5, math.inf, math.nan):
            with pytest.raises(ValidationError, match="step h must be finite and > 0"):
                finite_diff_check(table_params, single_node_sample(), h=h)
        # Below the spacing of doubles at the weights, theta +- h == theta.
        for h in (5e-324, 1e-17):
            with pytest.raises(ValidationError, match=f"step h={h!r} is too small"):
                finite_diff_check(table_params, single_node_sample(), h=h)


class TestSgd:
    def test_published_training_settings_are_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 1e-2
        assert config.epochs == 30
        assert config.positive_ratio == 3

    def test_zero_learning_rate_is_identity(self):
        samples = [single_node_sample(), single_node_sample(score=0.6, gold=0)]
        init = with_weights(ModelParams(), 0.5, 0.5)
        result = sgd_train(samples, init, TrainConfig(learning_rate=0.0, epochs=5))
        assert result.params.theta_u == 0.5
        assert result.params.theta_b == 0.5

    def test_full_batch_step_never_decreases_likelihood(self, table_params):
        samples, _ = scenario_dataset(seed=205)
        batch = samples[:40]
        params = with_weights(table_params, 0.5, 0.5)
        g = np.sum([gradient(params, s) for s in batch], axis=0)
        stepped = with_weights(params, params.theta_u + 1e-4 * g[0],
                               params.theta_b + 1e-4 * g[1])
        assert log_likelihood(stepped, batch) >= log_likelihood(params, batch)

    def test_likelihood_rises_over_training(self):
        samples, _ = scenario_dataset(seed=206)
        init = with_weights(ModelParams(), 0.5, 0.5)
        config = TrainConfig(learning_rate=1e-2, epochs=5, shuffle_seed=1)
        result = sgd_train(samples, init, config)
        assert result.epoch_loglik[-1] > result.epoch_loglik[0]
        assert len(result.epoch_loglik) == config.epochs + 1

    def test_bit_reproducible(self):
        samples, _ = scenario_dataset(seed=206)
        init = with_weights(ModelParams(), 0.5, 0.5)
        config = TrainConfig(epochs=2, shuffle_seed=7)
        a = sgd_train(samples, init, config)
        b = sgd_train(samples, init, config)
        assert a.params.theta_u == b.params.theta_u
        assert a.params.theta_b == b.params.theta_b
        assert a.epoch_loglik == b.epoch_loglik

    def test_pinned_trajectory(self):
        # theta and the epoch log-likelihoods of factor-graph-based training
        # on these inputs, before the statistics engine replaced it.
        samples, _ = scenario_dataset(seed=206)
        init = with_weights(ModelParams(), 0.5, 0.5)
        result = sgd_train(samples, init, TrainConfig(epochs=2, shuffle_seed=7))
        assert (result.params.theta_u, result.params.theta_b) \
            == pytest.approx((1.755138925704927, 0.6145400975906306), rel=1e-12)
        assert result.epoch_loglik == pytest.approx(
            [-635.7799182504131, -356.2636598857551, -347.22708259289215], rel=1e-12)
        assert all(type(value) is float for value in result.epoch_loglik)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("field", [
        {"epochs": 0}, {"epochs": 2.5}, {"epochs": True}, {"positive_ratio": -1},
        {"positive_ratio": 1.5}, {"shuffle_seed": -1}, {"shuffle_seed": 0.5}])
    def test_bad_integer_setting_rejected(self, field):
        with pytest.raises(ValidationError, match=next(iter(field))):
            TrainConfig(**field)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            sgd_train([], ModelParams(), TrainConfig())


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        samples, _ = scenario_dataset(seed=208)
        path = tmp_path / "dataset.txt"
        save_dataset(path, samples[:25])
        loaded = load_dataset(path)
        assert len(loaded) == 25
        for a, b in zip(samples, loaded):
            assert (a.sequence, a.frame, a.negative) == (b.sequence, b.frame, b.negative)
            assert a.gold == b.gold
            assert a.windows == b.windows
        save_dataset(tmp_path / "again.txt", loaded)
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_non_binary_gold_label_rejected(self, tmp_path):
        path = tmp_path / "dataset.txt"
        save_dataset(path, [single_node_sample()] * 2)
        text = path.read_text()
        path.write_text(text + text.replace('"gold": 1', '"gold": 2'))
        from crftrack.errors import FormatError
        with pytest.raises(FormatError, match="line 3: .*gold label must be 0 or 1"):
            load_dataset(path)

    def test_block_without_ctx_rejected(self, tmp_path):
        path = tmp_path / "dataset.txt"
        save_dataset(path, [single_node_sample()] * 2)
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text(first + second.replace('"image_width": 1920.0, ', ""))
        from crftrack.errors import FormatError
        with pytest.raises(FormatError, match="line 2: .*missing field: 'image_width'"):
            load_dataset(path)

    @pytest.mark.parametrize("edit", [{"sequence": 7}, {"frame": 1.0}, {"frame": True}])
    def test_bad_provenance_rejected(self, tmp_path, edit):
        path = tmp_path / "dataset.txt"
        save_dataset(path, [single_node_sample()])
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}) + "\n")
        from crftrack.errors import FormatError
        with pytest.raises(FormatError, match="line 1: .*sequence"):
            load_dataset(path)

    def test_lines_are_frame_json(self, tmp_path):
        # Every line is the io frame object of its sample plus provenance.
        samples, _ = scenario_dataset(seed=208)
        path = tmp_path / "dataset.txt"
        save_dataset(path, samples[:5])
        for line, sample in zip(path.read_text().splitlines(), samples):
            data = json.loads(line)
            assert (data.pop("sequence"), data.pop("frame")) == (sample.sequence, sample.frame)
            assert data == frame_to_json(sample.ctx, sample.windows, sample.gold)
            assert frame_from_json(data) == (sample.ctx, sample.windows, sample.gold)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sample s 1 neg\nwin not-a-number\nend\n")
        from crftrack.errors import FormatError
        with pytest.raises(FormatError):
            load_dataset(path)
