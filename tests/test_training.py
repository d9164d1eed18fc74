import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from crftrack.crf_model import (ModelParams, compute_feature_tables, default_params,
                                graph_from_features, pair_ends, with_weights)
from crftrack.errors import CapacityError, ValidationError
from crftrack.factor_graph import exact_inference
from crftrack.features import Box, FrameContext, HypothesisWindow
from crftrack.io import TrackFile, TrackRecord, frame_from_json, frame_to_json
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

        monkeypatch.setattr("crftrack.training.compute_feature_tables", fail)
        samples, _ = scenario_dataset(seed=207)
        assert [(s.frame, s.windows, s.gold) for s in samples] \
            == [(s.frame, s.windows, s.gold) for s in expected]


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
    _, unary_phi, pair_phi, _, _ = compute_feature_tables(sample.windows, params, sample.ctx)
    graph = graph_from_features(unary_phi, pair_phi, params.theta_u, params.theta_b)
    ex = exact_inference(graph)
    gold = np.array([sample.gold[tid] for tid in sorted(sample.gold)], dtype=np.intp)
    i, j = pair_ends(len(gold)).T
    phi_u_gold = unary_phi[np.arange(len(gold)), gold].sum()
    phi_b_gold = pair_phi[np.arange(len(i)), gold[i], gold[j]].sum()
    loglik = -(params.theta_u * phi_u_gold + params.theta_b * phi_b_gold) - ex.log_partition
    grad = ((unary_phi * ex.node_marginals).sum() - phi_u_gold,
            np.einsum("pab,pab->", pair_phi, ex.pair_beliefs) - phi_b_gold)
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
