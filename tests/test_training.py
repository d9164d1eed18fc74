import math

import numpy as np
import pytest

from crftrack.crf_model import ModelParams, default_params, with_weights
from crftrack.errors import ValidationError
from crftrack.features import Box, FrameContext, HypothesisWindow
from crftrack.io import TrackFile, TrackRecord
from crftrack.tracker import DriftEvent, ScenarioSpec, generate_scenario, run
from crftrack.training import (TrainConfig, TrainingSample, finite_diff_check,
                               generate_dataset, gradient, load_dataset,
                               log_likelihood, save_dataset, sgd_train)

CTX = FrameContext(1920, 1080, 30.0)


def steady_window(tid, score, x=100.0, step=2.0, h=100.0):
    boxes = tuple(Box(x + step * t, 100.0, 0.4 * h, h) for t in range(3))
    return HypothesisWindow(tracklet_id=tid, boxes=boxes, score=score, length=3)


def single_node_sample(score=0.9, gold=1):
    win = steady_window(1, score)
    return TrainingSample(windows=[win], ctx=CTX, gold={1: gold},
                          sequence="unit", frame=1, negative=(gold == 0))


def empty_node_sample():
    # Score below the pre-threshold: the window bypasses the CRF entirely,
    # leaving a sample whose feature sums are all zero.
    win = steady_window(1, 0.2)
    return TrainingSample(windows=[win], ctx=CTX, gold={}, sequence="unit",
                          frame=1, negative=False)


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

    def test_loopy_bp_close_to_exact_on_calm_sample(self, table_params):
        windows = [steady_window(1, 0.9), steady_window(2, 0.8, x=600),
                   steady_window(3, 0.7, x=1100)]
        sample = TrainingSample(windows=windows, ctx=CTX, gold={1: 1, 2: 1, 3: 1},
                                sequence="unit", frame=1, negative=False)
        exact = gradient(table_params, sample, mode="exact")
        loopy = gradient(table_params, sample, mode="loopy-bp")
        assert exact[0] == pytest.approx(loopy[0], rel=1e-2, abs=1e-4)
        assert exact[1] == pytest.approx(loopy[1], rel=1e-2, abs=1e-4)


class TestFiniteDiffCheck:
    def test_zero_feature_sample(self, table_params):
        assert finite_diff_check(table_params, empty_node_sample(), h=1e-5) == 0.0

    def test_truncation_error_grows_with_step(self, table_params):
        sample = single_node_sample(score=0.7)
        small = finite_diff_check(table_params, sample, h=1e-5)
        large = finite_diff_check(table_params, sample, h=0.8)
        assert large > small

    def test_rejects_bad_step(self, table_params):
        with pytest.raises(ValidationError):
            finite_diff_check(table_params, single_node_sample(), h=0.0)


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

    def test_loopy_bp_mode_trains(self):
        samples, _ = scenario_dataset(seed=206)
        init = with_weights(ModelParams(), 0.5, 0.5)
        config = TrainConfig(epochs=1, shuffle_seed=2, inference_mode="loopy-bp")
        result = sgd_train(samples[:20], init, config)
        assert math.isfinite(result.params.theta_u)
        assert math.isfinite(result.params.theta_b)

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

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sample s 1 neg\nwin not-a-number\nend\n")
        from crftrack.errors import FormatError
        with pytest.raises(FormatError):
            load_dataset(path)
