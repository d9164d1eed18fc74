"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. Loopy-BP agreement numbers are pinned measurements against the exact
oracle, not a-priori claims.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_tree_graph
from crftrack.cli import main
from crftrack.crf_model import (assemble_frame_graph, decide_inactivation,
                                default_params, with_weights)
from crftrack.factor_graph import (BpConfig, FactorGraph, exact_inference, max_product,
                                   sum_product)
from crftrack.io import TrackFile, TrackRecord
from crftrack.metrics import clear_mot, evaluate, idf1
from crftrack.tracker import DriftEvent, ScenarioSpec, generate_scenario, run
from crftrack.training import (TrainConfig, finite_diff_check, generate_dataset,
                               sgd_train)

TREE_BP = BpConfig(max_iterations=100, tolerance=1e-12, damping=0.0)

# Pinned loopy-BP oracle measurements (criterion 2), +-1% regression band.
PINNED_MAP_AGREEMENT = 0.9996929689898679
PINNED_MARGINAL_DEVIATION = 0.015126713193444288


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def battery_spec(seed):
    return ScenarioSpec(num_frames=130, num_targets=8, camera_pan=(0.0, 0.8),
                        seed=seed,
                        drift_events=[DriftEvent(18, 0, 1), DriftEvent(44, 2, 3),
                                      DriftEvent(70, 4, 5), DriftEvent(96, 6, 7)])


@pytest.fixture(scope="module")
def battery():
    """Ten seeded scenarios tracked in both modes, with per-frame captures."""
    params, bp = default_params()
    started = time.monotonic()
    outcomes = []
    for seed in range(10):
        spec = battery_spec(seed)
        hyp, gt, ctx = generate_scenario(spec)
        base_out = run(hyp, params, ctx, mode="threshold-only")
        captures = []
        crf_out = run(hyp, params, ctx, mode="crf", inference="loopy-bp", bp=bp,
                      observer=lambda frame, windows: captures.append((frame, windows)))
        outcomes.append({
            "seed": seed,
            "ctx": ctx,
            "base": evaluate(gt, base_out),
            "crf": evaluate(gt, crf_out),
            "captures": captures,
        })
    elapsed = time.monotonic() - started
    return {"outcomes": outcomes, "elapsed": elapsed, "params": params, "bp": bp}


def test_01_oracle_equivalence_on_trees():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    worst_marginal = 0.0
    map_mismatches = 0
    for _ in range(500):
        graph = random_tree_graph(rng, max_vars=10)
        ex = exact_inference(graph)
        sp = sum_product(graph, TREE_BP)
        mp = max_product(graph, TREE_BP)
        worst_marginal = max(worst_marginal,
                             float(np.abs(sp.node_marginals - ex.node_marginals).max()))
        map_mismatches += int(not np.array_equal(mp.map_labels, ex.map_labels))
    elapsed = time.monotonic() - started
    ok = worst_marginal < 1e-9 and map_mismatches == 0 and elapsed < 10.0
    report(1, "oracle equivalence on trees", ok,
           f"500 graphs, max marginal dev {worst_marginal:.2e}, "
           f"{map_mismatches} MAP mismatches, {elapsed:.1f}s")


def harvest_energy_pool(params, bp):
    pool_u, pool_p = [], []
    for seed in (1001, 1002, 1003):
        hyp, _, ctx = generate_scenario(battery_spec(seed))

        def observer(frame, windows, ctx=ctx):
            asm = assemble_frame_graph(windows, params, ctx)
            pool_u.extend(np.array(asm.graph.unary[:len(asm.node_map)]))
            pool_p.extend(np.array(asm.graph.tables))

        run(hyp, params, ctx, mode="crf", bp=bp, observer=observer)
    return np.array(pool_u), np.array(pool_p)


def test_02_loopy_oracle_agreement():
    params, bp = default_params()
    pool_u, pool_p = harvest_energy_pool(params, bp)
    rng = np.random.default_rng(20240707)
    agree = total = 0
    max_dev = 0.0
    for _ in range(1000):
        k = int(rng.integers(3, 11))
        unary = pool_u[rng.integers(0, len(pool_u), k)]
        ends = np.transpose(np.triu_indices(k, 1))
        picks = [int(rng.integers(0, len(pool_p))) for _ in range(len(ends))]
        graph = FactorGraph(num_vars=k, unary=unary, ends=ends, tables=pool_p[picks])
        ex = exact_inference(graph)
        mp = max_product(graph, BpConfig())
        sp = sum_product(graph, BpConfig())
        agree += int((mp.map_labels == ex.map_labels).sum())
        total += k
        max_dev = max(max_dev, float(np.abs(sp.node_marginals - ex.node_marginals).max()))
    rate = agree / total
    ok = (abs(rate - PINNED_MAP_AGREEMENT) <= 0.01
          and abs(max_dev - PINNED_MARGINAL_DEVIATION)
          <= max(0.01 * PINNED_MARGINAL_DEVIATION, 1e-9))
    report(2, "loopy oracle agreement", ok,
           f"MAP agreement {rate:.6f} (pinned {PINNED_MAP_AGREEMENT:.6f}), "
           f"marginal dev {max_dev:.6f} (pinned {PINNED_MARGINAL_DEVIATION:.6f})")


def gradient_check_samples():
    params, _ = default_params()
    samples = []
    for seed in (203, 204):
        hyp, gt, ctx = generate_scenario(battery_spec(seed))
        baseline = run(hyp, params, ctx, mode="threshold-only")
        samples.extend(generate_dataset(baseline, gt, params,
                                        TrainConfig(shuffle_seed=seed), ctx,
                                        sequence_id=f"g{seed}"))
    return params, samples


def test_03_gradient_certificate():
    started = time.monotonic()
    params, samples = gradient_check_samples()
    assert len(samples) >= 100
    worst = 0.0
    for sample in samples[:100]:
        worst = max(worst, finite_diff_check(params, sample, h=1e-5))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-4 and elapsed < 30.0
    report(3, "gradient certificate", ok,
           f"100 samples, max relative error {worst:.2e}, {elapsed:.1f}s")


def test_04_likelihood_ascent():
    params, _ = default_params()
    spec = ScenarioSpec(num_frames=160, num_targets=5, frame_rate=2.0,
                        noise_std=0.05, camera_pan=(0.0, 0.5), seed=42,
                        drift_events=[DriftEvent(80, 0, 1), DriftEvent(110, 2, 3)])
    hyp, gt, ctx = generate_scenario(spec)
    baseline = run(hyp, params, ctx, mode="threshold-only")
    config = TrainConfig(learning_rate=1e-2, epochs=30, positive_ratio=3,
                         shuffle_seed=42)
    samples = generate_dataset(baseline, gt, params, config, ctx, sequence_id="train42")
    n_neg = sum(1 for s in samples if s.negative)
    n_pos = len(samples) - n_neg
    result = sgd_train(samples, with_weights(params, 0.5, 0.5), config)
    rising = result.epoch_loglik[-1] > result.epoch_loglik[0]
    ok = n_neg >= 20 and n_pos >= 60 and rising
    report(4, "likelihood ascent", ok,
           f"{n_neg} negatives, {n_pos} positives, log-likelihood "
           f"{result.epoch_loglik[0]:.1f} -> {result.epoch_loglik[-1]:.1f}, "
           f"theta ({result.params.theta_u:.3f}, {result.params.theta_b:.3f})")


def test_05_published_constants():
    params, bp = default_params()
    expected = {
        "theta_u": (params.theta_u, 0.98),
        "theta_b": (params.theta_b, 0.12),
        "alpha1": (params.features.alpha1, 1.05),
        "alpha2": (params.features.alpha2, 1.20),
        "beta": (params.features.beta, 10.80),
        "pre_threshold": (params.pre_threshold, 0.4),
        "short_threshold": (params.short_threshold, 0.5),
        "node_budget": (params.node_budget, 10),
    }
    bad = {k: v for k, v in expected.items() if v[0] != v[1]}
    report(5, "published constant conformance", not bad,
           "all defaults exact" if not bad else f"mismatches {bad}")


def test_06_ids_reduction_battery(battery):
    strict = 0
    never_more = True
    lines = []
    for item in battery["outcomes"]:
        base, crf = item["base"], item["crf"]
        strict += int(crf.ids < base.ids and crf.idf1 > base.idf1)
        never_more &= crf.ids <= base.ids
        lines.append(f"seed {item['seed']}: IDS {base.ids}->{crf.ids}, "
                     f"IDF1 {base.idf1:.3f}->{crf.idf1:.3f}")
    elapsed = battery["elapsed"]
    ok = strict >= 8 and never_more and elapsed < 60.0
    report(6, "IDS reduction and IDF1 gain", ok,
           f"strict improvement on {strict}/10 seeds, never more IDS: {never_more}, "
           f"{elapsed:.1f}s; " + "; ".join(lines))


def test_07_dummy_neutrality_end_to_end(battery):
    params, bp = battery["params"], battery["bp"]
    frames_checked = 0
    mismatches = 0
    for item in battery["outcomes"]:
        ctx = item["ctx"]
        for frame, windows in item["captures"]:
            asm = assemble_frame_graph(windows, params, ctx)
            budget = decide_inactivation(windows, params, ctx, "loopy-bp", bp)
            tight_params = replace(params, node_budget=max(1, len(asm.node_map)))
            tight = decide_inactivation(windows, tight_params, ctx, "loopy-bp", bp)
            frames_checked += 1
            mismatches += int(budget != tight)
    report(7, "dummy-node neutrality end to end", mismatches == 0,
           f"{frames_checked} frames, {mismatches} decision mismatches")


def test_08_metrics_correctness(battery):
    identity_ok = True
    for item in battery["outcomes"]:
        for rep in (item["base"], item["crf"]):
            recomputed = 1.0 - (rep.fp + rep.fn + rep.ids) / rep.gt
            identity_ok &= abs(rep.mota - recomputed) < 1e-12

    gt = TrackFile([TrackRecord(f, 1, 0.0, 0.0, 10.0, 10.0, 1.0) for f in range(1, 5)])
    even = TrackFile([TrackRecord(1, 1, 0, 0, 10, 10, 1), TrackRecord(2, 1, 0, 0, 10, 10, 1),
                      TrackRecord(3, 2, 0, 0, 10, 10, 1), TrackRecord(4, 2, 0, 0, 10, 10, 1)])
    late = TrackFile([TrackRecord(1, 1, 0, 0, 10, 10, 1), TrackRecord(2, 1, 0, 0, 10, 10, 1),
                      TrackRecord(3, 1, 0, 0, 10, 10, 1), TrackRecord(4, 2, 0, 0, 10, 10, 1)])
    fig_ok = (idf1(gt, even).idf1 == pytest.approx(0.5)
              and idf1(gt, late).idf1 == pytest.approx(0.75)
              and clear_mot(gt, even).mota == clear_mot(gt, late).mota)
    report(8, "metrics correctness", identity_ok and fig_ok,
           f"MOTA identity on all battery reports: {identity_ok}, "
           f"equal-MOTA IDF1 1/2 vs 3/4 construction: {fig_ok}")


def _run_twice(argv_builder, tmp_path, capsys, files):
    outputs = []
    for tag in ("x", "y"):
        code = main(argv_builder(tag))
        assert code == 0, f"command failed: {argv_builder(tag)}"
        captured = capsys.readouterr().out
        blob = captured.encode()
        for name in files:
            blob += (tmp_path / name.format(tag)).read_bytes()
        outputs.append(blob)
    return outputs[0] == outputs[1]


def test_09_cli_determinism(tmp_path, capsys):
    spec = {"num_frames": 70, "num_targets": 4, "frame_rate": 5.0,
            "camera_pan": [0.0, 0.5], "drift_events": [[20, 0, 1]],
            "noise_std": 0.1, "seed": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    from crftrack.crf_model import default_params, save_params
    params, bp = default_params()
    save_params(tmp_path / "params.txt", params, bp)

    results = {}
    results["gen"] = _run_twice(
        lambda t: ["gen", "--spec", str(tmp_path / "spec.json"), "--seed", "1",
                   "--out-hyp", str(tmp_path / f"hyp{t}.txt"),
                   "--out-gt", str(tmp_path / f"gt{t}.txt"),
                   "--out-seqinfo", str(tmp_path / f"seq{t}.txt")],
        tmp_path, capsys, ["hyp{0}.txt", "gt{0}.txt", "seq{0}.txt"])

    for mode in ("threshold", "crf"):
        results[f"track-{mode}"] = _run_twice(
            lambda t, mode=mode: ["track", "--hyp", str(tmp_path / "hypx.txt"),
                                  "--seqinfo", str(tmp_path / "seqx.txt"),
                                  "--params", str(tmp_path / "params.txt"),
                                  "--mode", mode, "--inference", "loopy-bp",
                                  "--out", str(tmp_path / f"out-{mode}{t}.txt"),
                                  "--dump-decisions", str(tmp_path / f"dec-{mode}{t}.txt")],
            tmp_path, capsys, [f"out-{mode}{{0}}.txt", f"dec-{mode}{{0}}.txt"])

    results["eval"] = _run_twice(
        lambda t: ["eval", "--gt", str(tmp_path / "gtx.txt"),
                   "--hyp", str(tmp_path / "out-crfx.txt"),
                   "--out", str(tmp_path / f"report{t}.txt")],
        tmp_path, capsys, ["report{0}.txt"])

    runs = tmp_path / "runs"
    gts = tmp_path / "gts"
    runs.mkdir(), gts.mkdir()
    (runs / "seq.txt").write_bytes((tmp_path / "out-thresholdx.txt").read_bytes())
    (runs / "seq.seqinfo").write_bytes((tmp_path / "seqx.txt").read_bytes())
    (gts / "seq.txt").write_bytes((tmp_path / "gtx.txt").read_bytes())
    results["train"] = _run_twice(
        lambda t: ["train", "--runs", str(runs), "--gt", str(gts),
                   "--params-init", str(tmp_path / "params.txt"),
                   "--lr", "0.01", "--epochs", "2", "--ratio", "3", "--seed", "5",
                   "--out-params", str(tmp_path / f"trained{t}.txt"),
                   "--out-dataset", str(tmp_path / f"dataset{t}.txt")],
        tmp_path, capsys, ["trained{0}.txt", "dataset{0}.txt"])

    frame = {"image_width": 1920, "image_height": 1080, "frame_rate": 5,
             "windows": [{"id": 1, "boxes": [[100, 100, 40, 100], [102, 100, 40, 100],
                                             [104, 100, 40, 100]],
                          "score": 0.9, "length": 3},
                         {"id": 2, "boxes": [[500, 100, 40, 100], [502, 100, 40, 100],
                                             [560, 100, 40, 100]],
                          "score": 0.8, "length": 3}]}
    (tmp_path / "frame.json").write_text(json.dumps(frame))
    results["infer"] = _run_twice(
        lambda t: ["infer", "--frame-json", str(tmp_path / "frame.json"),
                   "--params", str(tmp_path / "params.txt"),
                   "--inference", "loopy-bp",
                   "--dump-messages", str(tmp_path / f"msgs{t}.txt")],
        tmp_path, capsys, ["msgs{0}.txt"])

    results["check-gradients"] = _run_twice(
        lambda t: ["check-gradients", "--params", str(tmp_path / "params.txt"),
                   "--dataset", str(tmp_path / "datasetx.txt"), "--h", "1e-5"],
        tmp_path, capsys, [])

    bad = [name for name, same in results.items() if not same]
    report(9, "CLI determinism", not bad,
           "all commands byte-identical on rerun" if not bad
           else f"non-deterministic: {bad}")
