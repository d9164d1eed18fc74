from dataclasses import replace

import pytest

from crftrack.crf_model import ModelParams, default_params, with_weights
from crftrack.errors import ValidationError
from crftrack.features import Box, FrameContext
from crftrack.io import TrackFile, TrackRecord, write_mot
from crftrack.tracker import (DriftEvent, ScenarioSpec, TrackerState, generate_scenario,
                              run, scenario_from_json, step)

CTX = FrameContext(1920, 1080, 30.0)


def feed(frames, params=None, ctx=CTX, mode="crf", inference="exact"):
    """Drive step over a list of per-frame hypothesis lists."""
    params = params or ModelParams()
    state = TrackerState()
    results = []
    for i, rows in enumerate(frames, start=1):
        state, res = step(state, i, rows, params, ctx, mode=mode, inference=inference)
        results.append(res)
    return state, results


def moving(tid, frame, x0=100.0, y=100.0, step_px=2.0, w=40.0, h=100.0, score=0.98):
    return (tid, Box(x0 + step_px * (frame - 1), y, w, h), score)


class TestStep:
    def test_low_score_inactivated_by_pre_threshold(self):
        frames = [[moving(1, f)] for f in range(1, 4)]
        frames.append([moving(1, 4, score=0.3)])
        _, results = feed(frames)
        last = {d.track_id: d.decision for d in results[-1].decisions}
        assert last[1] == "inactivated-threshold"

    def test_short_tracklet_uses_half_threshold(self):
        frames = [[moving(1, 1)], [moving(1, 2, score=0.45)]]
        state, results = feed(frames)
        last = {d.track_id: d.decision for d in results[-1].decisions}
        assert last[1] == "inactivated-threshold"
        assert 1 in state.inactive

    def test_short_confident_tracklet_bypasses(self):
        frames = [[moving(1, 1)], [moving(1, 2, score=0.8)]]
        _, results = feed(frames)
        last = {d.track_id: d.decision for d in results[-1].decisions}
        assert last[1] == "bypass"

    def test_drift_kept_by_baseline_but_killed_by_crf(self):
        # Target 2 jumps 40 px at frame 4 while its score stays at 0.8.
        def build(frame):
            rows = [moving(1, frame)]
            x2 = 300.0 + 2.0 * (frame - 1) + (40.0 if frame == 4 else 0.0)
            rows.append((2, Box(x2, 100.0, 40.0, 100.0), 0.8))
            return rows

        frames = [build(f) for f in range(1, 5)]
        _, base_results = feed(frames, mode="threshold-only")
        base_last = {d.track_id: d.decision for d in base_results[-1].decisions}
        assert base_last[2] == "kept"

        for inference in ("exact", "loopy-bp"):
            _, crf_results = feed(frames, inference=inference)
            crf_last = {d.track_id: d.decision for d in crf_results[-1].decisions}
            assert crf_last[1] == "kept"
            assert crf_last[2] == "inactivated-crf"

    def test_missing_hypothesis_inactivates(self):
        # Two tracklets; the second one has no hypothesis at frame 2.
        frames = [[moving(1, 1), moving(2, 1, x0=600)],
                  [moving(1, 2)]]
        state, results = feed(frames)
        last = {d.track_id: d.decision for d in results[-1].decisions}
        assert last[2] == "inactivated-threshold"
        assert 2 in state.inactive

    def test_inactivated_id_rows_are_skipped(self):
        frames = [[moving(1, 1), moving(2, 1, x0=600)],
                  [moving(1, 2), (2, Box(600, 100, 40, 100), 0.2)],
                  [moving(1, 3), (2, Box(600, 100, 40, 100), 0.9)]]
        state, results = feed(frames)
        assert 2 in state.inactive
        assert all(d.track_id != 2 for d in results[-1].decisions)

    def test_new_detection_nms(self):
        state, results = feed([[
            (None, Box(100, 100, 40, 100), 0.9),
            (None, Box(105, 100, 40, 100), 0.8),   # overlaps the first
            (None, Box(600, 100, 40, 100), 0.7),
        ]])
        assert len(state.active) == 2
        assert {d.decision for d in results[0].decisions} == {"kept"}
        assert len(results[0].decisions) == 2

    def test_duplicate_id_rejected(self):
        state = TrackerState()
        state, _ = step(state, 1, [moving(1, 1)], ModelParams(), CTX)
        with pytest.raises(ValidationError):
            step(state, 2, [moving(1, 2), moving(1, 2)], ModelParams(), CTX)

    def test_history_window_capped_at_three(self):
        frames = [[moving(1, f)] for f in range(1, 9)]
        state, _ = feed(frames)
        assert len(state.active[1].boxes) == 3
        assert state.active[1].length == 8

    def test_fresh_ids_never_reused(self):
        state, _ = feed([[(None, Box(100, 100, 40, 100), 0.9)],
                         [(1, Box(102, 100, 40, 100), 0.2)],
                         [(None, Box(100, 100, 40, 100), 0.9)]])
        assert 1 in state.inactive
        assert set(state.active) == {2}
        assert set(state.active).isdisjoint(state.inactive)


class TestRun:
    def test_empty_input(self):
        params, bp = default_params()
        out = run(TrackFile([]), params, CTX, mode="crf", bp=bp)
        assert len(out) == 0

    def test_single_calm_target_is_identity(self):
        rows = [TrackRecord(f, 1, 100.0 + 2.0 * f, 100.0, 40.0, 100.0, 0.98)
                for f in range(1, 11)]
        track = TrackFile(rows)
        params, bp = default_params()
        out = run(track, params, CTX, mode="crf", bp=bp)
        assert out == track

    def test_crf_never_keeps_sub_pre_threshold(self, rng):
        rows = []
        for tid in (1, 2, 3):
            for f in range(1, 25):
                score = round(float(rng.uniform(0.2, 1.0)), 4)
                rows.append(TrackRecord(f, tid, 100.0 + 300 * tid + 2.0 * f, 100.0,
                                        40.0, 100.0, score))
        track = TrackFile(sorted(rows, key=lambda r: (r.frame, r.track_id)))
        params, bp = default_params()
        out = run(track, params, CTX, mode="crf", bp=bp)
        assert all(rec.score >= params.pre_threshold for rec in out.records)

    def test_unsorted_input_rejected(self):
        rows = [TrackRecord(2, 1, 0, 0, 10, 10, 1.0), TrackRecord(1, 1, 0, 0, 10, 10, 1.0)]
        from crftrack.errors import FormatError
        with pytest.raises(FormatError):
            TrackFile(rows)


def battery_spec(seed, num_events=1):
    events = [DriftEvent(18 + 26 * k, 2 * k, 2 * k + 1) for k in range(num_events)]
    return ScenarioSpec(num_frames=130, num_targets=8, camera_pan=(0.0, 0.8),
                        seed=seed, drift_events=events)


class TestScenario:
    def test_deterministic_output(self, tmp_path):
        spec = battery_spec(seed=5, num_events=2)
        hyp1, gt1, _ = generate_scenario(spec)
        hyp2, gt2, _ = generate_scenario(spec)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_mot(hyp1, p1)
        write_mot(hyp2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert gt1 == gt2

    def test_zero_events_ids_match_ground_truth(self):
        spec = ScenarioSpec(num_frames=40, num_targets=5, seed=2)
        hyp, gt, _ = generate_scenario(spec)
        hyp_ids = {(r.frame, r.track_id) for r in hyp.records}
        gt_ids = {(r.frame, r.track_id) for r in gt.records}
        assert hyp_ids == gt_ids

    def test_pan_shifts_ground_truth(self):
        static = ScenarioSpec(num_frames=20, num_targets=4, seed=9)
        panned = ScenarioSpec(num_frames=20, num_targets=4, seed=9, camera_pan=(5.0, 0.0))
        _, gt_static, _ = generate_scenario(static)
        _, gt_panned, _ = generate_scenario(panned)
        assert len(gt_static) == len(gt_panned)
        for a, b in zip(gt_static.records, gt_panned.records):
            assert (a.frame, a.track_id) == (b.frame, b.track_id)
            assert b.left == pytest.approx(a.left + 5.0 * (a.frame - 1), abs=1e-9)
            assert b.top == pytest.approx(a.top, abs=1e-9)

    def test_drift_event_killed_within_two_frames(self):
        spec = battery_spec(seed=4)
        hyp, gt, ctx = generate_scenario(spec)
        params, bp = default_params()
        results = []
        run(hyp, params, ctx, mode="crf", bp=bp, results=results)
        kills = [(fr.frame, d.track_id) for fr in results for d in fr.decisions
                 if d.decision == "inactivated-crf"]
        event = spec.drift_events[0]
        victim_id = event.victim + 1
        victim_kills = [f for f, tid in kills if tid == victim_id]
        assert victim_kills and abs(victim_kills[0] - event.frame) <= 2

    def test_loopy_bp_runs_with_extreme_trained_weights(self):
        # Weights from 30 epochs of SGD at 14 fps scale the energies into the
        # hundreds, where exp(-E) underflows; log-domain BP still finishes.
        spec = replace(battery_spec(seed=10, num_events=4), frame_rate=14.0)
        hyp, _, ctx = generate_scenario(spec)
        params, bp = default_params()
        results = []
        run(hyp, with_weights(params, 844.18, 3.567), ctx, mode="crf",
            inference="loopy-bp", bp=bp, results=results)
        assert [r.frame for r in results] == list(range(1, spec.num_frames + 1))

    def test_end_to_end_determinism(self, tmp_path):
        spec = battery_spec(seed=6)
        hyp, _, ctx = generate_scenario(spec)
        params, bp = default_params()
        out1 = run(hyp, params, ctx, mode="crf", bp=bp)
        out2 = run(hyp, params, ctx, mode="crf", bp=bp)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_mot(out1, p1)
        write_mot(out2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(num_frames=50, num_targets=2,
                         drift_events=[DriftEvent(10, 0, 0)]).validate()
        with pytest.raises(ValidationError):
            ScenarioSpec(num_frames=30, num_targets=4,
                         drift_events=[DriftEvent(25, 0, 1)]).validate()

    def test_spec_json_round_trip(self):
        text = """{
            "num_frames": 60, "num_targets": 4, "frame_rate": 5.0,
            "camera_pan": [0.0, 1.0],
            "drift_events": [[20, 0, 1]],
            "noise_std": 0.05, "seed": 12
        }"""
        spec = scenario_from_json(text)
        assert spec.num_frames == 60
        assert spec.drift_events == [DriftEvent(20, 0, 1)]
        assert spec.camera_pan == (0.0, 1.0)
        with pytest.raises(ValidationError):
            scenario_from_json('{"bogus": 1}')

    def test_piecewise_pan(self):
        # The segment starting at frame 6 governs the step into frame 6.
        spec = ScenarioSpec(num_frames=10, num_targets=2,
                            camera_pan=[(1, (1.0, 0.0)), (6, (0.0, 2.0))], seed=3)
        offsets = spec.pan_offsets()
        assert offsets[1].tolist() == [0.0, 0.0]
        assert offsets[5].tolist() == [4.0, 0.0]
        assert offsets[6].tolist() == [4.0, 2.0]
        assert offsets[7].tolist() == [4.0, 4.0]
