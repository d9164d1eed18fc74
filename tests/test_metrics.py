import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import crftrack
from crftrack import metrics
from crftrack.crf_model import default_params
from crftrack.errors import NumericalError, ValidationError
from crftrack.features import Box
from crftrack.io import TrackFile, TrackRecord
from crftrack.metrics import (EvalReport, clear_mot, evaluate, idf1, iou, report_csv,
                              report_text)
from crftrack.tracker import DriftEvent, ScenarioSpec, generate_scenario, run


def rec(frame, tid, left=0.0, top=0.0, w=10.0, h=10.0, score=1.0):
    return TrackRecord(frame, tid, left, top, w, h, score)


def track_file(rows):
    return TrackFile(sorted(rows, key=lambda r: (r.frame, r.track_id)))


class TestIoU:
    def test_identical(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(50, 50, 10, 10)) == 0.0

    def test_half_overlap(self):
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == pytest.approx(50 / 150)

    @pytest.mark.parametrize("box", [Box(0, 0, 1e-200, 1e-200),  # areas underflow to 0
                                     Box(1e308, 0, 1e308, 10)])  # right edge overflows
    def test_overlap_without_finite_iou_raises(self, box):
        with pytest.raises(NumericalError, match="not finite"):
            iou(box, box)

    def test_huge_box_apart_from_another(self):
        assert iou(Box(1e308, 0, 1e308, 10), Box(0, 0, 10, 10)) == 0.0


def match(g, h, last):
    """metrics._match on one frame's hits, built with the scalar iou.

    g and h are lists of (id, Box); last maps GT ids to hypothesis ids.
    """
    hits = [(value, gid, hid) for gid, gbox in g for hid, hbox in h
            if (value := iou(gbox, hbox)) >= metrics.IOU_FLOOR]
    return metrics._match(hits, last)


class TestMatchFrame:
    def test_identical_sets(self):
        g = [(1, Box(0, 0, 10, 10)), (2, Box(50, 0, 10, 10))]
        assert match(g, g, {}) == {1: 1, 2: 2}

    def test_below_floor_is_miss_plus_false_positive(self):
        g = [(1, Box(0, 0, 10, 10))]
        h = [(7, Box(7, 0, 10, 10))]  # IoU about 0.18
        assert match(g, h, {}) == {}
        gt = track_file([rec(1, 1)])
        report = clear_mot(gt, track_file([rec(1, 7, left=7.0)]))
        assert (report.fp, report.fn) == (1, 1)

    def test_persistence_beats_greedy(self):
        # Previous partner keeps the match even when another box fits better.
        g = [(1, Box(0, 0, 10, 10))]
        h = [(5, Box(1, 0, 10, 10)), (6, Box(0, 0, 10, 10))]
        assert match(g, h, {1: 5}) == {1: 5}

    def test_switch_detected_by_caller(self):
        g = [(1, Box(0, 0, 10, 10))]
        h = [(6, Box(0, 0, 10, 10))]
        assert match(g, h, {1: 5}) == {1: 6}

    def test_each_hypothesis_used_once(self):
        g = [(1, Box(0, 0, 10, 10)), (2, Box(0, 0, 10, 10))]
        h = [(5, Box(0, 0, 10, 10))]
        assert match(g, h, {}) == {1: 5}
        assert match(g, h, {1: 5, 2: 5}) == {1: 5}

    def test_descending_iou(self):
        # The better fit wins against id order, from either side.
        g = [(1, Box(0, 0, 10, 10)), (2, Box(2, 0, 10, 10))]
        assert match(g, [(5, Box(2, 0, 10, 10))], {}) == {2: 5}
        h = [(5, Box(3, 0, 10, 10)), (6, Box(1, 0, 10, 10))]
        assert match(g[:1], h, {}) == {1: 6}

    def test_equal_iou_goes_to_smaller_gt_id(self):
        g = [(2, Box(0, 0, 10, 10)), (1, Box(0, 0, 10, 10))]
        assert match(g, [(5, Box(0, 0, 10, 10))], {}) == {1: 5}

    def test_equal_iou_goes_to_smaller_hypothesis_id(self):
        h = [(6, Box(0, 0, 10, 10)), (5, Box(0, 0, 10, 10))]
        assert match([(1, Box(0, 0, 10, 10))], h, {}) == {1: 5}


class TestClearMot:
    def test_perfect_tracking(self):
        gt = track_file([rec(f, 1) for f in range(1, 5)])
        report = clear_mot(gt, gt)
        assert report.mota == 1.0
        assert report.fp == report.fn == report.ids == 0
        assert report.mt == 1 and report.ml == 0

    def test_hand_counted_mota(self):
        # 10 GT boxes; hyp misses 2 frames, adds 1 stray box, switches id once.
        gt = track_file([rec(f, 1) for f in range(1, 11)])
        hyp_rows = [rec(f, 1) for f in range(1, 5)]
        hyp_rows += [rec(f, 2) for f in range(5, 9)]
        hyp_rows += [rec(1, 9, left=500.0)]
        report = clear_mot(gt, track_file(hyp_rows))
        assert (report.fp, report.fn, report.ids) == (1, 2, 1)
        assert report.mota == pytest.approx(0.6)

    def test_mota_identity_holds(self):
        gt = track_file([rec(f, 1) for f in range(1, 11)])
        hyp = track_file([rec(f, 2 if f > 6 else 1) for f in range(2, 10)])
        report = clear_mot(gt, hyp)
        assert report.mota == pytest.approx(
            1.0 - (report.fp + report.fn + report.ids) / report.gt)

    def test_fragmentation_counts_interruptions(self):
        gt = track_file([rec(f, 1) for f in range(1, 8)])
        hyp = track_file([rec(f, 1) for f in (1, 2, 5, 6, 7)])
        report = clear_mot(gt, hyp)
        assert report.frag == 1
        assert report.ids == 0

    def test_mt_ml_strict_boundaries(self):
        # Trajectory of 5 frames covered on 4 (80%): neither MT nor ML.
        gt = track_file([rec(f, 1) for f in range(1, 6)])
        hyp = track_file([rec(f, 1) for f in range(1, 5)])
        report = clear_mot(gt, hyp)
        assert report.mt == 0 and report.ml == 0
        # Covered on all 5 frames: MT.
        assert clear_mot(gt, gt).mt == 1
        # Covered on 1 of 5 (20%): not ML under the strict reading.
        hyp = track_file([rec(1, 1)])
        assert clear_mot(gt, hyp).ml == 0

    def test_monotonicity_under_deletion(self, rng):
        gt = track_file([rec(f, tid, left=100.0 * tid)
                         for f in range(1, 6) for tid in (1, 2, 3)])
        rows = [rec(f, tid, left=100.0 * tid) for f in range(1, 6) for tid in (1, 2, 3)]
        full = clear_mot(gt, track_file(rows))
        for drop in range(len(rows)):
            reduced = clear_mot(gt, track_file(rows[:drop] + rows[drop + 1:]))
            assert reduced.fn >= full.fn
            assert reduced.fp <= full.fp

    def test_empty_ground_truth_rejected(self):
        hyp = track_file([rec(1, 1)])
        with pytest.raises(ValidationError):
            clear_mot(TrackFile([]), hyp)


class TestIdf1:
    def test_perfect(self):
        gt = track_file([rec(f, 1) for f in range(1, 5)])
        report = idf1(gt, gt)
        assert report.idf1 == 1.0 and report.idtp == 4

    def test_even_split_versus_late_split(self):
        # One four-frame trajectory; a 2+2 id split scores IDF1 = 1/2 while a
        # 3+1 split scores 3/4, though MOTA is identical for both.
        gt = track_file([rec(f, 1) for f in range(1, 5)])
        even = track_file([rec(1, 1), rec(2, 1), rec(3, 2), rec(4, 2)])
        late = track_file([rec(1, 1), rec(2, 1), rec(3, 1), rec(4, 2)])

        report_even = idf1(gt, even)
        assert (report_even.idtp, report_even.idfp, report_even.idfn) == (2, 2, 2)
        assert report_even.idf1 == pytest.approx(0.5)

        report_late = idf1(gt, late)
        assert (report_late.idtp, report_late.idfp, report_late.idfn) == (3, 1, 1)
        assert report_late.idf1 == pytest.approx(0.75)

        assert clear_mot(gt, even).mota == clear_mot(gt, late).mota

    def test_swapping_files_swaps_precision_and_recall(self):
        gt = track_file([rec(f, 1) for f in range(1, 7)])
        hyp = track_file([rec(f, 4) for f in range(1, 4)])
        fwd = idf1(gt, hyp)
        rev = idf1(hyp, gt)
        assert fwd.idp == pytest.approx(rev.idr)
        assert fwd.idr == pytest.approx(rev.idp)
        assert fwd.idf1 == pytest.approx(rev.idf1)

    def test_harmonic_mean_identity(self):
        gt = track_file([rec(f, 1) for f in range(1, 7)])
        hyp = track_file([rec(f, 4) for f in range(1, 5)] + [rec(1, 9, left=400.0)])
        report = idf1(gt, hyp)
        if report.idp > 0 and report.idr > 0:
            harmonic = 2 / (1 / report.idp + 1 / report.idr)
            assert report.idf1 == pytest.approx(harmonic)


class TestReports:
    def test_key_value_and_csv_agree(self):
        gt = track_file([rec(f, 1) for f in range(1, 5)])
        report = evaluate(gt, gt)
        text = report_text(report)
        assert "mota=1.000000" in text
        assert "motp=na" in text
        csv = report_csv(report).strip().splitlines()
        assert len(csv) == 2
        header, row = csv[0].split(","), csv[1].split(",")
        values = dict(zip(header, row))
        for line in text.strip().splitlines():
            key, _, val = line.partition("=")
            assert values[key] == val

    def test_report_invariants(self):
        gt = track_file([rec(f, 1) for f in range(1, 11)])
        hyp = track_file([rec(f, 2 if f > 5 else 1) for f in range(1, 9)])
        report = evaluate(gt, hyp)
        assert report.mota == pytest.approx(
            1.0 - (report.fp + report.fn + report.ids) / report.gt)
        assert 0.0 <= report.idf1 <= 1.0
        assert min(report.fp, report.fn, report.ids, report.idtp) >= 0


@pytest.fixture(scope="module")
def crowd():
    """A generated 20-target scenario of 40 frames: (hypotheses, ground truth, ctx)."""
    return generate_scenario(ScenarioSpec(
        num_frames=40, num_targets=20, camera_pan=(0.0, 0.8), seed=7,
        drift_events=[DriftEvent(5, 0, 1), DriftEvent(8, 2, 3)]))


def random_track_files(rng):
    """A seeded ground truth (ids 1-5) and hypothesis file (ids 1-8) of 14 frames.

    Hypothesis boxes follow ground-truth boxes under an id map that switches
    now and then, shifted by a random amount or by a third of the width,
    where the IoU is 0.5 up to rounding; strays overlap ground truth or lie
    apart. Frames 3 and 9 have ground truth only, frames 6 and 12 hypotheses
    only.
    """
    width = 30.0
    base = {gid: rng.uniform(0.0, 150.0) for gid in range(1, 6)}
    id_map = {gid: gid for gid in base}
    gt_rows, hyp_rows = [], []
    for f in range(1, 15):
        present = [gid for gid in base if rng.random() < 0.8]
        boxes = {gid: (base[gid] + 2.0 * f, 10.0 * gid) for gid in present}
        if f not in (6, 12):
            gt_rows += [rec(f, gid, left, top, width, 60.0) for gid, (left, top) in boxes.items()]
        if f in (3, 9):
            continue
        used = set()
        for gid, (left, top) in boxes.items():
            if rng.random() < 0.1:
                id_map[gid] = int(rng.integers(1, 9))
            hid = id_map[gid]
            if rng.random() < 0.8 and hid not in used:
                shift = rng.choice([rng.uniform(-15.0, 15.0), width / 3,
                                    np.nextafter(width / 3, 0.0), np.nextafter(width / 3, 99.0)])
                used.add(hid)
                hyp_rows.append(rec(f, hid, left + shift, top, width, 60.0))
        stray = int(rng.integers(1, 9))
        if stray not in used and boxes and rng.random() < 0.5:
            left, top = list(boxes.values())[int(rng.integers(len(boxes)))]
            hyp_rows.append(rec(f, stray, left + rng.choice([5.0, 400.0]), top, width, 60.0))
    return track_file(gt_rows), track_file(hyp_rows)


def reference_match(g, h, last):
    """One frame's GT id -> hypothesis id matches, by scalar iou over every pair.

    Pairs that last still holds with IoU >= 0.5 are kept first, in GT id
    order; the other pairs with IoU >= 0.5 follow by descending IoU, ties by
    GT id and then hypothesis id. Each id is matched at most once.
    """
    hyp_by_id = dict(h)
    matches = {}
    for gid, gbox in sorted(g):
        hid = last.get(gid)
        if (hid in hyp_by_id and hid not in matches.values()
                and iou(gbox, hyp_by_id[hid]) >= 0.5):
            matches[gid] = hid
    pairs = sorted((-iou(gbox, hbox), gid, hid) for gid, gbox in g for hid, hbox in h)
    for neg_iou, gid, hid in pairs:
        if -neg_iou >= 0.5 and gid not in matches and hid not in matches.values():
            matches[gid] = hid
    return matches


def reference_reports(gt, hyp):
    """Both reports recomputed the plain way, for comparison with clear_mot and idf1.

    Each frame's boxes are picked from the records directly and matched by
    reference_match. The CLEAR counters come from each GT trajectory's
    history of matched hypothesis ids. Each (GT id, hypothesis id) overlap is
    counted over frames, pair by pair, and fed to linear_sum_assignment.
    """
    frames = sorted({r.frame for r in gt.records + hyp.records})
    gt_boxes = {(r.track_id, r.frame): r.box() for r in gt.records}
    hyp_boxes = {(r.track_id, r.frame): r.box() for r in hyp.records}
    history, last = {}, {}
    fp = fn = 0
    for f in frames:
        g = [(gid, box) for (gid, frame), box in gt_boxes.items() if frame == f]
        h = [(hid, box) for (hid, frame), box in hyp_boxes.items() if frame == f]
        matches = reference_match(g, h, last)
        fp, fn = fp + len(h) - len(matches), fn + len(g) - len(matches)
        for gid, _ in g:
            history.setdefault(gid, []).append(matches.get(gid))
        last.update(matches)
    ids = frag = mt = ml = 0
    for seq in history.values():
        matched = [hid for hid in seq if hid is not None]
        ids += sum(a != b for a, b in zip(matched, matched[1:]))
        tail = list(itertools.dropwhile(lambda hid: hid is None, seq))
        frag += sum(a is None and b is not None for a, b in zip(tail, tail[1:]))
        mt += len(matched) / len(seq) > 0.8
        ml += len(matched) / len(seq) < 0.2
    n_gt, n_hyp = len(gt), len(hyp)
    clear = EvalReport(mota=1.0 - (fp + fn + ids) / n_gt, fp=fp, fn=fn, ids=ids, gt=n_gt,
                       mt=mt, ml=ml, frag=frag)

    gids = sorted({gid for gid, _ in gt_boxes})
    hids = sorted({hid for hid, _ in hyp_boxes})
    overlap = np.array([[sum((hid, f) in hyp_boxes and (gid, f) in gt_boxes
                             and iou(gt_boxes[gid, f], hyp_boxes[hid, f]) >= 0.5
                             for f in frames) for hid in hids] for gid in gids], dtype=int)
    overlap = overlap.reshape(len(gids), len(hids))
    idtp = int(overlap[linear_sum_assignment(overlap, maximize=True)].sum())
    ident = EvalReport(idf1=2 * idtp / (n_gt + n_hyp), idp=idtp / n_hyp if n_hyp else 0.0,
                       idr=idtp / n_gt, idtp=idtp, idfp=n_hyp - idtp, idfn=n_gt - idtp, gt=n_gt)
    return clear, ident


class TestReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_files_match_reference(self, seed):
        gt, hyp = random_track_files(np.random.default_rng(seed))
        clear, ident = reference_reports(gt, hyp)
        assert clear_mot(gt, hyp) == clear
        assert idf1(gt, hyp) == ident
        assert evaluate(gt, hyp) == replace(clear, **{
            k: getattr(ident, k) for k in ("idf1", "idp", "idr", "idtp", "idfp", "idfn")})

    def test_files_cover_the_edge_cases(self):
        files = [random_track_files(np.random.default_rng(seed)) for seed in range(40)]
        ious = [iou(g.box(), h.box()) for gt, hyp in files for g in gt.records
                for h in hyp.records if g.frame == h.frame]
        assert any(0.49 < v < 0.5 for v in ious) and any(0.5 <= v < 0.51 for v in ious)
        assert all(not {3, 9} & {r.frame for r in hyp.records} for _, hyp in files)
        assert all(not {6, 12} & {r.frame for r in gt.records} for gt, _ in files)
        assert any({6, 7, 8} & {r.track_id for r in hyp.records} for _, hyp in files)
        assert sum(clear_mot(gt, hyp).ids for gt, hyp in files) > 0

    def test_empty_hypothesis_file(self, rng):
        gt, _ = random_track_files(rng)
        clear, ident = reference_reports(gt, TrackFile([]))
        assert clear_mot(gt, TrackFile([])) == clear
        assert idf1(gt, TrackFile([])) == ident
        assert (ident.idtp, ident.idfn, clear.fn) == (0, len(gt), len(gt))

    def test_match_frame_matches_reference(self):
        # Persistence beats a better fit, each hypothesis is used once, and
        # the rest go by descending IoU with ties broken by GT id.
        g = [(1, Box(0, 0, 10, 10)), (2, Box(0, 0, 10, 10)), (3, Box(40, 0, 10, 10))]
        h = [(5, Box(1, 0, 10, 10)), (6, Box(0, 0, 10, 10)), (7, Box(41, 0, 10, 10))]
        for last in ({}, {1: 5}, {2: 5}, {1: 6, 2: 6}, {3: 5}):
            assert match(g, h, last) == reference_match(g, h, last)
        assert match(g, h, {}) == {1: 6, 2: 5, 3: 7}
        assert match(g, h, {2: 6}) == {1: 5, 2: 6, 3: 7}

    def test_tracked_crowd_scenario_matches_reference(self, crowd):
        # The pair pass spans several chunks, and the drift victims' parked
        # boxes are false positives that tracking drops.
        hyp, gt, ctx = crowd
        params, bp = default_params()
        tracked = run(hyp, params, ctx, mode="crf", inference="exact", bp=bp)
        pairs = sum(len(gt_rows) * len(hyp.by_frame().get(f, ()))
                    for f, gt_rows in gt.by_frame().items())
        assert pairs > 2 * metrics._CHUNK_PAIRS
        for out in (hyp, tracked):
            clear, ident = reference_reports(gt, out)
            assert evaluate(gt, out) == replace(clear, **{
                k: getattr(ident, k) for k in ("idf1", "idp", "idr", "idtp", "idfp", "idfn")})
        assert clear_mot(gt, tracked).fp < clear_mot(gt, hyp).fp


def scalar_walk(gt, hyp):
    """What metrics._walk yields, by scalar iou over every same-frame pair."""
    gt_frames, hyp_frames = gt.by_frame(), hyp.by_frame()
    for f in sorted(gt_frames.keys() | hyp_frames.keys()):
        g, h = gt_frames.get(f, []), hyp_frames.get(f, [])
        hits = [(iou(a.box(), b.box()), a.track_id, b.track_id) for a in g for b in h]
        yield f, [a.track_id for a in g], len(h), sorted(hit for hit in hits if hit[0] >= 0.5)


class TestPairPass:
    @pytest.mark.parametrize("seed", range(40))
    def test_hits_equal_scalar_enumeration(self, seed, monkeypatch):
        gt, hyp = random_track_files(np.random.default_rng(seed))
        expected = list(scalar_walk(gt, hyp))
        for chunk in (1, 50, metrics._CHUNK_PAIRS):
            monkeypatch.setattr(metrics, "_CHUNK_PAIRS", chunk)
            walked = [(f, gids, n_hyp, sorted(hits))
                      for f, gids, n_hyp, hits in metrics._walk(gt, hyp)]
            assert walked == expected

    def test_hits_equal_scalar_enumeration_at_crowd_scale(self, crowd):
        # Generated coordinates round IoUs in their last bits, unlike the
        # random files' whole-pixel sizes.
        hyp, gt, _ = crowd
        walked = [(f, gids, n_hyp, sorted(hits))
                  for f, gids, n_hyp, hits in metrics._walk(gt, hyp)]
        assert walked == list(scalar_walk(gt, hyp))

    def test_walk_covers_edge_frames(self):
        files = [random_track_files(np.random.default_rng(seed)) for seed in range(40)]
        for gt, hyp in files:
            frames = [f for f, _, _, _ in metrics._walk(gt, hyp)]
            assert frames == sorted(set(gt.frame.tolist()) | set(hyp.frame.tolist()))
        walked = [item for gt, hyp in files for item in metrics._walk(gt, hyp)]
        values = [v for _, _, _, hits in walked for v, _, _ in hits]
        assert min(values) == 0.5 and any(0.5 < v < 0.51 for v in values)
        assert any(gids and n_hyp == 0 for _, gids, n_hyp, _ in walked)
        assert any(not gids and n_hyp for _, gids, n_hyp, _ in walked)

    def test_empty_hypothesis_file(self, rng):
        gt, _ = random_track_files(rng)
        walked = list(metrics._walk(gt, TrackFile([])))
        assert walked == list(scalar_walk(gt, TrackFile([])))
        assert all(n_hyp == 0 and not hits for _, _, n_hyp, hits in walked)

    @pytest.mark.parametrize("row", [(0.0, 0.0, 1e-200, 1e-200), (1e308, 0.0, 1e308, 10.0)])
    def test_overlap_without_finite_iou_names_frame_and_ids(self, row):
        gt = track_file([rec(1, 1), rec(3, 2, *row)])
        hyp = track_file([rec(1, 1), rec(3, 4, 0.0, 0.0, 10.0, 10.0), rec(3, 5, *row)])
        for metric in (clear_mot, idf1, evaluate):
            with pytest.raises(NumericalError,
                               match="frame 3: IoU of ground-truth id 2 .* hypothesis id 5"):
                metric(gt, hyp)


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize dominates import time, and only idf1 uses it.
    env = {**os.environ, "PYTHONPATH": str(Path(crftrack.__file__).parents[1])}
    code = "import sys, crftrack; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"
