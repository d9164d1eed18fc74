"""CLEAR-MOT and identity metrics between a hypothesis file and ground truth.

Per-frame correspondence uses an IoU floor of 0.5: existing matches persist
while they stay above the floor, the rest are matched greedily by descending
IoU. Identity metrics come from a global trajectory-level assignment that
maximizes the number of per-frame box agreements. Both metrics, and training's
dataset labels, fold over one IoU pass per sequence: numpy computes the IoU
of every same-frame (ground-truth, hypothesis) pair, and only the pairs at
or above the floor, the only ones that can affect either, reach Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .features import Box
from .io import TrackFile

IOU_FLOOR = 0.5

# Pairs whose IoUs one numpy call computes at a time. It bounds the pass's
# arrays to a few hundred kB however many boxes a sequence holds.
_CHUNK_PAIRS = 4096


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes.

    Raises NumericalError when the boxes overlap but their IoU is not finite:
    areas that underflow to 0 or edges that overflow to infinity.
    """
    x1 = max(a.left, b.left)
    y1 = max(a.top, b.top)
    x2 = min(a.left + a.width, b.left + b.width)
    y2 = min(a.top + a.height, b.top + b.height)
    if x2 <= x1 or y2 <= y1:
        return 0.0
    inter = (x2 - x1) * (y2 - y1)
    union = a.width * a.height + b.width * b.height - inter
    value = inter / union if union else math.nan
    if not math.isfinite(value):
        raise NumericalError(f"IoU of {a} and {b} is not finite")
    return value


@dataclass
class EvalReport:
    """Evaluation counters and the compound scores derived from them."""

    mota: float = 0.0
    idf1: float = 0.0
    idp: float = 0.0
    idr: float = 0.0
    fp: int = 0
    fn: int = 0
    ids: int = 0
    gt: int = 0
    idtp: int = 0
    idfp: int = 0
    idfn: int = 0
    mt: int = 0
    ml: int = 0
    frag: int = 0


# The fields that idf1 fills; clear_mot fills the others.
_IDENTITY_FIELDS = ("idf1", "idp", "idr", "idtp", "idfp", "idfn")


def _match(hits, prev_matches):
    """GT id -> hypothesis id for one frame, from its hits.

    hits are the frame's (IoU, GT id, hypothesis id) triples with IoU >=
    IOU_FLOOR. Pairs that prev_matches holds persist first, in GT id order;
    the other hits follow greedily by descending IoU, ties by GT id and then
    hypothesis id. Each id is matched at most once.
    """
    def order(hit):
        value, gid, hid = hit
        return (0, gid) if prev_matches.get(gid) == hid else (1, -value, gid, hid)

    matches: dict[int, int] = {}
    used = set()
    for _, gid, hid in sorted(hits, key=order):
        if gid not in matches and hid not in used:
            matches[gid] = hid
            used.add(hid)
    return matches


def _columns(track: TrackFile):
    """A track file's left, top, right, bottom and area columns, computed as iou computes them."""
    with np.errstate(over="ignore"):
        return (track.left, track.top, track.left + track.width, track.top + track.height,
                track.width * track.height)


def _hits(chunk, gt: TrackFile, hyp: TrackFile, gt_columns, hyp_columns):
    """Each chunk frame's hits, from one numpy pass over all its same-frame pairs.

    chunk lists (frame, GT row span, hypothesis row span). Every step repeats
    iou's operation on the same operands, so each IoU equals iou's bit for bit.
    The pairs that overlap in x are picked first: they are few in a crowd.
    """
    g0, g1, h0, h1 = np.array([(*g, *h) for _, g, h in chunk], dtype=np.int64).T
    n_hyp = h1 - h0
    n_pairs = (g1 - g0) * n_hyp
    frame = np.repeat(np.arange(len(chunk)), n_pairs)
    k = np.arange(frame.size) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    q, r = np.divmod(k, n_hyp[frame])
    gi, hi = g0[frame] + q, h0[frame] + r
    g_left, g_top, g_right, g_bottom, g_area = gt_columns
    h_left, h_top, h_right, h_bottom, h_area = hyp_columns
    with np.errstate(all="ignore"):
        width = np.minimum(g_right[gi], h_right[hi]) - np.maximum(g_left[gi], h_left[hi])
        pair = np.flatnonzero(width > 0)
        gi, hi, frame, width = gi[pair], hi[pair], frame[pair], width[pair]
        height = np.minimum(g_bottom[gi], h_bottom[hi]) - np.maximum(g_top[gi], h_top[hi])
        pair = np.flatnonzero(height > 0)
        gi, hi, frame = gi[pair], hi[pair], frame[pair]
        inter = width[pair] * height[pair]
        value = inter / (g_area[gi] + h_area[hi] - inter)

    bad = ~np.isfinite(value)
    if bad.any():
        p = np.argmax(bad)
        a, b = gt.records[gi[p]], hyp.records[hi[p]]
        raise NumericalError(f"frame {chunk[frame[p]][0]}: IoU of ground-truth id "
                             f"{a.track_id} {a.box()} and hypothesis id {b.track_id} "
                             f"{b.box()} is not finite")

    hit = value >= IOU_FLOOR
    hits = [[] for _ in chunk]
    for j, v, gid, hid in zip(frame[hit].tolist(), value[hit].tolist(),
                              gt.track_id[gi[hit]].tolist(), hyp.track_id[hi[hit]].tolist()):
        hits[j].append((v, gid, hid))
    return hits


def _walk(gt: TrackFile, hyp: TrackFile):
    """Yield (frame, GT ids, hypothesis count, hits) for every frame of either file.

    Frames ascend; GT ids are in id order; hits are the frame's (IoU, GT id,
    hypothesis id) triples with IoU >= IOU_FLOOR, computed chunk by chunk of
    frames with _hits. Raises NumericalError naming the frame, ids and boxes
    of an overlapping pair whose IoU is not finite.
    """
    gt_columns, hyp_columns = _columns(gt), _columns(hyp)
    frame_list = np.union1d(gt.frame, hyp.frame)
    spans = [np.searchsorted(track.frame, frame_list, side).tolist()
             for track in (gt, hyp) for side in ("left", "right")]
    frames = [(f, (g0, g1), (h0, h1)) for f, g0, g1, h0, h1 in zip(frame_list.tolist(), *spans)]
    gt_ids = gt.track_id.tolist()
    start = pairs = 0
    for end, (_, (g0, g1), (h0, h1)) in enumerate(frames, start=1):
        pairs += (g1 - g0) * (h1 - h0)
        if pairs < _CHUNK_PAIRS and end < len(frames):
            continue
        chunk = frames[start:end]
        for (frame, (g0, g1), (h0, h1)), hits in zip(
                chunk, _hits(chunk, gt, hyp, gt_columns, hyp_columns)):
            yield frame, gt_ids[g0:g1], h1 - h0, hits
        start, pairs = end, 0


def clear_mot(gt: TrackFile, hyp: TrackFile) -> EvalReport:
    """Match each frame from its hits and compute the CLEAR counters.

    MT counts trajectories covered on strictly more than 80% of their boxes,
    ML those covered on strictly less than 20%. A fragmentation is counted
    each time a trajectory resumes being matched after a gap.
    """
    gt_total = len(gt)
    if gt_total == 0:
        raise ValidationError("MOTA undefined: ground truth contains no boxes")

    prev_matches: dict[int, int] = {}
    in_gap: dict[int, bool] = {}
    covered: dict[int, int] = {}
    observed: dict[int, int] = {}
    fp = fn = ids = frag = 0

    for _, gids, n_hyp, hits in _walk(gt, hyp):
        matches = _match(hits, prev_matches)
        fp += n_hyp - len(matches)
        fn += len(gids) - len(matches)
        for gid in gids:
            observed[gid] = observed.get(gid, 0) + 1
            if gid in matches:
                hid = matches[gid]
                covered[gid] = covered.get(gid, 0) + 1
                if prev_matches.get(gid, hid) != hid:
                    ids += 1
                if in_gap.get(gid, False):
                    frag += 1
                prev_matches[gid] = hid
                in_gap[gid] = False
            elif gid in prev_matches:
                in_gap[gid] = True

    mt = ml = 0
    for gid, total in observed.items():
        ratio = covered.get(gid, 0) / total
        if ratio > 0.8:
            mt += 1
        if ratio < 0.2:
            ml += 1

    mota = 1.0 - (fp + fn + ids) / gt_total
    return EvalReport(mota=mota, fp=fp, fn=fn, ids=ids, gt=gt_total,
                      mt=mt, ml=ml, frag=frag)


def idf1(gt: TrackFile, hyp: TrackFile) -> EvalReport:
    """Identity metrics from a global trajectory-to-trajectory assignment.

    Each (GT trajectory, hypothesis trajectory) pair is scored by the number
    of frames on which their boxes overlap with IoU >= 0.5; a bipartite assignment
    maximizes the total, giving IDTP. Leftover hypothesis boxes are IDFP,
    leftover ground-truth boxes IDFN.
    """
    if len(gt) == 0:
        raise ValidationError("identity metrics undefined: ground truth contains no boxes")

    gids = np.unique(gt.track_id).tolist()
    hids = np.unique(hyp.track_id).tolist()
    row = {gid: i for i, gid in enumerate(gids)}
    col = {hid: j for j, hid in enumerate(hids)}
    overlap = np.zeros((len(gids), len(hids)), dtype=int)
    for _, _, _, hits in _walk(gt, hyp):
        for _, gid, hid in hits:
            overlap[row[gid], col[hid]] += 1

    idtp = 0
    if overlap.size:
        # Imported here: scipy.optimize takes most of `import crftrack`'s
        # time, and only evaluation needs it.
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        idtp = int(overlap[rows, cols].sum())

    n_gt = len(gt)
    n_hyp = len(hyp)
    idfn = n_gt - idtp
    idfp = n_hyp - idtp
    idp_val = idtp / n_hyp if n_hyp else 0.0
    idr_val = idtp / n_gt
    denom = 2 * idtp + idfp + idfn
    idf1_val = 2 * idtp / denom if denom else 0.0
    return EvalReport(idf1=idf1_val, idp=idp_val, idr=idr_val,
                      idtp=idtp, idfp=idfp, idfn=idfn, gt=n_gt)


def evaluate(gt: TrackFile, hyp: TrackFile) -> EvalReport:
    """Full report combining the CLEAR counters with the identity metrics."""
    clear = clear_mot(gt, hyp)
    ident = idf1(gt, hyp)
    return replace(clear, **{name: getattr(ident, name) for name in _IDENTITY_FIELDS})


# Report serialization. MOTP needs detector-quality localization distances
# that this toolchain does not model, so it is reported as not applicable.
REPORT_COLUMNS = ("mota", "idf1", "idp", "idr", "motp", "fp", "fn", "ids", "gt",
                  "idtp", "idfp", "idfn", "mt", "ml", "frag")


def report_values(report: EvalReport) -> dict[str, str]:
    """Every field as text, floats to 6 decimals and counts as integers, plus motp."""
    values = {f.name: format(getattr(report, f.name), ".6f" if isinstance(f.default, float)
                             else "") for f in fields(EvalReport)}
    return {**values, "motp": "na"}


def report_text(report: EvalReport) -> str:
    values = report_values(report)
    return "".join(f"{k}={values[k]}\n" for k in REPORT_COLUMNS)


def report_csv(report: EvalReport) -> str:
    values = report_values(report)
    header = ",".join(REPORT_COLUMNS)
    row = ",".join(values[k] for k in REPORT_COLUMNS)
    return header + "\n" + row + "\n"
