"""CLEAR-MOT and identity metrics between a hypothesis file and ground truth.

Per-frame correspondence uses an IoU floor of 0.5: existing matches persist
while they stay above the floor, the rest are matched greedily by descending
IoU. Identity metrics come from a global trajectory-level assignment that
maximizes the number of per-frame box agreements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import Box
from .io import TrackFile

IOU_FLOOR = 0.5


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes."""
    x1 = max(a.left, b.left)
    y1 = max(a.top, b.top)
    x2 = min(a.left + a.width, b.left + b.width)
    y2 = min(a.top + a.height, b.top + b.height)
    if x2 <= x1 or y2 <= y1:
        return 0.0
    inter = (x2 - x1) * (y2 - y1)
    union = a.width * a.height + b.width * b.height - inter
    return inter / union


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


def match_frame(gt_boxes, hyp_boxes, prev_matches):
    """Correspond one frame's boxes.

    gt_boxes and hyp_boxes are lists of (id, Box); prev_matches maps each GT
    id to the hypothesis id it was last matched with. Returns
    (matches, n_fp, n_fn) where matches maps GT id to hypothesis id.
    """
    hyp_by_id = dict(hyp_boxes)
    matches: dict[int, int] = {}
    used = set()

    for gid, gbox in gt_boxes:
        hid = prev_matches.get(gid)
        if hid is not None and hid in hyp_by_id and hid not in used:
            if iou(gbox, hyp_by_id[hid]) >= IOU_FLOOR:
                matches[gid] = hid
                used.add(hid)

    candidates = []
    for gid, gbox in gt_boxes:
        if gid in matches:
            continue
        for hid, hbox in hyp_boxes:
            if hid in used:
                continue
            v = iou(gbox, hbox)
            if v >= IOU_FLOOR:
                candidates.append((v, gid, hid))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    for v, gid, hid in candidates:
        if gid not in matches and hid not in used:
            matches[gid] = hid
            used.add(hid)

    n_fn = len(gt_boxes) - len(matches)
    n_fp = len(hyp_boxes) - len(matches)
    return matches, n_fp, n_fn


def _frames(gt: TrackFile, hyp: TrackFile):
    """Yield (frame, GT boxes, hypothesis boxes) for every frame of either file, in order.

    The boxes are (id, Box) lists in id order, empty where a file has no record.
    """
    gt_frames = gt.by_frame()
    hyp_frames = hyp.by_frame()
    for f in sorted(gt_frames.keys() | hyp_frames.keys()):
        yield (f, [(r.track_id, r.box()) for r in gt_frames.get(f, ())],
               [(r.track_id, r.box()) for r in hyp_frames.get(f, ())])


def clear_mot(gt: TrackFile, hyp: TrackFile) -> EvalReport:
    """Fold match_frame over the sequence and compute the CLEAR counters.

    MT counts trajectories covered on strictly more than 80% of their boxes,
    ML those covered on strictly less than 20%. A fragmentation is counted
    each time a trajectory resumes being matched after a gap.
    """
    gt_total = len(gt.records)
    if gt_total == 0:
        raise ValidationError("MOTA undefined: ground truth contains no boxes")

    prev_matches: dict[int, int] = {}
    in_gap: dict[int, bool] = {}
    covered: dict[int, int] = {}
    observed: dict[int, int] = {}
    fp = fn = ids = frag = 0

    for _, g, h in _frames(gt, hyp):
        matches, n_fp, n_fn = match_frame(g, h, prev_matches)
        fp += n_fp
        fn += n_fn
        for gid, _ in g:
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
    if len(gt.records) == 0:
        raise ValidationError("identity metrics undefined: ground truth contains no boxes")

    gids = sorted({r.track_id for r in gt.records})
    hids = sorted({r.track_id for r in hyp.records})
    row = {gid: i for i, gid in enumerate(gids)}
    col = {hid: j for j, hid in enumerate(hids)}
    overlap = np.zeros((len(gids), len(hids)), dtype=int)
    for _, g, h in _frames(gt, hyp):
        for gid, gbox in g:
            for hid, hbox in h:
                if iou(gbox, hbox) >= IOU_FLOOR:
                    overlap[row[gid], col[hid]] += 1

    idtp = 0
    if overlap.size:
        # Imported here: scipy.optimize takes most of `import crftrack`'s
        # time, and only evaluation needs it.
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        idtp = int(overlap[rows, cols].sum())

    n_gt = len(gt.records)
    n_hyp = len(hyp.records)
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
    clear.idf1 = ident.idf1
    clear.idp = ident.idp
    clear.idr = ident.idr
    clear.idtp = ident.idtp
    clear.idfp = ident.idfp
    clear.idfn = ident.idfn
    return clear


# Report serialization. MOTP needs detector-quality localization distances
# that this toolchain does not model, so it is reported as not applicable.
REPORT_COLUMNS = ("mota", "idf1", "idp", "idr", "motp", "fp", "fn", "ids", "gt",
                  "idtp", "idfp", "idfn", "mt", "ml", "frag")


def report_values(report: EvalReport) -> dict[str, str]:
    values = {
        "mota": f"{report.mota:.6f}",
        "idf1": f"{report.idf1:.6f}",
        "idp": f"{report.idp:.6f}",
        "idr": f"{report.idr:.6f}",
        "motp": "na",
    }
    for key in ("fp", "fn", "ids", "gt", "idtp", "idfp", "idfn", "mt", "ml", "frag"):
        values[key] = str(getattr(report, key))
    return values


def report_text(report: EvalReport) -> str:
    values = report_values(report)
    return "".join(f"{k}={values[k]}\n" for k in REPORT_COLUMNS)


def report_csv(report: EvalReport) -> str:
    values = report_values(report)
    header = ",".join(REPORT_COLUMNS)
    row = ",".join(values[k] for k in REPORT_COLUMNS)
    return header + "\n" + row + "\n"
