"""CLEAR-MOT and IDF1 evaluation against ground truth.

Per-frame matching uses IoU with a fixed threshold and keeps a target on
its previous hypothesis while the overlap stays valid (the CLEAR
continuity convention), which stabilizes the identity-switch count. IDF1
comes from one global assignment between ground-truth and hypothesis
identities over their per-frame overlap counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import CostMatrix, linear_sum_assignment, solve_assignment
from .config import EVAL_IOU_THRESHOLD
from .geometry import BBox, iou_matrix


@dataclass(frozen=True)
class EvalFrame:
    gt: list[tuple[int, BBox]]
    hyp: list[tuple[int, BBox]]


@dataclass(frozen=True)
class EvalReport:
    mota: float
    idf1: float
    fp: int
    fn: int
    ids: int
    gt_total: int


def evaluate(frames: list[EvalFrame], iou_threshold: float = EVAL_IOU_THRESHOLD) -> EvalReport:
    """Score a hypothesis stream against ground truth.

    Raises ValueError when the ground truth is empty (MOTA undefined) or
    ``iou_threshold`` lies outside (0, 1].
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    gt_total = sum(len(f.gt) for f in frames)
    if gt_total == 0:
        raise ValueError("empty ground truth: MOTA undefined")
    hyp_total = sum(len(f.hyp) for f in frames)

    fp = fn = ids = 0
    last_hyp: dict[int, int] = {}  # gt id -> hyp id of its most recent match
    overlap_counts: dict[tuple[int, int], int] = {}

    for frame in frames:
        gt = sorted(frame.gt, key=lambda g: g[0])
        hyp = sorted(frame.hyp, key=lambda h: h[0])
        _check_unique([g for g, _ in gt], "ground-truth")
        _check_unique([h for h, _ in hyp], "hypothesis")

        ious = iou_matrix([b for _, b in gt], [b for _, b in hyp])

        # identity-level overlap counts feed the global IDF1 matching
        for gi, hi in np.argwhere(ious >= iou_threshold).tolist():
            key = (gt[gi][0], hyp[hi][0])
            overlap_counts[key] = overlap_counts.get(key, 0) + 1

        matched_g: dict[int, int] = {}
        used_h: set[int] = set()

        # continuity pass: keep last frame's correspondence while still valid
        hyp_index = {h_id: hi for hi, (h_id, _) in enumerate(hyp)}
        for gi, (g_id, _) in enumerate(gt):
            prev = last_hyp.get(g_id)
            if prev is None or prev not in hyp_index:
                continue
            hi = hyp_index[prev]
            if hi not in used_h and ious[gi, hi] >= iou_threshold:
                matched_g[gi] = hi
                used_h.add(hi)

        # optimal matching over the remainder
        rem_g = [gi for gi in range(len(gt)) if gi not in matched_g]
        rem_h = [hi for hi in range(len(hyp)) if hi not in used_h]
        if rem_g and rem_h:
            sub = ious[np.ix_(rem_g, rem_h)]
            cm = CostMatrix(values=1.0 - sub, gate_mask=sub >= iou_threshold)
            for ri, rj in solve_assignment(cm):
                matched_g[rem_g[ri]] = rem_h[rj]
                used_h.add(rem_h[rj])

        fp += len(hyp) - len(matched_g)
        fn += len(gt) - len(matched_g)
        for gi, hi in matched_g.items():
            g_id = gt[gi][0]
            h_id = hyp[hi][0]
            prev = last_hyp.get(g_id)
            if prev is not None and prev != h_id:
                ids += 1
            last_hyp[g_id] = h_id

    mota = 1.0 - (fp + fn + ids) / gt_total
    idf1 = _idf1(overlap_counts, gt_total, hyp_total)
    return EvalReport(mota=mota, idf1=idf1, fp=fp, fn=fn, ids=ids, gt_total=gt_total)


def _check_unique(ids: list[int], label: str) -> None:
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate {label} ids within one frame")


def _idf1(overlap_counts: dict[tuple[int, int], int], gt_total: int, hyp_total: int) -> float:
    """F1 of the best global gt-identity to hyp-identity assignment."""
    if not overlap_counts:
        return 0.0
    g_index = {g: i for i, g in enumerate(sorted({g for g, _ in overlap_counts}))}
    h_index = {h: i for i, h in enumerate(sorted({h for _, h in overlap_counts}))}
    counts = np.zeros((len(g_index), len(h_index)))
    for (g, h), n in overlap_counts.items():
        counts[g_index[g], h_index[h]] = n
    rows, cols = linear_sum_assignment(counts, maximize=True)
    idtp = counts[rows, cols].sum()
    return float(2.0 * idtp / (gt_total + hyp_total))
