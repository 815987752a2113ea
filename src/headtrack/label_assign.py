"""Training-time anchor matching and loss math, as standalone functions.

These operate on synthetic anchor/ground-truth records, not on network
outputs: anchors arrive as data with their predicted box, class and
objectness probabilities, and head keypoint. The dynamic-k matcher follows
the SimOTA recipe (per-target k from the sum of its top-q candidate IoUs),
with a large positional penalty excluding anchors outside the target's
center region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry
from .config import AssignConfig
from .geometry import BBox, HeadKeypoint, iou, ciou_loss

_PROB_CLAMP = 1e-7
CENTER_RADIUS_STRIDES = 2.5


@dataclass(frozen=True)
class Anchor:
    cx: float
    cy: float
    stride: int
    pred_box: BBox
    pred_cls: float
    pred_obj: float
    pred_head: HeadKeypoint

    def __post_init__(self):
        if not (_finite(self.cx) and _finite(self.cy)):
            raise ValueError(f"cx and cy must be finite numbers, got ({self.cx!r}, {self.cy!r})")
        if not (_finite(self.stride) and self.stride > 0):
            raise ValueError(f"stride must be a positive finite number, got {self.stride!r}")
        if not 0.0 <= self.pred_cls <= 1.0 or not 0.0 <= self.pred_obj <= 1.0:
            raise ValueError("predicted probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class GtInstance:
    box: BBox
    head: HeadKeypoint
    center_radius: Optional[float] = None  # None: 2.5 x the anchor's stride

    def __post_init__(self):
        if not (self.center_radius is None or _finite(self.center_radius) and self.center_radius >= 0):
            raise ValueError(f"center_radius must be None or a finite number >= 0, got {self.center_radius!r}")


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        return False


def _region_masks(anchors: list[Anchor], gts: list[GtInstance]) -> tuple[np.ndarray, np.ndarray]:
    """(A, G) booleans: anchor center inside the target box, and inside its center region: the
    square of half-width ``center_radius`` around the target center, or 2.5 anchor strides if None."""
    cx, cy, stride = np.array([(a.cx, a.cy, a.stride) for a in anchors], dtype=float).reshape(-1, 3).T[..., None]
    targets = [(g.box.x, g.box.y, g.box.w, g.box.h, g.center_radius) for g in gts]  # None reads as nan
    x, y, w, h, r = np.array(targets, dtype=float).reshape(-1, 5).T
    r = np.where(np.isnan(r), CENTER_RADIUS_STRIDES * stride, r)
    inside = (x <= cx) & (cx <= x + w) & (y <= cy) & (cy <= y + h)
    return inside, (np.abs(cx - (x + 0.5 * w)) <= r) & (np.abs(cy - (y + 0.5 * h)) <= r)


def in_center_region(anchor: Anchor, gt: GtInstance) -> bool:
    """Square region of half-width center_radius around the target center."""
    return bool(_region_masks([anchor], [gt])[1][0, 0])


def foreground_mask(anchors: list[Anchor], gts: list[GtInstance]) -> np.ndarray:
    """(A, G) booleans: anchor center inside the target box or its center region."""
    inside, centred = _region_masks(anchors, gts)
    return inside | centred


def bce(p: float, y: float) -> float:
    """Binary cross-entropy with probability clamping for stability."""
    p = min(max(float(p), _PROB_CLAMP), 1.0 - _PROB_CLAMP)
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def iou_cost(pred: BBox, gt: BBox, eps_iou: float = AssignConfig.eps_iou) -> float:
    """-log(IoU + eps); large for poorly overlapping pairs, ~0 for perfect ones."""
    return -math.log(iou(pred, gt) + eps_iou)


def assign_cost(anchor: Anchor, gt: GtInstance, cfg: AssignConfig = AssignConfig()) -> float:
    """Matching cost: classification BCE + alpha * IoU cost + beta outside the center region."""
    return float(assign_cost_matrix([anchor], [gt], cfg)[0, 0])


def assign_cost_matrix(
    anchors: list[Anchor], gts: list[GtInstance], cfg: AssignConfig = AssignConfig()
) -> np.ndarray:
    """(A, G) ``assign_cost``."""
    return assign_tables(anchors, gts, cfg)[0]


def assign_tables(
    anchors: list[Anchor], gts: list[GtInstance], cfg: AssignConfig = AssignConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, G) ``assign_cost_matrix``, ``iou_matrix`` and ``foreground_mask``, from one IoU and region pass.

    Logs go entry by entry through ``math.log``, whose last bit np.log may miss.
    """
    ious = iou_matrix(anchors, gts)
    inside, centred = _region_masks(anchors, gts)
    cls = np.array([bce(a.pred_cls, 1.0) for a in anchors]).reshape(-1, 1)
    shifted = ious + cfg.eps_iou
    iou_term = -np.array([math.log(v) for v in shifted.ravel().tolist()]).reshape(shifted.shape)
    cost = cls + cfg.alpha * iou_term
    cost[~centred] += cfg.beta
    return cost, ious, inside | centred


def iou_matrix(anchors: list[Anchor], gts: list[GtInstance]) -> np.ndarray:
    return geometry.iou_matrix([a.pred_box for a in anchors], [g.box for g in gts])


def dynamic_k_match(
    cost: np.ndarray,
    ious: np.ndarray,
    fg: np.ndarray,
    cfg: AssignConfig = AssignConfig(),
) -> list[list[int]]:
    """Per-target positive anchor sets.

    Each target's k is round(sum of its top-q candidate IoUs) clamped to
    [1, #candidates]; it then takes its k cheapest foreground anchors. An
    anchor claimed by several targets stays with the cheapest one and the
    losers move on to their next-best candidates, so a target only ends up
    short when its candidate pool is exhausted. Targets with no foreground
    anchors receive an empty set.
    """
    A, G = cost.shape
    if ious.shape != (A, G) or fg.shape != (A, G):
        raise ValueError("cost, ious and fg must share the same (A, G) shape")

    ks: list[int] = []
    prefs: list[list[int]] = []
    for g in range(G):
        cand = np.flatnonzero(fg[:, g])
        if cand.size == 0:
            ks.append(0)
            prefs.append([])
            continue
        top = np.sort(ious[cand, g])[::-1][: cfg.q_topk]
        k = int(round(float(top.sum())))
        ks.append(max(1, min(k, cand.size)))
        order = sorted(cand.tolist(), key=lambda a: (cost[a, g], a))
        prefs.append(order)

    lost: list[set[int]] = [set() for _ in range(G)]
    while True:
        selected = [
            [a for a in prefs[g] if a not in lost[g]][: ks[g]] for g in range(G)
        ]
        claimants: dict[int, list[int]] = {}
        for g in range(G):
            for a in selected[g]:
                claimants.setdefault(a, []).append(g)
        conflicts = {a: gs for a, gs in claimants.items() if len(gs) > 1}
        if not conflicts:
            return [sorted(sel) for sel in selected]
        for a in sorted(conflicts):
            winner = min(conflicts[a], key=lambda g: (cost[a, g], g))
            for g in conflicts[a]:
                if g != winner:
                    lost[g].add(a)


@dataclass
class LabeledBatch:
    """Anchors, targets, and the positive sets tying them together."""

    anchors: list[Anchor]
    gts: list[GtInstance]
    positives: list[list[int]]  # per target, anchor indices

    def __post_init__(self):
        seen: set[int] = set()
        for a, _ in self.pairs():
            if a in seen:
                raise ValueError(f"anchor {a} assigned to more than one target")
            seen.add(a)

    @property
    def n_fg(self) -> int:
        return sum(len(sel) for sel in self.positives)

    def pairs(self):
        for g, sel in enumerate(self.positives):
            for a in sel:
                yield a, g


def loss_cls(batch: LabeledBatch) -> float:
    """Mean classification BCE over foreground anchors (single-class targets)."""
    if batch.n_fg == 0:
        return 0.0
    total = sum(bce(batch.anchors[a].pred_cls, 1.0) for a, _ in batch.pairs())
    return total / batch.n_fg


def loss_box(batch: LabeledBatch) -> float:
    """CIoU over foreground plus objectness BCE over all anchors.

    Both terms share the foreground normalizer, including the objectness
    sum that ranges over every anchor.
    """
    n = max(batch.n_fg, 1)
    fg_anchors = {a for a, _ in batch.pairs()}
    box_term = sum(
        ciou_loss(batch.anchors[a].pred_box, batch.gts[g].box) for a, g in batch.pairs()
    )
    obj_term = sum(
        bce(anc.pred_obj, 1.0 if i in fg_anchors else 0.0)
        for i, anc in enumerate(batch.anchors)
    )
    return (box_term if batch.n_fg else 0.0) / n + obj_term / n


def loss_l1(batch: LabeledBatch) -> float:
    """Mean L1 over the four box parameters of foreground anchors."""
    if batch.n_fg == 0:
        return 0.0
    total = 0.0
    for a, g in batch.pairs():
        p, t = batch.anchors[a].pred_box, batch.gts[g].box
        total += abs(p.x - t.x) + abs(p.y - t.y) + abs(p.w - t.w) + abs(p.h - t.h)
    return total / batch.n_fg


def loss_head(batch: LabeledBatch) -> float:
    """Squared keypoint error plus visibility BCE, averaged over foreground."""
    if batch.n_fg == 0:
        return 0.0
    total = 0.0
    for a, g in batch.pairs():
        kp, kt = batch.anchors[a].pred_head, batch.gts[g].head
        total += (kp.x_head - kt.x_head) ** 2 + (kp.y_head - kt.y_head) ** 2
        total += bce(kp.v_head, kt.v_head)
    return total / batch.n_fg


def loss_total(batch: LabeledBatch, use_l1: bool = False) -> float:
    total = loss_cls(batch) + loss_box(batch) + loss_head(batch)
    if use_l1:
        total += loss_l1(batch)
    return total
