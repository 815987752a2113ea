"""Anchor matching for ``assign``, as standalone functions.

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

from .config import RunConfig
from .geometry import BBox, iou_matrix
from .head import HeadKeypoint

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
        _check_span(self.pred_box)


@dataclass(frozen=True)
class GtInstance:
    box: BBox
    head: HeadKeypoint
    center_radius: Optional[float] = None  # None: 2.5 x the anchor's stride

    def __post_init__(self):
        if not (self.center_radius is None or _finite(self.center_radius) and self.center_radius >= 0):
            raise ValueError(f"center_radius must be None or a finite number >= 0, got {self.center_radius!r}")
        _check_span(self.box)


def _check_span(box: BBox) -> None:
    """Raise ValueError unless the far corner and the area of ``box``, which the IoU and region sums take, are finite."""
    if not (math.isfinite(box.x2) and math.isfinite(box.y2) and math.isfinite(box.area)):
        raise ValueError(f"box far corner and area must be finite, got {box}")


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
    inside = (x <= cx) & (cx <= x + w) & (y <= cy) & (cy <= y + h)
    # a radius or centre distance past the float limit is inf, as in scalar float arithmetic
    with np.errstate(over="ignore"):
        r = np.where(np.isnan(r), CENTER_RADIUS_STRIDES * stride, r)
        return inside, (np.abs(cx - (x + 0.5 * w)) <= r) & (np.abs(cy - (y + 0.5 * h)) <= r)


def bce(p: float, y: float) -> float:
    """Binary cross-entropy with probability clamping for stability."""
    p = min(max(float(p), _PROB_CLAMP), 1.0 - _PROB_CLAMP)
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def assign_tables(
    anchors: list[Anchor], gts: list[GtInstance], cfg: RunConfig = RunConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, G) matching costs, ``iou_matrix`` and foreground mask, from one IoU and region pass.

    Cost: classification BCE + alpha * -log(IoU + eps), + beta outside the center region.
    Foreground: the anchor center lies in the target box or its center region. Logs go
    entry by entry through ``math.log``, whose last bit np.log may miss.
    """
    ious = iou_matrix(
        [(a.pred_box.x, a.pred_box.y, a.pred_box.w, a.pred_box.h) for a in anchors],
        [(g.box.x, g.box.y, g.box.w, g.box.h) for g in gts],
    )
    inside, centred = _region_masks(anchors, gts)
    cls = np.array([bce(a.pred_cls, 1.0) for a in anchors]).reshape(-1, 1)
    shifted = ious + cfg.eps_iou
    iou_term = -np.array([math.log(v) for v in shifted.ravel().tolist()]).reshape(shifted.shape)
    cost = cls + cfg.alpha * iou_term
    cost[~centred] += cfg.beta
    return cost, ious, inside | centred


def dynamic_k_match(
    cost: np.ndarray,
    ious: np.ndarray,
    fg: np.ndarray,
    cfg: RunConfig = RunConfig(),
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

