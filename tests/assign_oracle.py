"""Pair-at-a-time label assignment, kept as a test oracle.

These are the foreground mask and matching costs of
``headtrack.label_assign.assign_tables``, one anchor and one target at a
time. The tests hold its (A, G) arrays to the same matrices, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from headtrack.config import RunConfig
from headtrack.geometry import BBox, iou
from headtrack.label_assign import CENTER_RADIUS_STRIDES, Anchor, GtInstance, bce


def _center_radius(anchor: Anchor, gt: GtInstance) -> float:
    if gt.center_radius is not None:
        return gt.center_radius
    return CENTER_RADIUS_STRIDES * anchor.stride


def in_box(anchor: Anchor, gt: GtInstance) -> bool:
    b = gt.box
    return b.x <= anchor.cx <= b.x2 and b.y <= anchor.cy <= b.y2


def in_center_region(anchor: Anchor, gt: GtInstance) -> bool:
    r = _center_radius(anchor, gt)
    return abs(anchor.cx - gt.box.cx) <= r and abs(anchor.cy - gt.box.cy) <= r


def foreground_mask(anchors: list[Anchor], gts: list[GtInstance]) -> np.ndarray:
    mask = np.zeros((len(anchors), len(gts)), dtype=bool)
    for i, a in enumerate(anchors):
        for j, g in enumerate(gts):
            mask[i, j] = in_box(a, g) or in_center_region(a, g)
    return mask


def iou_cost(pred: BBox, gt: BBox, eps_iou: float) -> float:
    return -math.log(iou(pred, gt) + eps_iou)


def assign_cost(anchor: Anchor, gt: GtInstance, cfg: RunConfig) -> float:
    cost = bce(anchor.pred_cls, 1.0) + cfg.alpha * iou_cost(anchor.pred_box, gt.box, cfg.eps_iou)
    if not in_center_region(anchor, gt):
        cost += cfg.beta
    return cost


def assign_cost_matrix(anchors: list[Anchor], gts: list[GtInstance], cfg: RunConfig) -> np.ndarray:
    cost = np.empty((len(anchors), len(gts)))
    for i, a in enumerate(anchors):
        for j, g in enumerate(gts):
            cost[i, j] = assign_cost(a, g, cfg)
    return cost
