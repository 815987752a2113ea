"""Bounding-box and keypoint arithmetic shared by the whole pipeline.

Boxes follow the MOTChallenge top-left + width/height convention and are
converted to corners internally where needed. All coordinates are carried
as 64-bit floats; sub-pixel positions are never quantized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALID_STRIDES = (8, 16, 32)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: (x, y) is the top-left corner, w/h the extent."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.w)
                and math.isfinite(self.h)):
            raise ValueError(f"box coordinates must be finite, got {self}")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"box extent must be positive, got w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + 0.5 * self.w

    @property
    def cy(self) -> float:
        return self.y + 0.5 * self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def aspect(self) -> float:
        """Width over height."""
        return self.w / self.h


@dataclass(frozen=True)
class HeadKeypoint:
    """Head center location plus a visibility score in [0, 1]."""

    x_head: float
    y_head: float
    v_head: float

    def __post_init__(self):
        if not (math.isfinite(self.x_head) and math.isfinite(self.y_head)):
            raise ValueError("head coordinates must be finite")
        if not 0.0 <= self.v_head <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.v_head}")


@dataclass(frozen=True)
class GridIndex:
    """Integer feature-map cell reached by floor-dividing a pixel point by the stride."""

    i: int
    j: int
    s: int


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes. Symmetric, in [0, 1].

    Areas are derived from the same corner arithmetic as the intersection
    so identical boxes score exactly 1.0.
    """
    ax2, ay2, bx2, by2 = a.x2, a.y2, b.x2, b.y2
    ix = min(ax2, bx2) - max(a.x, b.x)
    iy = min(ay2, by2) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (ax2 - a.x) * (ay2 - a.y)
    area_b = (bx2 - b.x) * (by2 - b.y)
    return inter / (area_a + area_b - inter)


def iou_matrix(boxes_a: list[BBox], boxes_b: list[BBox]) -> np.ndarray:
    """Pairwise ``iou``, shape (len(boxes_a), len(boxes_b)), with bit-identical entries."""
    ax, ay, ax2, ay2 = _corners(boxes_a)[..., None]
    bx, by, bx2, by2 = _corners(boxes_b)[:, None, :]
    ix = np.minimum(ax2, bx2) - np.maximum(ax, bx)
    iy = np.minimum(ay2, by2) - np.maximum(ay, by)
    # sides near 1e308 overflow to inf (nan after inf - inf) silently, as in ``iou``
    with np.errstate(over="ignore", invalid="ignore"):
        inter = ix * iy
        union = (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - inter
        return np.divide(inter, union, out=np.zeros(inter.shape), where=(ix > 0.0) & (iy > 0.0))


def _corners(boxes: list[BBox]) -> np.ndarray:
    """Rows x, y, x2, y2 of the boxes, shape (4, n)."""
    return np.array([(b.x, b.y, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4).T


def ciou_loss(pred: BBox, gt: BBox) -> float:
    """Complete-IoU loss between a predicted and a target box.

    1 - IoU, plus the squared center distance over the squared diagonal of
    the smallest enclosing box, plus an aspect-consistency penalty. Zero
    exactly when the boxes coincide.
    """
    overlap = iou(pred, gt)
    rho2 = (pred.cx - gt.cx) ** 2 + (pred.cy - gt.cy) ** 2
    cw = max(pred.x2, gt.x2) - min(pred.x, gt.x)
    ch = max(pred.y2, gt.y2) - min(pred.y, gt.y)
    diag2 = cw * cw + ch * ch
    v = (4.0 / math.pi**2) * (math.atan(gt.aspect) - math.atan(pred.aspect)) ** 2
    # trade-off weight; v == 0 makes the whole aspect term vanish
    alpha = v / ((1.0 - overlap) + v) if v > 0.0 else 0.0
    return (1.0 - overlap) + rho2 / diag2 + alpha * v


def grid_map(x_c: float, y_c: float, s: int) -> GridIndex:
    """Project a pixel point onto the feature-map grid of stride ``s``."""
    if s not in VALID_STRIDES:
        raise ValueError(f"stride must be one of {VALID_STRIDES}, got {s}")
    if x_c < 0.0 or y_c < 0.0:
        raise ValueError(f"grid mapping needs non-negative coordinates, got ({x_c}, {y_c})")
    return GridIndex(int(x_c // s), int(y_c // s), s)


def gaussian_weight(p: tuple[float, float], center: HeadKeypoint, sigma: float) -> float:
    """Isotropic Gaussian falloff of point ``p`` around the head keypoint.

    Returns exp(-d^2 / (2 sigma^2)); equals 1 at the head point itself.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    dx = p[0] - center.x_head
    dy = p[1] - center.y_head
    return math.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
