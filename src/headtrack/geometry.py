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


def bad_boxes(box: np.ndarray) -> np.ndarray:
    """Mask of the rows of an n x 4 box array that a BBox rejects: non-finite or non-positive extent."""
    return ~(np.isfinite(box).all(axis=1) & (box[:, 2] > 0.0) & (box[:, 3] > 0.0))


def check_boxes(boxes: np.ndarray) -> None:
    """Raise the BBox error of the first row that is not a valid box."""
    bad = bad_boxes(boxes)
    if bad.any():
        BBox(*boxes[bad.argmax()].tolist())


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


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise ``iou`` of (n, 4) and (m, 4) x, y, w, h arrays, shape (n, m), with bit-identical entries."""
    a = np.asarray(boxes_a, dtype=float).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=float).reshape(-1, 4)
    return iou_pairs(a[:, None, :], b[None, :, :])


def iou_pairs(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """``iou`` of each pair of boxes in two float x, y, w, h arrays whose last axis is 4 and
    whose other axes broadcast, with bit-identical entries."""
    ax, ay, aw, ah = np.moveaxis(boxes_a, -1, 0)
    bx, by, bw, bh = np.moveaxis(boxes_b, -1, 0)
    # sides near 1e308 overflow to inf (nan after inf - inf) silently, as in ``iou``
    with np.errstate(over="ignore", invalid="ignore"):
        ax2, ay2, bx2, by2 = ax + aw, ay + ah, bx + bw, by + bh
        ix = np.minimum(ax2, bx2) - np.maximum(ax, bx)
        iy = np.minimum(ay2, by2) - np.maximum(ay, by)
        inter = ix * iy
        union = (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - inter
        return np.divide(inter, union, out=np.zeros(inter.shape), where=(ix > 0.0) & (iy > 0.0))


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
