"""Bounding-box arithmetic and row norms shared by the whole pipeline.

Boxes follow the MOTChallenge top-left + width/height convention and are
converted to corners internally where needed. All coordinates are carried
as 64-bit floats; sub-pixel positions are never quantized. Descriptor rows
are unit vectors, which ``row_norms`` checks and renormalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-6  # how far a unit vector's norm may be from 1


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``m``, bit for bit as np.linalg.norm of that row."""
    return np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0, 0]


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
