"""Head keypoints and head-centred weighting.

``assign`` reads a head keypoint per anchor and per target, and
``dataio.split_frames`` builds one only when a row's head fails its
checks, to raise the error a HeadKeypoint gives. Grid mapping, the
Gaussian falloff and the head-weighted descriptor are library functions
that no verb runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALID_STRIDES = (8, 16, 32)


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


def gaussian_weighted_descriptor(
    cell_centers: np.ndarray,
    cell_features: np.ndarray,
    head: HeadKeypoint,
    sigma: float,
) -> np.ndarray:
    """Reweight a feature-map patch around the head keypoint.

    ``cell_centers`` is (N, 2) in pixel space and ``cell_features`` (N, C).
    Each cell's features are scaled by the Gaussian falloff of its center
    from the head point, then flattened and renormalized to a unit vector
    (the head-weighted replacement for the raw regression feature).
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    centers = np.asarray(cell_centers, dtype=float).reshape(-1, 2)
    feats = np.asarray(cell_features, dtype=float)
    if feats.shape[0] != centers.shape[0]:
        raise ValueError("one feature row per cell required")
    d2 = np.sum((centers - [head.x_head, head.y_head]) ** 2, axis=1)
    w = np.exp(-d2 / (2.0 * sigma * sigma))
    flat = (feats * w[:, None]).reshape(-1)
    n = float(np.linalg.norm(flat))
    if n <= 0.0:
        raise ValueError("weighting produced a zero vector (head too far from the patch)")
    return flat / n
