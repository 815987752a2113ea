"""Row views of the column forms: one MOT line, one detection, one descriptor.

No verb builds them. Iterating a ``dataio.MotTable`` yields MotLine rows,
and iterating a ``tracker.Detections`` batch yields Detection rows, each
with its AppearanceDescriptor; those iterators load this module when they
run, and so does ``dataio.split_frames`` when a row fails its checks, to
raise the error a Detection gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .association import UNIT_NORM_TOL
from .config import FEATURE_KINDS
from .geometry import BBox


@dataclass(frozen=True)
class MotLine:
    """One row of a MotTable."""

    frame: int
    id: int
    box: BBox
    conf: float = 1.0
    extra: tuple[float, float, float] = (-1.0, -1.0, -1.0)
    lineno: int = field(default=0, compare=False, repr=False)  # 1-based; 0 if not parsed

    def bbox(self) -> BBox:  # kept for perfbench/test_perfbench.py, which reads rows through it
        return self.box


def _as_unit(v, kind: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{kind} must be a 1-d vector")
    n = math.sqrt(v @ v)  # bit for bit as np.linalg.norm of a 1-d vector
    if not abs(n - 1.0) <= UNIT_NORM_TOL:  # also rejects a NaN norm
        raise ValueError(f"{kind} must be unit-norm (got |v| = {n})")
    return v


@dataclass(frozen=True, eq=False)  # vectors compare and hash by identity
class AppearanceDescriptor:
    """Unit-norm feature vectors from the detector's output branches.

    Any subset of the three kinds may be present; comparisons only use
    kinds present on both sides.
    """

    f_cls: Optional[np.ndarray] = None
    f_reg: Optional[np.ndarray] = None
    f_head: Optional[np.ndarray] = None

    def __post_init__(self):
        for kind in FEATURE_KINDS:
            v = getattr(self, kind)
            if v is not None:
                object.__setattr__(self, kind, _as_unit(v, kind))
        if all(getattr(self, k) is None for k in FEATURE_KINDS):
            raise ValueError("descriptor needs at least one feature kind")


@dataclass(frozen=True)
class Detection:
    """One row of a Detections batch."""

    bbox: BBox
    score: float
    descriptor: Optional[AppearanceDescriptor] = None

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError("detection score must be finite")
