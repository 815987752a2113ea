"""Per-frame track lifecycle over whole-array track state.

One Tracker owns one sequence; its live tracks are array rows. Each frame
predicts every row, associates, corrects the matched rows with the
closed-form Kalman update (the (u, v, a, h) measurement is linear, so
``kalman.iterated_update`` would stop after one pass) and blends their
descriptors. A row that turns non-finite is a diverged filter: only that
track is removed. Unmatched tracks coast on prediction and are eliminated
after ``patience_w`` consecutive misses; tracks are emitted from ``min_hits`` matches.
The emissions of ``step`` are the only output: a track keeps no boxes, and
a detection no frame (it is the frame of the ``step`` it is passed to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kalman
from .association import AppearanceDescriptor, AssociationConfig, build_cost_matrix
from .association import solve_assignment, stack_descriptors
from .geometry import BBox, HeadKeypoint

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
REMOVED = "removed"


@dataclass(frozen=True)
class Detection:
    """One observation of the frame it is handed to ``Tracker.step`` with."""

    bbox: BBox
    score: float
    head: Optional[HeadKeypoint] = None
    descriptor: Optional[AppearanceDescriptor] = None

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError("detection score must be finite")


@dataclass
class Track:
    """One identity; while live, its filter is a Tracker row."""

    id: int
    status: str = TENTATIVE


@dataclass(frozen=True)
class TrackerConfig:
    patience_w: int = 30
    init_score_min: float = 0.25
    min_hits: int = 3
    emit_predictions: bool = False
    descriptor_momentum: float = 0.9
    assoc: AssociationConfig = field(default_factory=AssociationConfig)
    noise: kalman.KalmanConfig = field(default_factory=kalman.KalmanConfig)

    def __post_init__(self):
        if self.patience_w < 1:
            raise ValueError(f"patience_w must be >= 1, got {self.patience_w}")
        if self.min_hits < 1:
            raise ValueError(f"min_hits must be >= 1, got {self.min_hits}")
        if not 0.0 <= self.descriptor_momentum < 1.0:
            raise ValueError("descriptor_momentum must lie in [0, 1)")


def measurement_from_bbox(bbox: BBox) -> np.ndarray:
    """(u, v, a, h) observation vector for the filter."""
    return np.array([bbox.cx, bbox.cy, bbox.aspect, bbox.h])


def bbox_from_state(x: np.ndarray) -> BBox:
    """Invert the measurement mapping; degenerate aspect/height are floored."""
    a = max(float(x[2]), 1e-6)
    h = max(float(x[3]), 1e-6)
    w = a * h
    return BBox(x=float(x[0]) - 0.5 * w, y=float(x[1]) - 0.5 * h, w=w, h=h)


class Tracker:
    """Stateful per-sequence tracker. Use one instance per sequence.

    ``tracks`` holds every track ever spawned; ``live`` the ones not removed,
    in id order, aligned with the rows of the states ``x`` (N x 8), their
    covariances ``pcv`` (N x 3, see ``kalman.predict_rows``), ``hits``, ``misses``
    and ``feats`` (weighted kind -> (N x d matrix, zero where absent; N mask)).
    """

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self.live: list[Track] = []
        self.x, self.pcv = np.zeros((0, kalman.STATE_DIM)), np.zeros((0, 3))
        self.hits, self.misses = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        self.feats: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._next_id = 1
        self._last_frame: Optional[int] = None

    def step(self, frame: int, detections: list[Detection]) -> list[tuple[int, BBox]]:
        """Advance one frame and return (track_id, bbox) emissions.

        Frames must be strictly increasing across calls. Only confirmed
        tracks are emitted, and coasting (unmatched) tracks only with
        ``emit_predictions``.
        """
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing (got {frame} after {self._last_frame})"
            )
        self._last_frame = frame
        if not (self.live or detections):  # nothing to predict, match or spawn
            return []
        cfg = self.cfg

        with np.errstate(invalid="ignore", over="ignore"):
            self.x, self.pcv = kalman.predict_rows(self.x, self.pcv, cfg.noise)
        self._keep(np.isfinite(self.x).all(axis=1) & np.isfinite(self.pcv).all(axis=1))

        z = np.array([measurement_from_bbox(d.bbox) for d in detections]).reshape(-1, 4)
        det_feats = stack_descriptors([d.descriptor for d in detections], cfg.assoc)
        cost = build_cost_matrix(self.x[:, :2], self.feats, z[:, :2], det_feats, cfg.assoc)
        rows, cols = np.array(solve_assignment(cost), dtype=int).reshape(-1, 2).T
        matched = dict(zip(rows.tolist(), cols.tolist()))

        if matched:
            x, pcv = kalman.update_rows(self.x[rows], self.pcv[rows], z[cols], cfg.noise)
            self.x[rows], self.pcv[rows] = x, pcv
        self._blend(rows, det_feats, cols)
        self.misses += 1
        self.misses[rows] = 0
        self.hits[rows] += 1
        for i in rows[self.hits[rows] == cfg.min_hits].tolist():
            self.live[i].status = CONFIRMED

        out = []
        for i in np.flatnonzero(self.hits >= cfg.min_hits).tolist():
            if i in matched:
                out.append((self.live[i].id, detections[matched[i]].bbox))
            elif cfg.emit_predictions and self.misses[i] < cfg.patience_w:
                out.append((self.live[i].id, bbox_from_state(self.x[i])))
        self._keep(self.misses < cfg.patience_w)

        fresh = np.array([d.score >= cfg.init_score_min for d in detections], dtype=bool)
        fresh[cols] = False
        if fresh.any():
            new = np.flatnonzero(fresh)
            born = self._spawn(new, z, det_feats)
            out += [(t.id, detections[j].bbox) for t, j in zip(born, new) if t.status == CONFIRMED]
        return out

    # -- internals ---------------------------------------------------------

    def _keep(self, keep: np.ndarray) -> None:
        """Remove the live rows where ``keep`` is False."""
        if keep.all():
            return
        for i in np.flatnonzero(~keep).tolist():
            self.live[i].status = REMOVED
        self.live = [t for t, k in zip(self.live, keep.tolist()) if k]
        self.x, self.pcv = self.x[keep], self.pcv[keep]
        self.hits, self.misses = self.hits[keep], self.misses[keep]
        self.feats = {kind: (m[keep], has[keep]) for kind, (m, has) in self.feats.items()}

    def _blend(self, rows: np.ndarray, det_feats: dict, cols: np.ndarray) -> None:
        """Renormalized per-kind EMA of matched descriptors; a lacking side takes the other's."""
        mom, n = self.cfg.descriptor_momentum, len(self.live)
        for kind, (q, has_q) in det_feats.items():
            m, has = self.feats.get(kind, (None, None))
            if m is None or (m.shape[1] != q.shape[1] and not has.any()):  # take q's dimension
                m, has = self.feats[kind] = (np.zeros((n, q.shape[1])), np.zeros(n, dtype=bool))
            a, b, new = m[rows], q[cols], has_q[cols]
            v = mom * a + (1.0 - mom) * b
            norm = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]  # row by row, as np.linalg.norm
            # antipodal vectors can cancel; keep the fresher observation then
            mixed = np.where(norm < 1e-9, b, v / np.maximum(norm, 1e-9))
            m[rows] = np.where((has[rows] & new)[:, None], mixed, np.where(new[:, None], b, a))
            has[rows] |= new

    def _spawn(self, fresh, z, det_feats) -> list[Track]:
        """Start one track per detection index in ``fresh``; ``z`` holds all measurements."""
        for kind, (m, has) in list(self.feats.items()):
            q, has_q = det_feats.get(kind, (np.zeros((len(z), m.shape[1])), np.zeros(len(z), bool)))
            self.feats[kind] = (np.vstack([m, q[fresh]]), np.concatenate([has, has_q[fresh]]))
        status = CONFIRMED if self.cfg.min_hits <= 1 else TENTATIVE
        ids = range(self._next_id, self._next_id + len(fresh))
        born = [Track(i, status) for i in ids]
        self._next_id = ids.stop
        self.tracks += born
        self.live += born
        x, pcv = kalman.initiate_rows(z[fresh], self.cfg.noise)
        self.x, self.pcv = np.vstack([self.x, x]), np.vstack([self.pcv, pcv])
        self.hits = np.append(self.hits, np.ones(len(born), dtype=int))
        self.misses = np.append(self.misses, np.zeros(len(born), dtype=int))
        return born
