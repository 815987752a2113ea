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
A frame's detections arrive as one Detections batch of columns, or as a
list of Detection, which ``step`` stacks into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import kalman
from .association import AppearanceDescriptor, build_cost_matrix, row_norms, solve_assignment, stack_descriptors
from .config import FEATURE_KINDS, AssociationConfig, TrackerConfig
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


@dataclass(frozen=True)
class Detections:
    """One frame's detections as columns, in the order ``step`` matches them.

    ``boxes`` is (D, 4) x, y, w, h and ``scores`` (D,), both float64; ``feats``
    maps kinds to (D x d matrix, D presence mask) as ``stack_descriptors``
    gives them. The values are checked where the batch is made:
    ``dataio.split_frames`` checks its rows as a Detection checks itself.
    """

    boxes: np.ndarray
    scores: np.ndarray
    feats: dict = field(default_factory=dict)

    @classmethod
    def stack(cls, detections: list[Detection], cfg: AssociationConfig) -> Detections:
        """The batch of a list of Detection, features stacked by ``stack_descriptors``."""
        boxes = [(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in detections]
        return cls(
            np.array(boxes, dtype=float).reshape(-1, 4),
            np.array([d.score for d in detections], dtype=float),
            stack_descriptors([d.descriptor for d in detections], cfg),
        )

    def __len__(self) -> int:
        return len(self.scores)


@dataclass
class Track:
    """One identity; while live, its filter is a Tracker row."""

    id: int
    status: str = TENTATIVE


def measurements(boxes: np.ndarray) -> np.ndarray:
    """(D, 4) observations (u, v, a, h) of (D, 4) boxes (x, y, w, h): centre, aspect w / h, height."""
    z = np.array(boxes, dtype=float)
    z[:, :2] += 0.5 * z[:, 2:]
    z[:, 2] = z[:, 2] / z[:, 3]
    return z


def measurement_from_bbox(bbox: BBox) -> np.ndarray:
    """(u, v, a, h) observation vector for the filter."""
    return measurements([[bbox.x, bbox.y, bbox.w, bbox.h]])[0]


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
        self._weights = dict(zip(FEATURE_KINDS, cfg.assoc.feature_weights))
        self._last_frame: Optional[int] = None

    @np.errstate(invalid="ignore", over="ignore")  # a row that overflows turns non-finite: predict removes it
    def step(self, frame: int, detections: Union[Detections, list[Detection]]) -> list[tuple[int, BBox]]:
        """Advance one frame and return (track_id, bbox) emissions.

        Frames must be strictly increasing across calls. A track is confirmed
        and emitted from ``min_hits`` matches on: with its detection's box
        when it has one this frame (a listed Detection's own ``bbox``), else
        with its predicted box, and then only with ``emit_predictions``.
        Emissions are in id order.
        """
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing (got {frame} after {self._last_frame})"
            )
        self._last_frame = frame
        if not (self.live or len(detections)):  # nothing to predict, match or spawn
            return []
        cfg = self.cfg
        listed = None if isinstance(detections, Detections) else detections
        batch = Detections.stack(listed, cfg.assoc) if listed is not None else detections

        self.x, self.pcv = kalman.predict_rows(self.x, self.pcv, cfg.noise)
        if not math.isfinite(self.x.sum() + self.pcv.sum()):  # a finite sum has finite terms only
            self._keep(np.isfinite(self.x).all(axis=1) & np.isfinite(self.pcv).all(axis=1))

        z = measurements(batch.boxes)
        det_feats = {kind: f for kind, f in batch.feats.items() if self._weights[kind]}
        cost = build_cost_matrix(self.x[:, :2], self.feats, z[:, :2], det_feats, cfg.assoc)
        rows, cols = solve_assignment(cost).T

        if rows.size:
            self.x[rows], self.pcv[rows] = kalman.update_rows(self.x[rows], self.pcv[rows], z[cols], cfg.noise)
        self._blend(rows, det_feats, cols)
        self.misses += 1
        self.misses[rows] = 0
        self.hits[rows] += 1

        det = np.full(len(self.live), -1)  # each row's detection this frame, -1 for none
        det[rows] = cols
        fresh = batch.scores >= cfg.init_score_min
        fresh[cols] = False
        if np.count_nonzero(fresh):
            new = np.flatnonzero(fresh)
            self._spawn(new, z, det_feats)
            det = np.concatenate([det, new])

        out = []
        emit = np.flatnonzero(self.hits >= cfg.min_hits)
        xywh = batch.boxes.tolist() if listed is None else None
        for i, j in zip(emit.tolist(), det[emit].tolist()):
            if j >= 0:
                self.live[i].status = CONFIRMED
                out.append((self.live[i].id, listed[j].bbox if xywh is None else BBox(*xywh[j])))
            elif cfg.emit_predictions and self.misses[i] < cfg.patience_w:
                out.append((self.live[i].id, bbox_from_state(self.x[i])))
        self._keep(self.misses < cfg.patience_w)
        return out

    # -- internals ---------------------------------------------------------

    def _keep(self, keep: np.ndarray) -> None:
        """Remove the live rows where ``keep`` is False."""
        if np.count_nonzero(keep) == len(keep):
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
            if not rows.size:
                continue
            a, b, new = m[rows], q[cols], has_q[cols]
            v = mom * a + (1.0 - mom) * b
            norm = row_norms(v)[:, None]
            both = has[rows] & new
            if np.count_nonzero(both) == len(both) and norm.min() >= 1e-9:  # every row blends, and none cancels
                m[rows] = v / norm
                continue
            # antipodal vectors can cancel; keep the fresher observation then
            mixed = np.where(norm < 1e-9, b, v / np.maximum(norm, 1e-9))
            m[rows] = np.where(both[:, None], mixed, np.where(new[:, None], b, a))
            has[rows] |= new

    def _spawn(self, fresh, z, det_feats) -> None:
        """Start one track per detection index in ``fresh``; ``z`` holds all measurements."""
        for kind, (m, has) in list(self.feats.items()):
            q, has_q = det_feats.get(kind, (np.zeros((len(z), m.shape[1])), np.zeros(len(z), bool)))
            self.feats[kind] = (np.vstack([m, q[fresh]]), np.concatenate([has, has_q[fresh]]))
        born = [Track(len(self.tracks) + k) for k in range(1, len(fresh) + 1)]
        self.tracks += born
        self.live += born
        x, pcv = kalman.initiate_rows(z[fresh], self.cfg.noise)
        self.x, self.pcv = np.vstack([self.x, x]), np.vstack([self.pcv, pcv])
        self.hits = np.append(self.hits, np.ones(len(born), dtype=int))
        self.misses = np.append(self.misses, np.zeros(len(born), dtype=int))
