"""Per-frame track lifecycle over whole-array track state.

One Tracker owns one sequence; its live tracks are array rows. Each frame
predicts every row, associates, corrects the matched rows with the
closed-form Kalman update (the (u, v, a, h) measurement is linear, so
``kalman.iterated_update`` would stop after one pass) and blends their
descriptors. A row that turns non-finite is a diverged filter: only that
track is removed. Unmatched tracks coast on prediction and are eliminated
after ``patience_w`` consecutive misses; tracks are emitted from ``min_hits`` matches.
A live track is only its row, id included; its status is read from the row,
not stored. ``step``'s emissions are the only output: a track keeps no boxes,
and a detection no frame (it is the frame of the ``step`` it is passed to).
A frame's detections arrive as one Detections batch of columns, and its
emissions leave as Emissions columns; iterating a batch yields its rows as
``rows.Detection``, and iterating emissions yields (id, BBox) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

import numpy as np

from . import kalman
from .association import build_cost_matrix, row_norms, solve_assignment
from .config import FEATURE_KINDS, TrackerConfig
from .geometry import BBox, check_boxes

if TYPE_CHECKING:  # the row view, loaded where a batch is iterated
    from .rows import Detection

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
REMOVED = "removed"


@dataclass(frozen=True, eq=False)  # columns compare and hash by identity, as MotTable does
class Detections:
    """One frame's detections as columns, in the order ``step`` matches them.

    ``boxes`` is (D, 4) x, y, w, h and ``scores`` (D,), both float64; ``feats``
    maps kinds to (D x d matrix, D presence mask), a row without the kind
    zero. The values are checked where the batch is made:
    ``dataio.split_frames`` checks its rows as a Detection checks itself.
    """

    boxes: np.ndarray
    scores: np.ndarray
    feats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[Detection]:  # kept for perfbench/test_perfbench.py, which reads rows through it
        """Each row as a ``rows.Detection``, its descriptor the kinds present in that row, or None."""
        from .rows import AppearanceDescriptor, Detection
        kinds = [(kind, m, has.tolist()) for kind, (m, has) in self.feats.items()]
        for j, (box, score) in enumerate(zip(self.boxes.tolist(), self.scores.tolist())):
            vectors = {kind: m[j] for kind, m, has in kinds if has[j]}
            yield Detection(BBox(*box), score, AppearanceDescriptor(**vectors) if vectors else None)


_NO_DETECTIONS = Detections(np.zeros((0, 4)), np.zeros(0))


@dataclass(frozen=True, eq=False)
class Emissions:
    """One frame's emitted tracks as columns: (E,) ``ids`` in id order and their (E, 4) x, y, w, h ``boxes``."""

    ids: np.ndarray
    boxes: np.ndarray

    def __iter__(self) -> Iterator[tuple[int, BBox]]:  # kept for perfbench/run.py, which reads rows through it
        return zip(self.ids.tolist(), map(BBox, *self.boxes.T.tolist()))


class Track(NamedTuple):
    """One identity and the status its Tracker row gives it."""

    id: int
    status: str


def measurements(boxes: np.ndarray) -> np.ndarray:
    """(D, 4) observations (u, v, a, h) of (D, 4) boxes (x, y, w, h): centre, aspect w / h, height."""
    z = np.array(boxes, dtype=float)
    z[:, :2] += 0.5 * z[:, 2:]
    z[:, 2] = z[:, 2] / z[:, 3]
    return z


def boxes_from_states(x: np.ndarray) -> np.ndarray:
    """(N, 4) boxes of (N, 8) states, checked as a BBox checks one; degenerate aspect/height are floored."""
    wh = np.maximum(x[:, 2:4], 1e-6)  # aspect and height
    wh[:, 0] *= wh[:, 1]
    boxes = np.concatenate([x[:, :2] - 0.5 * wh, wh], axis=1)
    if not np.isfinite(boxes).all():  # the extents are floored positive: only a non-finite box fails
        check_boxes(boxes)
    return boxes


class Tracker:
    """Stateful per-sequence tracker. Use one instance per sequence.

    Each live track is one row, in id order, of its ``ids``, the states ``x``
    (N x 8), their covariances ``pcv`` (N x 3, see ``kalman.predict_rows``),
    ``hits``, ``misses`` and ``feats`` (weighted kind -> (N x d matrix, zero
    where absent; N mask)). ``spawned`` is the last id handed out.
    """

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        self.ids, self.spawned = np.zeros(0, dtype=int), 0
        self.x, self.pcv = np.zeros((0, kalman.STATE_DIM)), np.zeros((0, 3))
        self.hits, self.misses = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        self.feats: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._weights = dict(zip(FEATURE_KINDS, cfg.assoc.feature_weights))
        self._last_frame: Optional[int] = None

    @property
    def tracks(self) -> list[Track]:  # kept for perfbench/trace_cli.py, which counts statuses through it
        """Every track spawned so far, in id order: removed once it has no row, confirmed from ``min_hits`` hits."""
        live = dict(zip(self.ids.tolist(), np.where(self.hits >= self.cfg.min_hits, CONFIRMED, TENTATIVE).tolist()))
        return [Track(k, live.get(k, REMOVED)) for k in range(1, self.spawned + 1)]

    @np.errstate(invalid="ignore", over="ignore")  # a row that overflows turns non-finite: predict removes it
    def step(self, frame: int, detections: Detections) -> Emissions:
        """Advance one frame and return its emissions.

        ``detections`` is the frame's batch; an empty list or tuple is a frame
        without detections, and any other input raises TypeError. Frames must
        be strictly increasing across calls. A track is confirmed and emitted
        from ``min_hits`` matches on: with its detection's box when it has
        one this frame, else with its predicted box, and then only with
        ``emit_predictions``. Emissions are in id order.
        """
        if not isinstance(detections, Detections):
            if not (isinstance(detections, (list, tuple)) and not detections):
                raise TypeError(f"detections must be a Detections batch, got {type(detections).__name__}")
            detections = _NO_DETECTIONS
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing (got {frame} after {self._last_frame})"
            )
        self._last_frame = frame
        if not (len(self.ids) or len(detections)):  # nothing to predict, match or spawn
            return Emissions(np.zeros(0, dtype=int), np.zeros((0, 4)))
        cfg = self.cfg

        self.x, self.pcv = kalman.predict_rows(self.x, self.pcv, cfg.noise)
        if not math.isfinite(self.x.sum() + self.pcv.sum()):  # a finite sum has finite terms only
            self._keep(np.isfinite(self.x).all(axis=1) & np.isfinite(self.pcv).all(axis=1))

        z = measurements(detections.boxes)
        det_feats = {kind: f for kind, f in detections.feats.items() if self._weights[kind]}
        cost = build_cost_matrix(self.x[:, :2], self.feats, z[:, :2], det_feats, cfg.assoc)
        rows, cols = solve_assignment(cost).T

        if rows.size:
            self.x[rows], self.pcv[rows] = kalman.update_rows(self.x[rows], self.pcv[rows], z[cols], cfg.noise)
        self._blend(rows, det_feats, cols)
        self.misses += 1
        self.misses[rows] = 0
        self.hits[rows] += 1

        det = np.full(len(self.ids), -1)  # each row's detection this frame, -1 for none
        det[rows] = cols
        fresh = detections.scores >= cfg.init_score_min
        fresh[cols] = False
        if np.count_nonzero(fresh):
            new = np.flatnonzero(fresh)
            self._spawn(new, z, det_feats)
            det = np.concatenate([det, new])

        seen = det >= 0  # with emit_predictions, a row that is not seen shows until it ages out
        emit = (self.hits >= cfg.min_hits) & ((seen | (self.misses < cfg.patience_w)) if cfg.emit_predictions else seen)
        j = det[emit]
        coast = j < 0
        boxes = detections.boxes[j] if len(detections) else np.empty((len(j), 4))  # coasting rows are filled in next
        if coast.any():  # only coasting rows build a box from their state
            boxes[coast] = boxes_from_states(self.x[emit][coast])
        out = Emissions(self.ids[emit], boxes)
        self._keep(self.misses < cfg.patience_w)
        return out

    # -- internals ---------------------------------------------------------

    def _keep(self, keep: np.ndarray) -> None:
        """Remove the live rows where ``keep`` is False."""
        if np.count_nonzero(keep) == len(keep):
            return
        self.ids, self.x, self.pcv = self.ids[keep], self.x[keep], self.pcv[keep]
        self.hits, self.misses = self.hits[keep], self.misses[keep]
        self.feats = {kind: (m[keep], has[keep]) for kind, (m, has) in self.feats.items()}

    def _blend(self, rows: np.ndarray, det_feats: dict, cols: np.ndarray) -> None:
        """Renormalized per-kind EMA of matched descriptors; a lacking side takes the other's."""
        mom, n = self.cfg.descriptor_momentum, len(self.ids)
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
        self.ids = np.append(self.ids, np.arange(self.spawned + 1, self.spawned + 1 + len(fresh)))
        self.spawned += len(fresh)
        x, pcv = kalman.initiate_rows(z[fresh], self.cfg.noise)
        self.x, self.pcv = np.vstack([self.x, x]), np.vstack([self.pcv, pcv])
        self.hits = np.append(self.hits, np.ones(len(fresh), dtype=int))
        self.misses = np.append(self.misses, np.zeros(len(fresh), dtype=int))
