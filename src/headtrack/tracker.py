"""Per-frame track lifecycle: predict, associate, spawn, age out.

One Tracker instance owns one sequence. Matched tracks are corrected with
the closed-form Kalman update: the (u, v, a, h) measurement is linear in
the state, so ``kalman.iterated_update``, the routine for nonlinear
measurement functions, would stop after one pass with the same result.
Unmatched tracks coast on prediction and are eliminated after
``patience_w`` consecutive misses. New tracks start tentative and are
only emitted once they have accumulated ``min_hits`` matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import kalman
from .association import (
    AppearanceDescriptor,
    AssociationConfig,
    FEATURE_KINDS,
    build_cost_matrix,
    solve_assignment,
)
from .geometry import BBox, HeadKeypoint

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
REMOVED = "removed"

_JITTER = 1e-9


@dataclass(frozen=True)
class Detection:
    """One per-frame observation handed to the tracker."""

    frame: int
    bbox: BBox
    score: float
    head: Optional[HeadKeypoint] = None
    descriptor: Optional[AppearanceDescriptor] = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not np.isfinite(self.score):
            raise ValueError("detection score must be finite")


@dataclass
class Track:
    id: int
    kf: kalman.KalmanState
    descriptor: Optional[AppearanceDescriptor]
    miss_count: int = 0
    hit_count: int = 1
    status: str = TENTATIVE
    history: list[tuple[int, BBox]] = field(default_factory=list)


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


def _ema_descriptor(
    old: Optional[AppearanceDescriptor],
    new: Optional[AppearanceDescriptor],
    momentum: float,
) -> Optional[AppearanceDescriptor]:
    """Blend matched descriptors per feature kind and renormalize."""
    if new is None:
        return old
    if old is None:
        return new
    merged = {}
    for kind in FEATURE_KINDS:
        a = getattr(old, kind)
        b = getattr(new, kind)
        if a is None and b is None:
            continue
        if a is None:
            merged[kind] = b
        elif b is None:
            merged[kind] = a
        else:
            v = momentum * a + (1.0 - momentum) * b
            n = float(np.linalg.norm(v))
            # antipodal vectors can cancel; keep the fresher observation then
            merged[kind] = b if n < 1e-9 else v / n
    return AppearanceDescriptor(**merged)


class Tracker:
    """Stateful per-sequence tracker. Use one instance per sequence."""

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_frame: Optional[int] = None

    def step(self, frame: int, detections: list[Detection]) -> list[tuple[int, BBox]]:
        """Advance one frame and return (track_id, bbox) emissions.

        Frames must be strictly increasing across calls; all detections
        must belong to ``frame``. Only confirmed tracks are emitted, and
        coasting (unmatched) tracks only with ``emit_predictions``.
        """
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing (got {frame} after {self._last_frame})"
            )
        for det in detections:
            if det.frame != frame:
                raise ValueError(f"detection for frame {det.frame} passed to step({frame})")
        self._last_frame = frame

        live = self._predict_live()
        matches = solve_assignment(build_cost_matrix(live, detections, self.cfg.assoc))

        det_for_track: dict[int, Detection] = {ti: detections[dj] for ti, dj in matches}
        matched_dets = {dj for _, dj in matches}

        for ti, track in enumerate(live):
            if ti in det_for_track:
                self._apply_match(track, det_for_track[ti], frame)
            else:
                track.miss_count += 1
                if track.miss_count >= self.cfg.patience_w:
                    track.status = REMOVED

        spawned = [
            self._spawn(det, frame)
            for dj, det in enumerate(detections)
            if dj not in matched_dets and det.score >= self.cfg.init_score_min
        ]

        out = []
        for ti, track in enumerate(live):
            if track.status != CONFIRMED:
                continue
            if ti in det_for_track:
                out.append((track.id, det_for_track[ti].bbox))
            elif self.cfg.emit_predictions:
                out.append((track.id, bbox_from_state(track.kf.x)))
        for track in spawned:
            if track.status == CONFIRMED:
                out.append((track.id, track.history[-1][1]))
        out.sort(key=lambda item: item[0])
        return out

    def finalize(self) -> list[tuple[int, list[tuple[int, BBox]]]]:
        """All trajectories that ever reached confirmation, sorted by id."""
        out = [
            (t.id, list(t.history))
            for t in self.tracks
            if t.hit_count >= self.cfg.min_hits
        ]
        out.sort(key=lambda item: item[0])
        return out

    # -- internals ---------------------------------------------------------

    def _predict_live(self) -> list[Track]:
        live = []
        for track in self.tracks:
            if track.status == REMOVED:
                continue
            model = kalman.constant_velocity_model(track.kf.x[3], self.cfg.noise)
            try:
                track.kf = kalman.predict(track.kf, model, h_min=self.cfg.noise.h_min)
            except kalman.FilterDivergence:
                track.status = REMOVED
                continue
            live.append(track)
        return live

    def _apply_match(self, track: Track, det: Detection, frame: int) -> None:
        z = measurement_from_bbox(det.bbox)
        model = kalman.constant_velocity_model(track.kf.x[3], self.cfg.noise)
        try:
            track.kf = kalman.update(track.kf, z, model, h_min=self.cfg.noise.h_min)
        except kalman.IllConditionedUpdate:
            jittered = replace(model, R=model.R + _JITTER * np.eye(4))
            track.kf = kalman.update(track.kf, z, jittered, h_min=self.cfg.noise.h_min)
        track.miss_count = 0
        track.hit_count += 1
        if track.hit_count >= self.cfg.min_hits:
            track.status = CONFIRMED
        track.descriptor = _ema_descriptor(
            track.descriptor, det.descriptor, self.cfg.descriptor_momentum
        )
        track.history.append((frame, det.bbox))

    def _spawn(self, det: Detection, frame: int) -> Track:
        state = kalman.initiate(measurement_from_bbox(det.bbox), self.cfg.noise)
        track = Track(
            id=self._next_id,
            kf=state,
            descriptor=det.descriptor,
            status=CONFIRMED if self.cfg.min_hits <= 1 else TENTATIVE,
            history=[(frame, det.bbox)],
        )
        self._next_id += 1
        self.tracks.append(track)
        return track
