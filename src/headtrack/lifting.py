"""Offline trajectory completion: fill the frame gaps of one track.

Three methods, each with its own behaviour:

* ``linear2d`` interpolates box centres linearly in the image;
* ``se3_linear`` follows the SE(3) geodesic between the two anchor poses,
  each placed at the box centre (z = 0) and turned about the z axis to
  face the direction of travel, so a track that turns is filled on an
  arc; a turn of pi across a gap has no principal-branch geodesic and is
  rejected;
* ``se3_kalman`` runs a constant-velocity Kalman smoother over the 6-dim
  twists of identity-rotation poses at the box centres, so a gap blends
  the motion on both sides.

Box width and height are always interpolated linearly. Observed frames
are never altered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox

METHODS = ("linear2d", "se3_linear", "se3_kalman")

_ANGLE_EPS = 1e-8
_BRANCH_MARGIN = 1e-6


@dataclass(frozen=True)
class Pose3:
    """SE(3) element: proper rotation R and translation t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        t = np.asarray(self.t, dtype=float).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must have determinant +1")

    @staticmethod
    def identity() -> "Pose3":
        return Pose3(R=np.eye(3), t=np.zeros(3))

    def inverse(self) -> "Pose3":
        return Pose3(R=self.R.T, t=-self.R.T @ self.t)

    def compose(self, other: "Pose3") -> "Pose3":
        return Pose3(R=self.R @ other.R, t=self.R @ other.t + self.t)


@dataclass(frozen=True)
class LiftingConfig:
    process_std: float = 0.1  # twist smoother noise, squared into Q and R
    meas_std: float = 0.01
    max_gap: int | None = None

    def __post_init__(self):
        for name in ("process_std", "meas_std"):
            std = getattr(self, name)
            if not math.isfinite(std * std):
                raise ValueError(f"{name} must have a finite square, got {std}")


@dataclass(frozen=True)
class TrajectoryGap:
    """A run of missing frames between two observed anchors."""

    before: tuple[int, BBox]
    after: tuple[int, BBox]
    missing_frames: tuple[int, ...]

    def __post_init__(self):
        for f in self.missing_frames:
            if not self.before[0] < f < self.after[0]:
                raise ValueError(
                    f"missing frame {f} outside ({self.before[0]}, {self.after[0]})"
                )


def _skew(w: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def se3_exp(xi: np.ndarray) -> Pose3:
    """Exponential map. ``xi`` is [wx, wy, wz, px, py, pz] (rotation first)."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    if not np.all(np.isfinite(xi)):
        raise ValueError("twist must be finite")
    w, rho = xi[:3], xi[3:]
    theta = float(np.linalg.norm(w))
    K = _skew(w)
    if theta < _ANGLE_EPS:
        # second-order series; exact enough well below the cutoff
        R = np.eye(3) + K + 0.5 * (K @ K)
        V = np.eye(3) + 0.5 * K + (K @ K) / 6.0
    else:
        K2 = K @ K
        R = np.eye(3) + (math.sin(theta) / theta) * K + ((1.0 - math.cos(theta)) / theta**2) * K2
        V = (
            np.eye(3)
            + ((1.0 - math.cos(theta)) / theta**2) * K
            + ((theta - math.sin(theta)) / theta**3) * K2
        )
    # re-orthonormalize to keep the Pose3 invariant under fp drift
    u, _, vt = np.linalg.svd(R)
    R = u @ vt
    if np.linalg.det(R) < 0:
        u[:, -1] = -u[:, -1]
        R = u @ vt
    return Pose3(R=R, t=V @ rho)


def se3_log(T: Pose3) -> np.ndarray:
    """Logarithm map (principal branch). Rejects rotations at or past pi."""
    R, t = T.R, T.t
    cos_theta = max(-1.0, min(1.0, (float(np.trace(R)) - 1.0) / 2.0))
    theta = math.acos(cos_theta)
    if theta >= math.pi - _BRANCH_MARGIN:
        raise ValueError(f"rotation angle {theta} too close to pi for the principal branch")
    vee = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < _ANGLE_EPS:
        w = vee
        K = _skew(w)
        Vinv = np.eye(3) - 0.5 * K + (K @ K) / 12.0
    else:
        w = (theta / math.sin(theta)) * vee
        K = _skew(w)
        coeff = (1.0 / theta**2) - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta))
        Vinv = np.eye(3) - 0.5 * K + coeff * (K @ K)
    return np.concatenate([w, Vinv @ t])


def interpolate_se3(T1: Pose3, T2: Pose3, omega: float) -> Pose3:
    """Geodesic between two poses: T1 * exp(omega * log(T1^-1 T2))."""
    rel = T1.inverse().compose(T2)
    return T1.compose(se3_exp(omega * se3_log(rel)))


def complete(
    points: list[tuple[int, BBox]],
    method: str,
    cfg: LiftingConfig = LiftingConfig(),
) -> tuple[list[tuple[int, BBox]], list[TrajectoryGap]]:
    """Fill the internal frame gaps of one trajectory.

    ``points`` is a (frame, bbox) list; frames need not be contiguous.
    Returns the filled trajectory sorted by frame, plus the gaps that were
    left open because they exceed ``max_gap``. Leading and trailing
    absences have no second anchor and are never filled. Observed entries
    pass through untouched.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    pts = sorted(points, key=lambda p: p[0])
    if len(pts) < 2:
        return list(pts), []

    if method == "se3_kalman":
        smoothed = _twist_smoother(pts, cfg)

    filled: list[tuple[int, BBox]] = []
    skipped: list[TrajectoryGap] = []
    for idx in range(len(pts) - 1):
        f1, b1 = pts[idx]
        f2, b2 = pts[idx + 1]
        filled.append((f1, b1))
        gap = f2 - f1 - 1
        if gap <= 0:
            continue
        if cfg.max_gap is not None and gap > cfg.max_gap:
            skipped.append(
                TrajectoryGap(
                    before=(f1, b1),
                    after=(f2, b2),
                    missing_frames=tuple(range(f1 + 1, f2)),
                )
            )
            continue
        if method == "se3_linear":
            T1 = _heading_pose(pts, idx)
            T2 = _heading_pose(pts, idx + 1)
        for f in range(f1 + 1, f2):
            omega = (f - f1) / (f2 - f1)
            w = b1.w + omega * (b2.w - b1.w)
            h = b1.h + omega * (b2.h - b1.h)
            if method == "linear2d":
                cx = b1.cx + omega * (b2.cx - b1.cx)
                cy = b1.cy + omega * (b2.cy - b1.cy)
            elif method == "se3_linear":
                cx, cy, _ = interpolate_se3(T1, T2, omega).t
            else:  # se3_kalman
                cx, cy, _ = smoothed[f]
            filled.append((f, BBox(x=cx - 0.5 * w, y=cy - 0.5 * h, w=w, h=h)))
    filled.append(pts[-1])
    return filled, skipped


def _heading_yaw(prev: np.ndarray | None, cur: np.ndarray, nxt: np.ndarray | None) -> float:
    d = None
    if nxt is not None:
        d = nxt[:2] - cur[:2]
    if (d is None or np.linalg.norm(d) < 1e-12) and prev is not None:
        d = cur[:2] - prev[:2]
    if d is None or np.linalg.norm(d) < 1e-12:
        return 0.0
    return math.atan2(float(d[1]), float(d[0]))


def _centre(box: BBox) -> np.ndarray:
    return np.array([box.cx, box.cy, 0.0])


def _heading_pose(pts: list[tuple[int, BBox]], idx: int) -> Pose3:
    """Pose at the box centre, turned about z to face the direction of travel."""
    t = _centre(pts[idx][1])
    prev_t = _centre(pts[idx - 1][1]) if idx > 0 else None
    next_t = _centre(pts[idx + 1][1]) if idx + 1 < len(pts) else None
    yaw = _heading_yaw(prev_t, t, next_t)
    c, s = math.cos(yaw), math.sin(yaw)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose3(R=R, t=t)


def _twist_smoother(pts: list[tuple[int, BBox]], cfg: LiftingConfig) -> dict[int, np.ndarray]:
    """RTS-smoothed translations for every frame spanned by the trajectory.

    Runs a constant-velocity filter over the 6-dim twist of the identity-
    rotation pose at each box centre (measurement updates at observed
    frames, prediction only inside gaps), then smooths backward so gap
    poses blend the motion on both sides. Returns frame -> (x, y, z)
    translation of the smoothed pose.
    """
    frames = [f for f, _ in pts]
    observed = {f: se3_log(Pose3(R=np.eye(3), t=_centre(b))) for f, b in pts}

    dim = 6
    F = np.eye(2 * dim)
    F[:dim, dim:] = np.eye(dim)
    H = np.hstack([np.eye(dim), np.zeros((dim, dim))])
    Q = np.eye(2 * dim) * cfg.process_std**2
    R = np.eye(dim) * cfg.meas_std**2

    first, last = frames[0], frames[-1]
    x = np.zeros(2 * dim)
    x[:dim] = observed[first]
    P = np.eye(2 * dim)
    P[dim:, dim:] *= 100.0  # velocities unobserved at the start

    preds, filts = [], []
    span = list(range(first, last + 1))
    for k, f in enumerate(span):
        if k > 0:
            x = F @ x
            P = F @ P @ F.T + Q
        preds.append((x.copy(), P.copy()))
        if f in observed:
            S = H @ P @ H.T + R
            K = P @ H.T @ np.linalg.inv(S)
            x = x + K @ (observed[f] - H @ x)
            P = (np.eye(2 * dim) - K @ H) @ P
        filts.append((x.copy(), P.copy()))

    xs = [None] * len(span)
    xs[-1] = filts[-1][0]
    for k in range(len(span) - 2, -1, -1):
        xf, Pf = filts[k]
        xp_next, Pp_next = preds[k + 1]
        C = Pf @ F.T @ np.linalg.inv(Pp_next)
        xs[k] = xf + C @ (xs[k + 1] - xp_next)

    return {f: se3_exp(xs[k][:dim]).t for k, f in enumerate(span)}
