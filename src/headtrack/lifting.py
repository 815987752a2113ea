"""Offline trajectory completion: fill the frame gaps of every track of a table.

Three methods, each with its own behaviour:

* ``linear2d`` interpolates box centres linearly in the image;
* ``se3_linear`` follows the SE(3) geodesic between the two anchor poses,
  each placed at the box centre (z = 0) and turned about the z axis to
  face the direction of travel, so a track that turns is filled on an
  arc; a turn of pi across a gap has no principal-branch geodesic, and
  that gap is left unfilled and reported;
* ``se3_kalman`` runs a constant-velocity Rauch-Tung-Striebel smoother
  over the box centre, so a gap blends the motion on both sides. It
  equals the 12-state smoother over the twists of identity-rotation
  poses at the box centres (z = 0): those twists are (0, 0, 0, cx, cy, 0),
  so that smoother is six identical 2-state ones, and x and y share one
  2x2 covariance.

Box width and height are always interpolated linearly. Observed frames
are never altered.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import METHODS, RunConfig
from .dataio import MotTable
from .geometry import bad_boxes, check_boxes

_ANGLE_EPS = 1e-8
_BRANCH_MARGIN = 1e-6

# centres near +-1e308 overflow to inf, and se3_exp rejects the twist that follows
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True, eq=False)  # arrays compare and hash by identity
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

    def inverse(self) -> "Pose3":
        return Pose3(R=self.R.T, t=-self.R.T @ self.t)

    @_quiet
    def compose(self, other: "Pose3") -> "Pose3":
        return Pose3(R=self.R @ other.R, t=self.R @ other.t + self.t)


@dataclass(frozen=True)
class TrajectoryGap:
    """A run of missing frames of track ``id``, between its observed frames ``before`` and ``after``."""

    id: int
    before: int
    after: int
    reason: str = ""


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


@_quiet
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


@_quiet
def complete(
    table: MotTable,
    method: str,
    cfg: RunConfig = RunConfig(),
) -> tuple[MotTable, list[TrajectoryGap]]:
    """Fill the internal frame gaps of every track of ``table``.

    A track is the rows of one id, in any row order. Returns ``table`` with
    one row appended per filled frame (conf 1, trailing fields -1), plus
    the gaps left open, by track id and then frame, each with its reason:
    a ``se3_linear`` gap whose heading turns by pi. Leading and trailing
    absences have no second anchor and are never filled; observed rows
    pass through untouched. A failure raises ValueError naming the first
    failing track by id, and within it the first fault in frame order;
    running out of memory names the track with the longest gap.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    order = np.lexsort((table.frame, table.id))
    ids, frames, box = table.id[order], table.frame[order], table.box[order]
    gaps = np.flatnonzero((ids[1:] == ids[:-1]) & (frames[1:] - frames[:-1] > 1))  # row before each gap
    try:
        filled, skipped = _fill(ids, frames, box, gaps, method, cfg)
        return MotTable.concat([table, filled]), skipped
    except MemoryError:  # a gap's rows, or a track's smoother frames, do not fit
        i = gaps[(frames[gaps + 1] - frames[gaps]).argmax()]
        raise ValueError(
            f"track {ids[i]}: not enough memory to fill frames {frames[i] + 1}-{frames[i + 1] - 1}") from None


def _fill(ids, frames, box, gaps, method: str, cfg: RunConfig) -> tuple[MotTable, list[TrajectoryGap]]:
    """``complete``'s filled rows and open gaps, from the rows sorted by id and frame and the row before each gap."""
    centres = box[:, :2] + 0.5 * box[:, 2:]
    c, skipped, error = [], [], None  # c: the filled rows' centres, until a failure stops se3_*
    try:
        if method == "se3_kalman":  # every track of two rows or more, in id order
            cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
            for lo, hi in zip(np.r_[0, cuts].tolist(), np.r_[cuts, len(ids)].tolist()):
                if hi - lo > 1:
                    tid = ids[lo]
                    c += _centre_smoother(frames[lo:hi].tolist(), centres[lo:hi].tolist(), cfg)
        elif method == "se3_linear":  # gaps becomes the gaps it fills; the others are skipped
            gaps, open_gaps = [], gaps
            for i in open_gaps.tolist():
                tid, f1, f2 = ids[i].item(), frames[i].item(), frames[i + 1].item()
                lo = np.searchsorted(ids, tid)
                track = centres[lo:np.searchsorted(ids, tid, "right")]
                T1 = _heading_pose(track, i - lo)
                try:
                    xi = se3_log(T1.inverse().compose(_heading_pose(track, i + 1 - lo)))
                except ValueError as exc:
                    skipped.append(TrajectoryGap(tid, f1, f2, reason=str(exc)))
                    continue
                gaps.append(i)
                for omega in np.arange(1, f2 - f1) / (f2 - f1):
                    c.append(T1.compose(se3_exp(omega * xi)).t[:2])
    except ValueError as exc:
        error = f"track {tid}: {exc}"
    gaps = np.asarray(gaps, dtype=np.int64)
    # one row per missing frame, gap after gap: its gap's first anchor, and its frame minus the anchor's
    count = frames[gaps + 1] - frames[gaps] - 1
    if count.sum(dtype=float) * 32 > sys.maxsize:  # boxes past the address space, which numpy refuses as too big
        raise MemoryError
    lo = np.repeat(gaps, count)
    step = np.arange(len(lo)) - np.repeat(np.cumsum(count) - count, count) + 1
    omega = step / np.repeat(count + 1, count)
    if method == "linear2d":
        c = centres[lo] + omega[:, None] * (centres[lo + 1] - centres[lo])
    c = np.reshape(c, (-1, 2))
    wh = (box[lo, 2:] + omega[:, None] * (box[lo + 1, 2:] - box[lo, 2:]))[:len(c)]
    filled = np.concatenate([c - 0.5 * wh, wh], axis=1)
    try:  # a bad box in the rows before a failure comes first
        check_boxes(filled)
    except ValueError as exc:
        raise ValueError(f"track {ids[lo[bad_boxes(filled).argmax()]]}: {exc}") from None
    if error is not None:
        raise ValueError(error)
    return MotTable(frames[lo] + step, ids[lo], filled), skipped


def _heading_pose(centres: np.ndarray, idx: int) -> Pose3:
    """Pose at row ``idx`` of a track's (n, 2) centres (z = 0), turned about z to face the
    direction of travel: to the next centre, else from the previous one, else +x."""
    cur = centres[idx]
    d = centres[idx + 1] - cur if idx + 1 < len(centres) else None
    if (d is None or np.linalg.norm(d) < 1e-12) and idx > 0:
        d = cur - centres[idx - 1]
    yaw = 0.0 if d is None or np.linalg.norm(d) < 1e-12 else math.atan2(d[1], d[0])
    c, s = math.cos(yaw), math.sin(yaw)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose3(R=R, t=np.append(cur, 0.0))


def _centre_smoother(frames: list[int], centres: list, cfg: RunConfig) -> list[tuple[float, float]]:
    """RTS-smoothed box centres at the frames a track misses.

    A constant-velocity Kalman filter over (position, velocity) runs
    forward with measurement updates at observed frames and prediction
    only inside gaps, then a Rauch-Tung-Striebel pass smooths backward so
    gap centres blend the motion on both sides. The covariance does not
    depend on the data, so x and y share it: the three numbers (p, c, v)
    of [[p, c], [c, v]], plus its determinant d, carried through the
    recursion rather than taken as p v - c^2, which cancels badly after
    long gaps. ``frames`` ascend, ``centres`` holds their (cx, cy) pairs.
    Returns the smoothed (cx, cy) of each frame between the first and the
    last that ``frames`` lacks, in frame order. Raises ValueError on a
    singular covariance, which zero process and measurement noise give.
    """
    q = cfg.se3_process_std**2
    r = cfg.se3_meas_std**2
    first = frames[0]
    n = frames[-1] - first + 1
    obs: list = [None] * n
    for f, z in zip(frames, centres):
        obs[f - first] = z

    x, y = obs[0]
    vx = vy = 0.0
    p, c, v = 1.0, 0.0, 100.0  # velocities unobserved at the start
    d = p * v
    filt = []  # filtered (x, vx, y, vy, p, c, v, d) at each frame
    try:
        for z in obs:
            if filt:  # F = [[1, 1], [0, 1]], Q = q I; det(A + qI) = det A + q tr A + q^2
                x += vx
                y += vy
                d += q * (p + 2.0 * c + 2.0 * v) + q * q
                p, c, v = p + 2.0 * c + v + q, c + v, v + q
            if z is not None:  # H = [1, 0], R = r
                s = p + r
                k0, k1 = p / s, c / s
                ex, ey = z[0] - x, z[1] - y
                x, vx, y, vy = x + k0 * ex, vx + k1 * ex, y + k0 * ey, vy + k1 * ey
                p, c, v, d = p * r / s, c * r / s, (d + r * v) / s, d * r / s
            filt.append((x, vx, y, vy, p, c, v, d))

        sx, sy = [0.0] * n, [0.0] * n
        x, vx, y, vy = filt[-1][:4]
        sx[-1], sy[-1] = x, y
        for k in range(n - 2, -1, -1):
            fx, fvx, fy, fvy, p, c, v, d = filt[k]
            # gain C = Pf F^T Pp^-1, Pp the prediction into frame k + 1
            det = d + q * (p + 2.0 * c + 2.0 * v) + q * q
            g00, g01 = (d + q * (p + c)) / det, (q * c - d) / det
            g10, g11 = q * (c + v) / det, (d + q * v) / det
            ex, evx = x - (fx + fvx), vx - fvx
            ey, evy = y - (fy + fvy), vy - fvy
            x, vx = fx + g00 * ex + g01 * evx, fvx + g10 * ex + g11 * evx
            y, vy = fy + g00 * ey + g01 * evy, fvy + g10 * ey + g11 * evy
            sx[k], sy[k] = x, y
    except ZeroDivisionError:
        raise ValueError("singular smoother covariance; raise se3_process_std or se3_meas_std") from None
    return [(x, y) for x, y, z in zip(sx, sy, obs) if z is None]
