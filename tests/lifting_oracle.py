"""Track-at-a-time gap filling over (frame, BBox) lists, kept as a test oracle.

This is the per-track ``complete`` that ``headtrack.lifting`` replaced with
one pass over a table's sorted columns, and the ``interpolate`` loop that fed
it: group the table by id, build a BBox per row, fill each track, keep the
rows of frames the track did not have. The tests hold the column-wise
``complete`` to the same files, open gaps and error texts. One difference is
kept on purpose: ``se3_linear`` reads its centres as Python floats, so a bad
filled box prints ``x=inf``, not ``x=np.float64(inf)``, as with the other
methods. ``complete_track`` runs the library's ``complete`` on one track's
(frame, BBox) points and returns them in this row form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from headtrack import lifting
from headtrack.config import METHODS, RunConfig
from headtrack.dataio import MotTable
from headtrack.geometry import BBox
from headtrack.lifting import Pose3, se3_exp, se3_log

_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class Gap:
    before: tuple[int, BBox]
    after: tuple[int, BBox]
    reason: str = ""


def complete_track(points, method, cfg=RunConfig()):
    """The library's ``complete`` on a table of one track's (frame, BBox) points.

    Returns the filled points by frame and the open gaps.
    """
    table = MotTable([f for f, _ in points], [1] * len(points), [(b.x, b.y, b.w, b.h) for _, b in points])
    filled, skipped = lifting.complete(table, method, cfg)
    return sorted(((row.frame, row.box) for row in filled), key=lambda p: p[0]), skipped


def interpolate(table: MotTable, method: str, cfg: RunConfig = RunConfig()):
    """The filled table and the open gaps as (track id, Gap) pairs; an error names its track."""
    frames, boxes = table.frame.tolist(), list(map(BBox, *table.box.T.tolist()))
    filled_rows, skipped = [], []
    for tid in sorted(set(table.id.tolist())):
        points = [(frames[r], boxes[r]) for r in np.flatnonzero(table.id == tid).tolist()]
        try:
            filled, gaps = complete(points, method, cfg)
        except ValueError as exc:
            raise ValueError(f"track {tid}: {exc}") from None
        observed = {frame for frame, _ in points}
        filled_rows += [(frame, tid, (box.x, box.y, box.w, box.h)) for frame, box in filled if frame not in observed]
        skipped += [(tid, gap) for gap in gaps]
    filled = MotTable(*([row[k] for row in filled_rows] for k in range(3)))
    return MotTable.concat([table, filled]), skipped


@_quiet
def complete(points, method, cfg=RunConfig()):
    """Fill the internal frame gaps of one trajectory of (frame, bbox) points."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    pts = sorted(points, key=lambda p: p[0])
    if len(pts) < 2:
        return list(pts), []

    if method == "se3_kalman":
        sx, sy = _centre_smoother(pts, cfg)
        first = pts[0][0]

    filled, skipped = [], []
    for idx in range(len(pts) - 1):
        f1, b1 = pts[idx]
        f2, b2 = pts[idx + 1]
        filled.append((f1, b1))
        if f2 - f1 <= 1:
            continue
        if method == "se3_linear":
            T1 = _heading_pose(pts, idx)
            try:
                xi = se3_log(T1.inverse().compose(_heading_pose(pts, idx + 1)))
            except ValueError as exc:
                skipped.append(Gap((f1, b1), (f2, b2), reason=str(exc)))
                continue
        for f in range(f1 + 1, f2):
            omega = (f - f1) / (f2 - f1)
            w = b1.w + omega * (b2.w - b1.w)
            h = b1.h + omega * (b2.h - b1.h)
            if method == "linear2d":
                cx = b1.cx + omega * (b2.cx - b1.cx)
                cy = b1.cy + omega * (b2.cy - b1.cy)
            elif method == "se3_linear":
                cx, cy, _ = T1.compose(se3_exp(omega * xi)).t.tolist()
            else:  # se3_kalman
                cx, cy = sx[f - first], sy[f - first]
            filled.append((f, BBox(x=cx - 0.5 * w, y=cy - 0.5 * h, w=w, h=h)))
    filled.append(pts[-1])
    return filled, skipped


def _heading_yaw(prev, cur, nxt):
    d = None
    if nxt is not None:
        d = nxt[:2] - cur[:2]
    if (d is None or np.linalg.norm(d) < 1e-12) and prev is not None:
        d = cur[:2] - prev[:2]
    if d is None or np.linalg.norm(d) < 1e-12:
        return 0.0
    return math.atan2(float(d[1]), float(d[0]))


def _centre(box):
    return np.array([box.cx, box.cy, 0.0])


def _heading_pose(pts, idx):
    t = _centre(pts[idx][1])
    prev_t = _centre(pts[idx - 1][1]) if idx > 0 else None
    next_t = _centre(pts[idx + 1][1]) if idx + 1 < len(pts) else None
    yaw = _heading_yaw(prev_t, t, next_t)
    c, s = math.cos(yaw), math.sin(yaw)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose3(R=R, t=t)


def _centre_smoother(pts, cfg):
    """RTS-smoothed box centres for every frame spanned by the trajectory, indexed by frame minus the first."""
    q = cfg.se3_process_std**2
    r = cfg.se3_meas_std**2
    first = pts[0][0]
    n = pts[-1][0] - first + 1
    obs = [None] * n
    for f, b in pts:
        obs[f - first] = (b.cx, b.cy)

    x, y = obs[0]
    vx = vy = 0.0
    p, c, v = 1.0, 0.0, 100.0
    d = p * v
    filt = []
    try:
        for z in obs:
            if filt:
                x += vx
                y += vy
                d += q * (p + 2.0 * c + 2.0 * v) + q * q
                p, c, v = p + 2.0 * c + v + q, c + v, v + q
            if z is not None:
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
    return sx, sy
