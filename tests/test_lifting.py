import decimal
import math

import numpy as np
import pytest

from headtrack.geometry import BBox
from headtrack.lifting import (
    LiftingConfig,
    METHODS,
    Pose3,
    complete,
    interpolate_se3,
    se3_exp,
    se3_log,
)


def rodrigues(axis, angle):
    """Independent axis-angle rotation builder for oracle checks."""
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def random_twist(rng, max_angle=math.pi - 0.01):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, max_angle)
    rho = rng.uniform(-10, 10, 3)
    return np.concatenate([axis * angle, rho])


class TestExpLog:
    def test_identity_roundtrip(self):
        assert np.allclose(se3_log(Pose3.identity()), np.zeros(6))
        T = se3_exp(np.zeros(6))
        assert np.allclose(T.R, np.eye(3))
        assert np.allclose(T.t, 0)

    def test_pure_translation(self):
        T = se3_exp(np.array([0.0, 0, 0, 1, 2, 3]))
        assert np.allclose(T.R, np.eye(3))
        assert np.allclose(T.t, [1, 2, 3])

    def test_quarter_turn_against_rodrigues(self):
        xi = np.array([0.0, 0, math.pi / 2, 0, 0, 0])
        T = se3_exp(xi)
        assert np.max(np.abs(T.R - rodrigues([0, 0, 1], math.pi / 2))) < 1e-12
        assert np.max(np.abs(se3_log(T) - xi)) < 1e-9

    def test_random_roundtrips(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(1000):
            xi = random_twist(rng)
            err = np.max(np.abs(se3_log(se3_exp(xi)) - xi))
            worst = max(worst, err)
        assert worst < 1e-9

    def test_small_angle_series(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            xi = random_twist(rng, max_angle=1e-9)
            assert np.max(np.abs(se3_log(se3_exp(xi)) - xi)) < 1e-12

    def test_branch_rejection_near_pi(self):
        T = Pose3(R=rodrigues([1, 0, 0], math.pi), t=np.zeros(3))
        with pytest.raises(ValueError):
            se3_log(T)

    def test_exp_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            se3_exp(np.array([np.nan, 0, 0, 0, 0, 0]))


class TestPose3:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Pose3(R=np.eye(3) * 2.0, t=np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose3(R=reflection, t=np.zeros(3))

    def test_compose_inverse(self):
        rng = np.random.default_rng(8)
        T = se3_exp(random_twist(rng))
        back = T.compose(T.inverse())
        assert np.max(np.abs(back.R - np.eye(3))) < 1e-12
        assert np.max(np.abs(back.t)) < 1e-9


class TestInterpolate:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            T1 = se3_exp(random_twist(rng, max_angle=2.0))
            T2 = se3_exp(random_twist(rng, max_angle=2.0))
            a = interpolate_se3(T1, T2, 0.0)
            b = interpolate_se3(T1, T2, 1.0)
            assert np.max(np.abs(a.R - T1.R)) < 1e-9 and np.max(np.abs(a.t - T1.t)) < 1e-9
            assert np.max(np.abs(b.R - T2.R)) < 1e-9 and np.max(np.abs(b.t - T2.t)) < 1e-9

    def test_translation_midpoint(self):
        T2 = Pose3(R=np.eye(3), t=np.array([2.0, 0, 0]))
        mid = interpolate_se3(Pose3.identity(), T2, 0.5)
        assert np.allclose(mid.t, [1, 0, 0])
        assert np.allclose(mid.R, np.eye(3))

    def test_rotation_half_angle(self):
        T2 = Pose3(R=rodrigues([0, 0, 1], math.pi / 2), t=np.zeros(3))
        mid = interpolate_se3(Pose3.identity(), T2, 0.5)
        assert np.max(np.abs(mid.R - rodrigues([0, 0, 1], math.pi / 4))) < 1e-9

    def test_translation_affine_in_omega(self):
        rng = np.random.default_rng(14)
        t2 = rng.uniform(-5, 5, 3)
        T2 = Pose3(R=np.eye(3), t=t2)
        for w in np.linspace(0, 1, 11):
            p = interpolate_se3(Pose3.identity(), T2, float(w))
            assert np.max(np.abs(p.t - w * t2)) < 1e-9


def linear_track(n, v=(3.0, -2.0), start=(100.0, 500.0), w=40.0, h=80.0):
    pts = []
    for f in range(1, n + 1):
        cx = start[0] + v[0] * (f - 1)
        cy = start[1] + v[1] * (f - 1)
        pts.append((f, BBox(x=cx - w / 2, y=cy - h / 2, w=w, h=h)))
    return pts


def drop_frames(pts, missing):
    return [(f, b) for f, b in pts if f not in missing]


class TestComplete:
    def setup_method(self):
        self.cfg = LiftingConfig()

    def test_constant_velocity_gap_recovered_exactly(self):
        truth = linear_track(20)
        gap = set(range(8, 13))
        filled, skipped = complete(drop_frames(truth, gap), "linear2d", self.cfg)
        assert skipped == []
        got = dict(filled)
        for f, b in truth:
            r = got[f]
            assert max(abs(r.x - b.x), abs(r.y - b.y), abs(r.w - b.w), abs(r.h - b.h)) < 1e-9

    def test_translation_only_methods_agree(self):
        truth = linear_track(15)
        gappy = drop_frames(truth, set(range(5, 10)))
        a, _ = complete(gappy, "linear2d", self.cfg)
        b, _ = complete(gappy, "se3_linear", self.cfg)
        for (fa, ba), (fb, bb) in zip(a, b):
            assert fa == fb
            assert max(abs(ba.x - bb.x), abs(ba.y - bb.y)) < 1e-9

    @pytest.mark.parametrize("method", METHODS)
    def test_observed_frames_untouched(self, method):
        truth = linear_track(12)
        gappy = drop_frames(truth, {4, 5, 6})
        filled, _ = complete(gappy, method, self.cfg)
        got = dict(filled)
        for f, b in gappy:
            assert got[f] is b or got[f] == b

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_fill_all_gap_frames(self, method):
        truth = linear_track(12)
        gappy = drop_frames(truth, {4, 5, 6})
        filled, _ = complete(gappy, method, self.cfg)
        assert [f for f, _ in filled] == list(range(1, 13))

    def test_reversal_gap_skipped_and_reported(self):
        # a U-turn across frames 3-6: the anchor poses face opposite ways, so
        # the heading geodesic has no principal branch
        rows = [(1, 100), (2, 110), (3, 120), (6, 150), (7, 140), (9, 120)]
        gappy = [(f, BBox(x=x - 20, y=10, w=40, h=80)) for f, x in rows]
        filled, skipped = complete(gappy, "se3_linear", self.cfg)
        assert len(skipped) == 1
        gap = skipped[0]
        assert tuple(gap.missing_frames) == (4, 5)
        assert gap.before[0] == 3 and gap.after[0] == 6
        assert "principal branch" in gap.reason
        # the other gap of the same track is still filled
        assert [f for f, _ in filled] == [1, 2, 3, 6, 7, 8, 9]

    def test_short_tracks_pass_through(self):
        only = [(3, BBox(0, 0, 10, 10))]
        filled, skipped = complete(only, "linear2d", self.cfg)
        assert filled == only and skipped == []

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            complete(linear_track(5), "cubic", self.cfg)

    def arc_track(self, n=41, radius=200.0, rate=0.05):
        pts = []
        for f in range(1, n + 1):
            a = rate * f
            cx = 960 + radius * math.cos(a)
            cy = 540 + radius * math.sin(a)
            pts.append((f, BBox(x=cx - 20, y=cy - 40, w=40, h=80)))
        return pts

    def fill_error(self, method, truth, missing):
        filled, _ = complete(drop_frames(truth, missing), method, self.cfg)
        got = dict(filled)
        t = dict(truth)
        errs = [
            math.hypot(got[f].cx - t[f].cx, got[f].cy - t[f].cy) for f in missing
        ]
        return float(np.mean(errs))

    def test_twist_smoother_beats_linear_on_arcs(self):
        truth = self.arc_track()
        missing = set(range(16, 26))
        err_kalman = self.fill_error("se3_kalman", truth, missing)
        err_linear = self.fill_error("linear2d", truth, missing)
        assert err_kalman <= err_linear

    def test_heading_geodesic_follows_arcs(self):
        truth = self.arc_track()
        missing = set(range(16, 26))
        err_geodesic = self.fill_error("se3_linear", truth, missing)
        assert err_geodesic < 0.5 * self.fill_error("linear2d", truth, missing)

    def test_heading_mode_still_exact_at_endpoints(self):
        truth = self.arc_track(n=20)
        gappy = drop_frames(truth, {8, 9, 10})
        filled, _ = complete(gappy, "se3_linear", self.cfg)
        got = dict(filled)
        for f, b in gappy:
            assert got[f] == b
        assert set(f for f, _ in filled) == set(range(1, 21))


def test_lifting_config_validation():
    for name in ("process_std", "meas_std"):
        LiftingConfig(**{name: 1e150})  # its square, 1e300, is finite
        with pytest.raises(ValueError, match=name):
            LiftingConfig(**{name: 1e200})


def twist_smoother(pts, cfg):
    """Reference for ``se3_kalman``: a 12-state RTS smoother over SE(3) twists.

    A constant-velocity filter over the 6-dim twist of the identity-rotation
    pose at each box centre (z = 0), with matrix products and inverses,
    measurement updates at observed frames and prediction inside gaps, then
    a backward Rauch-Tung-Striebel pass. Returns frame -> (x, y, z) of the
    smoothed pose.
    """
    frames = [f for f, _ in pts]
    observed = {f: se3_log(Pose3(R=np.eye(3), t=[b.cx, b.cy, 0.0])) for f, b in pts}

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
    P[dim:, dim:] *= 100.0

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


def decimal_smoother(pts, cfg, digits=50):
    """The 2-state constant-velocity RTS smoother of the box centre's x, in
    ``digits``-digit decimal arithmetic: frame -> smoothed cx."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        q, r = D(cfg.process_std) ** 2, D(cfg.meas_std) ** 2
        first, last = pts[0][0], pts[-1][0]
        obs = {f: D(b.cx) for f, b in pts}
        x, vx = obs[first], D(0)
        P = [[D(1), D(0)], [D(0), D(100)]]
        filts = []
        for f in range(first, last + 1):
            if filts:  # predict: F = [[1, 1], [0, 1]], Q = q I
                x += vx
                (p, c), (_, v) = P
                P = [[p + 2 * c + v + q, c + v], [c + v, v + q]]
            if f in obs:
                (p, c), (_, v) = P
                s = p + r
                e = obs[f] - x
                x, vx = x + p / s * e, vx + c / s * e
                P = [[p * r / s, c * r / s], [c * r / s, v - c * c / s]]
            filts.append((x, vx, P))
        out = {last: x}
        for f in range(last - 1, first - 1, -1):
            fx, fvx, ((p, c), (_, v)) = filts[f - first]
            pp, cp, vp = p + 2 * c + v + q, c + v, v + q
            det = pp * vp - cp * cp
            # C = Pf F^T Pp^-1, applied to the next frame's smoothed-minus-predicted state
            g = [[((p + c) * vp - c * cp) / det, (c * pp - (p + c) * cp) / det],
                 [((c + v) * vp - v * cp) / det, (v * pp - (c + v) * cp) / det]]
            ex, evx = x - (fx + fvx), vx - fvx
            x, vx = fx + g[0][0] * ex + g[0][1] * evx, fvx + g[1][0] * ex + g[1][1] * evx
            out[f] = x
        return {f: float(xf) for f, xf in out.items()}


def random_gappy_track(rng):
    """5-120 boxes on a turning walk, observed with gaps of up to 300 frames."""
    n = int(rng.integers(5, 121))
    steps = np.where(rng.random(n - 1) < 0.1, rng.integers(2, 301, n - 1), 1)
    frames = np.concatenate([[int(rng.integers(1, 50))], steps]).cumsum()
    heading = rng.uniform(0, 2 * math.pi) + rng.normal(0, 0.3, n).cumsum()
    speed = rng.uniform(0, 5) * np.diff(frames, prepend=frames[0])
    cx = rng.uniform(0, 3840) + (speed * np.cos(heading)).cumsum()
    cy = rng.uniform(0, 2160) + (speed * np.sin(heading)).cumsum()
    w, h = rng.uniform(10, 80, n), rng.uniform(20, 200, n)
    return [
        (int(f), BBox(x=float(x - wi / 2), y=float(y - hi / 2), w=float(wi), h=float(hi)))
        for f, x, y, wi, hi in zip(frames, cx, cy, w, h)
    ]


@pytest.mark.parametrize(
    "process_std, meas_std", [(0.1, 0.01), (1.0, 0.5), (0.01, 2.0), (3.0, 0.0)]
)
def test_se3_kalman_matches_twist_smoother(process_std, meas_std):
    # After gaps of hundreds of frames the 12-state float smoother is up to
    # about 2e-8 px off the 50-digit result: its (I - KH)P update and its
    # matrix inverse lose digits once p >> r. So every gap frame must agree
    # with it to 1e-9 px beyond that error, and with the 50-digit result to
    # 1e-9 px.
    cfg = LiftingConfig(process_std=process_std, meas_std=meas_std)
    rng = np.random.default_rng(71)
    gap_frames = 0
    for _ in range(10):
        pts = random_gappy_track(rng)
        observed = {f for f, _ in pts}
        ref = twist_smoother(pts, cfg)
        exact = decimal_smoother(pts, cfg)
        filled, skipped = complete(pts, "se3_kalman", cfg)
        assert skipped == []
        assert [f for f, _ in filled] == list(range(pts[0][0], pts[-1][0] + 1))
        for f, box in filled:
            if f in observed:
                continue
            gap_frames += 1
            x, y, z = ref[f]
            assert z == 0.0
            assert abs(x - exact[f]) < 1e-7
            assert abs(box.cx - exact[f]) < 1e-9
            assert abs(box.cx - x) <= 1e-9 + abs(x - exact[f])
            assert abs(box.cy - y) < 1e-7
    assert gap_frames > 1000
