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

    def test_max_gap_skips_and_reports(self):
        cfg = LiftingConfig(max_gap=2)
        truth = linear_track(12)
        gappy = drop_frames(truth, {4, 5, 6})
        filled, skipped = complete(gappy, "linear2d", cfg)
        assert len(skipped) == 1
        gap = skipped[0]
        assert gap.missing_frames == (4, 5, 6)
        assert gap.before[0] == 3 and gap.after[0] == 7
        assert [f for f, _ in filled] == [f for f, _ in gappy]

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


def test_trajectory_gap_frame_ordering_enforced():
    from headtrack.lifting import TrajectoryGap

    b = BBox(0, 0, 10, 10)
    with pytest.raises(ValueError):
        TrajectoryGap(before=(5, b), after=(8, b), missing_frames=(9,))
    gap = TrajectoryGap(before=(5, b), after=(8, b), missing_frames=(6, 7))
    assert gap.missing_frames == (6, 7)
