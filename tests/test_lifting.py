import contextlib
import decimal
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lifting_oracle
import mot_oracle
from headtrack import cli
from headtrack.dataio import MotTable, parse_mot
from headtrack.simulate import SceneSpec, generate_scene
from headtrack.geometry import BBox
from headtrack.config import RunConfig
from headtrack.lifting import (
    METHODS,
    Pose3,
    complete,
    interpolate_se3,
    se3_exp,
    se3_log,
)
from lifting_oracle import complete_track


IDENTITY = Pose3(np.eye(3), np.zeros(3))


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
        assert np.allclose(se3_log(IDENTITY), np.zeros(6))
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

    def test_compares_and_hashes_by_identity(self):
        one, twin = Pose3(R=np.eye(3), t=np.ones(3)), Pose3(R=np.eye(3), t=np.ones(3))
        assert one == one and one != twin
        assert hash(one) == hash(one)
        assert one in {one} and twin not in {one} and len({one, twin}) == 2


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
        mid = interpolate_se3(IDENTITY, T2, 0.5)
        assert np.allclose(mid.t, [1, 0, 0])
        assert np.allclose(mid.R, np.eye(3))

    def test_rotation_half_angle(self):
        T2 = Pose3(R=rodrigues([0, 0, 1], math.pi / 2), t=np.zeros(3))
        mid = interpolate_se3(IDENTITY, T2, 0.5)
        assert np.max(np.abs(mid.R - rodrigues([0, 0, 1], math.pi / 4))) < 1e-9

    def test_translation_affine_in_omega(self):
        rng = np.random.default_rng(14)
        t2 = rng.uniform(-5, 5, 3)
        T2 = Pose3(R=np.eye(3), t=t2)
        for w in np.linspace(0, 1, 11):
            p = interpolate_se3(IDENTITY, T2, float(w))
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
        self.cfg = RunConfig()

    def test_constant_velocity_gap_recovered_exactly(self):
        truth = linear_track(20)
        gap = set(range(8, 13))
        filled, skipped = complete_track(drop_frames(truth, gap), "linear2d", self.cfg)
        assert skipped == []
        got = dict(filled)
        for f, b in truth:
            r = got[f]
            assert max(abs(r.x - b.x), abs(r.y - b.y), abs(r.w - b.w), abs(r.h - b.h)) < 1e-9

    def test_translation_only_methods_agree(self):
        truth = linear_track(15)
        gappy = drop_frames(truth, set(range(5, 10)))
        a, _ = complete_track(gappy, "linear2d", self.cfg)
        b, _ = complete_track(gappy, "se3_linear", self.cfg)
        for (fa, ba), (fb, bb) in zip(a, b):
            assert fa == fb
            assert max(abs(ba.x - bb.x), abs(ba.y - bb.y)) < 1e-9

    @pytest.mark.parametrize("method", METHODS)
    def test_observed_frames_untouched(self, method):
        truth = linear_track(12)
        gappy = drop_frames(truth, {4, 5, 6})
        filled, _ = complete_track(gappy, method, self.cfg)
        got = dict(filled)
        for f, b in gappy:
            assert got[f] is b or got[f] == b

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_fill_all_gap_frames(self, method):
        truth = linear_track(12)
        gappy = drop_frames(truth, {4, 5, 6})
        filled, _ = complete_track(gappy, method, self.cfg)
        assert [f for f, _ in filled] == list(range(1, 13))

    def test_reversal_gap_skipped_and_reported(self):
        # a U-turn across frames 3-6: the anchor poses face opposite ways, so
        # the heading geodesic has no principal branch
        rows = [(1, 100), (2, 110), (3, 120), (6, 150), (7, 140), (9, 120)]
        gappy = [(f, BBox(x=x - 20, y=10, w=40, h=80)) for f, x in rows]
        filled, skipped = complete_track(gappy, "se3_linear", self.cfg)
        assert len(skipped) == 1
        gap = skipped[0]
        assert (gap.id, gap.before, gap.after) == (1, 3, 6)  # frames 4 and 5 missing
        assert "principal branch" in gap.reason
        # the other gap of the same track is still filled
        assert [f for f, _ in filled] == [1, 2, 3, 6, 7, 8, 9]

    def test_short_tracks_pass_through(self):
        only = [(3, BBox(0, 0, 10, 10))]
        filled, skipped = complete_track(only, "linear2d", self.cfg)
        assert filled == only and skipped == []

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            complete_track(linear_track(5), "cubic", self.cfg)

    def arc_track(self, n=41, radius=200.0, rate=0.05):
        pts = []
        for f in range(1, n + 1):
            a = rate * f
            cx = 960 + radius * math.cos(a)
            cy = 540 + radius * math.sin(a)
            pts.append((f, BBox(x=cx - 20, y=cy - 40, w=40, h=80)))
        return pts

    def fill_error(self, method, truth, missing):
        filled, _ = complete_track(drop_frames(truth, missing), method, self.cfg)
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

    def test_heading_geodesic_beats_linear_on_a_circular_scene(self):
        # why se3_linear stays: on a turning scene it fills closer to the truth than linear2d
        windows = ((1, 20, 30), (3, 40, 55), (5, 60, 66), (7, 10, 25), (9, 70, 85), (10, 30, 35))
        gt = generate_scene(SceneSpec(motion="circular", frames=100, occlusions=windows)).gt
        hidden = np.zeros(len(gt), dtype=bool)
        for tid, first, last in windows:
            hidden |= (gt.id == tid) & (gt.frame >= first) & (gt.frame <= last)
        truth = {(f, i): c for f, i, c in zip(gt.frame[hidden].tolist(), gt.id[hidden].tolist(),
                                               gt.box[hidden, :2] + 0.5 * gt.box[hidden, 2:])}
        observed = MotTable(gt.frame[~hidden], gt.id[~hidden], gt.box[~hidden])
        error = {}
        for method in ("linear2d", "se3_linear"):
            table, skipped = complete(observed, method, self.cfg)
            assert skipped == []
            new = slice(len(observed), None)
            centres = table.box[new, :2] + 0.5 * table.box[new, 2:]
            keys = list(zip(table.frame[new].tolist(), table.id[new].tolist()))
            assert sorted(keys) == sorted(truth)
            error[method] = np.mean([np.hypot(*(c - truth[k])) for k, c in zip(keys, centres)])
        assert error["se3_linear"] < error["linear2d"], error

    def test_heading_mode_still_exact_at_endpoints(self):
        truth = self.arc_track(n=20)
        gappy = drop_frames(truth, {8, 9, 10})
        filled, _ = complete_track(gappy, "se3_linear", self.cfg)
        got = dict(filled)
        for f, b in gappy:
            assert got[f] == b
        assert set(f for f, _ in filled) == set(range(1, 21))


def test_lifting_config_validation():
    for name in ("process_std", "meas_std"):
        RunConfig(**{f"se3_{name}": 1e150})  # its square, 1e300, is finite
        with pytest.raises(ValueError, match=f"^key se3_{name}: {name} must have a finite square, got 1e\\+200$"):
            RunConfig(**{f"se3_{name}": 1e200})


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
    Q = np.eye(2 * dim) * cfg.se3_process_std**2
    R = np.eye(dim) * cfg.se3_meas_std**2

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
        q, r = D(cfg.se3_process_std) ** 2, D(cfg.se3_meas_std) ** 2
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
    cfg = RunConfig(se3_process_std=process_std, se3_meas_std=meas_std)
    rng = np.random.default_rng(71)
    gap_frames = 0
    for _ in range(10):
        pts = random_gappy_track(rng)
        observed = {f for f, _ in pts}
        ref = twist_smoother(pts, cfg)
        exact = decimal_smoother(pts, cfg)
        filled, skipped = complete_track(pts, "se3_kalman", cfg)
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


INT64_MAX = 2**63 - 1
# few distinct centres, so tracks often turn back across a gap
COORDS = st.one_of(st.floats(-2000, 2000), st.sampled_from([0.0, 100.0, 110.0, 120.0, 150.0]))
SIZES = st.one_of(st.floats(1, 200), st.sampled_from([40.0, 1e-300]))
NEAR_LIMIT = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308])


@st.composite
def track_files(draw):
    """MOT text of 0-4 tracks, rows shuffled: ids and frames up to the int64 limits,
    single-row tracks, gaps of 1-20 frames, tracks that keep one y (so they turn back
    by exactly pi); in one file of four, centres and sizes near 1e308."""
    coords, sizes = COORDS, SIZES
    if draw(st.integers(0, 3)) == 0:
        coords, sizes = st.one_of(COORDS, NEAR_LIMIT), st.one_of(SIZES, st.just(1e308))
    rows = []
    for tid in draw(st.lists(st.sampled_from([-2**63, -1, 0, 5, 7, INT64_MAX]), max_size=4, unique=True)):
        frames = np.cumsum([0] + draw(st.lists(st.one_of(st.just(1), st.integers(2, 21)), max_size=5))).tolist()
        first = draw(st.sampled_from([1, 3, INT64_MAX - frames[-1]]))
        ys = st.just(draw(coords)) if draw(st.booleans()) else coords
        rows += [f"{first + f},{tid},{draw(coords)!r},{draw(ys)!r},{draw(sizes)!r},{draw(sizes)!r},1,-1,-1,-1"
                 for f in frames]
    return "\n".join(draw(st.permutations(rows))) + "\n"


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lifting_oracle")


def rows(tid, *boxes):
    """MOT lines of track ``tid`` from (frame, x, y, w, h) tuples."""
    return "".join(f"{f},{tid},{x},{y},{w},{h},1,-1,-1,-1\n" for f, x, y, w, h in boxes)


@pytest.mark.parametrize("method", METHODS)
# (0, 1e-160): r underflows, so the smoother fails on tracks of three rows or more, not on two
@given(text=track_files(), stds=st.sampled_from([(0.1, 0.01), (1.0, 0.5), (0.0, 0.3), (0.0, 0.0), (0.0, 1e-160)]))
# a U-turn across frames 3-6
@example(text=rows(7, *((f, x, 50, 40, 80) for f, x in [(1, 100), (2, 110), (3, 120), (6, 150), (7, 140)])),
         stds=(0.1, 0.01))
# centres 20, inf, inf, 20: the direction from frame 2 to 4 is nan, and the heading keeps it,
# so the twist is not finite; falling back to the previous row would face +x, and the gap
# would be skipped as a turn of pi
@example(text=rows(5, (1, 0, 0, 40, 80), (2, 1.7e308, 0, 1e308, 80), (4, 1.7e308, 0, 1e308, 80), (5, 0, 0, 40, 80)),
         stds=(0.1, 0.01))
# a bad filled box in track 5 comes before a failure of track 7: its twist (se3_linear), or
# its smoother, which the gap-free three-row track 7 fails (se3_kalman)
@example(text=rows(5, (1, 5.0, 1e308, 1e308, 80), (2, 1e308, 1e308, 1e308, 1e308), (4, 5.0, 1e308, 1.0, 1e308),
                   (6, 5.0, 3.0, 1e308, 1e308)) + rows(7, (1, 1e308, 0, 40, 80), (2, -1e308, 0, 40, 80), (4, 1e308, 0, 40, 80)),
         stds=(0.1, 0.01))
@example(text=rows(5, (1, 1e308, 0, 40, 80), (4, -1e308, 0, 40, 80)) + rows(7, *((f, 4 * f, 0, 40, 80) for f in (1, 2, 3))),
         stds=(0.0, 1e-160))
# zero noise: the smoother fails on the gap-free track 4 before track 7, which has a gap
@example(text=rows(4, (1, 0, 0, 10, 20), (2, 2, 0, 10, 20)) + rows(7, (1, 0, 0, 10, 20), (3, 4, 0, 10, 20)),
         stds=(0.0, 0.0))
@settings(max_examples=150, deadline=None)
def test_interpolate_matches_track_at_a_time_oracle(oracle_dir, text, method, stds):
    """The written file, the open gaps and the error line of ``interpolate`` are the oracle's."""
    src, out = oracle_dir / "in.txt", oracle_dir / "out.txt"
    src.write_text(text)
    out.unlink(missing_ok=True)
    argv = ["interpolate", "--input", str(src), "--method", method, "--out", str(out),
            "--se3-process-std", str(stds[0]), "--se3-meas-std", str(stds[1])]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    cfg = RunConfig(se3_process_std=stds[0], se3_meas_std=stds[1])
    try:
        filled, skipped = lifting_oracle.interpolate(parse_mot(src), method, cfg)
    except ValueError as exc:
        assert (code, err.getvalue(), out.exists()) == (2, f"headtrack: {src}: {exc}\n", False)
        return
    gaps = [f"track {tid}: gap {g.before[0] + 1}-{g.after[0] - 1} left unfilled: {g.reason}\n" for tid, g in skipped]
    assert (code, err.getvalue()) == (0, "".join(gaps))
    assert out.read_text() == mot_oracle.format_mot(filled)
