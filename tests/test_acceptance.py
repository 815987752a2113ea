"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and time
budget and prints one pass/fail line (run with -s or -v to see them).
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from headtrack import cli, dataio, label_assign, lifting, metrics, simulate
from headtrack.association import CostMatrix, solve_assignment
from headtrack.geometry import BBox
from headtrack.head import HeadKeypoint
from headtrack.kalman import KalmanState, constant_velocity_model, iterated_update, update
from headtrack.tracker import Tracker
import assign_oracle
from lifting_oracle import complete_track
from metrics_oracle import EvalFrame, tables


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


# -- helpers -------------------------------------------------------------------


def permutation_minimum(values, mask):
    """Exhaustive oracle: best (cardinality, cost) over all stripped permutations."""
    T, D = values.shape
    if T > D:
        return permutation_minimum(values.T, mask.T)
    best_card, best_cost = -1, math.inf
    perms = np.array(list(itertools.permutations(range(D), T)), dtype=int)
    rows = np.arange(T)
    picked = values[rows[None, :], perms]
    ok = mask[rows[None, :], perms]
    cards = ok.sum(axis=1)
    costs = np.where(ok, picked, 0.0).sum(axis=1)
    order = np.lexsort((costs, -cards))
    best = order[0]
    best_card, best_cost = int(cards[best]), float(costs[best])
    # lexsort already minimizes cost within the max-cardinality block
    return best_card, best_cost


def run_scene(spec, run_cfg):
    scene = simulate.generate_scene(spec)
    frames = dataio.split_frames(scene.detections, scene.descriptors)
    tracker = Tracker(run_cfg)
    hyp = {f: list(tracker.step(f, frames.get(f, []))) for f in range(1, spec.frames + 1)}
    gt = {}
    for l in scene.gt:
        gt.setdefault(l.frame, []).append((l.id, l.bbox()))
    eval_frames = [
        EvalFrame(gt=gt.get(f, []), hyp=hyp.get(f, []))
        for f in range(1, spec.frames + 1)
    ]
    return metrics.evaluate(metrics.EvalTables(*tables(eval_frames))), tracker


# -- criteria ------------------------------------------------------------------


def test_c01_assignment_optimality():
    with criterion(1, "assignment optimality vs permutation oracle"):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        for _ in range(500):
            T = int(rng.integers(1, 8))
            D = int(rng.integers(1, 8))
            values = rng.uniform(0.0, 10.0, (T, D))
            mask = rng.uniform(size=(T, D)) < 0.8
            pairs = solve_assignment(CostMatrix(values=values, gate_mask=mask))
            card, cost = permutation_minimum(values, mask)
            got_cost = sum(values[i, j] for i, j in pairs)
            assert len(pairs) == card
            assert got_cost == pytest.approx(cost, abs=1e-12)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c02_iterated_kf_linear_equivalence():
    with criterion(2, "iterated update equals standard update for linear h"):
        rng = np.random.default_rng(1002)
        t0 = time.perf_counter()
        for _ in range(1000):
            x = np.concatenate(
                [rng.uniform(0, 800, 2), [rng.uniform(0.3, 0.8)], [rng.uniform(40, 200)],
                 rng.normal(0, 3, 4)]
            )
            A = rng.normal(0, 1, (8, 8))
            st = KalmanState(x=x, P=A @ A.T + np.eye(8))
            model = constant_velocity_model(x[3])
            z = model.H @ x + rng.normal(0, 3, 4)
            res = iterated_update(st, z, model)
            base = update(st, z, model)
            assert res.iterations == 1
            assert np.max(np.abs(res.state.x - base.x)) < 1e-9
            assert np.max(np.abs(res.state.P - base.P)) < 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c03_iterated_kf_nonlinear_benefit():
    with criterion(3, "iterated update beats single step on log-height"):

        def log_h(s):
            return np.array([s[0], s[1], s[2], np.log(s[3])])

        rng = np.random.default_rng(1003)
        t0 = time.perf_counter()
        better = 0
        for _ in range(100):
            x = np.array(
                [*rng.uniform(0, 1000, 2), rng.uniform(0.3, 0.7), rng.uniform(50, 200),
                 *rng.normal(0, 2, 4)]
            )
            P = np.diag([4.0, 4.0, 0.01, 4.0, 1.0, 1.0, 0.01, 1.0])
            st = KalmanState(x=x, P=P)
            model = constant_velocity_model(x[3])
            z = log_h(x + rng.normal(0, [3, 3, 0.05, 3, 0, 0, 0, 0]))
            res = iterated_update(st, z, model, h_fn=log_h)
            S = model.H @ P @ model.H.T + model.R
            K = P @ model.H.T @ np.linalg.inv(S)
            single = x + K @ (z - log_h(x))
            if np.linalg.norm(z - log_h(res.state.x)) <= np.linalg.norm(
                z - log_h(single)
            ) + 1e-12:
                better += 1
        elapsed = time.perf_counter() - t0
        assert better >= 95, f"only {better}/100"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c04_se3_roundtrip_and_endpoints():
    with criterion(4, "SE(3) log/exp round-trip and interpolation endpoints"):
        rng = np.random.default_rng(1004)
        t0 = time.perf_counter()
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            xi = np.concatenate(
                [axis * rng.uniform(0, math.pi - 0.01), rng.uniform(-10, 10, 3)]
            )
            assert np.linalg.norm(lifting.se3_log(lifting.se3_exp(xi)) - xi) < 1e-9
        for _ in range(100):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            T1 = lifting.se3_exp(np.concatenate([a * rng.uniform(0, 2), rng.uniform(-5, 5, 3)]))
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            T2 = lifting.se3_exp(np.concatenate([b * rng.uniform(0, 2), rng.uniform(-5, 5, 3)]))
            lo = lifting.interpolate_se3(T1, T2, 0.0)
            hi = lifting.interpolate_se3(T1, T2, 1.0)
            assert np.max(np.abs(lo.R - T1.R)) < 1e-9 and np.max(np.abs(lo.t - T1.t)) < 1e-9
            assert np.max(np.abs(hi.R - T2.R)) < 1e-9 and np.max(np.abs(hi.t - T2.t)) < 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c05_perfect_input_tracking():
    with criterion(5, "perfect input: MOTA 1.0, zero switches, IDF1 1.0"):
        t0 = time.perf_counter()
        spec = simulate.SceneSpec(targets=10, frames=100, motion="crossing", seed=7)
        report, _ = run_scene(spec, cli.RunConfig(min_hits=1))
        elapsed = time.perf_counter() - t0
        assert report.mota == 1.0
        assert report.ids == 0
        assert report.idf1 == 1.0
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_c06_occlusion_robustness():
    with criterion(6, "occlusion windows under patience with pixel noise"):
        t0 = time.perf_counter()
        cfg = cli.RunConfig(min_hits=1)  # patience_w stays at its default 30
        for seed in range(20):
            windows = tuple((t + 1, 40 + 2 * t, 43 + 2 * t) for t in range(10))
            spec = simulate.SceneSpec(
                targets=10, frames=100, motion="crossing", seed=seed,
                noise_std=1.0, occlusions=windows,
            )
            report, _ = run_scene(spec, cfg)
            assert report.ids == 0, f"seed {seed}: {report}"
            assert report.mota >= 0.95, f"seed {seed}: {report}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_c07_patience_contract():
    with criterion(7, "window one past patience forces exactly one new id"):
        patience = 5
        window = (2, 20, 20 + patience)  # length patience + 1
        spec = simulate.SceneSpec(
            targets=3, frames=60, motion="linear", seed=11, occlusions=(window,)
        )
        cfg = cli.RunConfig(min_hits=1, patience_w=patience, w_app=0.0, w_mot=1.0)
        runs = []
        for _ in range(2):
            scene = simulate.generate_scene(spec)
            frames = dataio.split_frames(scene.detections)
            tracker = Tracker(cfg)
            emitted = {
                f: list(tracker.step(f, frames.get(f, []))) for f in range(1, spec.frames + 1)
            }
            runs.append(emitted)
        assert runs[0] == runs[1]  # deterministic
        ids_seen = {tid for out in runs[0].values() for tid, _ in out}
        # three targets, one of them re-identified once
        assert len(ids_seen) == 4


def test_c08_gap_fill_exactness():
    with criterion(8, "linear2d exact on constant velocity; se3_linear agrees"):
        cfg = cli.RunConfig()
        truth = []
        for f in range(1, 21):
            cx, cy = 100 + 4.0 * f, 700 - 3.0 * f
            truth.append((f, BBox(x=cx - 25, y=cy - 60, w=50, h=120)))
        gappy = [(f, b) for f, b in truth if not (8 <= f <= 12)]
        filled, skipped = complete_track(gappy, "linear2d", cfg)
        assert skipped == []
        got = dict(filled)
        for f, b in truth:
            r = got[f]
            err = max(abs(r.x - b.x), abs(r.y - b.y), abs(r.w - b.w), abs(r.h - b.h))
            assert err < 1e-9
        b3, _ = complete_track(gappy, "se3_linear", cfg)
        for (fa, ba), (fb, bb) in zip(filled, b3):
            assert fa == fb
            assert max(abs(ba.x - bb.x), abs(ba.y - bb.y), abs(ba.w - bb.w),
                       abs(ba.h - bb.h)) < 1e-9


def test_c09_label_assignment_penalty_and_dynamic_k():
    with criterion(9, "beta penalty excludes outside anchors; dynamic-k oracle"):
        rng = np.random.default_rng(1009)
        cfg = cli.RunConfig(beta=1e5)
        head = HeadKeypoint(0.0, 0.0, 1.0)
        for _ in range(100):
            # stride-8 anchor grid over a 256px tile, detector-style
            anchors = [
                label_assign.Anchor(
                    cx=4.0 + 8 * i, cy=4.0 + 8 * j, stride=8,
                    pred_box=BBox(
                        4.0 + 8 * i - rng.uniform(5, 30), 4.0 + 8 * j - rng.uniform(5, 30),
                        rng.uniform(10, 60), rng.uniform(10, 60),
                    ),
                    pred_cls=float(rng.uniform(0.05, 0.95)),
                    pred_obj=float(rng.uniform(0.05, 0.95)),
                    pred_head=head,
                )
                for i in range(0, 32, 2)
                for j in range(0, 32, 2)
            ]
            gts = [
                label_assign.GtInstance(
                    box=BBox(*rng.uniform(30, 180, 2), *rng.uniform(25, 70, 2)),
                    head=head,
                )
                for _ in range(3)
            ]
            cost, ious, fg = label_assign.assign_tables(anchors, gts, cfg)
            positives = label_assign.dynamic_k_match(cost, ious, fg, cfg)
            for g_idx, sel in enumerate(positives):
                for a_idx in sel:
                    assert assign_oracle.in_center_region(anchors[a_idx], gts[g_idx])

        # toy dynamic-k oracle: candidate IoU mass 1.8 -> k = 2
        g = label_assign.GtInstance(box=BBox(0, 0, 100, 100), head=head)
        boxes = [
            BBox(0, 0, 100, 90),
            BBox(0, 0, 100, 80),
            BBox(0, 0, 100, 5),
            BBox(0, 95, 100, 100),
        ]
        anchors = [
            label_assign.Anchor(
                cx=50, cy=50, stride=8, pred_box=b, pred_cls=0.9, pred_obj=0.9,
                pred_head=head,
            )
            for b in boxes
        ]
        cost, ious, fg = label_assign.assign_tables(anchors, [g], cfg)
        assert label_assign.dynamic_k_match(cost, ious, fg, cfg) == [[0, 1]]


def test_c10_metrics_hand_oracles():
    with criterion(10, "hand-worked metric scenarios reproduce exactly"):
        def box(cx, cy):
            return BBox(x=cx - 20, y=cy - 50, w=40, h=100)

        # perfect
        frames = [
            EvalFrame(
                gt=[(k, box(100 * k + 50, 200)) for k in range(10)],
                hyp=[(k, box(100 * k + 50, 200)) for k in range(10)],
            )
            for _ in range(10)
        ]
        rep = metrics.evaluate(metrics.EvalTables(*tables(frames)))
        assert (rep.mota, rep.idf1, rep.fp, rep.fn, rep.ids) == (1.0, 1.0, 0, 0, 0)

        # one spurious box over gt_total 100
        spoiled = list(frames)
        spoiled[0] = EvalFrame(
            gt=spoiled[0].gt, hyp=spoiled[0].hyp + [(77, box(5000, 5000))]
        )
        rep = metrics.evaluate(metrics.EvalTables(*tables(spoiled)))
        assert rep.mota == pytest.approx(0.99, abs=1e-12)
        assert (rep.fp, rep.fn, rep.ids) == (1, 0, 0)

        # one identity flip at frame 6: IDF1 = 2*5/(10+10)
        flip = [
            EvalFrame(
                gt=[(1, box(100 + 2 * f, 300))],
                hyp=[(7 if f <= 5 else 8, box(100 + 2 * f, 300))],
            )
            for f in range(1, 11)
        ]
        rep = metrics.evaluate(metrics.EvalTables(*tables(flip)))
        assert rep.ids == 1
        assert rep.mota == pytest.approx(0.9, abs=1e-12)
        assert rep.idf1 == pytest.approx(0.5, abs=1e-12)


def test_c11_cli_determinism(tmp_path):
    with criterion(11, "track output byte-identical across three runs"):
        spec_text = "targets = 6\nmotion = crossing\nframes = 50\nseed = 42\nnoise_std = 1.0\n"
        spec_path = tmp_path / "scene.cfg"
        spec_path.write_text(spec_text)
        out_dir = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
        blobs = []
        for k in range(3):
            res = tmp_path / f"res{k}.txt"
            code = cli.main(
                [
                    "track",
                    "--dets", str(out_dir / "det.txt"),
                    "--features", str(out_dir / "features.ftfv"),
                    "--out", str(res),
                    "--min-hits", "1",
                ]
            )
            assert code == 0
            blobs.append(res.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        assert len(blobs[0]) > 0
