import numpy as np
import pytest

from headtrack import kalman
from headtrack.association import AppearanceDescriptor, AssociationConfig
from headtrack.geometry import BBox
from headtrack.tracker import (
    Detection,
    Tracker,
    TrackerConfig,
    bbox_from_state,
    measurement_from_bbox,
)


def det(frame, cx, cy, w=40.0, h=100.0, score=1.0, descriptor=None):
    return Detection(
        frame=frame,
        bbox=BBox(x=cx - w / 2, y=cy - h / 2, w=w, h=h),
        score=score,
        descriptor=descriptor,
    )


def motion_config(**kw):
    defaults = dict(
        assoc=AssociationConfig(w_app=0.0, w_mot=1.0, motion_scale=1000.0, gate_g=0.2),
    )
    defaults.update(kw)
    return TrackerConfig(**defaults)


def onehot(i, dim=8):
    v = np.zeros(dim)
    v[i] = 1.0
    return AppearanceDescriptor(f_cls=v)


class TestLifecycle:
    def test_stationary_target_emits_from_min_hits(self):
        tr = Tracker(motion_config(min_hits=3))
        emitted = {}
        for f in range(1, 6):
            emitted[f] = tr.step(f, [det(f, 100, 100)])
        assert emitted[1] == [] and emitted[2] == []
        ids = {tid for f in (3, 4, 5) for tid, _ in emitted[f]}
        assert len(ids) == 1
        assert all(len(emitted[f]) == 1 for f in (3, 4, 5))

    def test_elimination_after_patience(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=3))
        tr.step(1, [det(1, 100, 100)])
        for f in range(2, 6):
            tr.step(f, [])  # vanish for patience_w and beyond
        out = tr.step(6, [det(6, 100, 100)])
        assert len(out) == 1
        assert out[0][0] == 2  # reappearance spawns a fresh id

    def test_survives_shorter_gap(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=5))
        tr.step(1, [det(1, 100, 100)])
        for f in range(2, 6):
            tr.step(f, [])  # four misses < patience
        out = tr.step(6, [det(6, 100, 100)])
        assert out[0][0] == 1

    def test_crossing_targets_kept_apart_by_appearance(self):
        # two constant-velocity targets crossing mid-sequence, orthogonal
        # descriptors, appearance-only cost: identities must survive
        cfg = TrackerConfig(
            min_hits=1,
            assoc=AssociationConfig(w_app=1.0, w_mot=0.0, motion_scale=1000.0, gate_g=0.5),
        )
        tr = Tracker(cfg)
        history = {1: [], 2: []}
        for f in range(1, 21):
            # paths cross between frames so the boxes never coincide exactly
            dets = [
                det(f, 50 + 10 * f, 100, descriptor=onehot(0)),
                det(f, 305 - 10 * f, 104, descriptor=onehot(1)),
            ]
            for tid, box in tr.step(f, dets):
                truth = 1 if abs(box.cy - 100) < 1.0 else 2
                history[truth].append(tid)
        assert len(set(history[1])) == 1
        assert len(set(history[2])) == 1
        assert set(history[1]) != set(history[2])

    def test_low_score_detections_do_not_spawn(self):
        tr = Tracker(motion_config(min_hits=1, init_score_min=0.25))
        out = tr.step(1, [det(1, 100, 100, score=0.1)])
        assert out == []
        assert tr.tracks == []

    def test_spawned_track_matches_next_frame(self):
        tr = Tracker(motion_config(min_hits=1))
        first = tr.step(1, [det(1, 100, 100)])
        second = tr.step(2, [det(2, 102, 100)])
        assert [tid for tid, _ in first] == [tid for tid, _ in second] == [1]


class TestStepContracts:
    def test_rejects_out_of_order_frames(self):
        tr = Tracker(motion_config())
        tr.step(5, [])
        with pytest.raises(ValueError):
            tr.step(4, [])

    def test_rejects_duplicate_frame(self):
        tr = Tracker(motion_config())
        tr.step(1, [])
        with pytest.raises(ValueError):
            tr.step(1, [])

    def test_rejects_foreign_frame_detections(self):
        tr = Tracker(motion_config())
        with pytest.raises(ValueError):
            tr.step(2, [det(1, 0, 0)])

    def test_emitted_boxes_are_matched_detections(self):
        tr = Tracker(motion_config(min_hits=1))
        d = det(1, 123.5, 67.25)
        out = tr.step(1, [d])
        assert out == [(1, d.bbox)]

    def test_coasting_suppressed_by_default(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=10))
        tr.step(1, [det(1, 100, 100)])
        assert tr.step(2, []) == []

    def test_coasting_emitted_with_flag(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=10, emit_predictions=True))
        tr.step(1, [det(1, 100, 100)])
        out = tr.step(2, [])
        assert len(out) == 1
        assert out[0][0] == 1
        assert out[0][1].cx == pytest.approx(100, abs=1.0)


class TestInvariants:
    def run_random_scene(self, seed, cfg=None):
        rng = np.random.default_rng(seed)
        tr = Tracker(cfg or motion_config(min_hits=2, patience_w=4))
        emissions = []
        for f in range(1, 40):
            dets = []
            for k in range(int(rng.integers(0, 5))):
                dets.append(det(f, rng.uniform(0, 900), rng.uniform(0, 900)))
            for tid, box in tr.step(f, dets):
                emissions.append((f, tid, box))
        return tr, emissions

    def test_no_id_collision_within_frame(self):
        for seed in range(5):
            _, emissions = self.run_random_scene(seed)
            seen = set()
            for f, tid, _ in emissions:
                assert (f, tid) not in seen
                seen.add((f, tid))

    def test_histories_strictly_increasing(self):
        for seed in range(5):
            tr, _ = self.run_random_scene(seed)
            for t in tr.tracks:
                frames = [f for f, _ in t.history]
                assert all(a < b for a, b in zip(frames, frames[1:]))

    def test_patience_contract_absence(self):
        w = 4
        tr = Tracker(motion_config(min_hits=1, patience_w=w))
        tr.step(1, [det(1, 100, 100)])
        for f in range(2, 2 + w):
            tr.step(f, [])
        # far-away detections afterwards: the dead track may never resurface
        for f in range(2 + w, 10 + w):
            for tid, _ in tr.step(f, [det(f, 100, 100)]):
                assert tid != 1

    def test_determinism(self):
        runs = []
        for _ in range(2):
            tr = Tracker(motion_config(min_hits=1))
            out = []
            rng = np.random.default_rng(99)
            for f in range(1, 30):
                dets = [
                    det(f, float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
                    for _ in range(3)
                ]
                out.append(tr.step(f, dets))
            runs.append(out)
        assert runs[0] == runs[1]

    def test_removed_tracks_never_revive(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=2))
        tr.step(1, [det(1, 100, 100)])
        tr.step(2, [])
        tr.step(3, [])
        dead = tr.tracks[0]
        assert dead.status == "removed"
        tr.step(4, [det(4, 100, 100)])
        assert dead.status == "removed"
        assert tr.tracks[1].id == 2


class TestNumericalGuards:
    def test_diverged_filter_removes_only_that_track(self, monkeypatch):
        tr = Tracker(motion_config(min_hits=1))
        for f in (1, 2):
            assert [tid for tid, _ in tr.step(f, [det(f, 100, 100), det(f, 600, 600)])] == [1, 2]
        broken = tr.tracks[0]
        broken.kf = kalman.KalmanState(x=np.full(8, np.nan), P=broken.kf.P)

        diverged = []
        real_predict = kalman.predict

        def spy(state, model, h_min=1.0):
            try:
                return real_predict(state, model, h_min=h_min)
            except kalman.FilterDivergence:
                diverged.append(state)
                raise

        monkeypatch.setattr(kalman, "predict", spy)
        emitted = {f: tr.step(f, [det(f, 100, 100), det(f, 600, 600)]) for f in range(3, 8)}
        assert len(diverged) == 1 and diverged[0] is broken.kf
        assert broken.status == "removed"
        # the survivor keeps id 2; track 1's detections spawn id 3
        assert all([tid for tid, _ in emitted[f]] == [2, 3] for f in emitted)

    def test_ill_conditioned_update_retries_with_jitter(self, monkeypatch):
        tr = Tracker(motion_config(min_hits=1))
        tr.step(1, [det(1, 100, 100)])
        track = tr.tracks[0]

        seen_R = []
        real_update = kalman.update

        def flaky(state, z, model, **kw):
            seen_R.append(model.R)
            if len(seen_R) == 1:
                raise kalman.IllConditionedUpdate("singular innovation covariance")
            return real_update(state, z, model, **kw)

        monkeypatch.setattr(kalman, "update", flaky)
        matched = det(2, 102, 101)
        assert tr.step(2, [matched]) == [(1, matched.bbox)]
        assert len(seen_R) == 2
        assert np.array_equal(seen_R[1], seen_R[0] + 1e-9 * np.eye(4))
        assert track.hit_count == 2 and track.miss_count == 0
        assert track.history[-1] == (2, matched.bbox)
        assert len(tr.tracks) == 1


class TestFinalize:
    def test_empty_run(self):
        assert Tracker(motion_config()).finalize() == []

    def test_single_confirmed_track(self):
        tr = Tracker(motion_config(min_hits=1))
        for f in range(1, 8):
            tr.step(f, [det(f, 100 + f, 100)])
        trajs = tr.finalize()
        assert len(trajs) == 1
        tid, points = trajs[0]
        assert tid == 1
        assert len(points) == 7
        assert [f for f, _ in points] == list(range(1, 8))

    def test_tentative_tracks_discarded(self):
        tr = Tracker(motion_config(min_hits=3))
        tr.step(1, [det(1, 100, 100)])
        tr.step(2, [det(2, 100, 100)])
        assert tr.finalize() == []

    def test_ten_target_scene_coverage(self):
        # generator-backed scene: the generator knows the true spans
        from headtrack.dataio import SceneSpec, generate_scene, mot_to_detections

        spec = SceneSpec(targets=10, frames=60, motion="crossing", seed=13)
        scene = generate_scene(spec)
        desc = {
            (r.frame, r.det_index): AppearanceDescriptor(f_cls=r.f_cls)
            for r in scene.descriptors
        }
        frames = mot_to_detections(scene.detections, desc)
        cfg = TrackerConfig(
            min_hits=1,
            assoc=AssociationConfig(w_app=0.5, w_mot=0.5, motion_scale=2203.0, gate_g=0.5),
        )
        tr = Tracker(cfg)
        for f in range(1, spec.frames + 1):
            tr.step(f, frames.get(f, []))
        trajs = tr.finalize()
        assert len(trajs) == 10
        for _, points in trajs:
            assert len(points) >= 0.95 * spec.frames


def test_measurement_roundtrip():
    b = BBox(x=10, y=20, w=30, h=60)
    z = measurement_from_bbox(b)
    assert np.allclose(z, [25, 50, 0.5, 60])
    back = bbox_from_state(np.array([25, 50, 0.5, 60, 0, 0, 0, 0]))
    assert abs(back.x - b.x) < 1e-12 and abs(back.w - b.w) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(patience_w=0)
    with pytest.raises(ValueError):
        TrackerConfig(min_hits=0)
    with pytest.raises(ValueError):
        TrackerConfig(descriptor_momentum=1.0)


def test_association_gate_is_kept():
    cfg = TrackerConfig(assoc=AssociationConfig(gate_g=0.8))
    assert cfg.assoc.gate_g == 0.8
