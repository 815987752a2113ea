import numpy as np
import pytest

from headtrack import association, kalman
from headtrack.association import (
    FEATURE_KINDS,
    AssociationConfig,
    build_cost_matrix,
    solve_assignment,
)
from headtrack.geometry import BBox
from headtrack.rows import AppearanceDescriptor, Detection
from headtrack.tracker import (
    Detections,
    Tracker,
    TrackerConfig,
    boxes_from_states,
    measurements,
)


def det(cx, cy, w=40.0, h=100.0, score=1.0, descriptor=None):
    return Detection(
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
            emitted[f] = list(tr.step(f, as_batch([det(100, 100)])))
        assert emitted[1] == [] and emitted[2] == []
        ids = {tid for f in (3, 4, 5) for tid, _ in emitted[f]}
        assert len(ids) == 1
        assert all(len(emitted[f]) == 1 for f in (3, 4, 5))

    def test_elimination_after_patience(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=3))
        tr.step(1, as_batch([det(100, 100)]))
        for f in range(2, 6):
            tr.step(f, [])  # vanish for patience_w and beyond
        out = list(tr.step(6, as_batch([det(100, 100)])))
        assert len(out) == 1
        assert out[0][0] == 2  # reappearance spawns a fresh id

    def test_survives_shorter_gap(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=5))
        tr.step(1, as_batch([det(100, 100)]))
        for f in range(2, 6):
            tr.step(f, [])  # four misses < patience
        out = list(tr.step(6, as_batch([det(100, 100)])))
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
                det(50 + 10 * f, 100, descriptor=onehot(0)),
                det(305 - 10 * f, 104, descriptor=onehot(1)),
            ]
            for tid, box in tr.step(f, as_batch(dets)):
                truth = 1 if abs(box.cy - 100) < 1.0 else 2
                history[truth].append(tid)
        assert len(set(history[1])) == 1
        assert len(set(history[2])) == 1
        assert set(history[1]) != set(history[2])

    def test_low_score_detections_do_not_spawn(self):
        tr = Tracker(motion_config(min_hits=1, init_score_min=0.25))
        out = list(tr.step(1, as_batch([det(100, 100, score=0.1)])))
        assert out == []
        assert tr.tracks == []

    def test_spawned_track_matches_next_frame(self):
        tr = Tracker(motion_config(min_hits=1))
        first = tr.step(1, as_batch([det(100, 100)]))
        second = tr.step(2, as_batch([det(102, 100)]))
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

    def test_emitted_boxes_are_matched_detections(self):
        tr = Tracker(motion_config(min_hits=1))
        d = det(123.5, 67.25)
        out = list(tr.step(1, as_batch([d])))
        assert out == [(1, d.bbox)]

    def test_coasting_suppressed_by_default(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=10))
        tr.step(1, as_batch([det(100, 100)]))
        assert list(tr.step(2, [])) == []

    def test_coasting_emitted_with_flag(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=10, emit_predictions=True))
        tr.step(1, as_batch([det(100, 100)]))
        out = list(tr.step(2, []))
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
                dets.append(det(rng.uniform(0, 900), rng.uniform(0, 900)))
            for tid, box in tr.step(f, as_batch(dets)):
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
            _, emissions = self.run_random_scene(seed)
            for _, points in by_track(emissions):
                frames = [f for f, _ in points]
                assert all(a < b for a, b in zip(frames, frames[1:]))

    def test_patience_contract_absence(self):
        w = 4
        tr = Tracker(motion_config(min_hits=1, patience_w=w))
        tr.step(1, as_batch([det(100, 100)]))
        for f in range(2, 2 + w):
            tr.step(f, [])
        # far-away detections afterwards: the dead track may never resurface
        for f in range(2 + w, 10 + w):
            for tid, _ in tr.step(f, as_batch([det(100, 100)])):
                assert tid != 1

    def test_determinism(self):
        runs = []
        for _ in range(2):
            tr = Tracker(motion_config(min_hits=1))
            out = []
            rng = np.random.default_rng(99)
            for f in range(1, 30):
                dets = [
                    det(float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
                    for _ in range(3)
                ]
                out.append(list(tr.step(f, as_batch(dets))))
            runs.append(out)
        assert runs[0] == runs[1]

    def test_removed_tracks_never_revive(self):
        tr = Tracker(motion_config(min_hits=1, patience_w=2))
        tr.step(1, as_batch([det(100, 100)]))
        tr.step(2, [])
        tr.step(3, [])
        assert tr.tracks[0].status == "removed"
        tr.step(4, as_batch([det(100, 100)]))
        assert tr.tracks[0].status == "removed"  # a view row is a snapshot: read the view again
        assert tr.tracks[1].id == 2


class TestNumericalGuards:
    def test_diverged_filter_removes_only_that_track(self):
        tr = Tracker(motion_config(min_hits=1))
        for f in (1, 2):
            assert [tid for tid, _ in tr.step(f, as_batch([det(100, 100), det(600, 600)]))] == [1, 2]
        broken = tr.tracks[0]
        tr.x[tr.ids.tolist().index(broken.id)] = np.nan  # its state row goes non-finite

        emitted = {f: tr.step(f, as_batch([det(100, 100), det(600, 600)])) for f in range(3, 8)}
        assert tr.tracks[broken.id - 1].status == "removed"
        assert tr.ids.tolist() == [2, 3]
        # the survivor keeps id 2; track 1's detections spawn id 3
        assert all([tid for tid, _ in emitted[f]] == [2, 3] for f in emitted)

    def test_diverged_covariance_row_removes_its_track(self):
        tr = Tracker(motion_config(min_hits=1))
        tr.step(1, as_batch([det(100, 100), det(600, 600)]))
        tr.pcv[1, 2] = np.inf
        assert [tid for tid, _ in tr.step(2, as_batch([det(100, 100), det(600, 600)]))] == [1, 3]
        assert [t.status for t in tr.tracks] == ["confirmed", "removed", "confirmed"]
        assert len(tr.x) == len(tr.pcv) == len(tr.hits) == len(tr.misses) == 2


def reference_ema(old, new, momentum):
    """The per-descriptor EMA the array blend replaced, one kind at a time."""
    merged = dict(old)
    for kind, b in new.items():
        a = old.get(kind)
        if a is None:
            merged[kind] = b
        else:
            v = momentum * a + (1.0 - momentum) * b
            n = float(np.linalg.norm(v))
            merged[kind] = b if n < 1e-9 else v / n
    return merged


def measurement(b):
    """The (u, v, a, h) observation of one box."""
    return measurements([[b.x, b.y, b.w, b.h]])[0]


def box_of_state(x):
    """The box of one state, the inverse of ``measurement``, its degenerate aspect and height floored at 1e-6."""
    a, h = max(float(x[2]), 1e-6), max(float(x[3]), 1e-6)
    w = a * h
    return BBox(x=float(x[0]) - 0.5 * w, y=float(x[1]) - 0.5 * h, w=w, h=h)


def reference_run(cfg, frames, statuses=None):
    """The per-track loop the array core replaced, on the library filter.

    Each live track predicts with ``kalman.predict``, is matched through the
    same cost matrix and solver, corrects with ``kalman.update`` and blends
    its descriptor with ``reference_ema``. Returns the emissions per frame;
    a ``statuses`` list gets each frame's track statuses appended: removed
    once gone, else confirmed iff hits >= ``min_hits``.
    """
    tracks, emitted = [], []
    kinds = [k for k, w in zip(FEATURE_KINDS, cfg.assoc.feature_weights) if w > 0]
    for f, dets in frames:
        for t in tracks:
            if t["status"] == "removed":
                continue
            model = kalman.constant_velocity_model(t["kf"].x[3], cfg.noise)
            try:
                t["kf"] = kalman.predict(t["kf"], model, h_min=cfg.noise.h_min)
            except kalman.FilterDivergence:
                t["status"] = "removed"
        live = [t for t in tracks if t["status"] != "removed"]
        descs = [AppearanceDescriptor(**t["desc"]) if t["desc"] else None for t in live]
        trk_xy = np.array([t["kf"].x[:2] for t in live]).reshape(-1, 2)
        det_xy = np.array([(d.bbox.cx, d.bbox.cy) for d in dets]).reshape(-1, 2)
        cost = build_cost_matrix(trk_xy, stacked(descs), det_xy, stacked([d.descriptor for d in dets]), cfg.assoc)
        matched = dict(solve_assignment(cost).tolist())
        out = []
        for i, t in enumerate(live):
            if i in matched:
                d = dets[matched[i]]
                model = kalman.constant_velocity_model(t["kf"].x[3], cfg.noise)
                t["kf"] = kalman.update(
                    t["kf"], measurement(d.bbox), model, h_min=cfg.noise.h_min
                )
                new = {k: getattr(d.descriptor, k) for k in kinds if d.descriptor is not None}
                new = {k: v for k, v in new.items() if v is not None}
                t["desc"] = reference_ema(t["desc"], new, cfg.descriptor_momentum)
                t["misses"], t["hits"] = 0, t["hits"] + 1
            else:
                t["misses"] += 1
            if t["hits"] >= cfg.min_hits and i in matched:
                out.append((t["id"], dets[matched[i]].bbox))
            elif t["hits"] >= cfg.min_hits and cfg.emit_predictions and t["misses"] < cfg.patience_w:
                out.append((t["id"], box_of_state(t["kf"].x)))
            if t["misses"] >= cfg.patience_w:
                t["status"] = "removed"
        for j, d in enumerate(dets):
            if j in matched.values() or d.score < cfg.init_score_min:
                continue
            desc = {k: getattr(d.descriptor, k) for k in kinds if d.descriptor is not None}
            tracks.append(dict(
                id=len(tracks) + 1, status="live", hits=1, misses=0,
                kf=kalman.initiate(measurement(d.bbox), cfg.noise),
                desc={k: v for k, v in desc.items() if v is not None},
            ))
            if cfg.min_hits <= 1:
                out.append((len(tracks), d.bbox))
        emitted.append(out)
        if statuses is not None:
            statuses.append([t["status"] if t["status"] == "removed"
                             else "confirmed" if t["hits"] >= cfg.min_hits else "tentative" for t in tracks])
    return emitted


def random_frames(seed, frames=40, targets=6):
    """Noisy walkers with dropouts, clutter, missing descriptors and kinds."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(100, 800, (targets, 2))
    vel = rng.normal(0, 4, (targets, 2))
    bases = rng.normal(size=(targets, 8))
    out = []
    for f in range(1, frames + 1):
        dets = []
        for t in rng.permutation(targets):
            if rng.uniform() < 0.2:
                continue
            cx, cy = start[t] + vel[t] * f + rng.normal(0, 2, 2)
            kinds = {}
            if rng.uniform() < 0.8:
                kinds["f_cls"] = unit_vec(bases[t] + rng.normal(0, 0.2, 8))
            if rng.uniform() < 0.5:
                kinds["f_reg"] = unit_vec(-bases[t] + rng.normal(0, 0.2, 8))
            desc = AppearanceDescriptor(**kinds) if kinds else None
            h = rng.uniform(40, 120)
            dets.append(det(cx, cy, w=0.4 * h, h=h, score=rng.uniform(0.1, 1), descriptor=desc))
        if rng.uniform() < 0.3:  # clutter
            dets.append(det(*rng.uniform(0, 900, 2), score=rng.uniform(0.2, 1)))
        out.append((f, dets))
    return out


def unit_vec(v):
    return v / np.linalg.norm(v)


class TestArrayCore:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_track_library_loop(self, seed):
        cfg = TrackerConfig(
            min_hits=1 + seed % 3,
            patience_w=2 + seed % 4,
            emit_predictions=True,
            assoc=AssociationConfig(motion_scale=300.0, gate_g=0.6),
        )
        frames = random_frames(seed)
        statuses = []
        want = reference_run(cfg, frames, statuses)
        tr, got = Tracker(cfg), []
        for (f, dets), status in zip(frames, statuses):
            got.append(list(tr.step(f, as_batch(dets))))
            assert [t.status for t in tr.tracks] == status
        assert got == want
        assert sum(map(len, got)) > 100
        seen = set().union(*statuses)
        assert seen == {"confirmed", "removed"} | ({"tentative"} if cfg.min_hits > 1 else set())

    def test_blend_matches_per_descriptor_ema(self):
        cfg = TrackerConfig(
            min_hits=1, descriptor_momentum=0.5,
            assoc=AssociationConfig(w_app=0.5, w_mot=0.5, motion_scale=1000.0, gate_g=2.0),
        )
        rng = np.random.default_rng(5)
        a, b = unit_vec(rng.normal(size=16)), unit_vec(rng.normal(size=16))
        c = unit_vec(rng.normal(size=16))
        tr = Tracker(cfg)
        tr.step(1, as_batch([det(100, 100, descriptor=AppearanceDescriptor(f_cls=a)),
                             det(500, 500, descriptor=AppearanceDescriptor(f_cls=c))]))
        tr.step(2, as_batch([det(100, 100, descriptor=AppearanceDescriptor(f_cls=b, f_reg=c)),
                             det(500, 500, descriptor=AppearanceDescriptor(f_cls=-c))]))
        rows, has = tr.feats["f_cls"]
        assert np.array_equal(rows[0], reference_ema({"f_cls": a}, {"f_cls": b}, 0.5)["f_cls"])
        assert np.array_equal(rows[1], -c)  # antipodal pair cancels: the fresher vector stays
        reg, has_reg = tr.feats["f_reg"]
        assert has_reg.tolist() == [True, False] and np.array_equal(reg[0], c)

    def test_blend_rows_equal_per_descriptor_ema(self):
        # 40 tracks matched to drifted descriptors: every blended row equals
        # the per-vector EMA with np.linalg.norm, bit for bit
        cfg = TrackerConfig(min_hits=1, assoc=AssociationConfig(motion_scale=1000.0, gate_g=0.6))
        rng = np.random.default_rng(8)
        old = [unit_vec(rng.normal(size=128)) for _ in range(40)]
        new = [unit_vec(v + 0.3 * unit_vec(rng.normal(size=128))) for v in old]
        spots = [(100 + 300 * (k % 8), 100 + 300 * (k // 8)) for k in range(40)]
        tr = Tracker(cfg)
        for f, vecs in ((1, old), (2, new)):
            dets = [det(*xy, descriptor=AppearanceDescriptor(f_cls=v)) for xy, v in zip(spots, vecs)]
            assert len(list(tr.step(f, as_batch(dets)))) == 40
        assert tr.ids.tolist() == list(range(1, 41))
        expected = [reference_ema({"f_cls": a}, {"f_cls": b}, 0.9)["f_cls"] for a, b in zip(old, new)]
        assert np.array_equal(tr.feats["f_cls"][0], np.array(expected))

    def test_unweighted_kind_is_not_stored(self):
        cfg = TrackerConfig(min_hits=1, assoc=AssociationConfig(feature_weights=(0.0, 0.5, 0.0)))
        tr = Tracker(cfg)
        tr.step(1, as_batch([det(100, 100, descriptor=onehot(0))]))
        assert tr.feats == {}
        # random frames carry f_cls and f_reg; with f_reg unweighted only f_cls is kept
        cfg = TrackerConfig(min_hits=2, assoc=AssociationConfig(motion_scale=300.0, feature_weights=(0.5, 0.0, 0.0)))
        tr = Tracker(cfg)
        for f, dets in random_frames(1):
            tr.step(f, as_batch(dets))
            assert tr.feats.keys() <= {"f_cls"}
        assert tr.feats.keys() == {"f_cls"}


def stacked(descriptors):
    """Each kind some descriptor carries, weighted or not: (matrix, presence mask), zero where one lacks it."""
    feats = {}
    for kind in FEATURE_KINDS:
        vecs = [None if d is None else getattr(d, kind) for d in descriptors]
        dims = {len(v) for v in vecs if v is not None}
        if dims:
            (dim,) = dims
            feats[kind] = (np.array([np.zeros(dim) if v is None else v for v in vecs]),
                           np.array([v is not None for v in vecs]))
    return feats


def as_batch(dets):
    """The Detections of a list of Detection, built column by column."""
    boxes = np.array([[d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h] for d in dets]).reshape(-1, 4)
    return Detections(boxes, np.array([d.score for d in dets], dtype=float), stacked([d.descriptor for d in dets]))


class TestBatchInput:
    def test_empty_batch_only_moves_the_frame(self):
        tr = Tracker(motion_config(min_hits=1))
        assert list(tr.step(1, Detections(np.zeros((0, 4)), np.zeros(0)))) == []
        assert list(tr.step(2, as_batch([det(100, 100)]))) == [(1, BBox(80.0, 50.0, 40.0, 100.0))]

    @pytest.mark.parametrize("empty", [[], ()], ids=["list", "tuple"])
    def test_empty_sequence_coasts_as_an_empty_batch(self, empty):
        cfg = motion_config(min_hits=1, patience_w=3, emit_predictions=True)
        frames = random_frames(2, frames=12)
        batch, seq = Tracker(cfg), Tracker(cfg)
        for f, dets in frames:
            assert list(seq.step(f, as_batch(dets))) == list(batch.step(f, as_batch(dets)))
        for f in range(13, 18):  # every track coasts, then ages out
            want = list(batch.step(f, Detections(np.zeros((0, 4)), np.zeros(0))))
            assert list(seq.step(f, empty)) == want
            assert np.array_equal(seq.x, batch.x) and np.array_equal(seq.pcv, batch.pcv)
            assert [t.status for t in seq.tracks] == [t.status for t in batch.tracks]
        assert not len(batch.ids) and want == []

    @pytest.mark.parametrize("dets", [[det(100, 100)], (det(100, 100),), None, np.zeros((1, 4))],
                             ids=["list", "tuple", "None", "array"])
    def test_other_input_is_a_type_error(self, dets):
        tr = Tracker(motion_config(min_hits=1))
        with pytest.raises(TypeError, match="Detections batch, got"):
            tr.step(1, dets)
        assert list(tr.step(1, as_batch([det(100, 100)]))) == [(1, BBox(80.0, 50.0, 40.0, 100.0))]


class TestBatchRows:
    def test_rows_equal_the_columns(self):
        frames = random_frames(3)
        for _, dets in frames:
            batch = as_batch(dets)
            rows = list(batch)
            assert all(isinstance(d, Detection) for d in rows)
            assert [(d.bbox, d.score) for d in rows] == [(d.bbox, d.score) for d in dets]
            for d, want in zip(rows, dets):
                if want.descriptor is None:
                    assert d.descriptor is None
                    continue
                for kind in FEATURE_KINDS:
                    v, w = getattr(d.descriptor, kind), getattr(want.descriptor, kind)
                    assert (v is None) == (w is None)
                    assert w is None or np.array_equal(v, w)
        assert any(d.descriptor is None for _, dets in frames for d in dets)
        assert any(d.descriptor is not None and d.descriptor.f_reg is None for _, dets in frames for d in dets)

    def test_batch_without_features_yields_no_descriptor(self):
        batch = Detections(np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]), np.array([0.5, 0.25]))
        assert list(batch) == [Detection(BBox(1.0, 2.0, 3.0, 4.0), 0.5), Detection(BBox(5.0, 6.0, 7.0, 8.0), 0.25)]
        assert list(Detections(np.zeros((0, 4)), np.zeros(0))) == []

    def test_batches_and_descriptors_compare_and_hash_by_identity(self):
        dets = [det(100, 100, descriptor=onehot(0)), det(300, 100, descriptor=onehot(1))]
        for one, twin in ((as_batch(dets), as_batch(dets)), (onehot(0), onehot(0))):
            assert one == one and one != twin
            assert hash(one) == hash(one)
            assert one in {one} and twin not in {one} and len({one, twin}) == 2


def by_track(emissions):
    """(frame, track_id, bbox) emissions as (track_id, [(frame, bbox), ...]) sorted by id."""
    out = {}
    for f, tid, box in emissions:
        out.setdefault(tid, []).append((f, box))
    return sorted(out.items())


def trajectories(tr, frames):
    """Step ``tr`` through (frame, detections) pairs; its emissions grouped by track."""
    return by_track([(f, tid, box) for f, dets in frames for tid, box in tr.step(f, dets)])


class TestEmittedTrajectories:
    def test_empty_run(self):
        assert trajectories(Tracker(motion_config()), [(f, []) for f in range(1, 5)]) == []

    def test_single_confirmed_track(self):
        tr = Tracker(motion_config(min_hits=1))
        trajs = trajectories(tr, [(f, as_batch([det(100 + f, 100)])) for f in range(1, 8)])
        assert len(trajs) == 1
        tid, points = trajs[0]
        assert tid == 1
        assert len(points) == 7
        assert [f for f, _ in points] == list(range(1, 8))

    def test_tentative_tracks_discarded(self):
        tr = Tracker(motion_config(min_hits=3))
        assert trajectories(tr, [(f, as_batch([det(100, 100)])) for f in (1, 2)]) == []
        assert [t.status for t in tr.tracks] == ["tentative"]

    def test_ten_target_scene_coverage(self):
        # generator-backed scene: the generator knows the true spans
        from headtrack.dataio import split_frames
        from headtrack.simulate import SceneSpec, generate_scene

        spec = SceneSpec(targets=10, frames=60, motion="crossing", seed=13)
        scene = generate_scene(spec)
        frames = split_frames(scene.detections, scene.descriptors)
        cfg = TrackerConfig(
            min_hits=1,
            assoc=AssociationConfig(w_app=0.5, w_mot=0.5, motion_scale=2203.0, gate_g=0.5),
        )
        trajs = trajectories(Tracker(cfg), [(f, frames.get(f, [])) for f in range(1, spec.frames + 1)])
        assert len(trajs) == 10
        for _, points in trajs:
            assert len(points) >= 0.95 * spec.frames


class TestUniqueOptimumGuard:
    """Emissions are the same whether or not solve_assignment certifies its optimum."""

    SCENES = {
        "c05": (dict(targets=10, frames=100, motion="crossing", seed=7), {}),
        "c06": (dict(targets=10, frames=100, motion="crossing", seed=3, noise_std=1.0,
                     occlusions=tuple((t + 1, 40 + 2 * t, 43 + 2 * t) for t in range(10))), {}),
        "c07": (dict(targets=3, frames=60, motion="linear", seed=11, occlusions=((2, 20, 50),)),
                dict(patience_w=30, w_app=0.0, w_mot=1.0)),
        "quick start": (dict(targets=10, frames=100, motion="crossing", seed=42, noise_std=1.0,
                             occlusions=((3, 40, 44), (7, 60, 64))), {}),
        "shared descriptors": (dict(targets=12, frames=80, motion="circular", seed=5, noise_std=2.0,
                                    feat_noise_std=0.3, descriptor_dim=4), {}),
    }

    @staticmethod
    def run(cfg, frames, monkeypatch, certify):
        """Every frame's emissions, and the certificate's outcome on each solve."""
        held = []
        monkeypatch.setattr(association, "_unique_optimum", lambda *a: held.append(certify(*a)) or held[-1])
        tr = Tracker(cfg)
        return [list(tr.step(f, dets)) for f, dets in frames], held

    @pytest.mark.parametrize("emit", [False, True], ids=["emit detections", "emit predictions"])
    @pytest.mark.parametrize("name", list(SCENES))
    def test_generated_scene(self, name, emit, monkeypatch):
        from headtrack.cli import RunConfig, tracker_config
        from headtrack.dataio import split_frames
        from headtrack.simulate import SceneSpec, generate_scene

        spec, keys = self.SCENES[name]
        spec = SceneSpec(**spec)
        scene = generate_scene(spec)
        by_frame = split_frames(scene.detections, scene.descriptors)
        frames = [(f, by_frame.get(f, [])) for f in range(1, spec.frames + 1)]
        cfg = tracker_config(RunConfig(min_hits=1, emit_predictions=emit, **keys))
        certified, held = self.run(cfg, frames, monkeypatch, association._unique_optimum)
        assert any(held)
        assert self.run(cfg, frames, monkeypatch, lambda *a: False)[0] == certified
        assert sum(map(len, certified)) > 100

    @pytest.mark.parametrize("emit", [False, True], ids=["emit detections", "emit predictions"])
    def test_shuffled_walkers(self, emit, monkeypatch):
        # clutter, dropouts and detections in random order: both sides of the certificate
        cfg = TrackerConfig(min_hits=2, patience_w=3, emit_predictions=emit,
                            assoc=AssociationConfig(motion_scale=300.0, gate_g=0.6))
        certify = association._unique_optimum
        for seed in range(4):
            frames = [(f, as_batch(dets)) for f, dets in random_frames(seed)]
            certified, held = self.run(cfg, frames, monkeypatch, certify)
            assert True in held and False in held
            assert self.run(cfg, frames, monkeypatch, lambda *a: False)[0] == certified


def test_measurement_roundtrip():
    b = BBox(x=10, y=20, w=30, h=60)
    z = measurement(b)
    assert np.allclose(z, [25, 50, 0.5, 60])
    back = boxes_from_states(np.array([[25, 50, 0.5, 60, 0, 0, 0, 0]]))[0]
    assert abs(back[0] - b.x) < 1e-12 and abs(back[2] - b.w) < 1e-12


def test_boxes_from_states_equal_scalar_inverse():
    # floored aspects and heights, and a box near the float limit, bit for bit
    states = np.zeros((5, 8))
    states[:, :4] = [[25, 50, 0.5, 60], [1.5, -2, -3, 0], [7, 7, 1e-7, 2e-9], [0.1, 0.2, 0.3, 0.4], [1e308, 0, 1, 1e308]]
    assert boxes_from_states(states).tolist() == [list(vars(box_of_state(x)).values()) for x in states]


def test_boxes_from_states_raise_the_first_bbox_error():
    states = np.zeros((3, 8))
    states[:, 2:4] = [[1, 1], [1e300, 1e300], [np.inf, 1]]
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"box coordinates must be finite, got BBox\(x=-inf, y=-5e\+299, w=inf, h=1e\+300\)"
    ):
        boxes_from_states(states)


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
