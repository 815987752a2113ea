import time
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from headtrack import association
from headtrack.association import (
    FEATURE_KINDS,
    AppearanceDescriptor,
    AssociationConfig,
    CostMatrix,
    build_cost_matrix,
    gaussian_weighted_descriptor,
    solve_assignment,
    stack_descriptors,
)
from headtrack.geometry import BBox, HeadKeypoint
from headtrack.kalman import KalmanState


def unit(*vals):
    v = np.array(vals, dtype=float)
    return v / np.linalg.norm(v)


def brute_force_matching(values, mask):
    """Exhaustive max-cardinality min-cost matching over admissible pairs.

    Recursive enumeration, completely independent of the Hungarian path.
    Returns (cardinality, total_cost).
    """
    T, D = values.shape
    best = [0, 0.0]

    def rec(i, used, card, cost):
        if card + (T - i) < best[0]:
            return
        if i == T:
            if card > best[0] or (card == best[0] and cost < best[1] - 1e-12):
                best[0], best[1] = card, cost
            return
        rec(i + 1, used, card, cost)  # leave row i unmatched
        for j in range(D):
            if mask[i, j] and not used & (1 << j):
                rec(i + 1, used | (1 << j), card + 1, cost + values[i, j])

    rec(0, 0, 0, 0.0)
    return best[0], best[1]


def reference_solve(c):
    """Lexicographic gated assignment by re-solving the LSA per (row, column).

    The earlier implementation of ``solve_assignment``, kept as the oracle:
    the same square encoding, one full LSA for the optimum, then for each
    track row in order the first real column whose fixing still admits an
    optimal completion, tested by solving the remaining submatrix again.
    """
    T, D = c.values.shape
    if T == 0 or D == 0:
        return []
    admissible = c.gate_mask & np.isfinite(c.values)
    if not admissible.any():
        return []
    values = c.values
    lo = float(values[admissible].min())
    if lo < 0.0:
        values = values - lo
    unmatch = min(T, D) * float(values[admissible].max()) + 1.0
    barred = (T + D + 1.0) * (unmatch + 1.0)
    n = T + D
    enc = np.full((n, n), barred)
    enc[:T, :D] = np.where(admissible, values, barred)
    enc[:T, D:] = np.where(np.eye(T, dtype=bool), unmatch, barred)
    np.fill_diagonal(enc[T:, :D], unmatch)
    enc[T:, D:] = 0.0

    def lsa_total(m):
        rows, cols = linear_sum_assignment(m)
        return float(m[rows, cols].sum())

    best = lsa_total(enc)
    tol = 1e-9 * max(1.0, abs(best))
    pairs = []
    cols = list(range(n))  # original column ids of the current submatrix
    cur = enc
    for i in range(T):
        fixed = False
        for jc, j in enumerate(cols):
            if j >= D:
                break
            if cur[0, jc] >= barred:
                continue
            sub = np.delete(np.delete(cur, 0, axis=0), jc, axis=1)
            sub_best = lsa_total(sub)
            if cur[0, jc] + sub_best <= best + tol:
                pairs.append((i, j))
                cols.pop(jc)
                cur, best, fixed = sub, sub_best, True
                break
        if not fixed:
            jc = cols.index(D + i)
            cur = np.delete(np.delete(cur, 0, axis=0), jc, axis=1)
            cols.pop(jc)
            best = lsa_total(cur)
    return pairs


def reference_cost_matrix(tracks, detections, cfg):
    """Tracks x detections costs filled one pair at a time.

    The formulas of the earlier per-pair helpers, kept as the oracle for
    ``build_cost_matrix``: normalized center distance to the prediction,
    plus the weighted cosine cost 1 - <p, q> over the kinds both sides
    carry with a non-zero weight, renormalized over that subset; motion
    alone when the pair shares no such kind.
    """
    values = np.zeros((len(tracks), len(detections)))
    for i, trk in enumerate(tracks):
        for j, det in enumerate(detections):
            du = trk.kf.x[0] - det.bbox.cx
            dv = trk.kf.x[1] - det.bbox.cy
            c_mot = float(np.hypot(du, dv)) / cfg.motion_scale
            acc = total_w = 0.0
            for kind, w in zip(FEATURE_KINDS, cfg.feature_weights):
                a = getattr(trk.descriptor, kind, None)
                b = getattr(det.descriptor, kind, None)
                if a is None or b is None or w == 0.0:
                    continue
                if a.shape != b.shape:
                    raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
                acc += w * (1.0 - float(np.dot(a, b)))
                total_w += w
            if total_w == 0.0:
                values[i, j] = cfg.w_mot * c_mot
            else:
                values[i, j] = cfg.w_app * (acc / total_w) + cfg.w_mot * c_mot
    return values


class FakeTrack:
    def __init__(self, cx, cy, descriptor=None):
        x = np.array([cx, cy, 0.5, 100.0, 0, 0, 0, 0])
        self.kf = KalmanState(x=x, P=np.eye(8))
        self.descriptor = descriptor


class FakeDet:
    def __init__(self, cx, cy, descriptor=None):
        self.bbox = BBox(x=cx - 20, y=cy - 50, w=40, h=100)
        self.descriptor = descriptor


def cost_matrix(tracks, detections, cfg):
    """``build_cost_matrix`` on object lists: predicted centres and stacked descriptors."""
    trk_xy = np.array([t.kf.x[:2] for t in tracks], dtype=float).reshape(-1, 2)
    det_xy = np.array([(d.bbox.cx, d.bbox.cy) for d in detections], dtype=float).reshape(-1, 2)
    trk_feats = stack_descriptors([t.descriptor for t in tracks], cfg)
    det_feats = stack_descriptors([d.descriptor for d in detections], cfg)
    return build_cost_matrix(trk_xy, trk_feats, det_xy, det_feats, cfg)


def appearance_term(track_desc, det_desc, weights=(1.0, 0.0, 0.0)):
    """The appearance cost of one co-located pair, read through build_cost_matrix."""
    cfg = AssociationConfig(w_app=1.0, w_mot=0.0, feature_weights=weights, gate_g=1e9)
    cm = cost_matrix([FakeTrack(0, 0, track_desc)], [FakeDet(0, 0, det_desc)], cfg)
    return cm.values[0, 0]


def motion_term(track, det, motion_scale):
    cfg = AssociationConfig(w_app=0.0, w_mot=1.0, motion_scale=motion_scale, gate_g=1e9)
    return cost_matrix([track], [det], cfg).values[0, 0]


class TestCosineCost:
    def test_identical(self):
        d = AppearanceDescriptor(f_cls=unit(1, 2, 3))
        assert appearance_term(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        a = AppearanceDescriptor(f_cls=unit(1, 0))
        b = AppearanceDescriptor(f_cls=unit(0, 1))
        assert appearance_term(a, b) == pytest.approx(1.0)

    def test_antipodal(self):
        p = unit(3, 4)
        a = AppearanceDescriptor(f_cls=p)
        b = AppearanceDescriptor(f_cls=-p)
        assert appearance_term(a, b) == pytest.approx(2.0)

    def test_dim_mismatch(self):
        a = AppearanceDescriptor(f_cls=unit(1, 0))
        b = AppearanceDescriptor(f_cls=unit(1, 0, 0))
        with pytest.raises(ValueError):
            appearance_term(a, b)


class TestAppearanceCost:
    weights = (0.5, 0.5, 0.0)

    def test_identical_descriptors(self):
        d = AppearanceDescriptor(f_cls=unit(1, 1), f_reg=unit(2, 1))
        assert appearance_term(d, d, self.weights) == pytest.approx(0.0, abs=1e-12)

    def test_single_kind_renormalizes(self):
        a = AppearanceDescriptor(f_cls=unit(1, 0))
        b = AppearanceDescriptor(f_cls=unit(1, 1))
        expected = 1.0 - float(np.dot(unit(1, 0), unit(1, 1)))
        assert appearance_term(a, b, self.weights) == pytest.approx(expected)

    def test_weighted_mean(self):
        # cls cost 0.2, reg cost 0.4, equal weights: 0.3 by hand
        a = AppearanceDescriptor(f_cls=np.array([1.0, 0.0]), f_reg=np.array([1.0, 0.0]))
        b = AppearanceDescriptor(f_cls=np.array([0.8, 0.6]), f_reg=np.array([0.6, 0.8]))
        assert appearance_term(a, b, self.weights) == pytest.approx(0.3, abs=1e-12)

    def test_no_common_kind_is_sentinel(self):
        # no shared kind: the pair costs the motion term alone
        cfg = AssociationConfig(w_app=0.7, w_mot=0.3, motion_scale=1.0, gate_g=1e9)
        a = AppearanceDescriptor(f_cls=unit(1, 0))
        b = AppearanceDescriptor(f_reg=unit(1, 0))
        cm = cost_matrix([FakeTrack(0, 0, a)], [FakeDet(3, 4, b)], cfg)
        assert cm.values[0, 0] == pytest.approx(0.3 * 5.0, abs=1e-12)

    def test_kind_order_irrelevant(self):
        a = AppearanceDescriptor(f_cls=unit(1, 2), f_reg=unit(3, 1), f_head=unit(0, 1))
        b = AppearanceDescriptor(f_cls=unit(2, 1), f_reg=unit(1, 3), f_head=unit(1, 1))
        # doubling all weights renormalizes to the same mixture
        assert appearance_term(a, b, (0.2, 0.3, 0.5)) == pytest.approx(
            appearance_term(a, b, (0.4, 0.6, 1.0))
        )

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            AppearanceDescriptor(f_cls=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            AppearanceDescriptor(f_cls=np.array([0.6, np.nan, 0.8]))
        with pytest.raises(ValueError):
            AppearanceDescriptor()


class TestGaussianWeightedDescriptor:
    def test_huge_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(0, 40, (9, 2))
        feats = rng.normal(size=(9, 4))
        head = HeadKeypoint(20.0, 20.0, 1.0)
        raw = feats.reshape(-1)
        raw = raw / np.linalg.norm(raw)
        out = gaussian_weighted_descriptor(centers, feats, head, sigma=1e9)
        assert np.max(np.abs(out - raw)) < 1e-6

    def test_single_cell_renormalizes_to_input(self):
        feats = np.array([[3.0, 4.0]])
        out = gaussian_weighted_descriptor(
            np.array([[10.0, 10.0]]), feats, HeadKeypoint(0.0, 0.0, 1.0), sigma=2.0
        )
        assert np.allclose(out, [0.6, 0.8])

    def test_two_cell_closed_form(self):
        # weights 1 and e^-2 on basis features -> (1, e^-2) normalized
        head = HeadKeypoint(0.0, 0.0, 1.0)
        centers = np.array([[0.0, 0.0], [0.0, 4.0]])  # second cell at 2 sigma
        feats = np.array([[1.0], [1.0]])
        out = gaussian_weighted_descriptor(centers, feats, head, sigma=2.0)
        w = np.exp(-2.0)
        expected = np.array([1.0, w]) / np.hypot(1.0, w)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_zero_vector_rejected(self):
        feats = np.zeros((2, 3))
        with pytest.raises(ValueError):
            gaussian_weighted_descriptor(
                np.zeros((2, 2)), feats, HeadKeypoint(0.0, 0.0, 1.0), sigma=1.0
            )


class TestMotionCost:
    def test_zero_at_prediction(self):
        assert motion_term(FakeTrack(100, 200), FakeDet(100, 200), 1.0) == 0.0

    def test_three_four_five(self):
        assert motion_term(FakeTrack(0, 0), FakeDet(3, 4), 1.0) == pytest.approx(5.0)

    def test_scaling(self):
        assert motion_term(FakeTrack(0, 0), FakeDet(3, 4), 100.0) == pytest.approx(0.05)


class TestBuildCostMatrix:
    @pytest.mark.parametrize(
        "w_mot, admissible, pairs",
        [
            (1.0, [[False, False], [False, True]], [(1, 1)]),
            # motion weighs nothing: only the overflowing pair, inf * 0 = nan, is gated out
            (0.0, [[False, True], [True, True]], [(0, 1), (1, 0)]),
        ],
    )
    def test_far_centres_gated_out_without_warnings(self, w_mot, admissible, pairs):
        # centres near +-1e308 are legal; the distance of (0, 0) overflows to inf
        cfg = AssociationConfig(w_app=1.0, w_mot=w_mot, motion_scale=10.0, gate_g=0.5)
        tracks = [FakeTrack(1e308, 1e308), FakeTrack(0, 0)]
        dets = [FakeDet(-1e308, -1e308), FakeDet(0, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = cost_matrix(tracks, dets, cfg)
            assert solve_assignment(cm) == pairs
        assert cm.gate_mask.tolist() == admissible

    def test_motion_only_when_w_app_zero(self):
        cfg = AssociationConfig(w_app=0.0, w_mot=1.0, motion_scale=10.0, gate_g=100.0)
        tracks = [FakeTrack(0, 0), FakeTrack(10, 0)]
        dets = [FakeDet(0, 0), FakeDet(10, 0)]
        cm = cost_matrix(tracks, dets, cfg)
        for i, t in enumerate(tracks):
            for j, d in enumerate(dets):
                expected = np.hypot(t.kf.x[0] - d.bbox.cx, t.kf.x[1] - d.bbox.cy) / 10.0
                assert cm.values[i, j] == pytest.approx(expected)

    def test_empty_inputs(self):
        cfg = AssociationConfig()
        cm = cost_matrix([], [FakeDet(0, 0)], cfg)
        assert cm.values.shape == (0, 1)
        assert solve_assignment(cm) == []
        cm = cost_matrix([FakeTrack(0, 0)], [], cfg)
        assert cm.values.shape == (1, 0)
        assert solve_assignment(cm) == []

    def test_hand_built_two_by_two(self):
        cfg = AssociationConfig(w_app=0.5, w_mot=0.5, motion_scale=1.0, gate_g=1e9)
        e1, e2 = unit(1, 0), unit(0, 1)
        tracks = [FakeTrack(0, 0, AppearanceDescriptor(f_cls=e1)),
                  FakeTrack(10, 0, AppearanceDescriptor(f_cls=e2))]
        dets = [FakeDet(3, 4, AppearanceDescriptor(f_cls=e1)),
                FakeDet(10, 0, AppearanceDescriptor(f_cls=e1))]
        cm = cost_matrix(tracks, dets, cfg)
        assert cm.values[0, 0] == pytest.approx(0.5 * 0.0 + 0.5 * 5.0)
        assert cm.values[0, 1] == pytest.approx(0.5 * 0.0 + 0.5 * 10.0)
        assert cm.values[1, 0] == pytest.approx(0.5 * 1.0 + 0.5 * np.hypot(7, 4))
        assert cm.values[1, 1] == pytest.approx(0.5 * 1.0 + 0.5 * 0.0)

    def test_missing_descriptor_falls_back_to_motion(self):
        cfg = AssociationConfig(w_app=0.7, w_mot=0.3, motion_scale=1.0, gate_g=1e9)
        tracks = [FakeTrack(0, 0, AppearanceDescriptor(f_cls=unit(1, 0)))]
        dets = [FakeDet(3, 4)]  # no descriptor
        cm = cost_matrix(tracks, dets, cfg)
        assert cm.values[0, 0] == pytest.approx(0.3 * 5.0)

    def test_gate_mask(self):
        cfg = AssociationConfig(w_app=0.0, w_mot=1.0, motion_scale=1.0, gate_g=6.0)
        cm = cost_matrix([FakeTrack(0, 0)], [FakeDet(3, 4), FakeDet(30, 40)], cfg)
        assert cm.gate_mask.tolist() == [[True, False]]


    def test_matches_per_pair_reference(self):
        # seeded mixes of kind presence (kinds of different dimensions, some
        # objects without a descriptor), zero weights and empty sides
        rng = np.random.default_rng(11)
        dims = {"f_cls": 3, "f_reg": 5, "f_head": 4}

        def descriptor():
            present = [k for k in FEATURE_KINDS if rng.uniform() < 0.6]
            if not present or rng.uniform() < 0.15:
                return None
            return AppearanceDescriptor(**{k: unit(*rng.normal(size=dims[k])) for k in present})

        checked = 0
        for _ in range(300):
            T, D = (int(n) for n in rng.integers(0, 7, 2))
            weights = tuple(float(w) for w in rng.choice([0.0, 0.3, 1.0, 2.5], 3))
            cfg = AssociationConfig(
                w_app=float(rng.choice([0.0, 0.4, 1.0])),
                w_mot=float(rng.choice([0.2, 0.5, 1.0])),
                feature_weights=weights,
                gate_g=float(rng.uniform(0.1, 2.0)),
                motion_scale=float(rng.uniform(50.0, 500.0)),
            )
            tracks = [FakeTrack(*rng.uniform(0, 300, 2), descriptor()) for _ in range(T)]
            dets = [FakeDet(*rng.uniform(0, 300, 2), descriptor()) for _ in range(D)]
            cm = cost_matrix(tracks, dets, cfg)
            expected = reference_cost_matrix(tracks, dets, cfg)
            assert cm.values.shape == cm.gate_mask.shape == (T, D)
            np.testing.assert_allclose(cm.values, expected, rtol=0.0, atol=1e-12)
            assert (cm.gate_mask == (cm.values <= cfg.gate_g)).all()
            checked += T * D
        assert checked > 1000

    def test_shared_weighted_dimension_mismatch_raises(self):
        cfg = AssociationConfig(feature_weights=(0.5, 0.5, 0.0), gate_g=1e9)
        two = AppearanceDescriptor(f_cls=unit(1, 0), f_reg=unit(1, 0))
        three = AppearanceDescriptor(f_cls=unit(1, 0, 0), f_reg=unit(1, 0))
        with pytest.raises(ValueError, match="f_cls"):
            cost_matrix([FakeTrack(0, 0, two)], [FakeDet(0, 0, three)], cfg)
        # tracks disagreeing among themselves while a detection shares the kind
        with pytest.raises(ValueError, match="f_cls"):
            cost_matrix(
                [FakeTrack(0, 0, two), FakeTrack(5, 0, three)], [FakeDet(0, 0, two)], cfg
            )

    def test_dimension_mismatch_ignored_when_not_shared_or_unweighted(self):
        # the per-pair formulas never compare such vectors, so neither may the matrix
        two = AppearanceDescriptor(f_cls=unit(1, 0), f_head=unit(0, 1))
        three_head = AppearanceDescriptor(f_cls=unit(1, 1), f_head=unit(1, 0, 0))
        reg_only = AppearanceDescriptor(f_reg=unit(1, 0, 0))
        cfg = AssociationConfig(feature_weights=(0.5, 0.5, 0.0), gate_g=1e9)
        tracks = [FakeTrack(0, 0, two), FakeTrack(5, 0, three_head)]
        dets = [FakeDet(0, 0, two), FakeDet(4, 3, reg_only)]
        cm = cost_matrix(tracks, dets, cfg)
        np.testing.assert_allclose(
            cm.values, reference_cost_matrix(tracks, dets, cfg), rtol=0.0, atol=1e-12
        )


class TestStackDescriptors:
    def test_rows_masks_and_left_out_kinds(self):
        cfg = AssociationConfig(feature_weights=(0.5, 0.5, 0.0))
        a = AppearanceDescriptor(f_cls=unit(1, 0), f_head=unit(0, 1, 0))
        b = AppearanceDescriptor(f_cls=unit(0, 1))
        feats = stack_descriptors([a, None, b], cfg)
        assert list(feats) == ["f_cls"]  # f_reg is carried by none, f_head has weight 0
        rows, has = feats["f_cls"]
        assert has.tolist() == [True, False, True]
        assert np.array_equal(rows, [unit(1, 0), [0.0, 0.0], unit(0, 1)])

    def test_mixed_dimensions_raise(self):
        cfg = AssociationConfig()
        two = AppearanceDescriptor(f_cls=unit(1, 0))
        three = AppearanceDescriptor(f_cls=unit(1, 0, 0))
        with pytest.raises(ValueError, match="f_cls"):
            stack_descriptors([two, three], cfg)
        assert stack_descriptors([], cfg) == {}


class TestSolveAssignment:
    def test_solver_looked_up_at_call_time(self, monkeypatch):
        # the name perfbench's trace wraps as association.lsa
        shapes = []
        solver = association.linear_sum_assignment

        def counting(cost, maximize=False):
            shapes.append(cost.shape)
            return solver(cost, maximize=maximize)

        monkeypatch.setattr(association, "linear_sum_assignment", counting)
        c = CostMatrix(values=np.array([[0.1, 0.9], [0.9, 0.1]]), gate_mask=np.ones((2, 2), bool))
        assert solve_assignment(c) == [(0, 0), (1, 1)]
        assert shapes == [(4, 4)]

    def test_two_by_two_diagonal(self):
        cm = CostMatrix(values=np.array([[1.0, 2.0], [2.0, 1.0]]),
                        gate_mask=np.ones((2, 2), bool))
        assert solve_assignment(cm) == [(0, 0), (1, 1)]

    def test_gated_singleton(self):
        cm = CostMatrix(values=np.array([[5.0]]), gate_mask=np.array([[False]]))
        assert solve_assignment(cm) == []

    def test_gate_respected(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            T, D = rng.integers(1, 6, 2)
            values = rng.uniform(0, 1, (T, D))
            mask = values <= 0.5
            for i, j in solve_assignment(CostMatrix(values=values, gate_mask=mask)):
                assert mask[i, j]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            T = int(rng.integers(1, 8))
            D = int(rng.integers(1, 8))
            values = rng.uniform(0, 10, (T, D))
            mask = rng.uniform(size=(T, D)) < 0.75
            cm = CostMatrix(values=values, gate_mask=mask)
            pairs = solve_assignment(cm)
            card, cost = brute_force_matching(values, mask)
            assert len(pairs) == card
            assert sum(values[i, j] for i, j in pairs) == pytest.approx(cost, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            values = rng.uniform(0, 5, (5, 5))
            mask = rng.uniform(size=(5, 5)) < 0.8
            k = float(rng.uniform(0.1, 50))
            pairs = solve_assignment(CostMatrix(values=values, gate_mask=mask))
            card, cost = brute_force_matching(values * k, mask)
            assert len(pairs) == card
            assert sum(values[i, j] * k for i, j in pairs) == pytest.approx(cost, abs=1e-9)

    def test_lexicographic_tie_break(self):
        # every matching of an all-ones matrix is optimal; the smallest
        # (track, det) list wins
        cm = CostMatrix(values=np.ones((3, 3)), gate_mask=np.ones((3, 3), bool))
        assert solve_assignment(cm) == [(0, 0), (1, 1), (2, 2)]

    def test_lexicographic_on_tie_heavy_instances(self):
        # quantized costs produce many optimal matchings; the solver must
        # return the exhaustive-search lexicographic minimum every time
        def brute_force_lex(values, mask):
            T, D = values.shape
            best = {"key": None, "pairs": None}

            def rec(i, used, pairs, card, cost):
                if i == T:
                    key = (-card, round(cost, 9), pairs[:])
                    if best["key"] is None or key < best["key"]:
                        best["key"] = key
                        best["pairs"] = pairs[:]
                    return
                for j in range(D):
                    if mask[i, j] and not used & (1 << j):
                        rec(i + 1, used | (1 << j), pairs + [(i, j)], card + 1,
                            cost + values[i, j])
                rec(i + 1, used, pairs, card, cost)

            rec(0, 0, [], 0, 0.0)
            return best["pairs"]

        rng = np.random.default_rng(77)
        for _ in range(150):
            T = int(rng.integers(1, 6))
            D = int(rng.integers(1, 6))
            values = rng.choice([0.1, 0.2, 0.3], size=(T, D))
            mask = rng.uniform(size=(T, D)) < 0.8
            got = solve_assignment(CostMatrix(values=values, gate_mask=mask))
            assert got == brute_force_lex(values, mask)

    def test_lexicographic_among_equal_totals(self):
        values = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        cm = CostMatrix(values=values, gate_mask=values < 2.0)
        assert solve_assignment(cm) == [(0, 0), (1, 1)]

    def test_rectangular_shapes(self):
        values = np.array([[1.0, 9.0, 2.0]])
        cm = CostMatrix(values=values, gate_mask=np.ones((1, 3), bool))
        assert solve_assignment(cm) == [(0, 0)]
        cm = CostMatrix(values=values.T, gate_mask=np.ones((3, 1), bool))
        assert solve_assignment(cm) == [(0, 0)]

    def test_infeasible_rows_left_unmatched(self):
        values = np.array([[0.1, 0.1], [0.1, 0.1]])
        mask = np.array([[True, False], [False, False]])
        cm = CostMatrix(values=values, gate_mask=mask)
        assert solve_assignment(cm) == [(0, 0)]

    def test_negative_costs_still_maximize_cardinality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            T = int(rng.integers(1, 6))
            D = int(rng.integers(1, 6))
            values = rng.uniform(-10, 2, (T, D))
            mask = rng.uniform(size=(T, D)) < 0.7
            pairs = solve_assignment(CostMatrix(values=values, gate_mask=mask))
            card, cost = brute_force_matching(values, mask)
            assert len(pairs) == card
            assert sum(values[i, j] for i, j in pairs) == pytest.approx(cost, abs=1e-9)

    def test_equals_reference_solver(self):
        # continuous, tie-heavy, negative, fully admissible and sparse-gate
        # instances up to 12 x 12: identical pair lists, not just equal cost
        rng = np.random.default_rng(2025)
        for k in range(2000):
            T, D = (int(x) for x in rng.integers(1, 13, 2))
            kind = k % 5
            if kind == 0:
                values = rng.uniform(0, 1, (T, D))
                mask = rng.uniform(size=(T, D)) < 0.8
            elif kind == 1:
                values = rng.choice([0.1, 0.2, 0.3], size=(T, D))
                mask = rng.uniform(size=(T, D)) < 0.8
            elif kind == 2:
                values = rng.uniform(-10, 2, (T, D))
                mask = rng.uniform(size=(T, D)) < 0.7
            elif kind == 3:
                values = rng.integers(0, 3, (T, D)).astype(float)
                mask = np.ones((T, D), bool)
            else:
                values = rng.uniform(0, 1, (T, D))
                mask = values <= 0.2
            cm = CostMatrix(values=values, gate_mask=mask)
            pairs = solve_assignment(cm)
            assert pairs == reference_solve(cm), (kind, values, mask)
            matching = maximum_bipartite_matching(csr_matrix(mask), perm_type="column")
            assert len(pairs) == int((matching >= 0).sum()), (kind, values, mask)

    def test_maximum_cardinality_on_a_long_chain(self):
        # the diagonal (7 pairs, cost 3.5) against the subdiagonal (6 pairs,
        # cost 0): the augmenting path from 6 to 7 pairs gains 3.5 in cost,
        # more than twice an unmatch price of max cost + 1
        n = 7
        values = np.ones((n, n))
        values[np.eye(n, dtype=bool)] = 0.5
        values[np.eye(n, k=-1, dtype=bool)] = 0.0
        cm = CostMatrix(values=values, gate_mask=values <= AssociationConfig().gate_g)
        assert solve_assignment(cm) == [(i, i) for i in range(n)]
        assert reference_solve(cm) == [(i, i) for i in range(n)]

    def test_dense_ties_30(self):
        # all ones: every pair is tight and the diagonal is the lexicographic minimum
        n = 30
        cm = CostMatrix(values=np.ones((n, n)), gate_mask=np.ones((n, n), bool))
        assert solve_assignment(cm) == [(i, i) for i in range(n)]
        # three cost levels: the LSA's own optimum is not the lexicographic
        # minimum here, so the walk flips alternating paths in a dense tight graph
        values = np.random.default_rng(0).integers(0, 3, (n, n)).astype(float)
        cm = CostMatrix(values=values, gate_mask=np.ones((n, n), bool))
        assert solve_assignment(cm) == reference_solve(cm)

    def test_fully_admissible_100_is_fast(self):
        values = np.random.default_rng(8).uniform(0, 1, (100, 100))
        cm = CostMatrix(values=values, gate_mask=np.ones((100, 100), bool))
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            pairs = solve_assignment(cm)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.1
        rows, cols = linear_sum_assignment(values)
        assert sum(values[i, j] for i, j in pairs) == pytest.approx(values[rows, cols].sum())


def test_config_validation():
    with pytest.raises(ValueError):
        AssociationConfig(w_app=0.0, w_mot=0.0)
    with pytest.raises(ValueError):
        AssociationConfig(gate_g=0.0)
    with pytest.raises(ValueError):
        AssociationConfig(feature_weights=(-0.1, 0.5, 0.6))
