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
    AssociationConfig,
    CostMatrix,
    build_cost_matrix,
    solve_assignment,
)
from headtrack.geometry import BBox
from headtrack.head import HeadKeypoint, gaussian_weighted_descriptor
from headtrack.kalman import KalmanState
from headtrack.rows import AppearanceDescriptor
from square_oracle import square_solve


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


NEAR_TIE_OFFSETS = 10.0 ** -np.arange(3, 16)  # 1e-3 down to 1e-15
# Offsets within about 100x of the solver's tol (1e-9 times the optimum's
# encoded total) are ties to the walk, which allows tol per tight pair, but
# not to reference_solve, which allows tol on the total: the two differ there.
OUTSIDE_TOL_BAND = NEAR_TIE_OFFSETS[(NEAR_TIE_OFFSETS > 1e-7) | (NEAR_TIE_OFFSETS < 1e-9)]


def solve_pairs(cm):
    """``solve_assignment(cm)``'s (K, 2) index array as a list of (track, detection) tuples."""
    pairs = solve_assignment(cm)
    assert pairs.dtype == np.intp and pairs.shape == (len(pairs), 2)
    return [tuple(p) for p in pairs.tolist()]


def near_ties(rng, shape, offsets):
    """Costs 0.1 and 0.2, each raised by 0, 1 or 2 times one of ``offsets``."""
    values = rng.choice([0.1, 0.2], size=shape)
    return values + rng.choice(offsets, size=shape) * rng.integers(0, 3, shape)


def clear_optimum(rng, T, D):
    """Costs whose one optimum, a random matching of pairs in [0, 0.5], beats
    every other entry, in [1, 2], by at least 0.5; with that matching's pairs."""
    k = min(T, D)
    rows, cols = rng.permutation(T)[:k], rng.permutation(D)[:k]
    values = rng.uniform(1.0, 2.0, (T, D))
    values[rows, cols] = rng.uniform(0.0, 0.5, k)
    return values, sorted(zip(rows.tolist(), cols.tolist()))


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


def stacked(descriptors, cfg):
    """Each weighted kind some descriptor carries: (matrix, presence mask), zero where one lacks it."""
    feats = {}
    for kind, w in zip(FEATURE_KINDS, cfg.feature_weights):
        vecs = [None if d is None else getattr(d, kind) for d in descriptors]
        dims = {len(v) for v in vecs if v is not None}
        if w and dims:
            (dim,) = dims
            feats[kind] = (np.array([np.zeros(dim) if v is None else v for v in vecs]),
                           np.array([v is not None for v in vecs]))
    return feats


def cost_matrix(tracks, detections, cfg):
    """``build_cost_matrix`` on object lists: predicted centres and stacked descriptors."""
    trk_xy = np.array([t.kf.x[:2] for t in tracks], dtype=float).reshape(-1, 2)
    det_xy = np.array([(d.bbox.cx, d.bbox.cy) for d in detections], dtype=float).reshape(-1, 2)
    trk_feats = stacked([t.descriptor for t in tracks], cfg)
    det_feats = stacked([d.descriptor for d in detections], cfg)
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
    def test_cost_matrix_compares_and_hashes_by_identity(self):
        one, twin = (CostMatrix(values=np.eye(2), gate_mask=np.ones((2, 2), bool)) for _ in range(2))
        assert one == one and one != twin
        assert hash(one) == hash(one)
        assert one in {one} and twin not in {one} and len({one, twin}) == 2

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
            assert solve_pairs(cm) == pairs
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
        assert solve_pairs(cm) == []
        cm = cost_matrix([FakeTrack(0, 0)], [], cfg)
        assert cm.values.shape == (1, 0)
        assert solve_pairs(cm) == []

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
        assert solve_pairs(c) == [(0, 0), (1, 1)]
        assert shapes == [(2, 2)]

    @pytest.mark.parametrize("certify", [True, False], ids=["certificate", "tie-break"])
    def test_one_lsa_per_solve_on_the_block(self, certify, monkeypatch):
        # the tie-break starts from the block's optimum: no second solve, no square matrix
        rng = np.random.default_rng(17)
        shapes = []
        solver = association.linear_sum_assignment
        monkeypatch.setattr(association, "linear_sum_assignment", lambda cost: shapes.append(cost.shape) or solver(cost))
        if not certify:
            monkeypatch.setattr(association, "_unique_optimum", lambda *a: False)
        for k in range(300):
            T, D = (int(x) for x in rng.integers(0, 9, 2))
            values = rng.choice([0.1, 0.2], size=(T, D)) if k % 2 else rng.uniform(0, 1, (T, D))
            mask = rng.uniform(size=(T, D)) < 0.6
            shapes.clear()
            pairs = solve_pairs(CostMatrix(values=values, gate_mask=mask))
            assert shapes == ([(T, D)] if mask.any() else [])
            assert pairs == square_solve(CostMatrix(values=values, gate_mask=mask))

    @pytest.mark.parametrize("certify", [True, False], ids=["certificate", "tie-break"])
    @pytest.mark.parametrize(
        "values, gate, want",
        [
            ([[-1e308, 1e308]], None, ValueError),  # the shifted span overflows
            ([[1e308, 1e308], [1e308, 1e308]], None, ValueError),  # unmatch overflows
            ([[1e300, 1.0], [2.0, 1e300]], None, [(0, 1), (1, 0)]),  # barred stays finite
            ([[1.7e308, -1e308]], [[False, True]], [(0, 1)]),  # a gated-out cost overflows in the shift
        ],
    )
    def test_wide_spans_without_warnings(self, values, gate, want, certify, monkeypatch):
        values = np.array(values)
        gate = np.ones(values.shape, bool) if gate is None else np.array(gate)
        if not certify:
            monkeypatch.setattr(association, "_unique_optimum", lambda *a: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is ValueError:
                with pytest.raises(ValueError, match=r"admissible costs span .* too wide to encode as a \d+ x \d+ assignment"):
                    solve_pairs(CostMatrix(values=values, gate_mask=gate))
            else:
                assert solve_pairs(CostMatrix(values=values, gate_mask=gate)) == want

    def test_two_by_two_diagonal(self):
        cm = CostMatrix(values=np.array([[1.0, 2.0], [2.0, 1.0]]),
                        gate_mask=np.ones((2, 2), bool))
        assert solve_pairs(cm) == [(0, 0), (1, 1)]

    def test_gated_singleton(self):
        cm = CostMatrix(values=np.array([[5.0]]), gate_mask=np.array([[False]]))
        assert solve_pairs(cm) == []

    def test_gate_respected(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            T, D = rng.integers(1, 6, 2)
            values = rng.uniform(0, 1, (T, D))
            mask = values <= 0.5
            for i, j in solve_pairs(CostMatrix(values=values, gate_mask=mask)):
                assert mask[i, j]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            T = int(rng.integers(1, 8))
            D = int(rng.integers(1, 8))
            values = rng.uniform(0, 10, (T, D))
            mask = rng.uniform(size=(T, D)) < 0.75
            cm = CostMatrix(values=values, gate_mask=mask)
            pairs = solve_pairs(cm)
            card, cost = brute_force_matching(values, mask)
            assert len(pairs) == card
            assert sum(values[i, j] for i, j in pairs) == pytest.approx(cost, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            values = rng.uniform(0, 5, (5, 5))
            mask = rng.uniform(size=(5, 5)) < 0.8
            k = float(rng.uniform(0.1, 50))
            pairs = solve_pairs(CostMatrix(values=values, gate_mask=mask))
            card, cost = brute_force_matching(values * k, mask)
            assert len(pairs) == card
            assert sum(values[i, j] * k for i, j in pairs) == pytest.approx(cost, abs=1e-9)

    def test_lexicographic_tie_break(self):
        # every matching of an all-ones matrix is optimal; the smallest
        # (track, det) list wins
        cm = CostMatrix(values=np.ones((3, 3)), gate_mask=np.ones((3, 3), bool))
        assert solve_pairs(cm) == [(0, 0), (1, 1), (2, 2)]

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
            got = solve_pairs(CostMatrix(values=values, gate_mask=mask))
            assert got == brute_force_lex(values, mask)

    def test_lexicographic_among_equal_totals(self):
        values = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        cm = CostMatrix(values=values, gate_mask=values < 2.0)
        assert solve_pairs(cm) == [(0, 0), (1, 1)]

    def test_rectangular_shapes(self):
        values = np.array([[1.0, 9.0, 2.0]])
        cm = CostMatrix(values=values, gate_mask=np.ones((1, 3), bool))
        assert solve_pairs(cm) == [(0, 0)]
        cm = CostMatrix(values=values.T, gate_mask=np.ones((3, 1), bool))
        assert solve_pairs(cm) == [(0, 0)]

    def test_infeasible_rows_left_unmatched(self):
        values = np.array([[0.1, 0.1], [0.1, 0.1]])
        mask = np.array([[True, False], [False, False]])
        cm = CostMatrix(values=values, gate_mask=mask)
        assert solve_pairs(cm) == [(0, 0)]

    def test_negative_costs_still_maximize_cardinality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            T = int(rng.integers(1, 6))
            D = int(rng.integers(1, 6))
            values = rng.uniform(-10, 2, (T, D))
            mask = rng.uniform(size=(T, D)) < 0.7
            pairs = solve_pairs(CostMatrix(values=values, gate_mask=mask))
            card, cost = brute_force_matching(values, mask)
            assert len(pairs) == card
            assert sum(values[i, j] for i, j in pairs) == pytest.approx(cost, abs=1e-9)

    def test_equals_reference_solver(self):
        # continuous, tie-heavy, negative, fully admissible, sparse-gate and
        # near-tie instances up to 12 x 12: identical pair lists, not just equal cost
        rng = np.random.default_rng(2025)
        for k in range(2400):
            T, D = (int(x) for x in rng.integers(1, 13, 2))
            kind = k % 6
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
            elif kind == 4:
                values = rng.uniform(0, 1, (T, D))
                mask = values <= 0.2
            else:
                values = near_ties(rng, (T, D), OUTSIDE_TOL_BAND)
                mask = rng.uniform(size=(T, D)) < 0.8
            cm = CostMatrix(values=values, gate_mask=mask)
            pairs = solve_pairs(cm)
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
        assert solve_pairs(cm) == [(i, i) for i in range(n)]
        assert reference_solve(cm) == [(i, i) for i in range(n)]

    def test_dense_ties_30(self):
        # all ones: every pair is tight and the diagonal is the lexicographic minimum
        n = 30
        cm = CostMatrix(values=np.ones((n, n)), gate_mask=np.ones((n, n), bool))
        assert solve_pairs(cm) == [(i, i) for i in range(n)]
        # three cost levels: the LSA's own optimum is not the lexicographic
        # minimum here, so the walk flips alternating paths in a dense tight graph
        values = np.random.default_rng(0).integers(0, 3, (n, n)).astype(float)
        cm = CostMatrix(values=values, gate_mask=np.ones((n, n), bool))
        assert solve_pairs(cm) == reference_solve(cm)

    def test_certificate_equals_full_path(self, monkeypatch):
        # certified or not, the pair list is the one the Bellman-Ford pass and
        # the walk give, near ties inside the tolerance band included, and
        # reference_solve's outside that band
        rng = np.random.default_rng(31)
        certify = association._unique_optimum
        held = []
        for k in range(1600):
            T, D = (int(x) for x in rng.integers(1, 10, 2))
            kind = k % 4
            if kind == 0:
                values = rng.uniform(0, 1, (T, D))
            elif kind == 1:
                values = near_ties(rng, (T, D), NEAR_TIE_OFFSETS)
            elif kind == 2:
                values = near_ties(rng, (T, D), OUTSIDE_TOL_BAND)
            else:
                values = rng.uniform(-5, 5, (T, D)).round(1)
            cm = CostMatrix(values=values, gate_mask=rng.uniform(size=(T, D)) < 0.8)
            monkeypatch.setattr(association, "_unique_optimum", lambda *a: held.append(certify(*a)) or held[-1])
            pairs = solve_pairs(cm)
            monkeypatch.setattr(association, "_unique_optimum", lambda *a: False)
            assert pairs == solve_pairs(cm), (values, cm.gate_mask)
            if kind != 1:
                assert pairs == reference_solve(cm), (values, cm.gate_mask)
        assert 0.2 < sum(held) / len(held) < 0.8

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_certificate_margin(self, side, monkeypatch):
        # a unique optimum with one rival entry of a matched pair's row or
        # column placed at 0.5 to 2 times the margin delta above it: the
        # certificate holds exactly when the rival is more than delta away,
        # and the pairs are the same either way
        rng = np.random.default_rng(41 if side == "row" else 43)
        certify = association._unique_optimum
        calls = []

        def spy(real, col, base, delta):
            calls.append((delta, certify(real, col, base, delta)))
            return calls[-1][1]

        monkeypatch.setattr(association, "_unique_optimum", spy)
        for _ in range(200):
            T, D = (int(x) for x in rng.integers(2, 9, 2))
            values, want = clear_optimum(rng, T, D)
            # the pair the rival undercuts costs the most of all pairs, so the
            # rival stays clear of the pair that holds its other line
            i, j = max(want, key=lambda p: values[p])
            cm = CostMatrix(values=values, gate_mask=np.ones((T, D), bool))
            assert solve_pairs(cm) == want
            assert calls[-1][1]
            if side == "row":
                rival = (i, int(rng.choice([c for c in range(D) if c != j])))
            else:
                rival = (int(rng.choice([r for r in range(T) if r != i])), j)
            values[rival] = values[i, j] + 0.25  # delta moves with the largest cost, which may be this one
            assert solve_pairs(cm) == want
            delta = calls[-1][0]
            for factor in (0.5, 0.9, 1.1, 2.0):
                values[rival] = values[i, j] + factor * delta
                assert solve_pairs(cm) == want
                assert calls[-1] == (delta, factor > 1.0)
                assert reference_solve(cm) == want

    def test_unique_optimum_skips_the_walk(self, monkeypatch):
        # one clear optimum never reaches the walk; all-ones ties, as in c01's
        # tie-break, do and still give the diagonal
        def walk_not_expected(*args):
            raise AssertionError("tie-break walk reached")

        tie_break = association._tie_break
        monkeypatch.setattr(association, "_tie_break", walk_not_expected)
        c = CostMatrix(values=np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]]), gate_mask=np.ones((2, 3), bool))
        assert solve_pairs(c) == [(0, 0), (1, 1)]
        rng = np.random.default_rng(9)
        for T, D in [(12, 10), (10, 12), (30, 30)]:
            values, want = clear_optimum(rng, T, D)
            cm = CostMatrix(values=values, gate_mask=values < 1.8)
            assert solve_pairs(cm) == want == reference_solve(cm)
        walks = []
        monkeypatch.setattr(association, "_tie_break", lambda *a: walks.append(a) or tie_break(*a))
        cm = CostMatrix(values=np.ones((3, 3)), gate_mask=np.ones((3, 3), bool))
        assert solve_pairs(cm) == [(0, 0), (1, 1), (2, 2)]
        assert len(walks) == 1

    def test_array_form_is_fresh(self, monkeypatch):
        # on the certificate's path and the walk's: the cost matrix stays as it
        # was, and each call returns a new array that shares no memory with it
        walks = []
        tie_break = association._tie_break
        monkeypatch.setattr(association, "_tie_break", lambda *a: walks.append(a) or tie_break(*a))
        rng = np.random.default_rng(12)
        for values in (clear_optimum(rng, 5, 6)[0] - 0.5, np.ones((4, 4)), np.zeros((0, 3))):
            cm = CostMatrix(values=values, gate_mask=np.ones(values.shape, bool))
            before = cm.values.copy(), cm.gate_mask.copy()
            pairs, again = solve_assignment(cm), solve_assignment(cm)
            assert np.array_equal(cm.values, before[0]) and np.array_equal(cm.gate_mask, before[1])
            assert np.array_equal(pairs, again)
            assert not any(np.shares_memory(pairs, a) for a in (again, cm.values, cm.gate_mask))
        assert len(walks) == 2  # the all-ones matrix, twice

    def test_fully_admissible_100_is_fast(self):
        values = np.random.default_rng(8).uniform(0, 1, (100, 100))
        cm = CostMatrix(values=values, gate_mask=np.ones((100, 100), bool))
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            pairs = solve_pairs(cm)
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


class TestBlockSolve:
    """The block solve against the square encoding it replaced (``square_oracle``).

    Each kind draws 4300 instances, nine in ten of 0-8 tracks and detections
    and one in ten of 10-90, with gates from sparse to full. The pair lists
    must be identical, certificate and tie-break alike.
    """

    KINDS = ("continuous", "quantized", "integers", "negative", "non-finite", "near ties", "tolerance band")

    @staticmethod
    def instance(rng, kind, k):
        lo, hi = (10, 91) if k % 10 == 9 else (0, 9)
        T, D = (int(x) for x in rng.integers(lo, hi, 2))
        gate = rng.uniform(size=(T, D)) < rng.choice([0.05, 0.2, 0.5, 0.8, 1.0])
        if kind == "continuous":
            values = rng.uniform(0, 1, (T, D))
        elif kind == "quantized":
            values = rng.choice([0.1, 0.2, 0.3], size=(T, D))
        elif kind == "integers":
            values = rng.integers(-2, 3, (T, D)).astype(float)
        elif kind == "negative":
            values = rng.uniform(-10, 2, (T, D))
        elif kind == "non-finite":
            values = rng.uniform(-1, 1, (T, D))
            odd = rng.uniform(size=(T, D)) < 0.3
            values[odd] = rng.choice([np.inf, -np.inf, np.nan], size=int(odd.sum()))
        elif kind == "near ties":
            values = near_ties(rng, (T, D), NEAR_TIE_OFFSETS)
        else:  # the offsets reference_solve leaves out
            values = near_ties(rng, (T, D), np.array([1e-8, 1e-9]))
        return CostMatrix(values=values, gate_mask=gate)

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_square_encoding(self, kind, monkeypatch):
        rng = np.random.default_rng(2026 + self.KINDS.index(kind))
        certify = association._unique_optimum
        held = []
        monkeypatch.setattr(association, "_unique_optimum", lambda *a: held.append(certify(*a)) or held[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(4300):
                cm = self.instance(rng, kind, k)
                pairs = solve_pairs(cm)
                assert pairs == square_solve(cm), (kind, k, cm.values, cm.gate_mask)
        assert True in held and False in held
