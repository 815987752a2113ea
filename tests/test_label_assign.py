import math
import random
import warnings

import numpy as np
import pytest

import assign_oracle

from headtrack.geometry import BBox
from headtrack.head import HeadKeypoint
from headtrack.label_assign import (
    Anchor,
    AssignConfig,
    GtInstance,
    assign_tables,
    bce,
    dynamic_k_match,
    iou_matrix,
)

HEAD = HeadKeypoint(0.0, 0.0, 1.0)


def anchor(cx, cy, box=None, cls=0.5, obj=0.5, stride=8, head=HEAD):
    return Anchor(
        cx=cx,
        cy=cy,
        stride=stride,
        pred_box=box or BBox(cx - 10, cy - 20, 20, 40),
        pred_cls=cls,
        pred_obj=obj,
        pred_head=head,
    )


def gt(box, radius=None, head=HEAD):
    return GtInstance(box=box, head=head, center_radius=radius)


def pair_cost(a, g, cfg=AssignConfig()):
    """The matching cost of one anchor and one target: the 1 x 1 case of ``assign_tables``."""
    return assign_tables([a], [g], cfg)[0][0, 0]


def iou_term(pred, target):
    """The IoU term of the cost, -log(IoU + eps): alpha 1, and the BCE of cls 0.5 taken off."""
    centred = anchor(target.cx, target.cy, box=pred, cls=0.5)  # no beta
    return pair_cost(centred, gt(target), AssignConfig(alpha=1.0)) - bce(0.5, 1.0)


class TestForegroundMask:
    def test_anchor_at_center(self):
        g = gt(BBox(0, 0, 100, 100))
        _, _, mask = assign_tables([anchor(50, 50)], [g])
        assert mask[0, 0]

    def test_far_anchor(self):
        g = gt(BBox(0, 0, 16, 16))
        _, _, mask = assign_tables([anchor(16 + 10 * 8, 8)], [g])
        assert not mask[0, 0]

    def test_outside_box_inside_center_region(self):
        # gt box 10 wide around center (25, 25); radius 2.5 * 8 = 20 reaches
        # an anchor at (40, 25) that the box itself does not contain
        g = gt(BBox(20, 20, 10, 10))
        a = anchor(40.0, 25.0, stride=8)
        assert not (g.box.x <= a.cx <= g.box.x2)
        _, _, mask = assign_tables([a], [g])
        assert mask[0, 0]

    def test_explicit_radius_overrides(self):
        g = gt(BBox(20, 20, 10, 10), radius=1.0)
        _, _, mask = assign_tables([anchor(40.0, 25.0)], [g])
        assert not mask[0, 0]

    def test_shape(self):
        _, _, mask = assign_tables([anchor(0, 0), anchor(5, 5)], [gt(BBox(0, 0, 4, 4))])
        assert mask.shape == (2, 1)


class TestCosts:
    def test_iou_cost_identical(self):
        b = BBox(0, 0, 10, 10)
        assert iou_term(b, b) == pytest.approx(-math.log(1 + 1e-8), abs=1e-15)

    def test_iou_cost_disjoint(self):
        assert iou_term(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == pytest.approx(
            -math.log(1e-8), abs=1e-9
        )

    def test_iou_cost_chained_from_geometry(self):
        # IoU 1/7 from the box-arithmetic example
        c = iou_term(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2))
        assert c == pytest.approx(-math.log(1 / 7 + 1e-8), abs=1e-12)

    def test_assign_cost_near_zero_for_perfect_anchor(self):
        g = gt(BBox(0, 0, 100, 100))
        a = anchor(50, 50, box=BBox(0, 0, 100, 100), cls=1.0 - 1e-9)
        assert pair_cost(a, g) < 1e-6

    def test_assign_cost_penalizes_outside_region(self):
        g = gt(BBox(0, 0, 16, 16), radius=4.0)
        a = anchor(100.0, 100.0, box=BBox(0, 0, 16, 16), cls=0.9)
        assert pair_cost(a, g) >= 1e5

    def test_assign_cost_hand_value(self):
        # BCE(0.5, 1) + 3 * (-log(0.5 + 1e-8)), anchor inside the region
        g = gt(BBox(0, 0, 100, 100))
        pred = BBox(0, 0, 100, 50)  # IoU exactly 0.5
        a = anchor(50, 50, box=pred, cls=0.5)
        cfg = AssignConfig(alpha=3.0)
        assert pair_cost(a, g, cfg) == pytest.approx(2.7725886622397815, abs=1e-9)


def random_case(rng):
    """Anchors and targets on a coarse grid, so centers also fall on box edges and region borders."""
    def coord():
        return rng.choice([rng.randint(0, 40) * 5, rng.uniform(0, 200)])

    gts = []
    for _ in range(rng.randint(0, 8)):
        box = BBox(rng.randint(0, 30) * 5, rng.randint(0, 30) * 5, rng.randint(1, 16) * 5, rng.randint(1, 16) * 5)
        gts.append(gt(box, radius=rng.choice([None, 0, 0.0, rng.randint(0, 6) * 5, rng.uniform(0, 30)])))
    anchors = []
    for _ in range(rng.randint(0, 40)):
        cx, cy = coord(), coord()
        box = BBox(cx - rng.uniform(1, 40), cy - rng.uniform(1, 40), rng.uniform(2, 80), rng.uniform(2, 80))
        if gts and rng.random() < 0.5:  # a prediction near a target: IoUs spread over (0, 1]
            b = rng.choice(gts).box
            box = BBox(b.x + rng.uniform(-8, 8), b.y + rng.uniform(-8, 8),
                       b.w * rng.uniform(0.5, 1.5), b.h * rng.uniform(0.5, 1.5))
        anchors.append(anchor(cx, cy, box=box, cls=rng.random(), stride=rng.choice([4, 8, 16, 32, 4.5])))
    cfg = AssignConfig(alpha=rng.uniform(0.5, 5), beta=rng.choice([1e5, rng.uniform(0, 10)]),
                       eps_iou=rng.choice([1e-8, 1e-3, rng.uniform(1e-9, 0.5)]), q_topk=rng.randint(1, 12))
    return anchors, gts, cfg


class TestArraysMatchPairOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_masks_costs_and_matches_bit_identical(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            anchors, gts, cfg = random_case(rng)
            cost, ious, fg = assign_tables(anchors, gts, cfg)  # one IoU and region pass for all three
            want_fg = assign_oracle.foreground_mask(anchors, gts)
            want_cost = assign_oracle.assign_cost_matrix(anchors, gts, cfg)
            assert fg.shape == cost.shape == (len(anchors), len(gts))
            assert np.array_equal(fg, want_fg)
            assert cost.tobytes() == want_cost.tobytes()
            assert ious.tobytes() == iou_matrix(anchors, gts).tobytes()
            assert dynamic_k_match(cost, ious, fg, cfg) == dynamic_k_match(want_cost, ious, want_fg, cfg)
            for a, g in zip(anchors, gts):  # one pair is the 1 x 1 case
                assert pair_cost(a, g, cfg) == assign_oracle.assign_cost(a, g, cfg)


class TestRecordChecks:
    @pytest.mark.parametrize("field,value", [
        ("cx", "5"), ("cy", [5]), ("cx", math.nan), ("cy", math.inf), ("cx", None),
        ("stride", "x"), ("stride", None), ("stride", math.inf), ("stride", 0), ("stride", -8),
    ])
    def test_anchor_rejects_non_numbers(self, field, value):
        kwargs = dict(cx=5, cy=5, stride=8, box=BBox(0, 0, 10, 10))
        kwargs[field] = value
        with pytest.raises(ValueError, match="must be"):
            anchor(**kwargs)

    @pytest.mark.parametrize("radius", ["r", [1], -1, math.nan, math.inf])
    def test_gt_rejects_bad_radius(self, radius):
        with pytest.raises(ValueError, match="center_radius must be None or a finite number >= 0"):
            gt(BBox(0, 0, 10, 10), radius=radius)

    def test_gt_accepts_none_and_zero(self):
        assert gt(BBox(0, 0, 10, 10), radius=0).center_radius == 0
        assert gt(BBox(0, 0, 10, 10)).center_radius is None


class TestAssignConfig:
    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_non_positive_eps_rejected(self, eps):
        # -log(IoU + eps) is undefined at IoU = 0 unless eps > 0
        with pytest.raises(ValueError, match="eps_iou must be positive"):
            AssignConfig(eps_iou=eps)

    @pytest.mark.parametrize("q", [0, -3])
    def test_q_topk_below_one_rejected(self, q):
        with pytest.raises(ValueError, match="q_topk must be >= 1"):
            AssignConfig(q_topk=q)


class TestDynamicK:
    def toy_instance(self):
        g = gt(BBox(0, 0, 100, 100))
        boxes = [
            BBox(0, 0, 100, 90),   # IoU 0.9
            BBox(0, 0, 100, 80),   # IoU 0.8
            BBox(0, 0, 100, 5),    # IoU 0.05
            BBox(0, 95, 100, 100), # small overlap
        ]
        anchors = [anchor(50, 50, box=b, cls=0.9) for b in boxes]
        return anchors, [g]

    def test_k_from_topk_iou_sum(self):
        anchors, gts = self.toy_instance()
        cost, ious, fg = assign_tables(anchors, gts)
        # hand oracle: sum of candidate IoUs ~ 0.9 + 0.8 + 0.05 + 0.05 = 1.8 -> k = 2,
        # and the two cheapest anchors are the two highest-IoU ones
        positives = dynamic_k_match(cost, ious, fg)
        assert positives == [[0, 1]]

    def test_single_candidate_clamps_to_one(self):
        g = gt(BBox(0, 0, 16, 16), radius=1.0)
        a = anchor(8, 8, box=BBox(0, 0, 16, 16))
        cost, ious, fg = assign_tables([a], [g])
        assert dynamic_k_match(cost, ious, fg) == [[0]]

    def test_conflict_goes_to_cheaper_gt_and_loser_refills(self):
        # two targets share their best anchor; the loser takes its next-best
        g1 = gt(BBox(0, 0, 100, 100))
        g2 = gt(BBox(10, 0, 100, 100))
        shared = anchor(55, 50, box=BBox(5, 0, 100, 100), cls=0.99)
        backup = anchor(60, 50, box=BBox(10, 0, 100, 95), cls=0.5)
        anchors = [shared, backup]
        gts = [g1, g2]
        cost, ious, fg = assign_tables(anchors, gts)
        # force k = 1 per gt by shrinking the candidate IoU mass
        cfg = AssignConfig(q_topk=1)
        ious_small = np.minimum(ious, 0.6)
        positives = dynamic_k_match(cost, ious_small, fg, cfg)
        winner = 0 if cost[0, 0] <= cost[0, 1] else 1
        loser = 1 - winner
        assert positives[winner] == [0]
        assert positives[loser] == [1]

    def test_gt_without_candidates_gets_empty_set(self):
        g_far = gt(BBox(1000, 1000, 10, 10), radius=1.0)
        a = anchor(8, 8)
        cost, ious, fg = assign_tables([a], [g_far])
        assert dynamic_k_match(cost, ious, fg) == [[]]

    def test_k_bounds_random_scenes(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            anchors = [
                anchor(float(rng.uniform(0, 200)), float(rng.uniform(0, 200)),
                       box=BBox(*rng.uniform(0, 150, 2), *rng.uniform(5, 60, 2)),
                       cls=float(rng.uniform(0.05, 0.95)))
                for _ in range(20)
            ]
            gts = [
                gt(BBox(*rng.uniform(0, 150, 2), *rng.uniform(20, 60, 2)))
                for _ in range(3)
            ]
            cost, ious, fg = assign_tables(anchors, gts)
            positives = dynamic_k_match(cost, ious, fg)
            for g_idx, sel in enumerate(positives):
                n_cand = int(fg[:, g_idx].sum())
                if n_cand:
                    assert 1 <= len(sel) <= n_cand or len(sel) == 0
            flat = [a for sel in positives for a in sel]
            assert len(flat) == len(set(flat))

    def test_penalty_excludes_outside_anchors(self):
        rng = np.random.default_rng(33)
        cfg = AssignConfig(beta=1e5)
        for _ in range(100):
            anchors = [
                anchor(float(rng.uniform(0, 300)), float(rng.uniform(0, 300)),
                       box=BBox(*rng.uniform(0, 250, 2), *rng.uniform(5, 80, 2)),
                       cls=float(rng.uniform(0.05, 0.95)))
                for _ in range(25)
            ]
            gts = [
                gt(BBox(*rng.uniform(0, 250, 2), *rng.uniform(20, 80, 2)))
                for _ in range(3)
            ]
            cost, ious, fg = assign_tables(anchors, gts, cfg)
            positives = dynamic_k_match(cost, ious, fg, cfg)
            for g_idx, sel in enumerate(positives):
                for a_idx in sel:
                    if not assign_oracle.in_center_region(anchors[a_idx], gts[g_idx]):
                        # an outside anchor may only win when nothing else exists
                        inside = [
                            a for a in np.flatnonzero(fg[:, g_idx])
                            if assign_oracle.in_center_region(anchors[a], gts[g_idx])
                        ]
                        assert not inside


class TestTableEdges:
    """``assign_tables`` and ``dynamic_k_match`` on empty sides, at the float limit and across the region terms."""

    def test_no_anchors(self):
        cost, ious, fg = assign_tables([], [gt(BBox(0, 0, 10, 10))])
        assert cost.shape == ious.shape == fg.shape == (0, 1)
        assert dynamic_k_match(cost, ious, fg) == [[]]

    def test_no_targets(self):
        cost, ious, fg = assign_tables([anchor(5, 5)], [])
        assert cost.shape == ious.shape == fg.shape == (1, 0)
        assert dynamic_k_match(cost, ious, fg) == []

    def test_far_centre_is_background_without_warning(self):
        # the centre distance overflows to inf, which lies outside any region, as in scalar float arithmetic
        a = anchor(-1e308, 0, box=BBox(0, 0, 1, 1))
        g = gt(BBox(1.5e308, 0, 1e307, 1))
        cfg = AssignConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cost, ious, fg = assign_tables([a], [g], cfg)
        assert not fg[0, 0]
        assert ious[0, 0] == 0.0
        assert cost[0, 0] == bce(0.5, 1.0) + cfg.alpha * -math.log(cfg.eps_iou) + cfg.beta

    def test_stride_radius_past_float_limit_covers_every_centre(self):
        # 2.5 strides of 1e308 is inf, so the far target's region holds the anchor and spares it beta
        a = anchor(0, 0, stride=1e308, box=BBox(0, 0, 1, 1))
        g = gt(BBox(1e300, 1e300, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cost, _, fg = assign_tables([a], [g])
        assert fg[0, 0]
        assert cost[0, 0] < AssignConfig().beta

    def test_in_box_outside_region_is_foreground_with_beta(self):
        # the mask is box OR region, but only the region spares the beta penalty
        g = gt(BBox(0, 0, 100, 100), radius=1.0)
        corner = anchor(5, 5, box=BBox(0, 0, 100, 100), cls=0.9)
        centre = anchor(50, 50, box=BBox(0, 0, 100, 100), cls=0.9)
        cost, _, fg = assign_tables([corner, centre], [g])
        assert fg[:, 0].tolist() == [True, True]
        assert cost[0, 0] == cost[1, 0] + AssignConfig().beta

    def test_iou_term_scales_with_alpha(self):
        a = anchor(50, 50, box=BBox(0, 0, 100, 50), cls=0.5)  # IoU exactly 0.5
        g = gt(BBox(0, 0, 100, 100))
        low, high = (pair_cost(a, g, AssignConfig(alpha=alpha)) for alpha in (1.0, 3.0))
        assert high - low == pytest.approx(2 * -math.log(0.5 + 1e-8), abs=1e-12)

    @pytest.mark.parametrize("short", ["ious", "fg"])
    def test_match_rejects_mismatched_shapes(self, short):
        tables = {"cost": np.zeros((2, 1)), "ious": np.zeros((2, 1)), "fg": np.ones((2, 1), dtype=bool)}
        tables[short] = tables[short][:1]
        with pytest.raises(ValueError, match="must share the same"):
            dynamic_k_match(**tables)

    @pytest.mark.parametrize("seed", range(2))
    def test_positives_are_disjoint_foreground_on_random_configs(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(60):
            anchors, gts, cfg = random_case(rng)
            cost, ious, fg = assign_tables(anchors, gts, cfg)
            positives = dynamic_k_match(cost, ious, fg, cfg)
            assert len(positives) == len(gts)
            flat = [a for sel in positives for a in sel]
            assert len(flat) == len(set(flat))
            assert all(fg[a, g_idx] for g_idx, sel in enumerate(positives) for a in sel)


class TestBce:
    def test_half_probability(self):
        assert bce(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_closed_form_with_clamping(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            p = float(rng.uniform(-0.5, 1.5))  # deliberately out of range too
            y = float(rng.uniform(0, 1))
            pc = min(max(p, 1e-7), 1 - 1e-7)
            expected = -(y * math.log(pc) + (1 - y) * math.log(1 - pc))
            assert bce(p, y) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        for p in (0.0, 0.3, 1.0):
            for y in (0.0, 1.0):
                assert bce(p, y) >= 0.0


def test_anchor_probability_bounds():
    with pytest.raises(ValueError):
        anchor(0, 0, cls=1.5)


@pytest.mark.parametrize("obj", [-0.1, 1.5])
def test_anchor_objectness_bounds(obj):
    with pytest.raises(ValueError, match="predicted probabilities must lie in"):
        anchor(0, 0, obj=obj)


@pytest.mark.parametrize("make", [
    lambda box: anchor(0, 0, box=box),
    lambda box: gt(box),
], ids=["anchor", "gt"])
def test_records_reject_box_past_float_limit(make):
    # the far corner 1e308 + 1e308 is inf
    with pytest.raises(ValueError, match="box far corner and area must be finite"):
        make(BBox(1e308, 0, 1e308, 1))
