import math
import random

import numpy as np
import pytest

import assign_oracle

from headtrack.geometry import BBox, HeadKeypoint
from headtrack.label_assign import (
    Anchor,
    AssignConfig,
    GtInstance,
    LabeledBatch,
    assign_cost,
    assign_cost_matrix,
    assign_tables,
    bce,
    dynamic_k_match,
    foreground_mask,
    in_center_region,
    iou_cost,
    iou_matrix,
    loss_box,
    loss_cls,
    loss_head,
    loss_l1,
    loss_total,
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


class TestForegroundMask:
    def test_anchor_at_center(self):
        g = gt(BBox(0, 0, 100, 100))
        mask = foreground_mask([anchor(50, 50)], [g])
        assert mask[0, 0]

    def test_far_anchor(self):
        g = gt(BBox(0, 0, 16, 16))
        mask = foreground_mask([anchor(16 + 10 * 8, 8)], [g])
        assert not mask[0, 0]

    def test_outside_box_inside_center_region(self):
        # gt box 10 wide around center (25, 25); radius 2.5 * 8 = 20 reaches
        # an anchor at (40, 25) that the box itself does not contain
        g = gt(BBox(20, 20, 10, 10))
        a = anchor(40.0, 25.0, stride=8)
        assert not (g.box.x <= a.cx <= g.box.x2)
        mask = foreground_mask([a], [g])
        assert mask[0, 0]

    def test_explicit_radius_overrides(self):
        g = gt(BBox(20, 20, 10, 10), radius=1.0)
        mask = foreground_mask([anchor(40.0, 25.0)], [g])
        assert not mask[0, 0]

    def test_shape(self):
        mask = foreground_mask([anchor(0, 0), anchor(5, 5)], [gt(BBox(0, 0, 4, 4))])
        assert mask.shape == (2, 1)


class TestCosts:
    def test_iou_cost_identical(self):
        b = BBox(0, 0, 10, 10)
        assert iou_cost(b, b) == pytest.approx(-math.log(1 + 1e-8), abs=1e-15)

    def test_iou_cost_disjoint(self):
        assert iou_cost(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == pytest.approx(
            -math.log(1e-8), abs=1e-9
        )

    def test_iou_cost_chained_from_geometry(self):
        # IoU 1/7 from the box-arithmetic example
        c = iou_cost(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2))
        assert c == pytest.approx(-math.log(1 / 7 + 1e-8), abs=1e-12)

    def test_assign_cost_near_zero_for_perfect_anchor(self):
        g = gt(BBox(0, 0, 100, 100))
        a = anchor(50, 50, box=BBox(0, 0, 100, 100), cls=1.0 - 1e-9)
        assert assign_cost(a, g) < 1e-6

    def test_assign_cost_penalizes_outside_region(self):
        g = gt(BBox(0, 0, 16, 16), radius=4.0)
        a = anchor(100.0, 100.0, box=BBox(0, 0, 16, 16), cls=0.9)
        assert assign_cost(a, g) >= 1e5

    def test_assign_cost_hand_value(self):
        # BCE(0.5, 1) + 3 * (-log(0.5 + 1e-8)), anchor inside the region
        g = gt(BBox(0, 0, 100, 100))
        pred = BBox(0, 0, 100, 50)  # IoU exactly 0.5
        a = anchor(50, 50, box=pred, cls=0.5)
        cfg = AssignConfig(alpha=3.0)
        assert assign_cost(a, g, cfg) == pytest.approx(2.7725886622397815, abs=1e-9)


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
            fg = foreground_mask(anchors, gts)
            cost = assign_cost_matrix(anchors, gts, cfg)
            want_fg = assign_oracle.foreground_mask(anchors, gts)
            want_cost = assign_oracle.assign_cost_matrix(anchors, gts, cfg)
            assert fg.shape == cost.shape == (len(anchors), len(gts))
            assert np.array_equal(fg, want_fg)
            assert cost.tobytes() == want_cost.tobytes()
            ious = iou_matrix(anchors, gts)
            assert dynamic_k_match(cost, ious, fg, cfg) == dynamic_k_match(want_cost, ious, want_fg, cfg)
            shared = assign_tables(anchors, gts, cfg)  # one IoU and region pass for all three
            assert [m.tobytes() for m in shared] == [want_cost.tobytes(), ious.tobytes(), want_fg.tobytes()]
            for a, g in zip(anchors, gts):  # the scalar names are the 1 x 1 case
                assert in_center_region(a, g) == assign_oracle.in_center_region(a, g)
                assert assign_cost(a, g, cfg) == assign_oracle.assign_cost(a, g, cfg)


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
        cost = assign_cost_matrix(anchors, gts)
        ious = iou_matrix(anchors, gts)
        fg = foreground_mask(anchors, gts)
        # hand oracle: sum of candidate IoUs ~ 0.9 + 0.8 + 0.05 + 0.05 = 1.8 -> k = 2,
        # and the two cheapest anchors are the two highest-IoU ones
        positives = dynamic_k_match(cost, ious, fg)
        assert positives == [[0, 1]]

    def test_single_candidate_clamps_to_one(self):
        g = gt(BBox(0, 0, 16, 16), radius=1.0)
        a = anchor(8, 8, box=BBox(0, 0, 16, 16))
        cost = assign_cost_matrix([a], [g])
        ious = iou_matrix([a], [g])
        fg = foreground_mask([a], [g])
        assert dynamic_k_match(cost, ious, fg) == [[0]]

    def test_conflict_goes_to_cheaper_gt_and_loser_refills(self):
        # two targets share their best anchor; the loser takes its next-best
        g1 = gt(BBox(0, 0, 100, 100))
        g2 = gt(BBox(10, 0, 100, 100))
        shared = anchor(55, 50, box=BBox(5, 0, 100, 100), cls=0.99)
        backup = anchor(60, 50, box=BBox(10, 0, 100, 95), cls=0.5)
        anchors = [shared, backup]
        gts = [g1, g2]
        cost = assign_cost_matrix(anchors, gts)
        ious = iou_matrix(anchors, gts)
        fg = foreground_mask(anchors, gts)
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
        cost = assign_cost_matrix([a], [g_far])
        ious = iou_matrix([a], [g_far])
        fg = foreground_mask([a], [g_far])
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
            cost = assign_cost_matrix(anchors, gts)
            ious = iou_matrix(anchors, gts)
            fg = foreground_mask(anchors, gts)
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
            cost = assign_cost_matrix(anchors, gts, cfg)
            ious = iou_matrix(anchors, gts)
            fg = foreground_mask(anchors, gts)
            positives = dynamic_k_match(cost, ious, fg, cfg)
            from headtrack.label_assign import in_center_region

            for g_idx, sel in enumerate(positives):
                for a_idx in sel:
                    if not in_center_region(anchors[a_idx], gts[g_idx]):
                        # an outside anchor may only win when nothing else exists
                        inside = [
                            a for a in np.flatnonzero(fg[:, g_idx])
                            if in_center_region(anchors[a], gts[g_idx])
                        ]
                        assert not inside


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


class TestLosses:
    def perfect_batch(self):
        g = gt(BBox(0, 0, 100, 100), head=HeadKeypoint(50.0, 10.0, 1.0))
        a = anchor(
            50, 50,
            box=BBox(0, 0, 100, 100),
            cls=1.0,
            obj=1.0,
            head=HeadKeypoint(50.0, 10.0, 1.0),
        )
        return LabeledBatch(anchors=[a], gts=[g], positives=[[0]])

    def test_perfect_predictions_near_zero(self):
        batch = self.perfect_batch()
        assert loss_cls(batch) <= 1e-6
        assert loss_box(batch) <= 1e-6
        assert loss_l1(batch) <= 1e-6
        assert loss_head(batch) <= 1e-6
        assert loss_total(batch, use_l1=True) <= 4e-6

    def test_head_loss_hand_value(self):
        g = gt(BBox(0, 0, 100, 100), head=HeadKeypoint(10.0, 10.0, 1.0))
        a = anchor(50, 50, box=BBox(0, 0, 100, 100),
                   head=HeadKeypoint(13.0, 14.0, 1.0))
        batch = LabeledBatch(anchors=[a], gts=[g], positives=[[0]])
        # displacement (3, 4): 25, visibility matched at ~1
        assert loss_head(batch) == pytest.approx(25.0, abs=1e-5)

    def test_objectness_counts_all_anchors(self):
        g = gt(BBox(0, 0, 100, 100))
        fg_anchor = anchor(50, 50, box=BBox(0, 0, 100, 100), cls=1.0, obj=1.0)
        bg_anchor = anchor(500, 500, obj=0.5)
        batch = LabeledBatch(anchors=[fg_anchor, bg_anchor], gts=[g], positives=[[0]])
        # background objectness BCE(0.5, 0) = ln 2, normalized by N_fg = 1
        assert loss_box(batch) == pytest.approx(math.log(2), abs=1e-6)

    def test_empty_foreground(self):
        g = gt(BBox(0, 0, 100, 100))
        a = anchor(500, 500, obj=0.5)
        batch = LabeledBatch(anchors=[a], gts=[g], positives=[[]])
        assert loss_cls(batch) == 0.0
        assert loss_l1(batch) == 0.0
        assert loss_head(batch) == 0.0
        # objectness survives with the unit normalizer
        assert loss_box(batch) == pytest.approx(math.log(2), abs=1e-12)

    def test_l1_by_hand(self):
        g = gt(BBox(0, 0, 100, 100))
        a = anchor(50, 50, box=BBox(1, 2, 103, 96))
        batch = LabeledBatch(anchors=[a], gts=[g], positives=[[0]])
        assert loss_l1(batch) == pytest.approx(1 + 2 + 3 + 4)

    def test_double_assignment_rejected(self):
        g1 = gt(BBox(0, 0, 100, 100))
        g2 = gt(BBox(10, 0, 100, 100))
        a = anchor(50, 50)
        with pytest.raises(ValueError):
            LabeledBatch(anchors=[a], gts=[g1, g2], positives=[[0], [0]])


def test_anchor_probability_bounds():
    with pytest.raises(ValueError):
        anchor(0, 0, cls=1.5)
