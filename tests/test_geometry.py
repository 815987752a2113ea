import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from headtrack.geometry import (
    BBox,
    GridIndex,
    HeadKeypoint,
    ciou_loss,
    gaussian_weight,
    grid_map,
    iou,
    iou_matrix,
)


def ciou_reference(pred, gt):
    """Independent transcription of the CIoU loss, corner-based."""
    px1, py1, px2, py2 = pred.x, pred.y, pred.x + pred.w, pred.y + pred.h
    gx1, gy1, gx2, gy2 = gt.x, gt.y, gt.x + gt.w, gt.y + gt.h
    iw = max(0.0, min(px2, gx2) - max(px1, gx1))
    ih = max(0.0, min(py2, gy2) - max(py1, gy1))
    inter = iw * ih
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    overlap = inter / union
    rho2 = ((px1 + px2) / 2 - (gx1 + gx2) / 2) ** 2 + ((py1 + py2) / 2 - (gy1 + gy2) / 2) ** 2
    cw = max(px2, gx2) - min(px1, gx1)
    ch = max(py2, gy2) - min(py1, gy1)
    v = (4 / math.pi**2) * (
        math.atan((gx2 - gx1) / (gy2 - gy1)) - math.atan((px2 - px1) / (py2 - py1))
    ) ** 2
    alpha = v / (1 - overlap + v) if v > 0 else 0.0
    return 1 - overlap + rho2 / (cw**2 + ch**2) + alpha * v


finite_boxes = st.builds(
    BBox,
    x=st.floats(-1e4, 1e4),
    y=st.floats(-1e4, 1e4),
    w=st.floats(0.1, 1e3),
    h=st.floats(0.1, 1e3),
)


class TestBBox:
    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BBox(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            BBox(0, float("inf"), 1, 1)

    def test_derived_coordinates(self):
        b = BBox(10, 20, 4, 8)
        assert (b.x2, b.y2) == (14, 28)
        assert (b.cx, b.cy) == (12, 24)
        assert b.area == 32
        assert b.aspect == 0.5


class TestIou:
    def test_identical(self):
        b = BBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 7, by direct area arithmetic
        assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == pytest.approx(1 / 7, abs=1e-12)

    @given(finite_boxes, finite_boxes)
    def test_symmetry(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(finite_boxes, finite_boxes, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    @example(a=BBox(0, 4096, 0.25, 0.25), b=BBox(0, 4096, 0.25, 0.1), dx=0, dy=-1)
    @settings(max_examples=200)
    def test_translation_invariance(self, a, b, dx, dy):
        a2 = BBox(a.x + dx, a.y + dy, a.w, a.h)
        b2 = BBox(b.x + dx, b.y + dy, b.w, b.h)
        # Translating and adding an extent each round a corner by half a spacing
        # of the largest coordinate; IoU moves by at most about 2/extent per unit
        # of a side's error, over eight sides, so the bound is 16 spacings over
        # the smallest extent (plus a few of 1.0 for IoU's own arithmetic).
        corners = [v for box in (a, b, a2, b2) for v in (box.x, box.y, box.x2, box.y2)]
        spacing = np.spacing(max(abs(v) for v in corners))
        bound = 16 * spacing / min(a.w, a.h, b.w, b.h) + 4 * np.spacing(1.0)
        assert abs(iou(a2, b2) - iou(a, b)) <= bound

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
            b = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
            assert 0.0 <= iou(a, b) <= 1.0


class TestIouMatrix:
    def test_equals_scalar_iou_bit_for_bit(self):
        rng = np.random.default_rng(3)
        overlapping = disjoint = 0
        for _ in range(20):
            na, nb = (int(n) for n in rng.integers(1, 30, 2))
            boxes_a = [BBox(*rng.uniform(0, 200, 2), *rng.uniform(0.5, 60, 2)) for _ in range(na)]
            boxes_b = [BBox(*rng.uniform(0, 200, 2), *rng.uniform(0.5, 60, 2)) for _ in range(nb)]
            m = iou_matrix(boxes_a, boxes_b)
            expected = np.array([[iou(a, b) for b in boxes_b] for a in boxes_a])
            assert m.shape == (na, nb)
            assert np.array_equal(m, expected)
            overlapping += int((m > 0.0).sum())
            disjoint += int((m == 0.0).sum())
        assert overlapping > 100 and disjoint > 100

    def test_identical_boxes_are_exactly_one(self):
        boxes = [BBox(0.1, 0.2, 10.3, 7.7), BBox(1e3 / 3, 2e3 / 7, 0.3, 1e3 / 9)]
        assert np.diag(iou_matrix(boxes, boxes)).tolist() == [1.0, 1.0]

    def test_touching_edges_are_zero(self):
        a = [BBox(0, 0, 10, 10)]
        touching = [BBox(10, 0, 5, 5), BBox(0, 10, 5, 5), BBox(-5, -5, 5, 5), BBox(10, 10, 1, 1)]
        assert iou_matrix(a, touching).tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_empty_sides(self):
        boxes = [BBox(0, 0, 1, 1), BBox(2, 2, 1, 1), BBox(4, 4, 1, 1)]
        assert iou_matrix([], boxes).shape == (0, 3)
        assert iou_matrix(boxes, []).shape == (3, 0)
        assert iou_matrix([], []).shape == (0, 0)


class TestCiouLoss:
    def test_identical_is_zero(self):
        b = BBox(0, 0, 4, 4)
        assert ciou_loss(b, b) == 0.0

    def test_zero_on_random_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            b = BBox(*rng.uniform(-100, 100, 2), *rng.uniform(0.5, 200, 2))
            assert ciou_loss(b, b) == 0.0

    def test_disjoint_matches_reference(self):
        pred, gt = BBox(0, 0, 2, 2), BBox(10, 0, 2, 2)
        # frozen from the transcribed reference: 1 + 100/148
        assert ciou_loss(pred, gt) == pytest.approx(1.6756756756756757, abs=1e-12)
        assert ciou_loss(pred, gt) == pytest.approx(ciou_reference(pred, gt), abs=1e-12)

    def test_aspect_penalty_strictly_positive(self):
        # swapped aspect ratios force v > 0 so the loss exceeds 1 - IoU
        pred, gt = BBox(0, 0, 2, 4), BBox(0, 0, 4, 2)
        assert ciou_loss(pred, gt) > 1.0 - iou(pred, gt)
        # same-center variant isolates the aspect term
        pred_c, gt_c = BBox(1, 0, 2, 4), BBox(0, 1, 4, 2)
        assert (pred_c.cx, pred_c.cy) == (gt_c.cx, gt_c.cy)
        assert ciou_loss(pred_c, gt_c) > 1.0 - iou(pred_c, gt_c)

    def test_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 80, 2))
            b = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 80, 2))
            assert ciou_loss(a, b) == pytest.approx(ciou_reference(a, b), rel=1e-12)

    def test_grows_with_center_distance(self):
        gt = BBox(0, 0, 4, 4)
        near = ciou_loss(BBox(1, 0, 4, 4), gt)
        far = ciou_loss(BBox(10, 0, 4, 4), gt)
        assert far > near


class TestGridMap:
    @pytest.mark.parametrize(
        "x,y,s,expected",
        [
            (77, 105, 8, (9, 13)),
            (0, 0, 32, (0, 0)),
            (31.9, 32.0, 32, (0, 1)),
        ],
    )
    def test_examples(self, x, y, s, expected):
        g = grid_map(x, y, s)
        assert (g.i, g.j) == expected
        assert g.s == s

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            grid_map(-1.0, 5.0, 8)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            grid_map(1.0, 1.0, 7)

    @given(
        st.integers(0, 500),
        st.integers(0, 500),
        st.sampled_from([8, 16, 32]),
        st.floats(0, 1, exclude_max=True),
        st.floats(0, 1, exclude_max=True),
    )
    def test_cell_consistency(self, i, j, s, fx, fy):
        x = i * s + fx * s
        y = j * s + fy * s
        # constructing the input can round across the cell boundary
        assume(x < (i + 1) * s and y < (j + 1) * s)
        g = grid_map(x, y, s)
        assert (g.i, g.j) == (i, j)


class TestGaussianWeight:
    def setup_method(self):
        self.head = HeadKeypoint(100.0, 50.0, 1.0)

    def test_peak_at_center(self):
        assert gaussian_weight((100.0, 50.0), self.head, 5.0) == 1.0

    def test_one_sigma(self):
        assert gaussian_weight((105.0, 50.0), self.head, 5.0) == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )

    def test_two_sigma(self):
        assert gaussian_weight((100.0, 60.0), self.head, 5.0) == pytest.approx(
            math.exp(-2.0), abs=1e-12
        )

    def test_monotone_in_distance(self):
        ws = [gaussian_weight((100.0 + d, 50.0), self.head, 4.0) for d in range(0, 30)]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_radial_symmetry(self):
        r = 7.3
        vals = [
            gaussian_weight(
                (100.0 + r * math.cos(t), 50.0 + r * math.sin(t)), self.head, 3.0
            )
            for t in np.linspace(0, 2 * math.pi, 17)
        ]
        assert max(vals) - min(vals) < 1e-12

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_weight((0, 0), self.head, 0.0)


def test_head_keypoint_visibility_bounds():
    with pytest.raises(ValueError):
        HeadKeypoint(0, 0, 1.5)
    with pytest.raises(ValueError):
        HeadKeypoint(0, 0, -0.1)
    assert HeadKeypoint(1, 2, 0.5).v_head == 0.5


def test_grid_index_fields():
    g = GridIndex(3, 4, 16)
    assert (g.i, g.j, g.s) == (3, 4, 16)
