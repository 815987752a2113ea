import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from headtrack.geometry import (
    BBox,
    GridIndex,
    HeadKeypoint,
    gaussian_weight,
    grid_map,
    iou,
    iou_matrix,
    iou_pairs,
)


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


def xywh(boxes):
    """The (n, 4) x, y, w, h array ``iou_matrix`` takes."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


class TestIouMatrix:
    def test_equals_scalar_iou_bit_for_bit(self):
        rng = np.random.default_rng(3)
        overlapping = disjoint = 0
        for _ in range(20):
            na, nb = (int(n) for n in rng.integers(1, 30, 2))
            boxes_a = [BBox(*rng.uniform(0, 200, 2), *rng.uniform(0.5, 60, 2)) for _ in range(na)]
            boxes_b = [BBox(*rng.uniform(0, 200, 2), *rng.uniform(0.5, 60, 2)) for _ in range(nb)]
            m = iou_matrix(xywh(boxes_a), xywh(boxes_b))
            expected = np.array([[iou(a, b) for b in boxes_b] for a in boxes_a])
            assert m.shape == (na, nb)
            assert np.array_equal(m, expected)
            overlapping += int((m > 0.0).sum())
            disjoint += int((m == 0.0).sum())
        assert overlapping > 100 and disjoint > 100

    def test_identical_boxes_are_exactly_one(self):
        boxes = [BBox(0.1, 0.2, 10.3, 7.7), BBox(1e3 / 3, 2e3 / 7, 0.3, 1e3 / 9)]
        assert np.diag(iou_matrix(xywh(boxes), xywh(boxes))).tolist() == [1.0, 1.0]

    def test_touching_edges_are_zero(self):
        a = [BBox(0, 0, 10, 10)]
        touching = [BBox(10, 0, 5, 5), BBox(0, 10, 5, 5), BBox(-5, -5, 5, 5), BBox(10, 10, 1, 1)]
        assert iou_matrix(xywh(a), xywh(touching)).tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_empty_sides(self):
        boxes = [BBox(0, 0, 1, 1), BBox(2, 2, 1, 1), BBox(4, 4, 1, 1)]
        assert iou_matrix(xywh([]), xywh(boxes)).shape == (0, 3)
        assert iou_matrix(xywh(boxes), xywh([])).shape == (3, 0)
        assert iou_matrix(xywh([]), xywh([])).shape == (0, 0)


class TestIouPairs:
    def test_rows_and_blocks_equal_scalar_iou_bit_for_bit(self):
        rng = np.random.default_rng(5)
        a = xywh([BBox(*rng.uniform(0, 100, 2), *rng.uniform(0.5, 60, 2)) for _ in range(60)])
        b = xywh([BBox(*rng.uniform(0, 100, 2), *rng.uniform(0.5, 60, 2)) for _ in range(60)])
        rows = iou_pairs(a, b)
        assert rows.tolist() == [iou(BBox(*p), BBox(*q)) for p, q in zip(a.tolist(), b.tolist())]
        assert (rows > 0.0).sum() > 10
        blocks = iou_pairs(a.reshape(3, 20, 1, 4), b.reshape(3, 1, 20, 4))  # (frames, a rows, b rows)
        for f in range(3):
            assert np.array_equal(blocks[f], iou_matrix(a[20 * f:20 * f + 20], b[20 * f:20 * f + 20]))

    def test_overflowing_sides_give_nan_silently(self):
        with np.errstate(all="raise"):
            out = iou_pairs(np.array([[0.0, 0.0, 1e308, 1e308]]), np.array([[-1e308, 0.0, 1.5e308, 1e308]]))
        assert np.isnan(out).tolist() == [True]


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
