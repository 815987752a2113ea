import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_oracle
from headtrack import metrics
from headtrack.dataio import MotTable
from headtrack.geometry import BBox
from headtrack.metrics import EvalReport, _idf1
from metrics_oracle import EvalFrame


def score(gt, hyp, *args, **kwargs):
    """``metrics.evaluate`` of a ground-truth and a hypothesis table."""
    return metrics.evaluate(metrics.EvalTables(gt, hyp), *args, **kwargs)


def evaluate(frames, **kwargs):
    """``metrics.evaluate`` of the tables of ``frames``."""
    return score(*metrics_oracle.tables(frames), **kwargs)


def box(cx, cy, w=40.0, h=100.0):
    return BBox(x=cx - w / 2, y=cy - h / 2, w=w, h=h)


def ten_by_ten():
    """10 objects over 10 frames, gt_total = 100."""
    frames = []
    for f in range(10):
        gt = [(k, box(100 * k + 50, 200 + f)) for k in range(10)]
        frames.append(EvalFrame(gt=gt, hyp=list(gt)))
    return frames


class TestScenarios:
    def test_perfect_tracking(self):
        rep = evaluate(ten_by_ten())
        assert rep.mota == 1.0
        assert rep.idf1 == 1.0
        assert rep.fp == rep.fn == rep.ids == 0
        assert rep.gt_total == 100

    def test_single_spurious_box(self):
        frames = ten_by_ten()
        spoiled = EvalFrame(
            gt=frames[0].gt,
            hyp=frames[0].hyp + [(99, box(5000, 5000))],
        )
        frames[0] = spoiled
        rep = evaluate(frames)
        assert rep.fp == 1 and rep.fn == 0 and rep.ids == 0
        assert rep.mota == pytest.approx(0.99)

    def test_identity_flip_halves_idf1(self):
        # one target, ten frames, hypothesis id flips at frame 6
        frames = []
        for f in range(1, 11):
            b = box(100 + 2 * f, 300)
            hid = 7 if f <= 5 else 8
            frames.append(EvalFrame(gt=[(1, b)], hyp=[(hid, b)]))
        rep = evaluate(frames)
        assert rep.ids == 1
        assert rep.mota == pytest.approx(0.9)
        # the best single id covers 5 of 10 frames: IDF1 = 2*5/(10+10)
        assert rep.idf1 == pytest.approx(0.5)


class TestInvariants:
    def random_frames(self, seed, drop=0.2, flip=0.0):
        rng = np.random.default_rng(seed)
        frames = []
        for f in range(20):
            gt, hyp = [], []
            for k in range(6):
                b = box(150 * k + 60 + 1.5 * f, 300 + 10 * k)
                gt.append((k, b))
                if rng.uniform() > drop:
                    hid = k if rng.uniform() > flip else k + 100
                    hyp.append((hid, b))
            frames.append(EvalFrame(gt=gt, hyp=hyp))
        return frames

    def test_mota_identity(self):
        for seed in range(6):
            rep = evaluate(self.random_frames(seed, drop=0.3, flip=0.1))
            assert rep.mota == pytest.approx(
                1.0 - (rep.fp + rep.fn + rep.ids) / rep.gt_total
            )

    def test_idf1_in_unit_interval(self):
        for seed in range(6):
            rep = evaluate(self.random_frames(seed, drop=0.4, flip=0.2))
            assert 0.0 <= rep.idf1 <= 1.0

    def test_idf1_one_iff_perfect_bijection(self):
        rep = evaluate(self.random_frames(0, drop=0.0, flip=0.0))
        assert rep.idf1 == 1.0
        rep2 = evaluate(self.random_frames(0, drop=0.0, flip=0.5))
        assert rep2.idf1 < 1.0

    def test_global_relabeling_changes_nothing(self):
        frames = self.random_frames(3, drop=0.2, flip=0.1)
        relabeled = [
            EvalFrame(gt=f.gt, hyp=[(h + 1000, b) for h, b in f.hyp]) for f in frames
        ]
        a, b = evaluate(frames), evaluate(relabeled)
        assert (a.mota, a.idf1, a.fp, a.fn, a.ids) == (b.mota, b.idf1, b.fp, b.fn, b.ids)

    def test_order_within_frame_irrelevant(self):
        frames = self.random_frames(5, drop=0.2, flip=0.1)
        shuffled = [
            EvalFrame(gt=list(reversed(f.gt)), hyp=list(reversed(f.hyp)))
            for f in frames
        ]
        assert evaluate(frames) == evaluate(shuffled)


class TestEdgeCases:
    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate([EvalFrame(gt=[], hyp=[(1, box(0, 0))])])

    def test_duplicate_ids_rejected(self):
        b = box(100, 100)
        with pytest.raises(ValueError):
            evaluate([EvalFrame(gt=[(1, b), (1, b)], hyp=[])])

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # -1 would match disjoint boxes; 1.5 would match nothing, not even gt to itself
        frames = [EvalFrame(gt=[(1, box(0, 0))], hyp=[(1, box(500, 0))])]
        with pytest.raises(ValueError, match=r"iou_threshold must lie in \(0, 1\]"):
            evaluate(frames, iou_threshold=threshold)

    def test_threshold_one_matches_identical_boxes(self):
        assert evaluate(ten_by_ten(), iou_threshold=1.0).mota == 1.0

    def test_below_threshold_overlap_not_matched(self):
        g = box(100, 100)
        h = box(140, 100)  # IoU well under 0.5
        rep = evaluate([EvalFrame(gt=[(1, g)], hyp=[(1, h)])])
        assert rep.fp == 1 and rep.fn == 1

    def test_continuity_preferred_over_marginally_better_iou(self):
        # frame 1 binds gt 1 to hyp 5; frame 2 offers a slightly better
        # stranger: the established pair must persist, no switch counted
        g1 = box(100, 100)
        frames = [
            EvalFrame(gt=[(1, g1)], hyp=[(5, g1)]),
            EvalFrame(
                gt=[(1, box(102, 100))],
                hyp=[(5, box(104, 100)), (6, box(102, 100))],
            ),
        ]
        rep = evaluate(frames)
        assert rep.ids == 0
        assert rep.fp == 1  # the stranger goes unmatched

    def test_switch_counted_across_gap(self):
        b = box(100, 100)
        frames = [
            EvalFrame(gt=[(1, b)], hyp=[(5, b)]),
            EvalFrame(gt=[(1, b)], hyp=[]),  # miss
            EvalFrame(gt=[(1, b)], hyp=[(6, b)]),
        ]
        rep = evaluate(frames)
        assert rep.ids == 1
        assert rep.fn == 1

    def test_report_is_plain_dataclass(self):
        rep = evaluate(ten_by_ten())
        assert isinstance(rep, EvalReport)
        assert isinstance(rep.idf1, float)


class TestEvalTables:
    def test_iterates_each_frame_of_either_table_with_its_rows_by_id(self):
        gt = MotTable([3, 1, 1], [7, 2, 1], [(0, 0, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3)])
        hyp = MotTable([2], [5], [(4, 4, 5, 5)])
        assert list(metrics.EvalTables(gt, hyp)) == [
            (1, [(1, (2.0, 2.0, 3.0, 3.0)), (2, (1.0, 1.0, 2.0, 2.0))], []),
            (2, [], [(5, (4.0, 4.0, 5.0, 5.0))]),
            (3, [(7, (0.0, 0.0, 1.0, 1.0))], []),
        ]


def counts_of(overlap):
    """``_overlap_counts`` of the matching pairs that ``overlap`` counts per (gt id, hyp id)."""
    pairs = [key for key, n in overlap.items() for _ in range(n)]
    g, h = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return metrics._overlap_counts(g, h)


class TestIdf1Matching:
    def test_equals_brute_force(self):
        # exhaustive search over every injective gt -> hyp identity map
        rng = np.random.default_rng(11)
        for G, H in ((4, 6), (6, 4), (5, 5)):
            counts = rng.integers(0, 9, (G, H)) * (rng.uniform(size=(G, H)) < 0.6)
            overlap = {(g, 100 + h): int(counts[g, h]) for g in range(G) for h in range(H)
                       if counts[g, h]}
            if G <= H:
                best = max(sum(counts[g, p[g]] for g in range(G))
                           for p in itertools.permutations(range(H), G))
            else:
                best = max(sum(counts[p[h], h] for h in range(H))
                           for p in itertools.permutations(range(G), H))
            assert _idf1(counts_of(overlap), 300, 250) == 2.0 * best / 550

    def test_thousands_of_ids_are_fast(self):
        # gt g overlaps hyp g in 50 frames and two other hyps in fewer, so
        # the best identity map is g -> g with 50 000 shared frames
        rng = np.random.default_rng(12)
        overlap = {}
        for g in range(1000):
            overlap[(g, g)] = 50
            for h in rng.choice(np.arange(1000, 1500), size=2, replace=False):
                overlap[(g, int(h))] = int(rng.integers(1, 50))
        counts = counts_of(overlap)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            score = _idf1(counts, 60000, 65000)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 1.0
        assert score == 2.0 * 50000 / 125000


# ids either side of zero and past 32 bits; frames too
IDS = (-(2**40), -7, -1, 0, 1, 2, 3, 2**40, 2**40 + 1, 2**62)
FRAMES = (1, 2, 3, 4, 5, 7, 2**40)
# a coarse grid makes IoU ties and IoU exactly 1/3 or 0.5; sides near 1e308 overflow to a nan IoU
GRID_BOX = st.tuples(*(st.sampled_from(v) for v in ((0.0, 5.0, 10.0, 15.0), (0.0, 5.0), (5.0, 10.0, 20.0), (10.0, 20.0))))
HUGE_BOX = st.sampled_from([(0.0, 0.0, 1e308, 1e308), (1e307, 0.0, 1.7e308, 1e308), (-1e308, 5.0, 1.5e308, 1e308)])
BOX = st.one_of(GRID_BOX, GRID_BOX, GRID_BOX, HUGE_BOX)


@st.composite
def mot_table(draw, frames, unique=True):
    """Rows of ``frames`` (any frame may get none), ids from a few of IDS, rows in drawn order."""
    ids = st.sampled_from(draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True)))
    rows = [(f, i, draw(BOX)) for f in frames for i in draw(st.lists(ids, max_size=4, unique=unique))]
    rows = draw(st.permutations(rows))
    return MotTable([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


@st.composite
def streams(draw, unique=True):
    frames = draw(st.lists(st.sampled_from(FRAMES), min_size=1, max_size=6, unique=True))
    return draw(mot_table(frames, unique)), draw(mot_table(frames, unique))


def outcome(score, *args):
    try:
        return score(*args)
    except ValueError as exc:
        return str(exc)


class TestEqualsFrameOracle:
    """``evaluate`` on tables reports what the frame-at-a-time loop it replaced reports."""

    @settings(max_examples=400, deadline=None)
    @given(
        tables=streams(),
        threshold=st.sampled_from([1 / 3, 0.5, 1.0]),
        chunk=st.sampled_from([1, 5, metrics.PAIR_CHUNK]),  # small chunks split blocks of frames
    )
    def test_all_six_fields(self, tables, threshold, chunk):
        gt, hyp = tables
        expected = outcome(metrics_oracle.evaluate, metrics_oracle.frames_of(gt, hyp), threshold)
        with mock.patch.object(metrics, "PAIR_CHUNK", chunk):
            assert outcome(score, gt, hyp, threshold) == expected

    @settings(max_examples=150, deadline=None)
    @given(tables=streams(unique=False))
    def test_repeated_ids_raise_as_the_oracle_does(self, tables):
        gt, hyp = tables
        expected = outcome(metrics_oracle.evaluate, metrics_oracle.frames_of(gt, hyp))
        assert outcome(score, gt, hyp) == expected

    def test_first_claim_wins_in_gt_id_order(self):
        # gts 1 and 2 both last matched hyp 9 when frame 3 offers it to both: gt 1 keeps it and
        # gt 2 switches to hyp 8, so gt 1 still holds hyp 9 in frame 4
        b = box(100, 100)
        frames = [
            EvalFrame(gt=[(1, b)], hyp=[(9, b)]),
            EvalFrame(gt=[(2, b)], hyp=[(9, b)]),
            EvalFrame(gt=[(2, b), (1, b)], hyp=[(8, b), (9, b)]),
            EvalFrame(gt=[(1, b)], hyp=[(9, b)]),
        ]
        rep = evaluate(frames)
        assert (rep.fp, rep.fn, rep.ids) == (0, 0, 1)
        assert rep == metrics_oracle.evaluate(frames)

    def test_frames_held_by_one_table_count_as_fp_or_fn(self):
        b = box(100, 100)
        frames = [EvalFrame(gt=[(1, b)], hyp=[]), EvalFrame(gt=[], hyp=[(4, b), (5, box(900, 100))])]
        rep = evaluate(frames)
        assert (rep.fp, rep.fn, rep.ids, rep.idf1) == (2, 1, 0, 0.0)
        assert rep == metrics_oracle.evaluate(frames)
