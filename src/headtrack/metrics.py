"""CLEAR-MOT and IDF1 evaluation against ground truth.

Per-frame matching uses IoU with a fixed threshold and keeps a target on
its previous hypothesis while the overlap stays valid (the CLEAR
continuity convention), which stabilizes the identity-switch count. IDF1
comes from one global assignment between ground-truth and hypothesis
identities over their per-frame overlap counts.

Both streams are scored as ``dataio.MotTable`` columns: ``EvalTables``
sorts each table once by (frame, id), ``evaluate`` cuts them into frames, the IoU of every
same-frame pair comes from whole blocks of frames at once, and only the
pairs that reach the threshold are walked in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .association import CostMatrix, linear_sum_assignment, solve_assignment
from .config import EVAL_IOU_THRESHOLD
from .geometry import iou_matrix, iou_pairs

if TYPE_CHECKING:
    from .dataio import MotTable


@dataclass(frozen=True)
class EvalReport:
    mota: float
    idf1: float
    fp: int
    fn: int
    ids: int
    gt_total: int


class Columns(NamedTuple):
    """One table's frame, id and box columns, sorted by (frame, id)."""

    frame: np.ndarray
    id: np.ndarray
    box: np.ndarray


class FrameRows(NamedTuple):
    """One frame's ground-truth and hypothesis rows, each an ``(id, (x, y, w, h))`` pair."""

    frame: int
    gt: list[tuple[int, tuple[float, ...]]]
    hyp: list[tuple[int, tuple[float, ...]]]


class EvalTables:
    """A ground-truth and a hypothesis table, each sorted once by (frame, id).

    ``evaluate`` scores the columns ``gt`` and ``hyp``. Iterating yields a
    ``FrameRows`` for each frame either table holds, frames ascending; it is
    kept for perfbench/trace_cli.py, which counts each side's ids through it.
    """

    def __init__(self, gt: MotTable, hyp: MotTable):
        self.gt, self.hyp = _by_frame_and_id(gt), _by_frame_and_id(hyp)

    def __iter__(self) -> Iterator[FrameRows]:
        for frame in np.union1d(self.gt.frame, self.hyp.frame).tolist():
            yield FrameRows(frame, _frame_rows(self.gt, frame), _frame_rows(self.hyp, frame))


def evaluate(tables: EvalTables, iou_threshold: float = EVAL_IOU_THRESHOLD) -> EvalReport:
    """Score the hypothesis table of ``tables`` against its ground-truth table.

    A pair matches when its IoU is at least ``iou_threshold``. Each frame
    first keeps every target on its previous hypothesis where that pair
    still matches, the first claim winning in gt-id order; the remaining
    targets and hypotheses then get ``solve_assignment``'s matching. Rows
    of a frame that only one table has count as FN or FP.

    Raises ValueError when ``iou_threshold`` lies outside (0, 1], the
    ground truth is empty (MOTA undefined), or a table repeats an id
    within a frame (the earliest such frame, ground truth first).
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    g_frame, g_id, g_box = tables.gt
    h_frame, h_id, h_box = tables.hyp
    if not len(g_frame):
        raise ValueError("empty ground truth: MOTA undefined")
    g_repeat, h_repeat = _first_repeat(g_frame, g_id), _first_repeat(h_frame, h_id)
    if g_repeat is not None and (h_repeat is None or g_repeat <= h_repeat):
        raise ValueError("duplicate ground-truth ids within one frame")
    if h_repeat is not None:
        raise ValueError("duplicate hypothesis ids within one frame")

    g_rows, h_rows = _matching_pairs(g_frame, g_box, h_frame, h_box, iou_threshold)
    g_ids, h_ids = g_id.tolist(), h_id.tolist()
    last_hyp: dict[int, int] = {}  # gt id -> hyp id of its most recent match
    matched = ids = 0

    pair_frame = g_frame[g_rows]
    cuts = (np.flatnonzero(pair_frame[1:] != pair_frame[:-1]) + 1).tolist()
    pair_g, pair_h = g_rows.tolist(), h_rows.tolist()
    for p0, p1 in zip([0, *cuts], [*cuts, len(pair_g)]):
        pairs = list(zip(pair_g[p0:p1], pair_h[p0:p1]))  # one frame's, gt-major: gt ids ascending

        # continuity pass: keep last frame's correspondence while still valid
        match: dict[int, int] = {}  # gt row -> hyp row
        used: set[int] = set()
        for g, h in pairs:
            if h_ids[h] == last_hyp.get(g_ids[g]) and h not in used:
                match[g] = h
                used.add(h)

        # optimal matching over the remainder, where some pair is left
        if any(g not in match and h not in used for g, h in pairs):
            frame = pair_frame[p0]
            rem_g = [g for g in range(*_rows_of(g_frame, frame)) if g not in match]
            rem_h = [h for h in range(*_rows_of(h_frame, frame)) if h not in used]
            sub = iou_matrix(g_box[rem_g], h_box[rem_h])
            for r, c in solve_assignment(CostMatrix(values=1.0 - sub, gate_mask=sub >= iou_threshold)):
                match[rem_g[r]] = rem_h[c]

        matched += len(match)
        for g, h in match.items():
            g_key, h_key = g_ids[g], h_ids[h]
            prev = last_hyp.get(g_key)
            if prev is not None and prev != h_key:
                ids += 1
            last_hyp[g_key] = h_key

    fp, fn = len(h_id) - matched, len(g_id) - matched
    mota = 1.0 - (fp + fn + ids) / len(g_id)
    idf1 = _idf1(_overlap_counts(g_id[g_rows], h_id[h_rows]), len(g_id), len(h_id))
    return EvalReport(mota=mota, idf1=idf1, fp=fp, fn=fn, ids=ids, gt_total=len(g_id))


def _by_frame_and_id(table: MotTable) -> Columns:
    """The frame, id and box columns sorted by (frame, id)."""
    order = np.lexsort((table.id, table.frame))
    return Columns(table.frame[order], table.id[order], table.box[order])


def _frame_rows(columns: Columns, frame: int) -> list[tuple[int, tuple[float, ...]]]:
    """The ``(id, (x, y, w, h))`` rows of one frame of sorted columns."""
    a, b = _rows_of(columns.frame, frame)
    return list(zip(columns.id[a:b].tolist(), map(tuple, columns.box[a:b].tolist())))


def _first_repeat(frame: np.ndarray, ids: np.ndarray):
    """The first frame of sorted columns that holds an id twice, or None."""
    repeats = frame[1:][(frame[1:] == frame[:-1]) & (ids[1:] == ids[:-1])]
    return int(repeats[0]) if repeats.size else None


def _rows_of(frame: np.ndarray, f) -> tuple[int, int]:
    """The first row of frame ``f`` in a sorted column and one past its last."""
    return int(np.searchsorted(frame, f, "left")), int(np.searchsorted(frame, f, "right"))


def _frame_spans(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct frame of a sorted, non-empty column, with its first row and one past its last."""
    cuts = np.flatnonzero(frame[1:] != frame[:-1]) + 1
    starts = np.r_[0, cuts]
    return frame[starts], starts, np.r_[cuts, len(frame)]


PAIR_CHUNK = 1 << 16  # same-frame pairs scored at once, which bounds the pass's memory


def _matching_pairs(
    g_frame: np.ndarray, g_box: np.ndarray, h_frame: np.ndarray, h_box: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gt and hyp rows of every same-frame pair of the sorted columns whose IoU is at least
    ``threshold``, ordered by gt row, then hyp row.

    Frames with equally many gt rows and equally many hyp rows are scored together as one
    (frames, gt rows, hyp rows) block, in parts of at most ``PAIR_CHUNK`` pairs (or one frame).
    """
    empty = np.zeros(0, dtype=np.int64)
    if not h_frame.size:
        return empty, empty
    g_frames, g_starts, g_ends = _frame_spans(g_frame)
    h_frames, h_starts, h_ends = _frame_spans(h_frame)
    at = np.minimum(np.searchsorted(h_frames, g_frames), len(h_frames) - 1)
    shared = h_frames[at] == g_frames
    if not shared.any():
        return empty, empty
    g0, h0, at = g_starts[shared], h_starts[at[shared]], at[shared]
    n_g, n_h = g_ends[shared] - g0, h_ends[at] - h0
    shape = n_g * (int(n_h.max()) + 1) + n_h
    order = np.argsort(shape, kind="stable")
    g_rows, h_rows = [], []
    for group in np.split(order, np.flatnonzero(np.diff(shape[order])) + 1):
        span_g, span_h = np.arange(n_g[group[0]]), np.arange(n_h[group[0]])
        step = max(1, PAIR_CHUNK // (len(span_g) * len(span_h)))
        for part in (group[i:i + step] for i in range(0, len(group), step)):
            g, h = g0[part, None] + span_g, h0[part, None] + span_h  # (frames, rows)
            f, i, j = np.nonzero(iou_pairs(g_box[g][:, :, None], h_box[h][:, None]) >= threshold)
            g_rows.append(g[f, i])
            h_rows.append(h[f, j])
    g_rows, h_rows = np.concatenate(g_rows), np.concatenate(h_rows)
    order = np.lexsort((h_rows, g_rows))
    return g_rows[order], h_rows[order]


def _codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each value's rank among the distinct values, and how many there are."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    codes = np.empty(len(values), dtype=np.int64)
    codes[order] = np.cumsum(np.r_[True, ordered[1:] != ordered[:-1]]) - 1
    return codes, int(codes[order[-1]]) + 1


def _overlap_counts(g_ids: np.ndarray, h_ids: np.ndarray) -> np.ndarray:
    """(G, H) frames in which each gt identity matches each hyp identity, ids ascending."""
    if not g_ids.size:
        return np.zeros((0, 0))
    (g, n_g), (h, n_h) = _codes(g_ids), _codes(h_ids)
    return np.bincount(g * n_h + h, minlength=n_g * n_h).reshape(n_g, n_h)


def _idf1(counts: np.ndarray, gt_total: int, hyp_total: int) -> float:
    """F1 of the best global gt-identity to hyp-identity assignment over ``_overlap_counts``."""
    if not counts.size:
        return 0.0
    rows, cols = linear_sum_assignment(counts, maximize=True)
    idtp = counts[rows, cols].sum()
    return float(2.0 * idtp / (gt_total + hyp_total))
