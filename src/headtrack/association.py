"""Appearance/motion cost matrices and gated minimum-cost bipartite matching.

Appearance costs come from detector-branch feature vectors compared by
cosine distance; motion costs are normalized center distances to the
Kalman prediction. The solver works on the admissible (gated) pairs only
and maximizes match cardinality before minimizing total cost.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import FEATURE_KINDS, RunConfig


@dataclass(eq=False)  # arrays compare and hash by identity
class CostMatrix:
    """Dense tracks x detections costs with an admissibility mask."""

    values: np.ndarray  # (T, D) float
    gate_mask: np.ndarray  # (T, D) bool


def build_cost_matrix(trk_xy, trk_feats: dict, det_xy, det_feats: dict, cfg: RunConfig, motion_scale: float):
    """Gated tracks x detections CostMatrix of appearance and motion costs.

    Centres are (T, 2) predictions and (D, 2) detections; feats map kinds
    to (n x d matrix, n presence mask), a row without the kind zero. Motion
    is the centre distance over ``motion_scale`` (pixels, > 0). The distance
    is the square root of the summed squares, within 1 ulp of ``np.hypot``'s;
    a frame whose squares overflow or whose centres are not finite takes
    ``np.hypot``'s. Appearance is the cosine cost 1 - <p, q> averaged over
    the kinds a pair shares, with ``cfg``'s lambda_* weights renormalized
    over them (motion alone if none). ``cfg.w_app`` and ``w_mot`` weigh the
    two terms and ``gate_g`` gates their sum. One (T x d)(d x D) product per
    kind. Raises ValueError when a kind both sides carry differs in
    dimension.
    """
    T, D = len(trk_xy), len(det_xy)

    # A kind that every row of both sides carries adds its weight as one
    # number and its terms unmasked: each pair sums what the masked form sums,
    # in the same order. The first terms are not added to 0.0, which would
    # only turn a -0.0 into 0.0, and the cost below cannot tell those apart.
    acc, total_w = None, 0.0
    for kind, w in zip(FEATURE_KINDS, (cfg.lambda_cls, cfg.lambda_reg, cfg.lambda_head)):
        if w == 0.0 or kind not in trk_feats or kind not in det_feats:
            continue
        (p, has_p), (q, has_q) = trk_feats[kind], det_feats[kind]
        n_p, n_q = np.count_nonzero(has_p), np.count_nonzero(has_q)
        if not (n_p and n_q):
            continue
        if p.shape[1] != q.shape[1]:
            raise ValueError(f"{kind} dimension mismatch: {sorted({p.shape[1:], q.shape[1:]})}")
        term = w * (1.0 - p @ q.T)
        if n_p < T or n_q < D:
            shared = has_p[:, None] & has_q
            term, w = np.where(shared, term, 0.0), np.where(shared, w, 0.0)
        acc = term if acc is None else acc + term
        total_w = total_w + w
    if acc is None:
        app = 0.0
    elif isinstance(total_w, float):  # every pair shares every kind that counts
        app = acc / total_w
    else:
        app = np.divide(acc, total_w, out=np.zeros((T, D)), where=total_w > 0.0)
    # centres far apart cost inf (nan at w_mot = 0), which the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = trk_xy[:, :1] - det_xy[:, 0], trk_xy[:, 1:] - det_xy[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        if not math.isfinite(np.add.reduce(dist, axis=None)):  # a square overflowed, or a centre is not finite
            dist = np.hypot(dx, dy)
        values = cfg.w_app * app + cfg.w_mot * (dist / motion_scale)
    return CostMatrix(values=values, gate_mask=values <= cfg.gate_g)


@functools.cache
def _lsap():
    """The solver function, loaded once (see ``linear_sum_assignment``)."""
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # finds the package without running its __init__
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        optimize_dirs = [os.path.join(d, "optimize") for d in scipy.submodule_search_locations or ()]
        found = importlib.machinery.PathFinder.find_spec("_lsap", optimize_dirs)
        if found is None or not isinstance(found.loader, importlib.machinery.ExtensionFileLoader):
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        spec = importlib.util.spec_from_file_location(name, found.origin)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.linear_sum_assignment


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False):
    """scipy's rectangular assignment solver, loaded at the first call.

    Only ``track`` and ``evaluate`` solve assignments, so the other verbs
    never load scipy. The first call finds scipy's directory without
    importing the ``scipy`` package, whose ``__init__`` loads test and
    subprocess helpers, and loads only the ``scipy/optimize/_lsap``
    extension that holds the solver, under its real name in
    ``sys.modules`` (a later ``import scipy.optimize`` reuses it), not the
    ``scipy.optimize`` package, which brings in ``scipy.sparse`` and
    ``scipy.linalg``. Without that extension file it imports
    ``scipy.optimize``; without scipy it raises ModuleNotFoundError, as
    ``import scipy`` would. Returns the (rows, cols) index arrays.
    """
    return _lsap()(cost, maximize=maximize)


def solve_assignment(c: CostMatrix) -> np.ndarray:
    """Minimum-cost one-to-one matching restricted to admissible pairs.

    Returns the (track, detection) pairs in track order as a (K, 2) index
    array, whose transpose is the tracks and their detections. Among
    admissible pairs the solver first maximizes the number of matches, then
    minimizes total cost; ties are broken toward the lexicographically
    smallest (track, detection) list. Returned pairs never violate the gate.

    Admissible costs are shifted to [0, span]. Gated-out slots of the
    tracks x detections block cost ``barred``, more than all admissible
    pairs together, so one LSA solve on the block holds as few of them as
    it can: its admissible pairs are a maximum-cardinality matching of
    least cost. Raises ValueError when the span is too wide for ``barred``
    to stay finite.

    A tie is judged pair by pair, not on the total. The solve's tolerance
    is tol = 1e-9 * max(1, |total|), where the total is the shifted cost
    of the matched pairs plus ``unmatch`` = min(T, D) * span + 1 per
    unmatched track and per unmatched detection. A pair is tight when its
    reduced cost under the optimum's duals is within tol of zero, and the
    matchings tied with the LSA's are those of tight pairs only. Such a
    matching may cost up to (T + D) * tol more than the LSA's, so near ties
    of about tol are looser here than a bound of tol on the total would
    make them.

    When each matched pair is cheaper than every other admissible entry of
    its row and of its column by more than ``_UNIQUE_MARGIN`` times T + D
    times tol, the LSA's matching is the only optimum and is returned as it
    is (``_unique_optimum``). Otherwise the tie-break runs on the square
    (T + D) encoding, whose per-track and per-detection dummy slots cost
    ``unmatch`` and make "leave unmatched" explicit, starting from the
    LSA's optimum carried over to it (``_tie_break``).
    """
    values = c.values
    T, D = values.shape
    admissible = c.gate_mask & np.isfinite(values)
    kept = values[admissible]
    if not kept.size:  # no tracks, no detections, or nothing passes the gate
        return np.zeros((0, 2), dtype=np.intp)

    lo = min(float(np.minimum.reduce(kept)), 0.0)
    hi = float(np.maximum.reduce(kept))
    # one more match saves two unmatch costs and adds at most min(T, D) * span of
    # pair cost along its augmenting path; barred outweighs every admissible matching
    unmatch = min(T, D) * (hi - lo) + 1.0
    barred = (T + D + 1.0) * (unmatch + 1.0)
    if not math.isfinite(barred):  # a finite barred bounds unmatch, the total and tol
        raise ValueError(f"admissible costs span {lo} to {hi}, too wide to encode as a {T} x {D} assignment")
    if lo < 0.0:
        with np.errstate(over="ignore"):  # gated-out costs may overflow; they are barred
            values = values - lo
    block = np.where(admissible, values, barred)

    rows, cols = linear_sum_assignment(block)
    cost = block[rows, cols]
    if np.maximum.reduce(cost) >= barred:  # a barred slot: every admissible cost lies below barred
        paired = cost < barred
        rows, cols, cost = rows[paired], cols[paired], cost[paired]
    # the square encoding's optimum and its costs, row by row: tracks, then detection slots
    col = np.arange(D, D + T)  # an unmatched track takes its own slot
    col[rows] = cols
    base = np.empty(T + D)
    base.fill(unmatch)
    base[rows] = cost
    base[T + cols] = 0.0  # a matched detection's slot row takes its track's slot
    tol = 1e-9 * max(1.0, abs(float(np.add.reduce(base))))
    if not _unique_optimum(block, col, base[:T], _UNIQUE_MARGIN * (T + D) * tol):
        slot = np.arange(D)  # an unmatched detection's slot row takes its own column,
        slot[cols] = D + rows  # a matched one its track's slot
        enc = np.full((T + D, T + D), barred)
        enc[:T, :D] = block
        np.fill_diagonal(enc[:T, D:], unmatch)
        np.fill_diagonal(enc[T:, :D], unmatch)
        enc[T:, D:] = 0.0
        col = np.array(_tie_break(enc, np.concatenate([col, slot]), base, T, D, tol)[:T])
        rows = np.flatnonzero(col < D)
        cols = col[rows]
    return np.array((rows, cols)).T


# delta = _UNIQUE_MARGIN * n * tol; any margin >= 1 is exact, 4 leaves room for rounding
_UNIQUE_MARGIN = 4.0


def _unique_optimum(real: np.ndarray, col: np.ndarray, base: np.ndarray, delta: float) -> bool:
    """Whether the LSA's pairs are the only optimal matching, with room to spare.

    ``real`` is the shifted tracks x detections block, finite, whose barred
    entries lie far above any pair plus ``delta``; ``col`` holds each
    track's detection, or a distinct value in [D, D + T) when it is
    unmatched, and ``base`` each track's cost. True when every pair
    undercuts every other entry of its row and of its column by more than
    ``delta``. Any other matching of the same size then costs more than
    ``delta`` extra: it differs by alternating cycles and even paths
    (maximality rules out odd ones), and each of its edges in them shares a
    column, or a row for paths that start at a column, with a distinct pair
    of ours. The tie-break only flips alternating cycles of tight pairs,
    which cost at most n * tol extra, so for delta >= n * tol it would move
    nothing.
    """
    T, D = real.shape
    matched = col < D
    near = np.where(matched, base + delta, -np.inf)  # each row's bound, none for an unmatched track
    bound = np.empty(T + D)
    bound.fill(-np.inf)
    bound[col] = near  # each column's bound: its track's; slots past D are never read
    # an entry within the bound of its row or of its column: only the pairs themselves may be
    return np.count_nonzero(real <= np.maximum(near[:, None], bound[:D])) == np.count_nonzero(matched)


def _tie_break(enc: np.ndarray, col: np.ndarray, base: np.ndarray, T: int, D: int, tol: float) -> list:
    """The lexicographically smallest optimal matching, as each row's column.

    Starts from an optimum ``col`` of the square encoding ``enc``, whose
    rows are the T tracks and then the D detection slots, and whose pair
    costs are ``base``; pairs whose reduced costs are within ``tol`` of zero
    count as tight. In exact arithmetic every optimum gives the same tight
    matchings: the optimal ones.
    """
    n = len(col)
    # Column potentials v are shortest distances over columns, where moving
    # row i from col[i] to j costs enc[i, j] - base[i]; the optimum has no
    # negative cycle, so Bellman-Ford reaches a fixpoint within n passes.
    # With row potentials u = base - v[col], the reduced cost of (i, j) is
    # reach[i, j] - v[j] >= 0. No barred pair is tight: u + v <= n * unmatch.
    move = enc - base[:, None]
    v = np.zeros(n)
    for _ in range(n):
        reach = v[col][:, None] + move  # move[i, col[i]] == 0
        relaxed = reach.min(axis=0)
        if not (relaxed < v).any():
            break
        v = relaxed
    tight = reach - v <= tol
    adj = functools.cache(lambda i: tight[i].nonzero()[0].tolist())  # rows as visited

    owner = np.argsort(col).tolist()  # row holding each column
    col = col.tolist()
    fixed = [False] * n  # columns taken by already decided track rows
    for i in range(T):
        stop = min(col[i], D)  # only real detections below the current partner
        for j in adj(i):
            if j >= stop:
                break
            if not fixed[j] and _reroute(i, j, adj, col, owner, fixed):
                break
        fixed[col[i]] = True
    return col


def _reroute(i: int, j: int, adj: Callable, col: list, owner: list, fixed: list) -> bool:
    """Give column j to row i if unfixed tight pairs can still complete the matching.

    Breadth-first search for an alternating path over unfixed tight pairs
    that carries j's holder to the column row i frees; on success the
    path is flipped in place.
    """
    target = col[i]
    via = {j: -1}  # column -> row that moves into it
    queue = [owner[j]]
    for r in queue:
        for k in adj(r):
            if k in via or fixed[k]:
                continue
            via[k] = r
            if k == target:
                while k != j:
                    r = via[k]
                    col[r], k = k, col[r]
                    owner[col[r]] = r
                col[i], owner[j] = j, i
                return True
            queue.append(owner[k])
    return False
