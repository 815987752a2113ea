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
from typing import Callable, Optional, Sequence

import numpy as np

from .config import FEATURE_KINDS, AssociationConfig
from .geometry import HeadKeypoint

_UNIT_NORM_TOL = 1e-6


def _as_unit(v, kind: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{kind} must be a 1-d vector")
    n = math.sqrt(v @ v)  # bit for bit as np.linalg.norm of a 1-d vector
    if not abs(n - 1.0) <= _UNIT_NORM_TOL:  # also rejects a NaN norm
        raise ValueError(f"{kind} must be unit-norm (got |v| = {n})")
    return v


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``m``, bit for bit as np.linalg.norm of that row."""
    return np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class AppearanceDescriptor:
    """Unit-norm feature vectors from the detector's output branches.

    Any subset of the three kinds may be present; comparisons only use
    kinds present on both sides.
    """

    f_cls: Optional[np.ndarray] = None
    f_reg: Optional[np.ndarray] = None
    f_head: Optional[np.ndarray] = None

    def __post_init__(self):
        for kind in FEATURE_KINDS:
            v = getattr(self, kind)
            if v is not None:
                object.__setattr__(self, kind, _as_unit(v, kind))
        if all(getattr(self, k) is None for k in FEATURE_KINDS):
            raise ValueError("descriptor needs at least one feature kind")


@dataclass
class CostMatrix:
    """Dense tracks x detections costs with an admissibility mask."""

    values: np.ndarray  # (T, D) float
    gate_mask: np.ndarray  # (T, D) bool


def gaussian_weighted_descriptor(
    cell_centers: np.ndarray,
    cell_features: np.ndarray,
    head: HeadKeypoint,
    sigma: float,
) -> np.ndarray:
    """Reweight a feature-map patch around the head keypoint.

    ``cell_centers`` is (N, 2) in pixel space and ``cell_features`` (N, C).
    Each cell's features are scaled by the Gaussian falloff of its center
    from the head point, then flattened and renormalized to a unit vector
    (the head-weighted replacement for the raw regression feature).
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    centers = np.asarray(cell_centers, dtype=float).reshape(-1, 2)
    feats = np.asarray(cell_features, dtype=float)
    if feats.shape[0] != centers.shape[0]:
        raise ValueError("one feature row per cell required")
    d2 = np.sum((centers - [head.x_head, head.y_head]) ** 2, axis=1)
    w = np.exp(-d2 / (2.0 * sigma * sigma))
    flat = (feats * w[:, None]).reshape(-1)
    n = float(np.linalg.norm(flat))
    if n <= 0.0:
        raise ValueError("weighting produced a zero vector (head too far from the patch)")
    return flat / n


def stack_descriptors(descriptors: Sequence, cfg: AssociationConfig) -> dict:
    """Map each weighted kind some descriptor carries to (N x d matrix, N presence mask).

    Rows without the kind are zero. Raises ValueError on a kind of several dimensions.
    """
    out = {}
    for kind, w in zip(FEATURE_KINDS, cfg.feature_weights):
        if w == 0.0:
            continue
        vecs = [None if d is None else getattr(d, kind) for d in descriptors]
        dims = {v.shape for v in vecs if v is not None}
        if not dims:
            continue
        if len(dims) > 1:
            raise ValueError(f"{kind} dimension mismatch: {sorted(dims)}")
        absent = np.zeros(dims.pop())
        out[kind] = (np.array([absent if v is None else v for v in vecs]), np.array([v is not None for v in vecs]))
    return out


def build_cost_matrix(trk_xy, trk_feats: dict, det_xy, det_feats: dict, cfg: AssociationConfig):
    """Gated tracks x detections CostMatrix of appearance and motion costs.

    Centres are (T, 2) predictions and (D, 2) detections; feats come from
    ``stack_descriptors``. Motion is the centre distance over
    ``motion_scale``; appearance the cosine cost 1 - <p, q> averaged over
    the weighted kinds a pair shares, weights renormalized over them (motion
    alone if none). One (T x d)(d x D) product per kind. Raises ValueError
    when a kind both sides carry differs in dimension.
    """
    T, D = len(trk_xy), len(det_xy)

    acc, total_w = np.zeros((2, T, D))
    for kind, w in zip(FEATURE_KINDS, cfg.feature_weights):
        if w == 0.0 or kind not in trk_feats or kind not in det_feats:
            continue
        (p, has_p), (q, has_q) = trk_feats[kind], det_feats[kind]
        if not (has_p.any() and has_q.any()):
            continue
        if p.shape[1] != q.shape[1]:
            raise ValueError(f"{kind} dimension mismatch: {sorted({p.shape[1:], q.shape[1:]})}")
        shared = has_p[:, None] & has_q
        acc += np.where(shared, w * (1.0 - p @ q.T), 0.0)
        total_w += np.where(shared, w, 0.0)
    app = np.divide(acc, total_w, out=np.zeros((T, D)), where=total_w > 0.0)
    # centres far apart cost inf (nan at w_mot = 0), which the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = trk_xy[:, :1] - det_xy[:, 0], trk_xy[:, 1:] - det_xy[:, 1]
        motion = np.hypot(dx, dy) / cfg.motion_scale
        values = cfg.w_app * app + cfg.w_mot * motion
    return CostMatrix(values=values, gate_mask=values <= cfg.gate_g)


@functools.cache
def _lsap():
    """The solver function, loaded once (see ``linear_sum_assignment``)."""
    import scipy

    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        optimize_dir = os.path.join(scipy.__path__[0], "optimize")
        found = importlib.machinery.PathFinder.find_spec("_lsap", [optimize_dir])
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
    never load scipy. The first call loads ``scipy`` and then only the
    ``scipy/optimize/_lsap`` extension that holds the solver, under its
    real name in ``sys.modules`` (a later ``import scipy.optimize`` reuses
    it), not the ``scipy.optimize`` package, which brings in
    ``scipy.sparse`` and ``scipy.linalg``. Without that extension file it
    imports ``scipy.optimize``. Returns the (rows, cols) index arrays.
    """
    return _lsap()(cost, maximize=maximize)


def solve_assignment(c: CostMatrix) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one matching restricted to admissible pairs.

    Gated-out pairs keep their matrix slot but are encoded as forbidden,
    so index mapping is preserved. Among admissible pairs the solver first
    maximizes the number of matches, then minimizes total cost; ties are
    broken toward the lexicographically smallest (track, detection) list.
    Returned pairs never violate the gate.

    One LSA solve gives an optimal matching; its duals mark the tight
    (zero-reduced-cost) pairs, whose perfect matchings are exactly the
    optimal ones, and the tie-break walks the tracks in order, moving each
    to the smallest tight detection an alternating path can free.
    """
    T, D = c.values.shape
    if T == 0 or D == 0:
        return []
    admissible = c.gate_mask & np.isfinite(c.values)
    if not admissible.any():
        return []

    # Square encoding: per-row / per-column dummy slots make "leave
    # unmatched" explicit, so forbidden pairs need no huge sentinels.
    # Admissible costs are shifted to [0, span]. One more match saves two
    # dummy slots and adds at most min(T, D) * span of pair cost along its
    # augmenting path, so with unmatch above that every optimum has maximum
    # cardinality; among equal cardinalities the shift changes nothing.
    values = c.values
    kept = values[admissible]
    lo = min(float(kept.min()), 0.0)
    if lo < 0.0:
        values = values - lo
    unmatch = min(T, D) * (float(kept.max()) - lo) + 1.0
    barred = (T + D + 1.0) * (unmatch + 1.0)
    n = T + D
    enc = np.full((n, n), barred)
    enc[:T, :D] = np.where(admissible, values, barred)
    np.fill_diagonal(enc[:T, D:], unmatch)
    np.fill_diagonal(enc[T:, :D], unmatch)
    enc[T:, D:] = 0.0

    rows, col = linear_sum_assignment(enc)
    base = enc[rows, col]
    tol = 1e-9 * max(1.0, abs(float(base.sum())))

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
    return [(i, col[i]) for i in range(T) if col[i] < D]


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
