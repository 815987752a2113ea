"""The square-encoding gated assignment, kept as a test oracle.

This is the body of ``solve_assignment`` as it was before the solver moved
to the tracks x detections block: one LSA on the (T + D) x (T + D)
encoding with a dummy slot per track and per detection, then the
certificate or the tie-break on that optimum. The tests hold the block
solve to the same pair lists.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from headtrack.association import _UNIQUE_MARGIN, CostMatrix, _tie_break, _unique_optimum


def square_solve(c: CostMatrix) -> list[tuple[int, int]]:
    """Maximum-cardinality, least-cost, lexicographically smallest admissible pairs."""
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
    if _unique_optimum(enc[:T, :D], col[:T], base[:T], _UNIQUE_MARGIN * n * tol):
        col = col.tolist()
    else:
        col = _tie_break(enc, col, base, T, D, tol)
    return [(i, col[i]) for i in range(T) if col[i] < D]
