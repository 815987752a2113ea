"""Constant-velocity Kalman filtering with standard and iterated updates.

The state is the 8-vector [u, v, a, h, du, dv, da, dh]: box center, aspect
ratio (w/h), height, and their per-frame velocities. dt is fixed at one
frame. Noise magnitudes scale with target height, the SORT-family
convention, so small and large targets get comparable relative uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import KalmanConfig

STATE_DIM = 8
MEAS_DIM = 4


class FilterDivergence(RuntimeError):
    """State or covariance went non-finite; the track is beyond recovery."""


class IllConditionedUpdate(RuntimeError):
    """Innovation covariance is not positive definite."""


@dataclass(frozen=True)
class IteratedUpdateConfig:
    epsilon_conv: float = 0.01
    max_iters: int = 10

    def __post_init__(self):
        if not 0.0 < self.epsilon_conv < 1.0:
            raise ValueError(f"epsilon_conv must lie in (0, 1), got {self.epsilon_conv}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)  # arrays compare and hash by identity
class KalmanModel:
    """System matrices: transition F, measurement H, noises Q and R."""

    F: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True, eq=False)  # arrays compare and hash by identity
class KalmanState:
    x: np.ndarray  # (8,)
    P: np.ndarray  # (8, 8)


class IteratedResult(NamedTuple):
    state: KalmanState
    iterations: int
    converged: bool


def constant_velocity_model(h: float, cfg: KalmanConfig = KalmanConfig()) -> KalmanModel:
    """Build F, H, Q, R for a target of height ``h``."""
    h = max(float(h), cfg.h_min)
    pos = cfg.pos_std_weight * h
    vel = cfg.vel_std_weight * h
    meas = cfg.meas_std_weight * h
    Q = np.diag([pos**2] * MEAS_DIM + [vel**2] * MEAS_DIM)
    R = np.diag([meas**2] * MEAS_DIM)
    F = np.eye(STATE_DIM) + np.eye(STATE_DIM, k=MEAS_DIM)  # each coordinate plus its velocity
    return KalmanModel(F=F, H=np.eye(MEAS_DIM, STATE_DIM), Q=Q, R=R)


def initiate(z: np.ndarray, cfg: KalmanConfig = KalmanConfig()) -> KalmanState:
    """Start a filter from a first measurement (u, v, a, h).

    Velocities are unobserved at birth, so their variance is inflated:
    2x the measurement std on position terms, 10x on velocity terms.
    """
    x, ((p, c, v),) = initiate_rows(np.asarray(z, dtype=float)[None], cfg)
    return KalmanState(x=x[0], P=np.kron([[p, c], [c, v]], np.eye(MEAS_DIM)))


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def _state(x: np.ndarray, P: np.ndarray, h_min: float) -> KalmanState:
    """(x, P) with the height clamped to ``h_min``; FilterDivergence if either is not finite."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(P))):
        raise FilterDivergence("non-finite state or covariance")
    if x[3] < h_min:
        x = x.copy()
        x[3] = h_min
    return KalmanState(x=x, P=P)


def predict(state: KalmanState, model: KalmanModel, h_min: float = KalmanConfig.h_min) -> KalmanState:
    """Propagate one frame: x' = F x, P' = F P F^T + Q."""
    with np.errstate(invalid="ignore", over="ignore"):
        x = model.F @ state.x
        P = _symmetrize(model.F @ state.P @ model.F.T + model.Q)
    return _state(x, P, h_min)


def _gain(P: np.ndarray, model: KalmanModel) -> np.ndarray:
    """K = P H^T (H P H^T + R)^-1 via a Cholesky solve on the innovation covariance."""
    import scipy.linalg  # only update and iterated_update get here, and no verb calls them

    S = model.H @ P @ model.H.T + model.R
    try:
        chol = scipy.linalg.cho_factor(_symmetrize(S), lower=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise IllConditionedUpdate(f"singular innovation covariance: {exc}") from exc
    return scipy.linalg.cho_solve(chol, model.H @ P.T).T


def update(state: KalmanState, z: np.ndarray, model: KalmanModel, h_min: float = KalmanConfig.h_min) -> KalmanState:
    """Standard measurement update with (u, v, a, h) observation ``z``."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"measurement must be finite, got {z}")
    K = _gain(state.P, model)
    x = state.x + K @ (z - model.H @ state.x)
    P = _symmetrize((np.eye(STATE_DIM) - K @ model.H) @ state.P)
    return _state(x, P, h_min)


def iterated_update(
    state: KalmanState,
    z: np.ndarray,
    model: KalmanModel,
    h_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    cfg: IteratedUpdateConfig = IteratedUpdateConfig(),
    h_min: float = KalmanConfig.h_min,
) -> IteratedResult:
    """Measurement update that re-evaluates the residual around the corrected state.

    Each pass recomputes the correction

        delta <- K (z - h(x + delta) + H delta)

    and stops once a further refinement would move it by less than
    ``epsilon_conv`` times the initial residual norm (or at ``max_iters``,
    in which case the best iterate is returned with ``converged=False``).
    With a linear ``h_fn`` the first pass already reproduces the standard
    update, so the iteration terminates immediately. The covariance is then
    updated with the usual (I - K H) P form.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"measurement must be finite, got {z}")
    if h_fn is None:
        def h_fn(s):
            return model.H @ s

    x, P = state.x, state.P
    K = _gain(P, model)
    r = z - h_fn(x)
    r0_norm = float(np.linalg.norm(r))

    delta = np.zeros(STATE_DIM)
    converged = False
    iterations = 0
    while iterations < cfg.max_iters:
        iterations += 1
        step = K @ r
        r = z - h_fn(x + step) + model.H @ step
        refined = K @ r
        delta = refined
        if np.linalg.norm(refined - step) <= cfg.epsilon_conv * r0_norm:
            converged = True
            break

    P_post = _symmetrize((np.eye(STATE_DIM) - K @ model.H) @ P)
    return IteratedResult(_state(x + delta, P_post, h_min), iterations=iterations, converged=converged)


# -- whole-array forms ---------------------------------------------------------
# From a birth on, every covariance is kron([[p, c], [c, v]], I4): F pairs each
# coordinate with its own velocity, and Q, R and the birth covariance repeat one
# number on all four. So N filters are (N, 8) states and (N, 3) rows (p, c, v);
# the forms below redo the matrix forms' arithmetic in order, bit for bit (C pow
# squares, ``np.float_power``, as ``**`` on a Python float), each writing its
# results once into new arrays.
Rows = tuple[np.ndarray, np.ndarray]


def initiate_rows(z: np.ndarray, cfg: KalmanConfig) -> Rows:
    """The filters started from the (N, 4) measurements ``z``: states and (p, c, v)."""
    h = np.maximum(z[:, 3], cfg.h_min)
    with np.errstate(over="ignore"):  # a height near 1e308 starts with an inf variance
        pos2, vel2 = np.float_power(
            [2.0 * cfg.meas_std_weight * h, 10.0 * cfg.vel_std_weight * h], 2
        )
    x = np.hstack([z[:, :3], h[:, None], np.zeros((len(z), MEAS_DIM))])
    return x, np.column_stack([pos2, np.zeros(len(z)), vel2])


def predict_rows(x: np.ndarray, pcv: np.ndarray, cfg: KalmanConfig) -> Rows:
    """``predict`` of each row with its own model; a p rounded below 0 becomes 0."""
    h = np.maximum(x[:, 3], cfg.h_min)
    p, c, v = pcv[:, 0], pcv[:, 1], pcv[:, 2]
    x_out, pcv_out = x.copy(), np.empty_like(pcv)
    x_out[:, :MEAS_DIM] += x[:, MEAS_DIM:]
    np.maximum(x_out[:, 3], cfg.h_min, out=x_out[:, 3])
    pp = np.add(p, c, out=pcv_out[:, 0])
    pp += np.add(c, v, out=pcv_out[:, 1])
    pp += np.float_power(cfg.pos_std_weight * h, 2)
    np.maximum(pp, 0.0, out=pp)
    np.add(v, np.float_power(cfg.vel_std_weight * h, 2), out=pcv_out[:, 2])
    return x_out, pcv_out


def update_rows(x: np.ndarray, pcv: np.ndarray, z: np.ndarray, cfg: KalmanConfig) -> Rows:
    """``update`` of each row by its row of ``z``; S = p + r >= (meas * h_min)^2 > 0."""
    p, c, v = pcv[:, 0], pcv[:, 1], pcv[:, 2]
    il = 1 / np.sqrt(p + np.float_power(cfg.meas_std_weight * np.maximum(x[:, 3], cfg.h_min), 2))
    k_pos, k_vel = p * il * il, c * il * il
    y = z - x[:, :MEAS_DIM]
    x_out, pcv_out = x.copy(), np.empty_like(pcv)
    x_out[:, :MEAS_DIM] += k_pos[:, None] * y
    x_out[:, MEAS_DIM:] += k_vel[:, None] * y
    np.maximum(x_out[:, 3], cfg.h_min, out=x_out[:, 3])
    kept = 1 - k_pos
    np.multiply(kept, p, out=pcv_out[:, 0])
    c_post = np.multiply(kept, c, out=pcv_out[:, 1])
    c_post += c - k_vel * p
    c_post *= 0.5
    np.subtract(v, k_vel * c, out=pcv_out[:, 2])
    return x_out, pcv_out
