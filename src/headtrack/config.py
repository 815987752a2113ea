"""The library configs, and the constants that config keys read.

``cli.RunConfig`` and the library modules read their defaults from here;
only ``kalman.IteratedUpdateConfig``, which no key sets, stays in its module.
This module imports no other headtrack module, so reading a default loads none of the modules that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FEATURE_KINDS = ("f_cls", "f_reg", "f_head")  # the appearance branches, in sidecar order
METHODS = ("linear2d", "se3_linear", "se3_kalman")  # the gap-filling methods of lifting.complete
EVAL_IOU_THRESHOLD = 0.5  # the evaluation matching threshold of metrics.evaluate


@dataclass(frozen=True)
class AssociationConfig:
    """Weights and gate for cost-matrix construction.

    ``feature_weights`` follows the FEATURE_KINDS order (cls, reg, head)
    and is renormalized over whichever kinds a pair actually shares.
    ``motion_scale`` should be set to the image diagonal so appearance and
    motion terms are commensurate across resolutions.
    """

    w_app: float = 0.5
    w_mot: float = 0.5
    feature_weights: tuple[float, float, float] = (0.5, 0.5, 0.0)
    gate_g: float = 0.5
    motion_scale: float = 1.0

    def __post_init__(self):
        if self.w_app < 0.0 or self.w_mot < 0.0 or self.w_app + self.w_mot <= 0.0:
            raise ValueError("need w_app, w_mot >= 0 with a positive sum")
        if any(w < 0.0 for w in self.feature_weights):
            raise ValueError("feature weights must be non-negative")
        if self.gate_g <= 0.0:
            raise ValueError(f"gate must be positive, got {self.gate_g}")
        if self.motion_scale <= 0.0:
            raise ValueError(f"motion_scale must be positive, got {self.motion_scale}")


@dataclass(frozen=True)
class KalmanConfig:
    """Noise scaling and clamping knobs.

    Standard deviations are fractions of the current target height:
    position-like terms use ``pos_std_weight * h``, velocity terms
    ``vel_std_weight * h``, measurements ``meas_std_weight * h``.
    """

    pos_std_weight: float = 1.0 / 20
    vel_std_weight: float = 1.0 / 160
    meas_std_weight: float = 1.0 / 20
    h_min: float = 1.0

    def __post_init__(self):
        for name in ("pos_std_weight", "vel_std_weight", "meas_std_weight", "h_min"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        meas = self.meas_std_weight * self.h_min
        if not 0.0 < meas * meas < math.inf:
            raise ValueError(f"h_min {self.h_min} makes the measurement variance {meas * meas}, outside (0, inf)")


@dataclass(frozen=True)
class TrackerConfig:
    patience_w: int = 30
    init_score_min: float = 0.25
    min_hits: int = 3
    emit_predictions: bool = False
    descriptor_momentum: float = 0.9
    assoc: AssociationConfig = field(default_factory=AssociationConfig)
    noise: KalmanConfig = field(default_factory=KalmanConfig)

    def __post_init__(self):
        if self.patience_w < 1:
            raise ValueError(f"patience_w must be >= 1, got {self.patience_w}")
        if self.min_hits < 1:
            raise ValueError(f"min_hits must be >= 1, got {self.min_hits}")
        if not 0.0 <= self.descriptor_momentum < 1.0:
            raise ValueError("descriptor_momentum must lie in [0, 1)")


@dataclass(frozen=True)
class LiftingConfig:
    process_std: float = 0.1  # centre smoother noise, squared into Q and R
    meas_std: float = 0.01

    def __post_init__(self):
        for name in ("process_std", "meas_std"):
            std = getattr(self, name)
            if not math.isfinite(std * std):
                raise ValueError(f"{name} must have a finite square, got {std}")


@dataclass(frozen=True)
class AssignConfig:
    alpha: float = 3.0
    beta: float = 1e5
    eps_iou: float = 1e-8
    q_topk: int = 10

    def __post_init__(self):
        if not self.eps_iou > 0.0:  # -log(IoU + eps) must stay finite at IoU = 0
            raise ValueError(f"eps_iou must be positive, got {self.eps_iou}")
        if self.q_topk < 1:
            raise ValueError(f"q_topk must be >= 1, got {self.q_topk}")
