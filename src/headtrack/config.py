"""The run config, and the constants that several modules share.

``RunConfig`` is the one config record: its fields are the config keys,
each with its default, its help line and, in ``__post_init__``, its range.
The library modules take a RunConfig and read the keys they use; only
``kalman.IteratedUpdateConfig``, which no key sets, stays in its module.
This module imports no other headtrack module, so reading a default loads
none of the modules that use it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

FEATURE_KINDS = ("f_cls", "f_reg", "f_head")  # the appearance branches, in sidecar order
METHODS = ("linear2d", "se3_linear", "se3_kalman")  # the gap-filling methods of lifting.complete
MEAS_STD_WEIGHT = 1.0 / 20  # kalman's measurement noise std per unit of target height, which bounds h_min


def _key(default, help_text: str):
    """A RunConfig field: its default, and its help line for --help."""
    return dataclasses.field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline.

    The fields are the only list of config keys: the config file, the
    per-key flags, --help and the library all read them. Building one
    checks every key's range: the first key out of range, in field order,
    raises ValueError("key <name>: ...").
    """

    # association
    w_app: float = _key(0.5, "appearance weight in the association cost")
    w_mot: float = _key(0.5, "motion weight in the association cost")
    lambda_cls: float = _key(0.5, "weight of the classification-branch feature")
    lambda_reg: float = _key(0.5, "weight of the regression-branch feature")
    lambda_head: float = _key(0.0, "weight of the head-branch feature")
    gate_g: float = _key(0.5, "gating threshold on the combined association cost")
    motion_scale: float = _key(0.0, "pixel normalizer for motion cost; 0 uses the image diagonal")
    # tracker lifecycle
    patience_w: int = _key(30, "frames a track survives without a match")
    min_hits: int = _key(3, "matches required before a track is emitted")
    init_score_min: float = _key(0.25, "confidence threshold for spawning new tracks")
    descriptor_momentum: float = _key(0.9, "EMA momentum for track descriptors")
    emit_predictions: bool = _key(False, "also emit predicted boxes while a track coasts")
    # kalman
    h_min: float = _key(1.0, "lower clamp on the filtered target height")
    # gap filling
    se3_process_std: float = _key(0.1, "process noise std of the se3_kalman centre smoother")
    se3_meas_std: float = _key(0.01, "measurement noise std of the se3_kalman centre smoother")
    # label assignment
    alpha: float = _key(3.0, "IoU-cost weight in the assignment cost")
    beta: float = _key(1e5, "positional penalty outside the center region")
    eps_iou: float = _key(1e-8, "epsilon inside the -log(IoU + eps) cost")
    q_topk: int = _key(10, "candidates summed for the dynamic-k rule")
    # evaluation
    iou_threshold: float = _key(0.5, "IoU threshold for evaluation matching")
    # scene geometry / determinism
    image_width: float = _key(1920.0, "image width in pixels")
    image_height: float = _key(1080.0, "image height in pixels")
    seed: int = _key(0, "PRNG seed for the scene generator")

    def __post_init__(self):
        meas = MEAS_STD_WEIGHT * self.h_min  # the smallest measurement std update_rows divides by
        checks = (  # (key, whether its value is out of range, what is wrong), in field order
            ("w_app, w_mot", self.w_app < 0.0 or self.w_mot < 0.0 or self.w_app + self.w_mot <= 0.0,
             "need w_app, w_mot >= 0 with a positive sum"),
            *((key, getattr(self, key) < 0.0, "feature weights must be non-negative")
              for key in ("lambda_cls", "lambda_reg", "lambda_head")),
            ("gate_g", self.gate_g <= 0.0, f"gate must be positive, got {self.gate_g}"),
            ("motion_scale", self.motion_scale < 0.0,
             f"expected >= 0 (0 is the image diagonal), got {self.motion_scale}"),
            ("patience_w", self.patience_w < 1, f"patience_w must be >= 1, got {self.patience_w}"),
            ("min_hits", self.min_hits < 1, f"min_hits must be >= 1, got {self.min_hits}"),
            ("descriptor_momentum", not 0.0 <= self.descriptor_momentum < 1.0,
             f"descriptor_momentum must lie in [0, 1), got {self.descriptor_momentum}"),
            ("h_min", not 0.0 < self.h_min < math.inf, f"h_min must be positive and finite, got {self.h_min}"),
            ("h_min", not 0.0 < meas * meas < math.inf,
             f"h_min {self.h_min} makes the measurement variance {meas * meas}, outside (0, inf)"),
            *((key, not math.isfinite(std * std), f"{key[4:]} must have a finite square, got {std}")  # squared in Q, R
              for key, std in (("se3_process_std", self.se3_process_std), ("se3_meas_std", self.se3_meas_std))),
            ("eps_iou", not self.eps_iou > 0.0, f"eps_iou must be positive, got {self.eps_iou}"),  # log(eps) at IoU 0
            ("q_topk", self.q_topk < 1, f"q_topk must be >= 1, got {self.q_topk}"),
            ("iou_threshold", not 0.0 < self.iou_threshold <= 1.0,
             f"iou_threshold must lie in (0, 1], got {self.iou_threshold}"),
            *((key, not getattr(self, key) > 0.0, f"expected > 0, got {getattr(self, key)}")
              for key in ("image_width", "image_height")),
            ("seed", not self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        )
        for key, bad, text in checks:
            if bad:
                raise ValueError(f"key {key}: {text}")
