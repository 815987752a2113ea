"""The synthetic scene generator, which only the ``simulate`` verb runs.

A SceneSpec fixes a scene: targets on closed-form paths, seeded box and
descriptor noise, and occlusion windows. generate_scene builds its ground
truth and detections as dataio.MotTable columns and its identity
descriptors as dataio.Descriptors, all as whole arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .association import UNIT_NORM_TOL, row_norms
from .config import IMAGE_HEIGHT, IMAGE_WIDTH, SCENE_SEED
from .dataio import Descriptors, MotTable
from .geometry import check_boxes, iou_matrix

MOTION_MODELS = ("linear", "crossing", "circular")


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic synthetic pedestrian scene.

    ``occlusions`` lists (target_id, first_frame, last_frame) windows,
    inclusive, during which that target's detections are dropped (ground
    truth keeps running). ``descriptor_dim`` of zero disables descriptors;
    None uses one basis dimension per target (exact one-hot identities).
    """

    targets: int = 10
    motion: str = "crossing"
    frames: int = 100
    image_width: float = IMAGE_WIDTH
    image_height: float = IMAGE_HEIGHT
    box_height: float = 80.0
    noise_std: float = 0.0
    feat_noise_std: float = 0.0
    descriptor_dim: Optional[int] = None
    seed: int = SCENE_SEED
    occlusions: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.targets < 1:
            raise ValueError("need at least one target")
        if self.motion not in MOTION_MODELS:
            raise ValueError(f"motion must be one of {MOTION_MODELS}, got {self.motion!r}")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        for name in ("image_width", "image_height", "box_height"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("noise_std", "feat_noise_std", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.descriptor_dim is not None and self.descriptor_dim < 0:
            raise ValueError(f"descriptor_dim must be >= 0, got {self.descriptor_dim}")
        for tid, start, end in self.occlusions:
            if not (1 <= start <= end <= self.frames):
                raise ValueError(f"occlusion window {start}-{end} outside 1..{self.frames}")
            if not (1 <= tid <= self.targets):
                raise ValueError(f"occlusion references unknown target {tid}")


@dataclass
class SceneData:
    gt: MotTable
    detections: MotTable
    descriptors: Optional[Descriptors]  # None: descriptor_dim 0


def _gt_paths(spec: SceneSpec) -> np.ndarray:
    """Each target's box (x, y, w, h) in each frame, (targets, frames, 4), by closed-form motion."""
    W, H, T, F = spec.image_width, spec.image_height, spec.targets, spec.frames
    t, f = np.arange(T)[:, None], np.arange(F)
    h = spec.box_height * (1.0 + 0.05 * t)
    w = 0.5 * h
    if spec.motion == "linear":
        x, y = 0.05 * W + (2.0 + 0.5 * t) * f, (t + 1) * H / (T + 1)
    else:
        if spec.motion == "crossing":
            # start on a ring, drive through the center; staggered radii and
            # speeds keep any two targets from ever coinciding exactly
            angle = 2.0 * np.pi * t / T
            radius = 0.35 * min(W, H) * (1.0 + 0.04 * t)
            speed = 2.0 * radius / (F - 1) if F > 1 else 0.0
            cx = W / 2.0 + radius * np.cos(angle) - np.cos(angle) * speed * f
            cy = H / 2.0 + radius * np.sin(angle) - np.sin(angle) * speed * f
        else:  # circular
            angle = 2.0 * np.pi * t / T + 2.0 * np.pi / max(F * 1.5, 2.0) * f
            radius = 0.15 * min(W, H) * (1.0 + 0.1 * t)
            cx, cy = W / 2.0 + radius * np.cos(angle), H / 2.0 + radius * np.sin(angle)
        x, y = cx - w / 2, cy - h / 2
    return np.stack(np.broadcast_arrays(x, y, w, h), axis=-1)


@np.errstate(over="ignore", invalid="ignore")  # boxes and vectors near 1e308 turn inf: checked below
def generate_scene(spec: SceneSpec) -> SceneData:
    """Build ground truth, noisy detections, and identity descriptors.

    Fully deterministic for a fixed spec: the PCG64 generator seeded with
    ``spec.seed`` drives all randomness, in the draw order the README
    states. Raises when a box is not a valid BBox (ground truth target by
    target, then detections in file order), when spawn boxes overlap, or
    when a descriptor is not unit-norm.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    T, F = spec.targets, spec.frames
    paths = _gt_paths(spec)
    check_boxes(paths.reshape(-1, 4))
    clashes = np.argwhere(np.triu(iou_matrix(paths[:, 0], paths[:, 0]) != 0.0, k=1))  # nan: areas overflow
    if clashes.size:
        raise ValueError(f"targets {clashes[0, 0] + 1} and {clashes[0, 1] + 1} overlap at spawn")

    visible = np.ones((F, T), dtype=bool)
    for tid, start, end in spec.occlusions:
        visible[start - 1:end, tid - 1] = False
    frame, target = np.nonzero(visible)  # frame-major, the detections' file order
    dim = T if spec.descriptor_dim is None else spec.descriptor_dim
    if 0 < dim < T:
        bases = rng.normal(size=(T, dim))
        bases /= row_norms(bases)[:, None]
    else:
        bases = np.eye(T, dim)
    # one row of draws per detection: 4 for its box, then dim for its descriptor, each if its std > 0
    scales = ([spec.noise_std] * 4 * (spec.noise_std > 0)
              + [spec.feat_noise_std] * dim * (spec.feat_noise_std > 0))
    noise = rng.normal(0.0, scales, size=(len(frame), len(scales)))

    boxes = paths[target, frame] + (noise[:, :4] if spec.noise_std > 0 else 0.0)
    boxes[:, 2:] = np.maximum(boxes[:, 2:], 1.0)
    check_boxes(boxes)
    descriptors = None
    if dim > 0:
        v = bases[target] + (noise[:, -dim:] if spec.feat_noise_std > 0 else 0.0)
        norms = row_norms(v)
        zero = norms <= 0.0
        v[zero], norms[zero] = bases[target[zero]], 1.0
        v /= norms[:, None]
        unit = row_norms(v)
        off = ~(np.abs(unit - 1.0) <= UNIT_NORM_TOL)  # NaN fails
        if off.any():
            raise ValueError(f"f_cls must be unit-norm (got |v| = {float(unit[off][0])})")
        det_index = (np.cumsum(visible, axis=1) - 1)[visible]
        descriptors = Descriptors(frame + 1, det_index, {"f_cls": v})
    gt = paths.transpose(1, 0, 2).reshape(-1, 4)
    return SceneData(
        gt=MotTable(np.repeat(np.arange(1, F + 1), T), np.tile(np.arange(1, T + 1), F), gt),
        detections=MotTable(frame + 1, np.full(len(frame), -1), boxes),
        descriptors=descriptors,
    )
