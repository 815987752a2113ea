"""Benchmark-side scene builder: seeded pedestrian scenes written as MOT files.

The benchmark builds its own scenes instead of calling
``headtrack.dataio.generate_scene`` for two reasons:

* that generator writes each frame's detections in target order, so the
  first admissible column of every assignment row is already the right
  one and the tie-break in ``association.solve_assignment`` never has to
  search; here every frame's detection order is shuffled and the sidecar
  ``det_index`` is rewritten to follow it;
* its crossing ring grows 4% per target, so at 80 targets on 3840x2160 it
  places boxes far above and below the image (bottom edge near -1500 px),
  and ``interpolate --method se3_kalman`` then exits 2 on the negative
  bottom edge. Here every box stays inside the image.

Pedestrians walk straight lines at constant speed and reflect off the
image border, so all of them stay in view and paths keep crossing.
Detections drop out during per-target occlusion windows. Everything is
drawn from one PCG64 generator seeded with the run's seed, so one seed
always gives the same files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SIDECAR_HEADER = struct.Struct("<4sHIIIQ")
_ASPECT = 0.41  # pedestrian width / height


@dataclass(frozen=True)
class SceneParams:
    """Size and difficulty of one generated scene."""

    targets: int
    frames: int
    image_width: float
    image_height: float
    height_range: tuple[float, float]
    speed_range: tuple[float, float]  # pixels per frame
    noise_std: float  # pixels, on x, y, w and h of each detection
    descriptor_dim: int  # 0 writes no sidecar
    feat_noise_std: float
    occlusions_per_target: int
    occlusion_len: tuple[int, int]  # inclusive frame counts


@dataclass
class Scene:
    """Rows are (frame, id, x, y, w, h); detection rows are in file order."""

    params: SceneParams
    gt: np.ndarray  # (F*T, 6)
    dets: np.ndarray  # (N, 6), id column is -1
    det_target: np.ndarray  # (N,) 0-based target that produced each detection
    det_index: np.ndarray  # (N,) position of the detection within its frame
    descriptors: np.ndarray  # (N, descriptor_dim) float32 unit vectors
    bases: np.ndarray  # (T, descriptor_dim) identity vectors


def _fold(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Reflect positions into [lo, hi] (a walker bouncing off the border)."""
    span = hi - lo
    y = np.mod(x - lo, 2.0 * span)
    return lo + np.where(y > span, 2.0 * span - y, y)


def build_scene(params: SceneParams, seed: int) -> Scene:
    p = params
    rng = np.random.Generator(np.random.PCG64(seed))
    T, F, W, H = p.targets, p.frames, p.image_width, p.image_height

    h = rng.uniform(*p.height_range, size=T)
    w = _ASPECT * h
    lo_x, hi_x = w / 2.0, W - w / 2.0
    lo_y, hi_y = h / 2.0, H - h / 2.0
    cx0 = rng.uniform(lo_x, hi_x)
    cy0 = rng.uniform(lo_y, hi_y)
    heading = rng.uniform(0.0, 2.0 * np.pi, size=T)
    speed = rng.uniform(*p.speed_range, size=T)
    steps = np.arange(F)[:, None]  # (F, 1)
    cx = _fold(cx0 + np.cos(heading) * speed * steps, lo_x, hi_x)  # (F, T)
    cy = _fold(cy0 + np.sin(heading) * speed * steps, lo_y, hi_y)

    visible = np.ones((F, T), dtype=bool)
    first = 4  # let every track confirm before its first occlusion
    for t in range(T):
        for _ in range(p.occlusions_per_target):
            length = int(rng.integers(p.occlusion_len[0], p.occlusion_len[1] + 1))
            start = int(rng.integers(first, max(first + 1, F - length - 1)))
            visible[start : start + length, t] = False

    frames = np.repeat(np.arange(1, F + 1), T)
    ids = np.tile(np.arange(1, T + 1), F)
    gx = (cx - w / 2.0).ravel()
    gy = (cy - h / 2.0).ravel()
    gw = np.broadcast_to(w, (F, T)).ravel()
    gh = np.broadcast_to(h, (F, T)).ravel()
    gt = np.column_stack([frames, ids, gx, gy, gw, gh])

    bases = rng.normal(size=(T, p.descriptor_dim))
    bases /= np.maximum(np.linalg.norm(bases, axis=1, keepdims=True), 1e-12)

    rows, targets, index, descs = [], [], [], []
    for f in range(F):
        tv = np.flatnonzero(visible[f])
        order = rng.permutation(tv.size)
        tv = tv[order]
        noise = rng.normal(0.0, p.noise_std, size=(tv.size, 4))
        dw = np.maximum(w[tv] + noise[:, 2], 1.0)
        dh = np.maximum(h[tv] + noise[:, 3], 1.0)
        dx = np.clip(cx[f, tv] - dw / 2.0 + noise[:, 0], 0.0, W - dw)
        dy = np.clip(cy[f, tv] - dh / 2.0 + noise[:, 1], 0.0, H - dh)
        rows.append(np.column_stack([np.full(tv.size, f + 1), np.full(tv.size, -1), dx, dy, dw, dh]))
        targets.append(tv)
        index.append(np.arange(tv.size))
        if p.descriptor_dim:
            v = bases[tv] + rng.normal(0.0, p.feat_noise_std, size=(tv.size, p.descriptor_dim))
            descs.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    dets = np.concatenate(rows)
    descriptors = (
        np.concatenate(descs).astype("<f4")
        if p.descriptor_dim
        else np.zeros((len(dets), 0), dtype="<f4")
    )
    return Scene(
        params=p,
        gt=gt,
        dets=dets,
        det_target=np.concatenate(targets),
        det_index=np.concatenate(index),
        descriptors=descriptors,
        bases=bases,
    )


def format_rows(rows: np.ndarray) -> str:
    """MOT text in the given row order; repr keeps every float exact."""
    out = [
        f"{int(f)},{int(i)},{x!r},{y!r},{w!r},{h!r},1,-1,-1,-1\n"
        for f, i, x, y, w, h in rows.tolist()
    ]
    return "".join(out)


def sidecar_bytes(scene: Scene) -> bytes:
    """FTFV v1 sidecar with f_cls only, one record per detection, file order."""
    dim = scene.params.descriptor_dim
    rec = np.zeros(
        len(scene.dets), dtype=[("frame", "<u4"), ("det_index", "<u4"), ("f_cls", "<f4", (dim,))]
    )
    rec["frame"] = scene.dets[:, 0]
    rec["det_index"] = scene.det_index
    rec["f_cls"] = scene.descriptors
    return _SIDECAR_HEADER.pack(b"FTFV", 1, dim, 0, 0, len(rec)) + rec.tobytes()


def write_scene(scene: Scene, out_dir: Path) -> dict[str, Path]:
    """Write gt.txt, det.txt and (with descriptors) features.ftfv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"gt": out_dir / "gt.txt", "dets": out_dir / "det.txt"}
    paths["gt"].write_text(format_rows(scene.gt))
    paths["dets"].write_text(format_rows(scene.dets))
    if scene.params.descriptor_dim:
        paths["features"] = out_dir / "features.ftfv"
        paths["features"].write_bytes(sidecar_bytes(scene))
    return paths
