"""Row-at-a-time scene generator and sidecar writer, kept as test oracles.

These are the per-target, per-frame ``_gt_paths`` and ``generate_scene``
and the per-record ``write_descriptors`` that ``headtrack.dataio``
replaced with column-wise code. The tests hold the column-wise versions
to the same files and error texts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from headtrack.association import FEATURE_KINDS
from headtrack.dataio import DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, MotTable, SceneSpec
from headtrack.geometry import BBox, iou_matrix

_HEADER = struct.Struct("<4sHIIIQ")
_RECORD_HEAD = struct.Struct("<II")


@dataclass(frozen=True)
class DescriptorRecord:
    frame: int
    det_index: int
    f_cls: Optional[np.ndarray] = None
    f_reg: Optional[np.ndarray] = None
    f_head: Optional[np.ndarray] = None


def write_descriptors(
    path,
    records: list[DescriptorRecord],
    dim_cls: int,
    dim_reg: int,
    dim_head: int,
) -> None:
    """Write the binary sidecar; a dimension of zero marks an absent kind."""
    buf = bytearray()
    buf += _HEADER.pack(
        DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, dim_cls, dim_reg, dim_head, len(records)
    )
    for rec in records:
        buf += _RECORD_HEAD.pack(rec.frame, rec.det_index)
        for kind, dim in zip(FEATURE_KINDS, (dim_cls, dim_reg, dim_head)):
            vec = getattr(rec, kind)
            if dim == 0:
                if vec is not None:
                    raise ValueError(f"{kind} present but header declares dimension 0")
                continue
            if vec is None:
                raise ValueError(f"{kind} missing but header declares dimension {dim}")
            arr = np.asarray(vec, dtype="<f4")
            if arr.shape != (dim,):
                raise ValueError(f"{kind} has shape {arr.shape}, expected ({dim},)")
            buf += arr.tobytes()
    Path(path).write_bytes(bytes(buf))


@dataclass
class SceneData:
    gt: MotTable
    detections: MotTable
    descriptors: list[DescriptorRecord]
    descriptor_dim: int


def _gt_paths(spec: SceneSpec) -> list[list[BBox]]:
    """Per-target box paths over all frames, by closed-form motion models."""
    W, H, F = spec.image_width, spec.image_height, spec.frames
    cxm, cym = W / 2.0, H / 2.0
    paths: list[list[BBox]] = []
    for t in range(spec.targets):
        h = spec.box_height * (1.0 + 0.05 * t)
        w = 0.5 * h
        boxes = []
        if spec.motion == "linear":
            y = (t + 1) * H / (spec.targets + 1)
            speed = 2.0 + 0.5 * t
            x0 = 0.05 * W
            for f in range(F):
                boxes.append(BBox(x=x0 + speed * f, y=y, w=w, h=h))
        elif spec.motion == "crossing":
            # start on a ring, drive through the center; staggered radii and
            # speeds keep any two targets from ever coinciding exactly
            angle = 2.0 * np.pi * t / spec.targets
            radius = 0.35 * min(W, H) * (1.0 + 0.04 * t)
            speed = (2.0 * radius) / (F - 1) if F > 1 else 0.0
            dx, dy = -np.cos(angle), -np.sin(angle)
            x0 = cxm + radius * np.cos(angle)
            y0 = cym + radius * np.sin(angle)
            for f in range(F):
                cx = x0 + dx * speed * f
                cy = y0 + dy * speed * f
                boxes.append(BBox(x=cx - w / 2, y=cy - h / 2, w=w, h=h))
        else:  # circular
            angle0 = 2.0 * np.pi * t / spec.targets
            radius = 0.15 * min(W, H) * (1.0 + 0.1 * t)
            rate = 2.0 * np.pi / max(F * 1.5, 2.0)
            for f in range(F):
                a = angle0 + rate * f
                cx = cxm + radius * np.cos(a)
                cy = cym + radius * np.sin(a)
                boxes.append(BBox(x=cx - w / 2, y=cy - h / 2, w=w, h=h))
        paths.append(boxes)
    return paths


def generate_scene(spec: SceneSpec) -> SceneData:
    """Build ground truth, noisy detections, and identity descriptors.

    Fully deterministic for a fixed spec: the PCG64 generator seeded with
    ``spec.seed`` drives all randomness (documented in the README config
    table). Raises when spawn boxes overlap.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    paths = _gt_paths(spec)

    starts = [path[0] for path in paths]
    clashes = np.argwhere(np.triu(iou_matrix(starts, starts) != 0.0, k=1))  # nan: areas overflow
    if clashes.size:
        raise ValueError(f"targets {clashes[0, 0] + 1} and {clashes[0, 1] + 1} overlap at spawn")

    occluded: set[tuple[int, int]] = set()
    for tid, start, end in spec.occlusions:
        for f in range(start, end + 1):
            occluded.add((tid, f))

    dim = spec.descriptor_dim if spec.descriptor_dim is not None else spec.targets
    bases = []
    if dim > 0:
        if dim >= spec.targets:
            for t in range(spec.targets):
                e = np.zeros(dim)
                e[t] = 1.0
                bases.append(e)
        else:
            for _ in range(spec.targets):
                v = rng.normal(size=dim)
                bases.append(v / np.linalg.norm(v))

    gt: list[tuple[int, int, BBox]] = []
    dets: list[tuple[int, int, BBox]] = []
    records: list[DescriptorRecord] = []
    for f in range(1, spec.frames + 1):
        det_index = 0
        for t in range(spec.targets):
            box = paths[t][f - 1]
            tid = t + 1
            gt.append((f, tid, box))
            if (tid, f) in occluded:
                continue
            noise = rng.normal(0.0, spec.noise_std, size=4) if spec.noise_std > 0 else np.zeros(4)
            w = max(box.w + noise[2], 1.0)
            h = max(box.h + noise[3], 1.0)
            noisy = BBox(x=box.x + noise[0], y=box.y + noise[1], w=w, h=h)
            dets.append((f, -1, noisy))
            if dim > 0:
                v = bases[t].copy()
                if spec.feat_noise_std > 0:
                    v = v + rng.normal(0.0, spec.feat_noise_std, size=dim)
                n = float(np.linalg.norm(v))
                if n <= 0.0:
                    v = bases[t]
                    n = 1.0
                records.append(
                    DescriptorRecord(frame=f, det_index=det_index, f_cls=v / n)
                )
            det_index += 1
    return SceneData(
        gt=MotTable.from_rows(gt),
        detections=MotTable.from_rows(dets),
        descriptors=records,
        descriptor_dim=dim,
    )
