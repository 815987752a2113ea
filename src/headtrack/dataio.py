"""File formats and the synthetic scene generator.

Text I/O follows the MOTChallenge comma-separated convention
(frame,id,x,y,w,h,conf and three trailing fields). Head keypoints ride in
the trailing fields when head mode is on; plain files keep -1 placeholders
there. High-dimensional appearance descriptors live in a binary sidecar
keyed by (frame, detection index); everything in it is little-endian
regardless of host.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .association import FEATURE_KINDS, AppearanceDescriptor
from .geometry import BBox, HeadKeypoint, iou_matrix
from .tracker import Detection

DESCRIPTOR_MAGIC = b"FTFV"
DESCRIPTOR_VERSION = 1
_HEADER = struct.Struct("<4sHIIIQ")
_RECORD_HEAD = struct.Struct("<II")

MOTION_MODELS = ("linear", "crossing", "circular")


class MotParseError(ValueError):
    """Malformed MOT text input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class MotLine:
    frame: int
    id: int
    x: float
    y: float
    w: float
    h: float
    conf: float
    extra: tuple[float, float, float] = (-1.0, -1.0, -1.0)
    lineno: int = field(default=0, compare=False, repr=False)  # 1-based; 0 if not parsed
    box: Optional[BBox] = field(default=None, compare=False, repr=False)  # built by parse_mot

    def bbox(self) -> BBox:
        if self.box is not None:
            return self.box
        return BBox(x=self.x, y=self.y, w=self.w, h=self.h)

    def head(self) -> Optional[HeadKeypoint]:
        """Trailing fields as a head keypoint; None for -1 placeholders."""
        xh, yh, vh = self.extra
        if xh == -1.0 and yh == -1.0 and vh == -1.0:
            return None
        return HeadKeypoint(x_head=xh, y_head=yh, v_head=vh)


def parse_mot(source) -> list[MotLine]:
    """Parse MOT text from a path, open file, or iterable of lines.

    Lines may arrive in any frame order; use format_mot for canonical
    output ordering. Each line's box is built and checked here, so a bad
    field raises MotParseError naming its line.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text().splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = [str(l).rstrip("\n") for l in source]

    out: list[MotLine] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise MotParseError(lineno, f"expected 10 comma-separated fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track_id = int(parts[1])
            x, y, w, h, conf, *extra = (float(p) for p in parts[2:])
            if frame < 1:
                raise ValueError(f"frame index must be >= 1, got {frame}")
            box = BBox(x=x, y=y, w=w, h=h)
        except ValueError as exc:
            raise MotParseError(lineno, str(exc)) from None
        out.append(MotLine(frame, track_id, x, y, w, h, conf, tuple(extra), lineno=lineno, box=box))
    return out


def check_unique_ids(lines: Iterable[MotLine]) -> None:
    """Raise MotParseError at the first line repeating an earlier line's (frame, id)."""
    first: dict[tuple[int, int], int] = {}
    for l in lines:
        key = (l.frame, l.id)
        if key in first:
            raise MotParseError(
                l.lineno, f"frame {l.frame} repeats id {l.id} (first on line {first[key]})"
            )
        first[key] = l.lineno


def _fmt(v: float) -> str:
    """Shortest exact decimal for a float; integers drop the trailing .0."""
    if abs(v) < 1e15 and v == int(v):  # inf and nan fail the first test
        return str(int(v))
    return repr(float(v))


def format_mot(lines: Iterable[MotLine]) -> str:
    """Serialize lines sorted by (frame, id); values round-trip exactly."""
    rows = sorted(lines, key=lambda l: (l.frame, l.id))
    out = []
    for l in rows:
        fields = [str(l.frame), str(l.id)] + [
            _fmt(v) for v in (l.x, l.y, l.w, l.h, l.conf, *l.extra)
        ]
        out.append(",".join(fields))
    return "\n".join(out) + ("\n" if out else "")


def write_mot(path, lines: Iterable[MotLine]) -> None:
    Path(path).write_text(format_mot(lines))


def mot_to_detections(
    lines: list[MotLine],
    descriptors: Optional[dict[tuple[int, int], AppearanceDescriptor]] = None,
    head_format: bool = False,
) -> dict[int, list[Detection]]:
    """Group parsed detection lines by frame, attaching sidecar descriptors.

    Descriptor keys are (frame, index within that frame's line order):
    frames come out ascending, each frame's lines in file order.
    """
    by_frame: dict[int, list[MotLine]] = {}
    for line in sorted(lines, key=lambda l: l.frame):
        by_frame.setdefault(line.frame, []).append(line)
    out: dict[int, list[Detection]] = {}
    for frame, rows in by_frame.items():
        dets = []
        for idx, row in enumerate(rows):
            desc = descriptors.get((frame, idx)) if descriptors else None
            try:
                head = row.head() if head_format else None
                dets.append(Detection(frame, row.bbox(), row.conf, head, desc))
            except ValueError as exc:
                raise MotParseError(row.lineno, str(exc)) from None
        out[frame] = dets
    return out


# -- descriptor sidecar ------------------------------------------------------


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


def read_descriptors(path) -> dict[tuple[int, int], AppearanceDescriptor]:
    """Load the sidecar into (frame, det_index) -> descriptor; a key may occur once.

    Vectors are checked against the unit-norm contract (1e-4, the f32
    storage tolerance) and renormalized in float64 on the way in.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError("descriptor file truncated before header")
    magic, version, dim_cls, dim_reg, dim_head, count = _HEADER.unpack_from(data, 0)
    if magic != DESCRIPTOR_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != DESCRIPTOR_VERSION:
        raise ValueError(f"unsupported version {version}")
    rec_size = _RECORD_HEAD.size + 4 * (dim_cls + dim_reg + dim_head)
    expected = _HEADER.size + rec_size * count
    if len(data) != expected:
        raise ValueError(f"file size {len(data)} does not match header (expected {expected})")

    out: dict[tuple[int, int], AppearanceDescriptor] = {}
    offset = _HEADER.size
    for rec in range(1, count + 1):
        frame, det_index = _RECORD_HEAD.unpack_from(data, offset)
        offset += _RECORD_HEAD.size
        if (frame, det_index) in out:
            raise ValueError(f"record {rec} repeats (frame, det_index) ({frame},{det_index})")
        kinds = {}
        for kind, dim in zip(FEATURE_KINDS, (dim_cls, dim_reg, dim_head)):
            if dim == 0:
                continue
            vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).astype(float)
            offset += 4 * dim
            n = float(np.linalg.norm(vec))
            if not abs(n - 1.0) <= 1e-4:  # also rejects a NaN norm
                raise ValueError(f"{kind} for ({frame},{det_index}) is not unit-norm: |v|={n}")
            kinds[kind] = vec / n
        out[(frame, det_index)] = AppearanceDescriptor(**kinds)
    return out


# -- synthetic scenes ---------------------------------------------------------


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
    image_width: float = 1920.0
    image_height: float = 1080.0
    box_height: float = 80.0
    noise_std: float = 0.0
    feat_noise_std: float = 0.0
    descriptor_dim: Optional[int] = None
    seed: int = 0
    occlusions: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.targets < 1:
            raise ValueError("need at least one target")
        if self.motion not in MOTION_MODELS:
            raise ValueError(f"motion must be one of {MOTION_MODELS}, got {self.motion!r}")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        for tid, start, end in self.occlusions:
            if not (1 <= start <= end <= self.frames):
                raise ValueError(f"occlusion window {start}-{end} outside 1..{self.frames}")
            if not (1 <= tid <= self.targets):
                raise ValueError(f"occlusion references unknown target {tid}")


@dataclass
class SceneData:
    gt: list[MotLine]
    detections: list[MotLine]
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
    clashes = np.argwhere(np.triu(iou_matrix(starts, starts) > 0.0, k=1))
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

    gt: list[MotLine] = []
    dets: list[MotLine] = []
    records: list[DescriptorRecord] = []
    for f in range(1, spec.frames + 1):
        det_index = 0
        for t in range(spec.targets):
            box = paths[t][f - 1]
            tid = t + 1
            gt.append(
                MotLine(frame=f, id=tid, x=box.x, y=box.y, w=box.w, h=box.h, conf=1.0)
            )
            if (tid, f) in occluded:
                continue
            noise = rng.normal(0.0, spec.noise_std, size=4) if spec.noise_std > 0 else np.zeros(4)
            w = max(box.w + noise[2], 1.0)
            h = max(box.h + noise[3], 1.0)
            dets.append(
                MotLine(
                    frame=f,
                    id=-1,
                    x=box.x + noise[0],
                    y=box.y + noise[1],
                    w=w,
                    h=h,
                    conf=1.0,
                )
            )
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
    return SceneData(gt=gt, detections=dets, descriptors=records, descriptor_dim=dim)
