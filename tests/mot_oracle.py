"""Row-at-a-time MOT text and sidecar codecs, kept as test oracles.

These are the per-row ``parse_mot`` and ``read_descriptors`` that
``headtrack.dataio`` replaced with column-wise code, and ``format_mot``,
the text its ``write_mot`` writes. The tests hold the column-wise versions
to the same rows, bytes and error texts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from headtrack.association import FEATURE_KINDS
from headtrack.dataio import MotParseError
from headtrack.geometry import BBox
from headtrack.rows import AppearanceDescriptor

_HEADER = struct.Struct("<4sHIIIQ")
_RECORD_HEAD = struct.Struct("<II")


@dataclass(frozen=True)
class MotLine:
    frame: int
    id: int
    box: BBox
    conf: float = 1.0
    extra: tuple[float, float, float] = (-1.0, -1.0, -1.0)
    lineno: int = field(default=0, compare=False, repr=False)


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def parse_mot(source) -> list[MotLine]:
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
            frame = _int64(parts[0])
            track_id = _int64(parts[1])
            x, y, w, h, conf, *extra = (float(p) for p in parts[2:])
            if frame < 1:
                raise ValueError(f"frame index must be >= 1, got {frame}")
            box = BBox(x=x, y=y, w=w, h=h)
        except ValueError as exc:
            raise MotParseError(lineno, str(exc)) from None
        out.append(MotLine(frame, track_id, box, conf, tuple(extra), lineno=lineno))
    return out


def _fmt(v: float) -> str:
    if abs(v) < 1e15 and v == int(v):  # inf and nan fail the first test
        return str(int(v))
    return repr(float(v))


def format_mot(lines) -> str:
    rows = sorted(lines, key=lambda l: (l.frame, l.id))
    out = []
    for l in rows:
        fields = [str(l.frame), str(l.id)] + [
            _fmt(v) for v in (l.box.x, l.box.y, l.box.w, l.box.h, l.conf, *l.extra)
        ]
        out.append(",".join(fields))
    return "\n".join(out) + ("\n" if out else "")


def read_descriptors(path) -> dict[tuple[int, int], AppearanceDescriptor]:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError("descriptor file truncated before header")
    magic, version, dim_cls, dim_reg, dim_head, count = _HEADER.unpack_from(data, 0)
    if magic != b"FTFV":
        raise ValueError(f"bad magic {magic!r}")
    if version != 1:
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
