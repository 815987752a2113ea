"""File formats.

Text I/O follows the MOTChallenge comma-separated convention
(frame,id,x,y,w,h,conf and three trailing fields). A file is held as one
MotTable of columns. Text that numpy's C reader takes, empty lines
included, is read in one pass of that reader. Other text is read and
checked line by line, and any table written, a bounded chunk at a time.
Iterating a table yields ``rows.MotLine`` rows. Head keypoints ride in the
trailing fields when head mode is on; plain files keep -1 placeholders
there. High-dimensional appearance descriptors live in a
binary sidecar keyed by (frame, detection index); everything in it is
little-endian regardless of host, and it is held as Descriptors columns,
written, read and generated alike. split_frames cuts a table and its
sidecar into one tracker.Detections batch of columns per frame.
"""

from __future__ import annotations

import dataclasses
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from .config import FEATURE_KINDS
from .geometry import UNIT_NORM_TOL, BBox, bad_boxes, check_boxes, row_norms

if TYPE_CHECKING:  # imported where they are built, so only the code that builds them loads them
    from .rows import MotLine
    from .tracker import Detections

DESCRIPTOR_MAGIC = b"FTFV"
DESCRIPTOR_VERSION = 1
_HEADER = struct.Struct("<4sHIIIQ")

_CHUNK = 1024  # lines checked or rows written at once: bounds the Python rows and strings held


class MotParseError(ValueError):
    """Malformed MOT text input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(eq=False)
class MotTable:
    """MOT rows as columns, in file order.

    ``frame`` and ``id`` are int64; ``box`` (n x 4: x, y, w, h), ``conf``
    and ``extra`` (n x 3) are float64; ``lineno`` is each row's 1-based
    source line, 0 for rows not read from text. Omitted columns take a
    result row's placeholders: conf 1, trailing fields -1.
    """

    frame: np.ndarray
    id: np.ndarray
    box: np.ndarray
    conf: Optional[np.ndarray] = None
    extra: Optional[np.ndarray] = None
    lineno: Optional[np.ndarray] = None

    def __post_init__(self):
        self.frame = np.asarray(self.frame, dtype=np.int64).reshape(-1)
        n = len(self.frame)
        self.id = np.asarray(self.id, dtype=np.int64).reshape(n)
        self.box = np.asarray(self.box, dtype=float).reshape(n, 4)
        self.conf = np.ones(n) if self.conf is None else np.asarray(self.conf, dtype=float).reshape(n)
        self.extra = (
            np.full((n, 3), -1.0) if self.extra is None
            else np.asarray(self.extra, dtype=float).reshape(n, 3)
        )
        self.lineno = (
            np.zeros(n, dtype=np.int64) if self.lineno is None
            else np.asarray(self.lineno, dtype=np.int64).reshape(n)
        )

    @classmethod
    def concat(cls, tables: Iterable[MotTable]) -> MotTable:
        tables = list(tables)
        if not tables:
            return cls((), (), ())
        return cls(*(
            np.concatenate([getattr(t, f.name) for t in tables]) for f in dataclasses.fields(cls)
        ))

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self) -> Iterator[MotLine]:
        from .rows import MotLine
        return map(
            MotLine, self.frame.tolist(), self.id.tolist(), map(BBox, *self.box.T.tolist()),
            self.conf.tolist(), map(tuple, self.extra.tolist()), self.lineno.tolist(),
        )


def parse_mot(source) -> MotTable:
    """Parse MOT text from a path, open file, or iterable of lines.

    Lines may arrive in any frame order; write_mot writes rows in
    canonical (frame, id) order. Every field is read as Python's ``int`` and
    ``float`` read it, and every box checked as a BBox would check it; the
    first failing line raises MotParseError naming it.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text().splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = [str(l).rstrip("\n") for l in source]
    table = _read_clean(lines)
    if table is not None:
        return table
    return MotTable.concat(
        _read_checked(lines[start:start + _CHUNK], start + 1)
        for start in range(0, len(lines), _CHUNK)
    )


# a MotTable row as numpy's text reader fills it: ten comma-separated columns
_ROW = np.dtype([("frame", np.int64), ("id", np.int64), ("box", float, 4), ("conf", float), ("extra", float, 3)])


def _read_clean(lines: list[str]) -> Optional[MotTable]:
    """The table of ``lines`` from one pass of numpy's C reader, or None for the checked parser.

    The C reader takes a subset of what Python's ``int`` and ``float``
    take (not ``1_0`` or non-ASCII digits) and reads each field it takes to
    the same value. It skips empty lines, and the rows keep their own line
    numbers. Lines it rejects (whitespace-only ones among them), a line it
    skips that is not empty (a lone ``\r``), and a frame or box the
    checked parser rejects all go to that parser, which names the fault.
    """
    if not any(map(str.strip, lines)):  # no row to read: the reader would warn of empty input
        return None
    try:
        with warnings.catch_warnings():  # older numpy reads 1.0 into an int column with only this warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, _ROW, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    if len(rows) == len(lines):
        lineno = np.arange(1, len(rows) + 1)
    else:
        lineno = np.flatnonzero(np.fromiter(map(bool, lines), bool, len(lines))) + 1
    if len(rows) != len(lineno) or (rows["frame"] < 1).any() or bad_boxes(rows["box"]).any():
        return None
    return MotTable(*(rows[name].copy() for name in _ROW.names), lineno)


def _read_checked(raw: list[str], first: int) -> MotTable:
    """The rows of consecutive source lines, ``first`` being the first line's number.

    Blank lines are skipped. A line's checks run in its reading order, and
    the first to fail raises MotParseError: ten fields, frame and id as
    64-bit integers, the other eight as floats, frame >= 1, the box.
    """
    rows = []
    for n, line in enumerate(map(str.strip, raw), first):
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != 10:
                raise ValueError(f"expected 10 comma-separated fields, got {len(fields)}")
            frame, ident = _int64(fields[0]), _int64(fields[1])
            x, y, w, h, conf, *extra = map(float, fields[2:])
            if frame < 1:
                raise ValueError(f"frame index must be >= 1, got {frame}")
            BBox(x, y, w, h)
        except ValueError as exc:
            raise MotParseError(n, str(exc)) from None
        rows.append((frame, ident, (x, y, w, h), conf, extra, n))
    return MotTable(*(zip(*rows) if rows else [()] * 6))


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def _repeats(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The rows whose (major, minor) key an earlier row already has, in no particular order."""
    order = np.lexsort((minor, major))  # stable: a key's rows stay in row order
    a, b = major[order], minor[order]
    return order[1:][(a[1:] == a[:-1]) & (b[1:] == b[:-1])]


def check_unique_ids(table: MotTable) -> None:
    """Raise MotParseError at the first row repeating an earlier row's (frame, id)."""
    repeats = _repeats(table.frame, table.id)
    if repeats.size:
        row = repeats.min()
        f, i = table.frame[row], table.id[row]
        first = table.lineno[np.flatnonzero((table.frame == f) & (table.id == i))[0]]
        raise MotParseError(int(table.lineno[row]), f"frame {f} repeats id {i} (first on line {first})")


def write_mot(path, table: MotTable) -> None:
    with open(path, "w") as fh:
        fh.writelines(_mot_text(table))


def _mot_text(table: MotTable) -> Iterator[str]:
    """The table's text a chunk of rows at a time, rows sorted by (frame, id), ties in table order.

    Frame and id print as integers. A float prints as an integer when it
    is integer-valued and below 1e15 in magnitude, else as its shortest
    exact decimal (``%s`` of a Python float is its ``repr``).
    """
    order = np.lexsort((table.id, table.frame))
    for start in range(0, len(order), _CHUNK):
        rows = order[start:start + _CHUNK]
        values = np.concatenate([table.box[rows], table.conf[rows, None], table.extra[rows]], axis=1)
        whole = (np.abs(values) < 1e15) & (values == np.trunc(values))  # inf and nan fail the first test
        floats = values.astype(object)  # Python floats
        floats[whole] = values[whole].astype(np.int64).tolist()
        keys = np.stack([table.frame[rows], table.id[rows]], axis=1).astype(object)  # Python ints
        cells = np.concatenate([keys, floats], axis=1).ravel().tolist()
        yield ("%s," * 9 + "%s\n") * len(rows) % tuple(cells)


def split_frames(
    table: MotTable, descriptors: Optional[Descriptors] = None, head_format: bool = False,
) -> dict[int, Detections]:
    """One ``tracker.Detections`` batch per frame, frames ascending, each frame's rows in file order.

    Descriptor keys are (frame, index within that frame's rows in file
    order). A batch carries every kind of the sidecar when one of its rows
    has a record; a row without a record is zero there.

    Checks the rows and sidecar keys as columns and raises the first error
    of a row-by-row build: any row whose box a BBox rejects, in file order;
    then, frames ascending and rows in file order, a head that a
    HeadKeypoint rejects (head mode, trailing fields not all -1) before a
    non-finite score, as MotParseError naming the line; then the first
    record, in ``descriptors``' row order, whose det_index its frame lacks,
    as ValueError.
    """
    from .tracker import Detections
    check_boxes(table.box)
    order = np.argsort(table.frame, kind="stable")
    bad = ~np.isfinite(table.conf[order])
    if head_format:
        extra = table.extra[order]
        worn = ~(extra == -1.0).all(axis=1)
        bad |= worn & ~(np.isfinite(extra[:, :2]).all(axis=1) & (extra[:, 2] >= 0.0) & (extra[:, 2] <= 1.0))
    if bad.any():  # the first bad row names its first fault: its head, then its score
        first = int(bad.argmax())
        row = int(order[first])
        from .head import HeadKeypoint
        from .rows import Detection
        try:
            if head_format and worn[first]:
                HeadKeypoint(*table.extra[row].tolist())
            Detection(BBox(*table.box[row].tolist()), float(table.conf[row]))
        except ValueError as exc:
            raise MotParseError(int(table.lineno[row]), str(exc)) from None

    ordered = table.frame[order]
    bounds = np.append(np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])[:len(order)], len(order))
    frames = ordered[bounds[:-1]]
    record = np.full(len(order), -1)
    if descriptors:
        key_frame, key_index = descriptors.frame, descriptors.det_index
        group = np.searchsorted(frames, key_frame)
        found = group < len(frames)
        size = np.diff(bounds)[group[found]]
        found[found] = (frames[group[found]] == key_frame[found]) & (0 <= key_index[found]) & (key_index[found] < size)
        if not found.all():
            rec = int(found.argmin())
            raise ValueError(f"record ({key_frame[rec]},{key_index[rec]}) names no detection line")
        record[bounds[group] + key_index] = np.arange(len(group))

    boxes, scores, has = table.box[order], table.conf[order], record >= 0
    features, present = {}, np.zeros(len(frames), bool)
    if has.any():
        present = np.logical_or.reduceat(has, bounds[:-1])
        for kind, m in descriptors.vectors.items():
            rows = m[record]  # one copy per kind: a row without a record (-1) reads the last record, then is zeroed
            rows[~has] = 0.0
            features[kind] = rows
    out = {}  # each frame's batch: slices, so views, of the sorted columns
    for frame, a, b, shown in zip(frames.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(), present.tolist()):
        feats = {kind: (rows[a:b], has[a:b]) for kind, rows in features.items()} if shown else {}
        out[frame] = Detections(boxes[a:b], scores[a:b], feats)
    return out


mot_to_detections = split_frames  # kept for perfbench/, which calls and wraps it by this name


# -- descriptor sidecar ------------------------------------------------------


def _record_dtype(dims) -> np.dtype:
    """A sidecar record: frame and det_index, then each kind of nonzero dimension in ``dims``."""
    kinds = [(kind, "<f4", (dim,)) for kind, dim in zip(FEATURE_KINDS, dims) if dim]
    return np.dtype([("frame", "<u4"), ("det_index", "<u4")] + kinds)


class Descriptors:
    """A sidecar's records as columns.

    ``frame`` and ``det_index`` are the int64 keys in record order, and
    ``vectors`` maps each kind the records carry to its (n x d) float64
    matrix of unit rows in the same order.
    """

    def __init__(self, frame, det_index, vectors: dict[str, np.ndarray]):
        self.frame, self.det_index = np.asarray(frame, np.int64), np.asarray(det_index, np.int64)
        self.vectors = {kind: np.asarray(m, dtype=float) for kind, m in vectors.items()}
        n = len(self.frame)
        if self.frame.shape != (n,) or self.det_index.shape != (n,) or any(
            kind not in FEATURE_KINDS or m.shape != (n, m.shape[-1]) for kind, m in self.vectors.items()
        ):
            raise ValueError(f"{n} records need {n} det_index values and a {n} x d matrix per kind of "
                             f"{FEATURE_KINDS}")

    def __len__(self) -> int:
        return len(self.frame)


def _check_records(frame: np.ndarray, index: np.ndarray, norms: dict[str, np.ndarray], tol: float) -> None:
    """Raise ValueError at the first record that repeats a key or holds a vector off unit norm.

    A vector fails when its norm is more than ``tol`` from 1. A record's
    repeat is named before its kinds, and its kinds in order.
    """
    faults = [_repeats(frame, index)]
    faults += [np.flatnonzero(~(np.abs(n - 1.0) <= tol)) for n in norms.values()]  # NaN fails
    firsts = [int(rows.min()) if rows.size else len(frame) for rows in faults]
    rec = min(firsts)
    if rec < len(frame):
        check = firsts.index(rec)
        key = f"({frame[rec]},{index[rec]})"
        if check == 0:
            raise ValueError(f"record {rec + 1} repeats (frame, det_index) {key}")
        kind = list(norms)[check - 1]
        raise ValueError(f"{kind} for {key} is not unit-norm: |v|={float(norms[kind][rec])}")


def write_descriptors(path, descriptors: Descriptors) -> None:
    """Write the columns as the binary sidecar, records in row order.

    A kind's header dimension is its matrix's width, 0 when there are no
    records. What ``read_descriptors`` would reject raises ValueError and
    writes nothing: the first key outside u4; records without a kind; then
    the first record that repeats a key or whose vector is not unit-norm
    within ``geometry.UNIT_NORM_TOL``.
    """
    frame, index, vectors = descriptors.frame, descriptors.det_index, descriptors.vectors
    outside = (np.minimum(frame, index) < 0) | (np.maximum(frame, index) >= 2**32)
    if outside.any():
        rec = int(outside.argmax())
        raise ValueError(f"key {(int(frame[rec]), int(index[rec]))} does not fit in u4")
    n = len(descriptors)
    if n and not vectors:
        raise ValueError("descriptor needs at least one feature kind")
    _check_records(frame, index, {kind: row_norms(m) for kind, m in vectors.items()}, UNIT_NORM_TOL)
    dims = [vectors[kind].shape[1] if n and kind in vectors else 0 for kind in FEATURE_KINDS]
    records = np.zeros(n, _record_dtype(dims))
    records["frame"], records["det_index"] = frame, index
    for kind in records.dtype.names[2:]:
        records[kind] = vectors[kind]
    header = _HEADER.pack(DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, *dims, n)
    Path(path).write_bytes(header + records.tobytes())


def read_descriptors(path) -> Descriptors:
    """Load the sidecar as Descriptors columns; a (frame, det_index) key may occur once.

    Vectors are checked against the unit-norm contract (1e-4, the f32
    storage tolerance) and renormalized in float64 on the way in. The
    records are decoded and checked as columns; the first failing record
    is named, its (frame, det_index) repeat checked before its kinds in
    order.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError("descriptor file truncated before header")
    magic, version, dim_cls, dim_reg, dim_head, count = _HEADER.unpack_from(data, 0)
    if magic != DESCRIPTOR_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != DESCRIPTOR_VERSION:
        raise ValueError(f"unsupported version {version}")
    # by arithmetic: numpy builds no record dtype of a dimension near 2**32
    expected = _HEADER.size + 4 * (2 + dim_cls + dim_reg + dim_head) * count
    if len(data) != expected:
        raise ValueError(f"file size {len(data)} does not match header (expected {expected})")
    if not count:
        return Descriptors(np.zeros(0, np.int64), np.zeros(0, np.int64), {})
    if not dim_cls + dim_reg + dim_head:
        raise ValueError("descriptor needs at least one feature kind")

    records = np.frombuffer(data, _record_dtype((dim_cls, dim_reg, dim_head)), count, _HEADER.size)
    frame, index = records["frame"].astype(np.int64), records["det_index"].astype(np.int64)
    vecs = {kind: records[kind].astype(float) for kind in records.dtype.names[2:]}
    norms = {kind: row_norms(m) for kind, m in vecs.items()}
    _check_records(frame, index, norms, 1e-4)
    for kind, m in vecs.items():
        m /= norms[kind][:, None]
    return Descriptors(frame, index, vecs)
