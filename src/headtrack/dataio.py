"""File formats and the synthetic scene generator.

Text I/O follows the MOTChallenge comma-separated convention
(frame,id,x,y,w,h,conf and three trailing fields). A file is held as one
MotTable of columns, parsed, checked and written a bounded chunk of rows
at a time; iterating a table yields MotLine rows. Head keypoints ride in
the trailing fields when head mode is on; plain files keep -1
placeholders there. High-dimensional appearance descriptors live in a
binary sidecar keyed by (frame, detection index); everything in it is
little-endian regardless of host, and it is read into Descriptors columns.
split_frames cuts a table and its sidecar into one tracker.Detections
batch of columns per frame; mot_to_detections is its list form.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from .config import FEATURE_KINDS
from .geometry import BBox, HeadKeypoint, iou_matrix

if TYPE_CHECKING:  # imported where they are built, so only the verbs that build them load them
    from .association import AppearanceDescriptor
    from .tracker import Detection, Detections

DESCRIPTOR_MAGIC = b"FTFV"
DESCRIPTOR_VERSION = 1
_HEADER = struct.Struct("<4sHIIIQ")

MOTION_MODELS = ("linear", "crossing", "circular")

_CHUNK = 1024  # rows parsed or written at once: bounds the lists of field strings


class MotParseError(ValueError):
    """Malformed MOT text input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class MotLine:
    """One row of a MotTable."""

    frame: int
    id: int
    box: BBox
    conf: float = 1.0
    extra: tuple[float, float, float] = (-1.0, -1.0, -1.0)
    lineno: int = field(default=0, compare=False, repr=False)  # 1-based; 0 if not parsed

    def bbox(self) -> BBox:  # kept for perfbench/test_perfbench.py, which reads rows through it
        return self.box


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
    def from_rows(cls, rows: Iterable[tuple[int, int, BBox]]) -> MotTable:
        """A table of result rows ``(frame, id, box)``."""
        rows = list(rows)
        frames, ids, boxes = zip(*rows) if rows else ((), (), ())
        return cls(frames, ids, list(map(attrgetter("x", "y", "w", "h"), boxes)))

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
        return map(
            MotLine, self.frame.tolist(), self.id.tolist(), self.bboxes(),
            self.conf.tolist(), map(tuple, self.extra.tolist()), self.lineno.tolist(),
        )

    def bboxes(self) -> list[BBox]:
        """Every row's box, built from Python floats."""
        return list(map(BBox, *self.box.T.tolist()))

    def groups(self, column: str) -> list[tuple[int, np.ndarray]]:
        """(value, its rows in table order) per distinct value of ``column``, ascending."""
        keys = getattr(self, column)
        if not len(keys):
            return []
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        return list(zip(ordered[np.r_[0, cuts]].tolist(), np.split(order, cuts)))


def parse_mot(source) -> MotTable:
    """Parse MOT text from a path, open file, or iterable of lines.

    Lines may arrive in any frame order; use format_mot for canonical
    output ordering. Every field is read with Python's ``int`` and
    ``float``, and every box checked as a BBox would check it; the first
    failing line raises MotParseError naming it.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text().splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = [str(l).rstrip("\n") for l in source]
    return MotTable.concat(
        _parse_chunk(lines[start:start + _CHUNK], start + 1)
        for start in range(0, len(lines), _CHUNK)
    )


def _parse_chunk(raw: list[str], first: int) -> MotTable:
    """The rows of consecutive source lines, ``first`` being the first line's number.

    Each check runs over the whole chunk. The first failing row is then
    the lowest row any check names, and among the checks naming it the
    first in a line's reading order: field count, the ten fields left to
    right, frame >= 1, the box.
    """
    stripped = list(map(str.strip, raw))
    lines = list(filter(None, stripped))
    lineno = np.flatnonzero(np.fromiter(map(bool, stripped), bool, len(stripped))) + first
    stop, error = len(lines), None  # rows before ``stop`` passed every check run so far
    commas = np.fromiter(map(str.count, lines, repeat(",")), np.int64, len(lines))
    short = np.flatnonzero(commas != 9)
    if short.size:
        stop = int(short[0])
        error = f"expected 10 comma-separated fields, got {commas[stop] + 1}"
    fields = ",".join(lines[:stop]).split(",") if stop else []
    cols = []
    for k in range(10):
        col = fields[k:10 * stop:10]
        read, check, dtype = (int, _int64, np.int64) if k < 2 else (float, float, float)
        try:
            cols.append(np.fromiter(map(read, col), dtype, len(col)))
        except (ValueError, OverflowError):
            stop, error = _first_failure(check, col)
            cols.append(np.fromiter(map(read, col[:stop]), dtype, stop))
    frame, ids, box = cols[0][:stop], cols[1][:stop], np.stack([c[:stop] for c in cols[2:6]], axis=1)
    low = frame < 1
    bad = np.flatnonzero(low | _bad_boxes(box))
    if bad.size:
        stop = int(bad[0])
        if low[stop]:
            error = f"frame index must be >= 1, got {frame[stop]}"
        else:
            try:
                BBox(*box[stop].tolist())
            except ValueError as exc:
                error = str(exc)
    if error is not None:
        raise MotParseError(int(lineno[stop]), error)
    extra = np.stack(cols[7:], axis=1)
    return MotTable(frame, ids, box, cols[6], extra, lineno)


def _bad_boxes(box: np.ndarray) -> np.ndarray:
    """Mask of the rows of an n x 4 box array that a BBox rejects: non-finite or non-positive extent."""
    return ~(np.isfinite(box).all(axis=1) & (box[:, 2] > 0.0) & (box[:, 3] > 0.0))


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def _first_failure(check, texts: list[str]) -> tuple[int, str]:
    """Index and message of the first of ``texts`` that ``check`` rejects."""
    for i, text in enumerate(texts):
        try:
            check(text)
        except ValueError as exc:
            return i, str(exc)
    raise AssertionError("no field fails")  # pragma: no cover - callers saw one fail


def check_unique_ids(table: MotTable) -> None:
    """Raise MotParseError at the first row repeating an earlier row's (frame, id)."""
    order = np.lexsort((table.id, table.frame))  # stable: a key's rows stay in table order
    frame, ids = table.frame[order], table.id[order]
    repeats = order[1:][(frame[1:] == frame[:-1]) & (ids[1:] == ids[:-1])]
    if repeats.size:
        row = repeats.min()
        f, i = table.frame[row], table.id[row]
        first = table.lineno[np.flatnonzero((table.frame == f) & (table.id == i))[0]]
        raise MotParseError(int(table.lineno[row]), f"frame {f} repeats id {i} (first on line {first})")


def format_mot(table: MotTable) -> str:
    """Serialize rows sorted by (frame, id); values round-trip exactly."""
    return "".join(_mot_text(table))


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


def _frame_split(table: MotTable, descriptors: Optional[Mapping], head_format: bool):
    """Check the rows and sidecar keys as columns, then cut the rows by frame.

    Returns ``order`` (the table's rows sorted by frame, file order within a
    frame), ``bounds`` (each frame's slice of ``order`` runs from one bound
    to the next), the frames ascending, each sorted row's sidecar record
    (its index in ``descriptors``' order, -1 for none), and which sorted
    rows carry a head (head mode, trailing fields not all -1).

    Raises the first error of a row-by-row build: any row whose box a BBox
    rejects, in file order; then, frames ascending and rows in file order,
    a head that a HeadKeypoint rejects before a non-finite score, as
    MotParseError naming the line; then the first record, in
    ``descriptors``' order, whose det_index its frame lacks, as ValueError.
    """
    _check_boxes(table.box)
    order = np.argsort(table.frame, kind="stable")
    bad = ~np.isfinite(table.conf[order])
    worn = np.zeros(len(order), bool)
    if head_format:
        extra = table.extra[order]
        worn = ~(extra == -1.0).all(axis=1)
        bad |= worn & ~(np.isfinite(extra[:, :2]).all(axis=1) & (extra[:, 2] >= 0.0) & (extra[:, 2] <= 1.0))
    if bad.any():  # the first bad row, built as a Detection, names its first fault
        from .tracker import Detection
        first = int(bad.argmax())
        row = int(order[first])
        try:
            head = HeadKeypoint(*table.extra[row].tolist()) if worn[first] else None
            Detection(BBox(*table.box[row].tolist()), float(table.conf[row]), head)
        except ValueError as exc:
            raise MotParseError(int(table.lineno[row]), str(exc)) from None

    ordered = table.frame[order]
    bounds = np.append(np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])[:len(order)], len(order))
    frames = ordered[bounds[:-1]]
    record = np.full(len(order), -1)
    if descriptors:
        keys = Descriptors.of(descriptors)
        key_frame, key_index = keys.frame, keys.det_index
        group = np.searchsorted(frames, key_frame)
        found = group < len(frames)
        size = np.diff(bounds)[group[found]]
        found[found] = (frames[group[found]] == key_frame[found]) & (0 <= key_index[found]) & (key_index[found] < size)
        if not found.all():
            rec = int(found.argmin())
            raise ValueError(f"record ({key_frame[rec]},{key_index[rec]}) names no detection line")
        record[bounds[group] + key_index] = np.arange(len(group))
    return order, bounds, frames.tolist(), record, worn


def split_frames(
    table: MotTable, descriptors: Optional[Mapping] = None, head_format: bool = False,
) -> dict[int, Detections]:
    """One ``tracker.Detections`` batch per frame, frames ascending, each frame's rows in file order.

    Descriptor keys are (frame, index within that frame's rows in file
    order). A batch carries a kind of feature when one of its rows has a
    record, as ``association.stack_descriptors`` would stack it; a row
    without a record is zero there. Checks as ``_frame_split`` states.
    """
    from .tracker import Detections
    descriptors = Descriptors.of(descriptors) if descriptors else None
    order, bounds, frames, record, _ = _frame_split(table, descriptors, head_format)
    cuts = bounds[1:-1]
    boxes, scores = np.split(table.box[order], cuts), np.split(table.conf[order], cuts)
    has = record >= 0
    features, present, masks = {}, np.zeros(len(frames), bool), []
    if has.any():
        present = np.logical_or.reduceat(has, bounds[:-1])
        features = {
            kind: np.split(np.where(has[:, None], m[record], 0.0), cuts)
            for kind, m in descriptors.vectors.items()
        }
        masks = np.split(has, cuts)
    out = {}
    for i, frame in enumerate(frames):
        feats = {kind: (parts[i], masks[i]) for kind, parts in features.items()} if present[i] else {}
        out[frame] = Detections(boxes[i], scores[i], feats)
    return out


def mot_to_detections(
    table: MotTable, descriptors: Optional[Mapping] = None, head_format: bool = False,
) -> dict[int, list[Detection]]:
    """``split_frames`` as lists of Detection, each with its head and the mapping's own descriptor."""
    from .tracker import Detection
    order, bounds, frames, record, worn = _frame_split(table, descriptors, head_format)
    boxes = list(map(BBox, *table.box[order].T.tolist()))
    heads = [None] * len(order)
    for i in np.flatnonzero(worn).tolist():
        heads[i] = HeadKeypoint(*table.extra[order[i]].tolist())
    values = list(descriptors.values()) if descriptors else []
    descs = [values[r] if r >= 0 else None for r in record.tolist()]
    dets = list(map(Detection, boxes, table.conf[order].tolist(), heads, descs))
    return {frame: dets[a:b] for frame, a, b in zip(frames, bounds[:-1].tolist(), bounds[1:].tolist())}


# -- descriptor sidecar ------------------------------------------------------


def _record_dtype(dims) -> np.dtype:
    """A sidecar record: frame and det_index, then each kind of nonzero dimension in ``dims``."""
    kinds = [(kind, "<f4", (dim,)) for kind, dim in zip(FEATURE_KINDS, dims) if dim]
    return np.dtype([("frame", "<u4"), ("det_index", "<u4")] + kinds)


class Descriptors(Mapping):
    """A sidecar's records as columns: a read-only (frame, det_index) -> AppearanceDescriptor mapping.

    ``frame`` and ``det_index`` are the int64 keys in record order, and
    ``vectors`` maps each kind the records carry to its (n x d) float64
    matrix of unit rows in the same order. Iteration follows record order;
    a record's AppearanceDescriptor is built when its key is looked up.
    """

    def __init__(self, frame: np.ndarray, det_index: np.ndarray, vectors: dict[str, np.ndarray]):
        self.frame, self.det_index, self.vectors = frame, det_index, vectors
        self._records: Optional[dict[tuple[int, int], int]] = None  # key -> record, at the first lookup

    @classmethod
    def of(cls, descriptors: Mapping) -> Descriptors:
        """The columns of a (frame, det_index) -> AppearanceDescriptor mapping, in its order.

        A kind carried by only some records, or vectors of one kind that
        differ in length, raise ValueError.
        """
        if isinstance(descriptors, Descriptors):
            return descriptors
        vectors = {}
        for kind in FEATURE_KINDS:
            vecs = [getattr(d, kind) for d in descriptors.values()]
            carried = [v for v in vecs if v is not None]
            if carried and len(carried) < len(vecs):
                raise ValueError(f"{kind} carried by {len(carried)} of {len(vecs)} records")
            if len({len(v) for v in carried}) > 1:
                raise ValueError(f"{kind} vectors differ in length")
            if carried:
                vectors[kind] = np.stack(carried)
        keys = np.array(list(descriptors), np.int64).reshape(-1, 2)
        return cls(keys[:, 0], keys[:, 1], vectors)

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.frame.tolist(), self.det_index.tolist())

    def __getitem__(self, key) -> AppearanceDescriptor:
        from .association import AppearanceDescriptor
        if self._records is None:
            self._records = dict(zip(self, range(len(self))))
        rec = self._records[key]
        return AppearanceDescriptor(**{kind: m[rec] for kind, m in self.vectors.items()})

    def values(self) -> list[AppearanceDescriptor]:
        """Every record's descriptor in record order, built without the key index."""
        from .association import AppearanceDescriptor
        if not self.vectors:  # no records
            return []
        return list(map(AppearanceDescriptor, *(self.vectors.get(kind, repeat(None)) for kind in FEATURE_KINDS)))


def write_descriptors(path, descriptors: Mapping) -> None:
    """Write (frame, det_index) -> descriptor as the binary sidecar, records in mapping order.

    A kind's header dimension is the length of its vectors, 0 when no
    record carries it. A key outside u4, then the faults ``Descriptors.of``
    names, raise ValueError.
    """
    outside = next((key for key in descriptors if not 0 <= min(key) <= max(key) < 2**32), None)
    if outside is not None:
        raise ValueError(f"key {outside} does not fit in u4")
    columns = Descriptors.of(descriptors)
    dims = [columns.vectors[kind].shape[1] if kind in columns.vectors else 0 for kind in FEATURE_KINDS]
    records = np.zeros(len(columns), _record_dtype(dims))
    records["frame"], records["det_index"] = columns.frame, columns.det_index
    for kind, m in columns.vectors.items():
        records[kind] = m
    header = _HEADER.pack(DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, *dims, len(records))
    Path(path).write_bytes(header + records.tobytes())


def read_descriptors(path) -> Descriptors:
    """Load the sidecar as Descriptors columns; a (frame, det_index) key may occur once.

    Vectors are checked against the unit-norm contract (1e-4, the f32
    storage tolerance) and renormalized in float64 on the way in. The
    records are decoded and checked as columns; the first failing record
    is named, its (frame, det_index) repeat checked before its kinds in
    order.
    """
    from .association import row_norms
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
    kinds = records.dtype.names[2:]
    vecs = {kind: records[kind].astype(float) for kind in kinds}
    norms = {kind: row_norms(m) for kind, m in vecs.items()}

    order = np.lexsort((index, frame))  # stable: a key's records stay in file order
    same = (frame[order][1:] == frame[order][:-1]) & (index[order][1:] == index[order][:-1])
    failures = [order[1:][same]]
    failures += [np.flatnonzero(~(np.abs(n - 1.0) <= 1e-4)) for n in norms.values()]  # NaN fails
    firsts = [int(rows.min()) if rows.size else count for rows in failures]
    rec = min(firsts)
    if rec < count:
        check = firsts.index(rec)
        key = f"({frame[rec]},{index[rec]})"
        if check == 0:
            raise ValueError(f"record {rec + 1} repeats (frame, det_index) {key}")
        kind = kinds[check - 1]
        raise ValueError(f"{kind} for {key} is not unit-norm: |v|={float(norms[kind][rec])}")

    for kind, m in vecs.items():
        m /= norms[kind][:, None]
    return Descriptors(frame, index, vecs)


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
    descriptors: Optional[dict[tuple[int, int], AppearanceDescriptor]]  # None: descriptor_dim 0


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


def _check_boxes(boxes: np.ndarray) -> None:
    """Raise the BBox error of the first row that is not a valid box."""
    bad = _bad_boxes(boxes)
    if bad.any():
        BBox(*boxes[bad.argmax()].tolist())


@np.errstate(over="ignore", invalid="ignore")  # boxes and vectors near 1e308 turn inf: checked below
def generate_scene(spec: SceneSpec) -> SceneData:
    """Build ground truth, noisy detections, and identity descriptors.

    Fully deterministic for a fixed spec: the PCG64 generator seeded with
    ``spec.seed`` drives all randomness, in the draw order the README
    states. Raises when a box is not a valid BBox (ground truth target by
    target, then detections in file order), when spawn boxes overlap, or
    when a descriptor is not unit-norm.
    """
    from .association import AppearanceDescriptor, row_norms
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    T, F = spec.targets, spec.frames
    paths = _gt_paths(spec)
    _check_boxes(paths.reshape(-1, 4))
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
    _check_boxes(boxes)
    descriptors = None
    if dim > 0:
        v = bases[target] + (noise[:, -dim:] if spec.feat_noise_std > 0 else 0.0)
        norms = row_norms(v)
        zero = norms <= 0.0
        v[zero], norms[zero] = bases[target[zero]], 1.0
        det_index = (np.cumsum(visible, axis=1) - 1)[visible]
        keys = zip((frame + 1).tolist(), det_index.tolist())
        descriptors = dict(zip(keys, map(AppearanceDescriptor, v / norms[:, None])))
    gt = paths.transpose(1, 0, 2).reshape(-1, 4)
    return SceneData(
        gt=MotTable(np.repeat(np.arange(1, F + 1), T), np.tile(np.arange(1, T + 1), F), gt),
        detections=MotTable(frame + 1, np.full(len(frame), -1), boxes),
        descriptors=descriptors,
    )
