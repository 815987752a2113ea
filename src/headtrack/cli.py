"""Command-line surface: track, interpolate, evaluate, simulate, assign.

All tunables live in one RunConfig loaded from an optional key=value file
and overridable per key on the command line; --help lists every key with
its default. Exit codes: 0 success, 1 usage error, 2 data/config error,
3 internal invariant violation. A process that ran ``main`` freezes the
garbage collector at exit; importing this module changes nothing.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import functools
import gc
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# the library modules a verb runs are imported by that verb, when it runs
from . import dataio
from .config import METHODS, RunConfig
from .geometry import BBox

if TYPE_CHECKING:
    from .simulate import SceneSpec

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3


class ConfigError(ValueError):
    """Bad configuration file or key."""


def _coerce(name: str, target_type, raw: str):
    raw = raw.strip()
    if target_type is bool:
        words = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)
        if raw.lower() in words:
            return words[raw.lower()]
        raise ConfigError(f"key {name}: expected a boolean, got {raw!r}")
    try:
        value = target_type(raw)
    except ValueError:
        raise ConfigError(f"key {name}: cannot parse {raw!r} as {target_type.__name__}") from None
    if target_type is float and not math.isfinite(value):
        raise ConfigError(f"key {name}: expected a finite number, got {raw!r}")
    return value


def _parsers(cls) -> dict:
    """A value parser per field of dataclass ``cls``, reading the type of the field's default."""
    return {f.name: functools.partial(_coerce, f.name, type(f.default)) for f in dataclasses.fields(cls)}


def _read_settings(path, parsers: dict, unknown: str) -> dict:
    """The values of a key=value file, each read by its key's parser; a later line wins.

    # starts a comment. Undecodable text, a line without =, an ``unknown`` key and a
    value its parser rejects are errors naming the file, and the line where there is one.
    """
    values = {}
    for lineno, raw in enumerate(_located(path, Path(path).read_text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in parsers:
            raise ConfigError(f"{path}:{lineno}: {unknown} {key!r}")
        values[key] = _located(f"{path}:{lineno}", lambda: parsers[key](val))
    return values


def load_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read a key=value file (optional) and apply command-line overrides."""
    parsers = _parsers(RunConfig)
    values = {} if path is None else _read_settings(path, parsers, "unknown key")
    for key, val in (overrides or {}).items():
        if key not in parsers:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = parsers[key](val) if isinstance(val, str) else val
    try:
        return RunConfig(**values)
    except ValueError as exc:  # a key out of range
        raise ConfigError(str(exc)) from None


def tracker_config(cfg: RunConfig) -> RunConfig:
    """The config a ``tracker.Tracker`` takes: ``cfg`` itself, range-checked when it was built."""
    return cfg


# -- verbs ---------------------------------------------------------------------


def _located(path, read):
    """Run ``read``; a data error it raises comes back naming ``path``."""
    try:
        return read()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def run_track_file(dets_path, features_path, out_path, cfg: RunConfig, head_format=False) -> None:
    from . import tracker
    table = _located(dets_path, lambda: dataio.parse_mot(dets_path))
    descriptors = None
    if features_path:
        descriptors = _located(features_path, lambda: dataio.read_descriptors(features_path))
    try:
        frames = dataio.split_frames(table, descriptors, head_format=head_format)
    except dataio.MotParseError as exc:  # a detection row
        raise ConfigError(f"{dets_path}: {exc}") from None
    except ValueError as exc:  # parse_mot checked the boxes, so a sidecar record
        raise ConfigError(f"{features_path}: {exc}") from None
    tracking = tracker.Tracker(cfg)
    emitted = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 4)))]  # each step's frame, id, box columns
    f = 1
    for busy in frames:
        while f <= busy:
            if not len(tracking.ids):  # a step would only move the frame: skip to the detections
                f = busy
            batch = frames.get(f, ())
            try:
                out = tracking.step(f, batch)
            except ValueError as exc:  # costs the assignment cannot encode, or a coasting box no BBox holds
                raise ConfigError(f"{dets_path}: frame {f}: {exc}") from None
            except MemoryError:  # the tracks x detections costs, or the tracks themselves, do not fit
                size = f"{len(tracking.ids)} tracks and {len(batch)} detections"
                raise ConfigError(f"{dets_path}: frame {f}: not enough memory for {size}") from None
            emitted.append((np.full(len(out.ids), f), out.ids, out.boxes))
            f += 1
    dataio.write_mot(out_path, dataio.MotTable(*map(np.concatenate, zip(*emitted))))


def _same_path(a: Path, b: Path) -> bool:
    """Whether ``a`` and ``b`` name one file or directory: the same file if both exist, else the same resolved path."""
    try:
        return a.samefile(b)
    except (FileNotFoundError, NotADirectoryError):  # a path under a file names nothing either
        return a.resolve() == b.resolve()


def _refuse_overwrite(out, output: str, inputs, writer="--out is") -> None:
    """Raise ConfigError naming ``out`` when it is the file of one of ``inputs``: (flag, path or None, what it holds)."""
    for flag, path, held in inputs:
        if path is not None and _same_path(Path(path), Path(out)):
            raise ConfigError(f"{out}: {writer} the {flag} file; the {output} would overwrite the {held}")


def cmd_track(args, cfg: RunConfig) -> int:
    dets = Path(args.dets)
    kind = "directory" if dets.is_dir() else "file"
    if _same_path(dets, Path(args.out)):
        raise ConfigError(f"{args.out}: --out is the --dets {kind}; the tracks would overwrite the detections")
    settings = ("--config", args.config, "settings")
    if kind == "file":
        _refuse_overwrite(args.out, "tracks", [("--features", args.features, "descriptors"), settings])
        run_track_file(dets, args.features, args.out, cfg, args.head_format)
        return 0
    seq_files = sorted(dets.glob("*.txt"))
    sidecars = [None] * len(seq_files)
    if args.features is not None:  # <stem>.txt reads <features>/<stem>.ftfv
        if not Path(args.features).is_dir():
            raise ConfigError(f"{args.features}: a --dets directory needs a --features directory")
        sidecars = [Path(args.features) / f"{seq.stem}.ftfv" for seq in seq_files]
        for sidecar in sidecars:
            if not sidecar.is_file():
                raise ConfigError(f"{sidecar}: missing descriptor sidecar")
    out_dir = Path(args.out)
    for seq, sidecar in zip(seq_files, sidecars):  # <out>/<stem>.txt is written over none of its run's inputs
        inputs = [("--dets", seq, "detections"), ("--features", sidecar, "descriptors"), settings]
        _refuse_overwrite(out_dir / seq.name, "tracks", inputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seq, sidecar in zip(seq_files, sidecars):
        run_track_file(seq, sidecar, out_dir / seq.name, cfg, args.head_format)
    return 0


def cmd_interpolate(args, cfg: RunConfig) -> int:
    from . import lifting
    _refuse_overwrite(args.out, "filled rows", [("--config", args.config, "settings")])  # --input may be --out
    table = _located(args.input, lambda: dataio.parse_mot(args.input))
    _located(args.input, lambda: dataio.check_unique_ids(table))
    filled, skipped = _located(args.input, lambda: lifting.complete(table, args.method, cfg))
    for gap in skipped:
        print(f"track {gap.id}: gap {gap.before + 1}-{gap.after - 1} left unfilled: {gap.reason}", file=sys.stderr)
    dataio.write_mot(args.out, filled)
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    from . import metrics
    gt_table = _located(args.gt, lambda: dataio.parse_mot(args.gt))
    res_table = _located(args.result, lambda: dataio.parse_mot(args.result))
    _located(args.gt, lambda: dataio.check_unique_ids(gt_table))
    _located(args.result, lambda: dataio.check_unique_ids(res_table))
    if not len(gt_table):
        raise ConfigError(f"{args.gt}: empty ground truth: MOTA undefined")
    try:
        report = metrics.evaluate(metrics.EvalTables(gt_table, res_table), iou_threshold=cfg.iou_threshold)
    except MemoryError:  # a frame's gt x result overlaps, or the identities', do not fit
        raise ConfigError(f"{args.result}: not enough memory to evaluate against {args.gt}") from None
    print(f"MOTA={report.mota:.6f}")
    print(f"IDF1={report.idf1:.6f}")
    print(f"FP={report.fp}")
    print(f"FN={report.fn}")
    print(f"IDS={report.ids}")
    print(f"GT={report.gt_total}")
    return 0


def _occlusions(raw: str) -> tuple:
    """The windows of an ``occlusion`` value, tid:start-end separated by ;."""
    windows = []
    try:
        for tid, span in (chunk.split(":") for chunk in raw.split(";") if chunk.strip()):
            start, end = span.split("-")
            windows.append((int(tid), int(start), int(end)))
    except ValueError:
        raise ValueError("occlusion windows look like tid:start-end") from None
    return tuple(windows)


def parse_scene_spec(path, cfg: RunConfig, flags=()) -> tuple[SceneSpec, list[str]]:
    """A scene spec file, whose keys are SceneSpec's fields, and the keys that took ``cfg``'s value.

    ``occlusion`` lists the windows as tid:start-end;... in place of the ``occlusions``
    field. A RunConfig key takes ``cfg``'s value when it is in ``flags``, the keys given on
    the command line, or when the spec leaves it out and ``cfg``'s value is not the
    default; ``cfg`` checked the range of those values, so an out-of-range field names the file.
    """
    from .simulate import SceneSpec
    parsers = _parsers(SceneSpec)
    del parsers["occlusions"]
    parsers["descriptor_dim"] = functools.partial(_coerce, "descriptor_dim", int)  # its default, None, is no type
    parsers["occlusion"] = _occlusions
    spec = _read_settings(path, parsers, "unknown scene key")
    from_cfg = [f.name for f in dataclasses.fields(RunConfig) if f.name in parsers and (
        f.name in flags or (f.name not in spec and getattr(cfg, f.name) != f.default))]
    kwargs = {"occlusions": spec.pop("occlusion", ()), **spec, **{key: getattr(cfg, key) for key in from_cfg}}
    return _located(path, lambda: SceneSpec(**kwargs)), from_cfg


def cmd_simulate(args, cfg: RunConfig) -> int:
    from . import simulate
    out_dir = Path(args.out_dir)
    inputs = [("--spec", args.spec, "scene spec"), ("--config", args.config, "settings")]
    for name, output in (("gt.txt", "ground truth"), ("det.txt", "detections"), ("features.ftfv", "descriptors")):
        _refuse_overwrite(out_dir / name, output, inputs, writer="--out-dir writes")
    spec, from_cfg = parse_scene_spec(args.spec, cfg, flags=vars(args))  # unset flags are not in args
    sized = [key for key in ("image_width", "image_height") if key in from_cfg]  # a failure names them too
    where = f"key {', '.join(sized)} and {args.spec}" if sized else args.spec
    try:
        scene = _located(where, lambda: simulate.generate_scene(spec))
    except MemoryError:  # more frames or targets than the arrays can hold
        size = f"targets = {spec.targets}, frames = {spec.frames}"
        if spec.descriptor_dim is not None:
            size += f", descriptor_dim = {spec.descriptor_dim}"
        raise ConfigError(f"{where}: the scene does not fit in memory ({size})") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_mot(out_dir / "gt.txt", scene.gt)
    dataio.write_mot(out_dir / "det.txt", scene.detections)
    if scene.descriptors is None:  # track would read an earlier scene's sidecar as these detections'
        (out_dir / "features.ftfv").unlink(missing_ok=True)
    else:
        dataio.write_descriptors(out_dir / "features.ftfv", scene.descriptors)
    print(f"wrote {len(scene.gt)} gt lines, {len(scene.detections)} detections to {out_dir}")
    return 0


def _scene_entries(doc: dict, key: str, build) -> list:
    """``build`` of each entry of ``doc[key]``; an error names the entry by its index."""
    built = []
    for i, entry in enumerate(doc[key]):
        try:
            built.append(build(entry))
        except KeyError as exc:
            raise ValueError(f"{key[:-1]} {i}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key[:-1]} {i}: {exc}") from None
    return built


def parse_assign_scene(path) -> tuple[list, list]:
    """The anchors and gt instances of an ``assign`` JSON scene file."""
    import json  # only this verb reads JSON

    from . import label_assign
    from .head import HeadKeypoint
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError as exc:  # nesting deeper than the decoder recurses
        raise ValueError(str(exc)) from None
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k), list) for k in ("anchors", "gts"))):
        raise ValueError("scene must be a JSON object with 'anchors' and 'gts' lists")
    anchors = _scene_entries(doc, "anchors", lambda a: label_assign.Anchor(
        cx=a["cx"],
        cy=a["cy"],
        stride=a.get("stride", 8),
        pred_box=BBox(*a["box"]),
        pred_cls=a.get("cls", 0.5),
        pred_obj=a.get("obj", 0.5),
        pred_head=HeadKeypoint(*a.get("head", (a["cx"], a["cy"], 1.0))),
    ))
    gts = _scene_entries(doc, "gts", lambda g: label_assign.GtInstance(
        box=BBox(*g["box"]),
        head=HeadKeypoint(*g.get("head", (0.0, 0.0, 1.0))),
        center_radius=g.get("center_radius"),
    ))
    return anchors, gts


def cmd_assign(args, cfg: RunConfig) -> int:
    from . import label_assign
    anchors, gts = _located(args.scene, lambda: parse_assign_scene(args.scene))
    cost, ious, fg = label_assign.assign_tables(anchors, gts, cfg)
    positives = label_assign.dynamic_k_match(cost, ious, fg, cfg)
    print("gt anchor cost iou")
    for g, selected in enumerate(positives):
        if not selected:
            print(f"{g} - (no foreground anchors)")
            continue
        for a in selected:
            print(f"{g} {a} {cost[a, g]:.6f} {ious[a, g]:.6f}")
    return 0


# -- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read what float() reads after a minus as a value: digits (with single
        # underscores between them), an exponent, or inf, infinity and nan in any case
        digits = r"\d(?:_?\d)*"
        self._negative_number_matcher = re.compile(
            rf"^-(?:(?:{digits}(?:\.(?:{digits})?)?|\.{digits})(?:[eE][-+]?{digits})?|(?i:inf|infinity|nan))$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    group = parser.add_argument_group("config overrides")
    for f in dataclasses.fields(RunConfig):
        group.add_argument(
            f"--{f.name.replace('_', '-')}",
            dest=f.name,
            default=argparse.SUPPRESS,
            metavar="V",
            help=f"{f.metadata['help']} (default {f.default})",
        )


def build_parser(verb: str | None) -> _Parser:
    """The parser of every verb; only ``verb``'s subparser, the one that parses, takes the config flags."""
    parser = _Parser(prog="headtrack", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a detection file")
    p_track.add_argument("--dets", required=True, help="detection file or directory of them")
    p_track.add_argument("--features", default=None, help="sidecar (.ftfv), or a directory of them")
    p_track.add_argument("--out", required=True, help="result file (or directory for batches)")
    p_track.add_argument("--head-format", action="store_true", help="trailing fields carry head keypoints")

    p_interp = sub.add_parser("interpolate", help="fill trajectory gaps in a result file")
    p_interp.add_argument("--input", required=True)
    p_interp.add_argument("--method", choices=METHODS, default="linear2d")
    p_interp.add_argument("--out", required=True)

    p_eval = sub.add_parser("evaluate", help="CLEAR-MOT / IDF1 report")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--result", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scene")
    p_sim.add_argument("--spec", required=True, help="scene description file")
    p_sim.add_argument("--out-dir", required=True)

    p_assign = sub.add_parser("assign", help="print the dynamic-k assignment table for a scene")
    p_assign.add_argument("--scene", required=True, help="JSON scene description")

    if verb in sub.choices:
        _add_config_flags(sub.choices[verb])
    return parser


_VERBS = {
    "track": cmd_track,
    "interpolate": cmd_interpolate,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "assign": cmd_assign,
}


def main(argv=None) -> int:
    # At exit the process discards every object it holds: freezing them first leaves the
    # interpreter's shutdown collections nothing to walk. Files are closed by then, and
    # reference counting still frees what module teardown releases. Registered here, not
    # at import, and at most once however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse hands the rest of argv to the subparser of the first argument that is not an
    # option; no option is a verb's name, so when that argument names a verb, it is the first that does
    args = build_parser(next((a for a in argv if a in _VERBS), None)).parse_args(argv)
    try:
        keys = {f.name for f in dataclasses.fields(RunConfig)}
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if k in keys})
        return _VERBS[args.verb](args, cfg)
    except (OSError, ValueError) as exc:  # ConfigError and dataio.MotParseError among them
        print(f"headtrack: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"headtrack: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
