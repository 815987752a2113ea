"""Command-line surface: track, interpolate, evaluate, simulate, assign.

All tunables live in one RunConfig loaded from an optional key=value file
and overridable per key on the command line; --help lists every key with
its default. Exit codes: 0 success, 1 usage error, 2 data/config error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the library modules a verb runs are imported by that verb, when it runs
from . import dataio
from .config import (EVAL_IOU_THRESHOLD, METHODS, AssignConfig, AssociationConfig, KalmanConfig, LiftingConfig,
                     TrackerConfig)
from .dataio import SceneSpec
from .geometry import BBox, HeadKeypoint

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3


class ConfigError(ValueError):
    """Bad configuration file or key."""


def _key(default, help_text: str):
    """A RunConfig field: its default, and its help line for --help."""
    return dataclasses.field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline.

    The fields are the only list of config keys: the config file, the
    per-key flags and --help all read them. Each default is read from the
    library config or constant that owns the key; only ``motion_scale``
    (0 is the image diagonal) states its own.
    """

    # association
    w_app: float = _key(AssociationConfig.w_app, "appearance weight in the association cost")
    w_mot: float = _key(AssociationConfig.w_mot, "motion weight in the association cost")
    lambda_cls: float = _key(AssociationConfig.feature_weights[0], "weight of the classification-branch feature")
    lambda_reg: float = _key(AssociationConfig.feature_weights[1], "weight of the regression-branch feature")
    lambda_head: float = _key(AssociationConfig.feature_weights[2], "weight of the head-branch feature")
    gate_g: float = _key(AssociationConfig.gate_g, "gating threshold on the combined association cost")
    motion_scale: float = _key(0.0, "pixel normalizer for motion cost; 0 uses the image diagonal")
    # tracker lifecycle
    patience_w: int = _key(TrackerConfig.patience_w, "frames a track survives without a match")
    min_hits: int = _key(TrackerConfig.min_hits, "matches required before a track is emitted")
    init_score_min: float = _key(TrackerConfig.init_score_min, "confidence threshold for spawning new tracks")
    descriptor_momentum: float = _key(TrackerConfig.descriptor_momentum, "EMA momentum for track descriptors")
    emit_predictions: bool = _key(TrackerConfig.emit_predictions, "also emit predicted boxes while a track coasts")
    # kalman
    h_min: float = _key(KalmanConfig.h_min, "lower clamp on the filtered target height")
    # gap filling
    se3_process_std: float = _key(LiftingConfig.process_std, "process noise std of the se3_kalman centre smoother")
    se3_meas_std: float = _key(LiftingConfig.meas_std, "measurement noise std of the se3_kalman centre smoother")
    # label assignment
    alpha: float = _key(AssignConfig.alpha, "IoU-cost weight in the assignment cost")
    beta: float = _key(AssignConfig.beta, "positional penalty outside the center region")
    eps_iou: float = _key(AssignConfig.eps_iou, "epsilon inside the -log(IoU + eps) cost")
    q_topk: int = _key(AssignConfig.q_topk, "candidates summed for the dynamic-k rule")
    # evaluation
    iou_threshold: float = _key(EVAL_IOU_THRESHOLD, "IoU threshold for evaluation matching")
    # scene geometry / determinism
    image_width: float = _key(SceneSpec.image_width, "image width in pixels")
    image_height: float = _key(SceneSpec.image_height, "image height in pixels")
    seed: int = _key(SceneSpec.seed, "PRNG seed for the scene generator")


def _coerce(name: str, raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"key {name}: expected a boolean, got {raw!r}")
    try:
        value = target_type(raw)
    except ValueError:
        raise ConfigError(f"key {name}: cannot parse {raw!r} as {target_type.__name__}") from None
    if target_type is float and not math.isfinite(value):
        raise ConfigError(f"key {name}: expected a finite number, got {raw!r}")
    return value


def _key_values(path):
    """Yield (lineno, key, value) for each key=value line of a file; # starts a comment."""
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        yield lineno, key, val


def load_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read a key=value file (optional) and apply command-line overrides."""
    types = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
    values: dict[str, object] = {}
    if path is not None:
        for lineno, key, val in _key_values(path):
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _located(f"{path}:{lineno}", lambda: _coerce(key, val, types[key]))
    for key, val in (overrides or {}).items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, val, types[key]) if isinstance(val, str) else val
    return RunConfig(**values)


def tracker_config(cfg: RunConfig) -> TrackerConfig:
    for key in ("image_width", "image_height"):
        if not getattr(cfg, key) > 0.0:
            raise ConfigError(f"key {key}: expected > 0, got {getattr(cfg, key)}")
    scale = cfg.motion_scale
    if scale < 0.0:
        raise ConfigError(f"key motion_scale: expected >= 0 (0 is the image diagonal), got {scale}")
    if scale == 0.0:
        scale = float(np.hypot(cfg.image_width, cfg.image_height))
    return TrackerConfig(
        patience_w=cfg.patience_w,
        init_score_min=cfg.init_score_min,
        min_hits=cfg.min_hits,
        emit_predictions=cfg.emit_predictions,
        descriptor_momentum=cfg.descriptor_momentum,
        assoc=AssociationConfig(
            w_app=cfg.w_app,
            w_mot=cfg.w_mot,
            feature_weights=(cfg.lambda_cls, cfg.lambda_reg, cfg.lambda_head),
            gate_g=cfg.gate_g,
            motion_scale=scale,
        ),
        noise=KalmanConfig(h_min=cfg.h_min),
    )


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
    tracking = tracker.Tracker(tracker_config(cfg))
    empty = tracker.Detections(np.zeros((0, 4)), np.zeros(0))
    out: list[tuple[int, int, BBox]] = []
    f = 1
    for busy in frames:
        while f <= busy:
            if not tracking.live:  # a step would only move the frame: skip to the detections
                f = busy
            out += [(f, tid, box) for tid, box in tracking.step(f, frames.get(f, empty))]
            f += 1
    dataio.write_mot(out_path, dataio.MotTable.from_rows(out))


def cmd_track(args, cfg: RunConfig) -> int:
    dets = Path(args.dets)
    if not dets.is_dir():
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
    out_dir.mkdir(parents=True, exist_ok=True)
    for seq, sidecar in zip(seq_files, sidecars):
        run_track_file(seq, sidecar, out_dir / seq.name, cfg, args.head_format)
    return 0


def cmd_interpolate(args, cfg: RunConfig) -> int:
    from . import lifting
    table = _located(args.input, lambda: dataio.parse_mot(args.input))
    _located(args.input, lambda: dataio.check_unique_ids(table))
    lcfg = LiftingConfig(process_std=cfg.se3_process_std, meas_std=cfg.se3_meas_std)
    frames, boxes = table.frame.tolist(), table.bboxes()
    filled_rows: list[tuple[int, int, BBox]] = []  # observed rows are written back as parsed
    for tid, rows in table.groups("id"):
        points = [(frames[r], boxes[r]) for r in rows.tolist()]
        try:
            filled, skipped = lifting.complete(points, args.method, lcfg)
        except ValueError as exc:
            raise ValueError(f"{args.input}: track {tid}: {exc}") from None
        observed = {frame for frame, _ in points}
        filled_rows += [(frame, tid, box) for frame, box in filled if frame not in observed]
        for gap in skipped:
            span = f"{gap.missing_frames[0]}-{gap.missing_frames[-1]}"
            print(f"track {tid}: gap {span} left unfilled: {gap.reason}", file=sys.stderr)
    dataio.write_mot(args.out, dataio.MotTable.concat([table, dataio.MotTable.from_rows(filled_rows)]))
    return 0


def _boxes_by_frame(table: dataio.MotTable) -> dict[int, list[tuple[int, BBox]]]:
    """Each frame's (id, box) pairs in file order."""
    ids, boxes = table.id.tolist(), table.bboxes()
    return {frame: [(ids[r], boxes[r]) for r in rows.tolist()] for frame, rows in table.groups("frame")}


def cmd_evaluate(args, cfg: RunConfig) -> int:
    from . import metrics
    gt_table = _located(args.gt, lambda: dataio.parse_mot(args.gt))
    res_table = _located(args.result, lambda: dataio.parse_mot(args.result))
    _located(args.gt, lambda: dataio.check_unique_ids(gt_table))
    _located(args.result, lambda: dataio.check_unique_ids(res_table))
    gt_by_frame, res_by_frame = _boxes_by_frame(gt_table), _boxes_by_frame(res_table)
    eval_frames = [
        metrics.EvalFrame(gt=gt_by_frame.get(f, []), hyp=res_by_frame.get(f, []))
        for f in sorted(gt_by_frame.keys() | res_by_frame.keys())
    ]
    report = metrics.evaluate(eval_frames, iou_threshold=cfg.iou_threshold)
    print(f"MOTA={report.mota:.6f}")
    print(f"IDF1={report.idf1:.6f}")
    print(f"FP={report.fp}")
    print(f"FN={report.fn}")
    print(f"IDS={report.ids}")
    print(f"GT={report.gt_total}")
    return 0


def parse_scene_spec(path, cfg: RunConfig, flags=()) -> SceneSpec:
    """Scene description: key=value lines, the keys being SceneSpec's fields.

    ``occlusion`` lists the windows as tid:start-end;... in place of the
    ``occlusions`` field, which is not a key. A key that is also a RunConfig
    key takes ``cfg``'s value unless the spec sets it, and always when it is
    among ``flags``, the keys given on the command line. An out-of-range
    value taken from ``cfg`` is reported by key, one from the spec by file.
    """
    types = {f.name: type(f.default) for f in dataclasses.fields(SceneSpec)}
    del types["occlusions"]
    types["descriptor_dim"] = int  # its default, None, means one dimension per target
    shared = [f.name for f in dataclasses.fields(RunConfig) if f.name in types]
    kwargs = {key: getattr(cfg, key) for key in shared}
    spec_keys = set()
    for lineno, key, val in _key_values(path):
        if key == "occlusion":
            windows = []
            for chunk in val.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    tid, span = chunk.split(":")
                    start, end = span.split("-")
                    windows.append((int(tid), int(start), int(end)))
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: occlusion windows look like tid:start-end"
                    ) from None
            kwargs["occlusions"] = tuple(windows)
        elif key in types:
            kwargs[key] = _located(f"{path}:{lineno}", lambda: _coerce(key, val, types[key]))
            spec_keys.add(key)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown scene key {key!r}")
    kwargs.update({key: getattr(cfg, key) for key in shared if key in flags})
    from_cfg = {key for key in shared if key in flags or key not in spec_keys}
    try:
        return SceneSpec(**kwargs)
    except ValueError as exc:  # a field's message starts with its name
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(f"key {name}: {exc}" if name in from_cfg else f"{path}: {exc}") from None


def cmd_simulate(args, cfg: RunConfig) -> int:
    spec = parse_scene_spec(args.spec, cfg, flags=vars(args))  # unset flags are not in args
    scene = _located(args.spec, lambda: dataio.generate_scene(spec))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_mot(out_dir / "gt.txt", scene.gt)
    dataio.write_mot(out_dir / "det.txt", scene.detections)
    if scene.descriptors is not None:
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
    doc = json.loads(Path(path).read_text())
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
    acfg = AssignConfig(alpha=cfg.alpha, beta=cfg.beta, eps_iou=cfg.eps_iou, q_topk=cfg.q_topk)
    cost, ious, fg = label_assign.assign_tables(anchors, gts, acfg)
    positives = label_assign.dynamic_k_match(cost, ious, fg, acfg)
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
        # read signed float literals, exponents included, as values
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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


def build_parser() -> _Parser:
    parser = _Parser(prog="headtrack", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a detection file")
    p_track.add_argument("--dets", required=True, help="detection file or directory of them")
    p_track.add_argument("--features", default=None, help="sidecar (.ftfv), or a directory of them")
    p_track.add_argument("--out", required=True, help="result file (or directory for batches)")
    p_track.add_argument("--head-format", action="store_true", help="trailing fields carry head keypoints")
    _add_config_flags(p_track)

    p_interp = sub.add_parser("interpolate", help="fill trajectory gaps in a result file")
    p_interp.add_argument("--input", required=True)
    p_interp.add_argument("--method", choices=METHODS, default="linear2d")
    p_interp.add_argument("--out", required=True)
    _add_config_flags(p_interp)

    p_eval = sub.add_parser("evaluate", help="CLEAR-MOT / IDF1 report")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--result", required=True)
    _add_config_flags(p_eval)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scene")
    p_sim.add_argument("--spec", required=True, help="scene description file")
    p_sim.add_argument("--out-dir", required=True)
    _add_config_flags(p_sim)

    p_assign = sub.add_parser("assign", help="print the dynamic-k assignment table for a scene")
    p_assign.add_argument("--scene", required=True, help="JSON scene description")
    _add_config_flags(p_assign)

    return parser


_VERBS = {
    "track": cmd_track,
    "interpolate": cmd_interpolate,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "assign": cmd_assign,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        keys = {f.name for f in dataclasses.fields(RunConfig)}
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if k in keys})
        return _VERBS[args.verb](args, cfg)
    except (ConfigError, dataio.MotParseError, OSError, ValueError) as exc:
        print(f"headtrack: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"headtrack: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
