"""headtrack benchmark: the track -> interpolate -> evaluate path on seeded scenes.

Usage (from the repository root):

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 34 --trace 0

The program under test is the ``headtrack`` package in ``src/`` of the
checkout the script sits in; every CLI verb runs as its own interpreter
with ``PYTHONPATH=src``. Load is a closed loop: one client issues one verb
at a time and waits for it, with no threads or worker pools of its own.

``--trace 0`` reports the end-to-end metrics: setup, per-verb and pipeline
wall times, peak RSS of ``track``, per-frame ``Tracker.step`` latency from
an in-process loop over the same detections, and MOTA/IDF1. Every time is
scaled to reference speed by the speed gauge of ``gauge.py``. ``--trace 1``
runs the same verbs once without and once with the layer wrappers of
``trace_cli.py`` each round, and reports per-layer self times and counts
plus the tracing overhead. Either way the last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Scene generation happens before any timing. Every verb's exit status and
every output check counts as one attempted operation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170  # the whole run, scene generation included
MIN_ROUNDS = 3  # untraced rounds per run; traced runs make at least 2 pairs

# The console script's call.
CLI = "import sys; from headtrack.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE = "import headtrack, headtrack.cli; print(headtrack.__file__)"

sys.path.insert(0, str(HERE))
from gauge import GaugeLog, scaled_time  # noqa: E402
from scene import Scene, SceneParams, build_scene, write_scene  # noqa: E402


@dataclass(frozen=True)
class Workload:
    params: SceneParams
    method: str  # interpolate --method
    why: str


# Lengths keep one untraced round (a gauged Tracker.step pass and the three
# verbs) at about 7-8 s on a 2-core machine, so a 34 s run makes 4 rounds.
WORKLOADS = {
    "crowd": Workload(
        SceneParams(
            targets=80, frames=40, image_width=3840.0, image_height=2160.0,
            height_range=(120.0, 240.0), speed_range=(3.0, 8.0), noise_std=2.0,
            descriptor_dim=128, feat_noise_std=0.05,
            occlusions_per_target=2, occlusion_len=(3, 8),
        ),
        method="se3_kalman",
        why="the paper's dense case: 80 crossing pedestrians, 128-d noisy appearance; "
        "stresses association.build_cost_matrix, kalman and metrics.idf1 over 80 ids",
    ),
    "motion_only": Workload(
        SceneParams(
            targets=40, frames=45, image_width=1920.0, image_height=1080.0,
            height_range=(60.0, 120.0), speed_range=(2.0, 6.0), noise_std=1.5,
            descriptor_dim=0, feat_noise_std=0.0,
            occlusions_per_target=1, occlusion_len=(3, 6),
        ),
        method="linear2d",
        why="40 targets, no sidecar, every pair passes the gate: stresses "
        "association.solve_assignment re-solves; should not stress appearance cost or lifting",
    ),
    "long_sparse": Workload(
        SceneParams(
            targets=10, frames=600, image_width=1920.0, image_height=1080.0,
            height_range=(60.0, 120.0), speed_range=(1.0, 4.0), noise_std=1.5,
            descriptor_dim=32, feat_noise_std=0.05,
            occlusions_per_target=24, occlusion_len=(2, 5),
        ),
        method="se3_kalman",
        why="10 targets x 600 frames, short occlusions: stresses per-frame tracker, kalman, "
        "dataio, twist smoother, CLEAR matching; association is ~1/3 of step, as per-call cost",
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "track_s": "s",
    "interpolate_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
    "track_rss_mb": "MB",
    "mota": "ratio",
    "idf1": "ratio",
}
VERBS = ("track", "interpolate", "evaluate")


class Deadline(Exception):
    pass


class Bench:
    """One run: owns the work directory, the child being waited on, and the op tally."""

    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.child: subprocess.Popen | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.geometry = [
            "--image-width", repr(self.wl.params.image_width),
            "--image-height", repr(self.wl.params.image_height),
        ]

    # -- bookkeeping -----------------------------------------------------------

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def spawn(self, argv: list[str], tag: str) -> tuple[int, float, float, float]:
        """Run one child to completion; returns (exit code, start, wall s, peak RSS MB).

        Start and wall time are on ``time.perf_counter``, the monotonic clock
        the gauge logs of ``gauged_cli.py`` use too.

        Its stdout and stderr land in ``<tag>.out`` and ``<tag>.err``.
        """
        out_path = self.work / f"{tag}.out"
        with open(out_path, "wb") as out, open(self.work / f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            self.child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(self.child.pid, 0)  # rusage of this child alone
            wall = time.perf_counter() - t0
        rc = self.child.returncode = os.waitstatus_to_exitcode(status)
        self.child = None
        return rc, t0, wall, usage.ru_maxrss / 1024.0

    def stop_child(self) -> None:
        if self.child is not None and self.child.returncode is None:
            self.child.kill()
            self.child.wait()

    # -- scene -------------------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.scene: Scene = build_scene(self.wl.params, self.seed)
        self.paths = write_scene(self.scene, self.work / "scene")

    def verb_args(self, verb: str, tag: str) -> list[str]:
        p = self.paths
        if verb == "track":
            args = ["track", "--dets", str(p["dets"]), "--out", str(self.work / f"{tag}.track.txt")]
            if "features" in p:
                args += ["--features", str(p["features"])]
        elif verb == "interpolate":
            args = [
                "interpolate", "--input", str(self.work / f"{tag}.track.txt"),
                "--method", self.wl.method, "--out", str(self.work / f"{tag}.filled.txt"),
            ]
        else:
            args = ["evaluate", "--gt", str(p["gt"]), "--result", str(self.work / f"{tag}.filled.txt")]
        return args + self.geometry

    # -- measurements ------------------------------------------------------------

    def check_import(self) -> None:
        """Warm-up: byte-compiles src/, fills the page cache, and checks which headtrack loads."""
        rc, _, _, _ = self.spawn([sys.executable, "-c", PROBE], "probe")
        loaded = (self.work / "probe.out").read_text().strip()
        ok = rc == 0 and Path(loaded).resolve().is_relative_to(SRC)
        self.op(ok, f"setup probe exit {rc} or headtrack imported from outside {SRC}")

    def pipeline(self, tag: str, mode: str) -> dict:
        """track -> interpolate -> evaluate, each verb run by one launcher.

        ``mode`` is ``gauged`` (``gauged_cli.py``: times at reference speed,
        with a setup_s sample per verb and the unscaled times under ``raw``),
        ``plain`` (the console script's call, wall times) or ``traced``
        (``trace_cli.py``, wall times). Also returns the track output and
        its peak RSS, and the evaluate report.
        """
        res: dict = {"ok": True, "setup_s": [], "raw": {}}
        for verb in VERBS:
            args = self.verb_args(verb, tag)
            side = self.work / f"{tag}.{verb}.json"
            launcher = {
                "gauged": [str(HERE / "gauged_cli.py"), str(side)],
                "plain": ["-c", CLI],
                "traced": [str(HERE / "trace_cli.py"), str(side)],
            }[mode]
            rc, t0, wall, rss = self.spawn([sys.executable, *launcher, *args], f"{tag}.{verb}")
            res["raw"][f"{verb}_s"] = res[f"{verb}_s"] = wall
            if not self.op(rc == 0, f"{verb} exited {rc} ({tag})"):
                res["ok"] = False
                return res
            if mode == "gauged":
                doc = json.loads(side.read_text())
                res[f"{verb}_s"] = scaled_time(t0, t0 + wall, doc["runs"])
                res["setup_s"].append(scaled_time(t0, doc["imported"], doc["runs"]))
            if verb == "track":
                res["track_rss_mb"] = rss
                res["track_bytes"] = (self.work / f"{tag}.track.txt").read_bytes()
            if verb == "evaluate":
                report = (self.work / f"{tag}.evaluate.out").read_text()
                fields = dict(re.findall(r"^(\w+)=(\S+)$", report, re.M))
                self.op(
                    fields.get("GT") == str(len(self.scene.gt)),
                    f"evaluate GT={fields.get('GT')} but the scene has {len(self.scene.gt)} gt lines",
                )
                res["report"] = report
                res["fields"] = fields
        res["pipeline_s"] = sum(res[f"{v}_s"] for v in VERBS)
        res["raw"]["pipeline_s"] = sum(res["raw"][f"{v}_s"] for v in VERBS)
        return res

    def load_frames(self) -> None:
        """Parse the scene once for the in-process Tracker.step passes."""
        sys.path.insert(0, str(SRC))
        from headtrack import cli, dataio

        overrides = {"image_width": self.wl.params.image_width, "image_height": self.wl.params.image_height}
        self.tracker_cfg = cli.tracker_config(cli.load_config(None, overrides))
        lines = dataio.parse_mot(self.paths["dets"])
        descriptors = dataio.read_descriptors(self.paths["features"]) if "features" in self.paths else None
        self.frames = dataio.mot_to_detections(lines, descriptors)

    def frame_pass(self, gauged: bool) -> tuple[list[float], list[tuple]]:
        """One sequence through a fresh Tracker: per-frame step latency (ms) and emissions.

        With ``gauged``, the speed gauge runs between steps (see ``gauge.py``)
        and each latency comes scaled to reference speed.
        """
        from headtrack.tracker import Tracker

        tracker = Tracker(self.tracker_cfg)
        log = GaugeLog()
        clock = time.perf_counter
        spans: list[tuple[float, float]] = []
        emissions: list[tuple] = []
        for f in range(1, max(self.frames, default=0) + 1):
            dets = self.frames.get(f, [])
            if gauged:
                log.run_if_due()
            t0 = clock()
            out = tracker.step(f, dets)
            spans.append((t0, clock()))
            emissions.extend((f, tid, b.x, b.y, b.w, b.h) for tid, b in out)
        if not gauged:
            return [(t1 - t0) * 1e3 for t0, t1 in spans], emissions
        log.run()
        return [scaled_time(t0, t1, log.runs) * 1e3 for t0, t1 in spans], emissions


def parse_track_file(data: bytes) -> list[tuple]:
    rows = []
    for line in data.decode().splitlines():
        f = line.split(",")
        rows.append((int(f[0]), int(f[1]), float(f[2]), float(f[3]), float(f[4]), float(f[5])))
    return rows


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most p90, with at least ten of ``n`` samples beyond it.

    Above p90 the tail of a long sequence is set by the few costliest
    frames of each seed's scene and moves by 30-40% between seeds.
    """
    return max(0, min(90, math.floor(100.0 - 1000.0 / n)))


def blas_threads() -> str:
    """Thread count of the BLAS numpy loaded, read from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({m for m in re.findall(r"(/\S+\.so\S*)", fh.read()) if "blas" in m.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> str:
    import scipy

    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, blas threads {blas_threads()}"
    )


# -- end-to-end run -------------------------------------------------------------


def another_round(start: float, seconds: int, durations: list[float], minimum: int) -> bool:
    """Whether to start one more round: always below ``minimum``, else only
    if a round of the median length so far still ends within ``seconds``."""
    if len(durations) < minimum:
        return True
    return time.monotonic() - start + statistics.median(durations) <= seconds


def run_e2e(b: Bench) -> dict:
    b.load_frames()
    start = time.monotonic()
    durations: list[float] = []
    rounds: list[dict] = []
    passes: list[list[float]] = []
    first_track: bytes | None = None
    first_report: str | None = None
    # A round is one in-process pass, then the three verbs. Every time is
    # scaled to reference speed by the gauge runs interleaved with it.
    while another_round(start, b.seconds, durations, MIN_ROUNDS):
        t_round = time.monotonic()
        pass_times, emissions = b.frame_pass(gauged=True)
        passes.append(pass_times)
        res = b.pipeline(f"r{len(rounds)}", "gauged")
        if not res["ok"]:
            break
        b.op(
            parse_track_file(res["track_bytes"]) == emissions,
            "CLI track output differs from the in-process Tracker.step emissions",
        )
        if first_track is None:
            first_track, first_report = res["track_bytes"], res["report"]
        else:
            b.op(res["track_bytes"] == first_track, "track output changed between rounds")
            b.op(res["report"] == first_report, "evaluate report changed between rounds")
        rounds.append(res)
        durations.append(time.monotonic() - t_round)

    metrics: dict[str, float] = {}
    if rounds:
        metrics["setup_s"] = statistics.median(v for r in rounds for v in r["setup_s"])
        for key in ("track_s", "interpolate_s", "evaluate_s", "pipeline_s"):
            metrics[key] = statistics.median(r[key] for r in rounds)
        metrics["track_rss_mb"] = statistics.median(r["track_rss_mb"] for r in rounds)
        fields = rounds[0]["fields"]
        for key, field in (("mota", "MOTA"), ("idf1", "IDF1")):
            if b.op(field in fields, f"evaluate printed no {field}"):
                metrics[key] = float(fields[field])
        raw = {k: statistics.median(r["raw"][k] for r in rounds) for k in rounds[0]["raw"]}
        print("# unscaled wall-time medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
    if passes:
        per_frame = np.median(np.array(passes), axis=0)
        p = tail_percentile(len(per_frame))
        metrics["frame_ms_p50"] = float(np.percentile(per_frame, 50))
        metrics["frame_ms_tail"] = float(np.percentile(per_frame, p))
        print(
            f"# frame_ms_*: per-frame median of {len(passes)} passes over {len(per_frame)} frames; "
            f"the tail is p{p}, with {len(per_frame) * (100 - p) / 100:.0f} frames beyond it"
        )
    n_setup = sum(len(r["setup_s"]) for r in rounds)
    print(f"# {b.name}: {len(rounds)} rounds in {time.monotonic() - start:.1f} s, {n_setup} setup samples")
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


# -- traced run -----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(docs: dict[str, dict]) -> tuple[dict, set[str]]:
    """Per-layer metrics of one traced pipeline (one spans file per verb).

    Returns the metrics and the names of wrappers or counters that no
    longer fit the code.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    absent: set[str] = set()
    clear_calls = 0
    for verb, doc in docs.items():
        spans = doc["spans"]
        own = self_times(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if name.startswith("association.") and verb != "track":
                continue  # evaluate reaches the solver through metrics
            total[name] = total.get(name, 0.0) + (end - start)
            selfs[name] = selfs.get(name, 0.0) + own[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "metrics.solve_assignment" and parent >= 0 and spans[parent][0] == "metrics.evaluate":
                clear_calls += 1
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v
        absent.update(doc["absent"])
    samples = {k: v for doc in docs.values() for k, v in doc["samples"].items()}

    def ms(key: str, table=total) -> float:
        return table.get(key, 0.0) * 1e3

    def cnt(key: str) -> float:
        return float(counts.get(key, 0))

    live = samples.get("tracker.live_tracks", [])
    iters = samples.get("kalman.iterations", [])
    step_total = total.get("tracker.step", 0.0)
    assoc = total.get("association.build_cost_matrix", 0.0) + total.get("association.solve_assignment", 0.0)
    out = {
        "dataio.parse_mot_ms": (ms("dataio.parse_mot"), "ms"),
        "dataio.read_descriptors_ms": (ms("dataio.read_descriptors"), "ms"),
        "dataio.mot_to_detections_ms": (ms("dataio.mot_to_detections"), "ms"),
        "dataio.write_mot_ms": (ms("dataio.write_mot"), "ms"),
        "dataio.lines": (cnt("dataio.lines"), "count"),
        "dataio.descriptors": (cnt("dataio.descriptors"), "count"),
        "tracker.step_self_ms": (ms("tracker.step", selfs), "ms"),
        "tracker.live_tracks_mean": (statistics.fmean(live) if live else 0.0, "count"),
        "tracker.live_tracks_max": (float(max(live)) if live else 0.0, "count"),
        "tracker.spawned": (cnt("tracker.spawned"), "count"),
        "tracker.removed": (cnt("tracker.removed"), "count"),
        "association.build_cost_matrix_ms": (ms("association.build_cost_matrix"), "ms"),
        "association.solve_assignment_ms": (ms("association.solve_assignment"), "ms"),
        "association.lsa_calls": (float(calls.get("association.lsa", 0)), "count"),
        "association.lsa_ms": (ms("association.lsa"), "ms"),
        "association.pairs": (cnt("association.pairs"), "count"),
        "association.admissible_pairs": (cnt("association.admissible_pairs"), "count"),
        "association.matches": (cnt("association.matches"), "count"),
        "association.match_ratio": (
            cnt("association.matches") / cnt("association.admissible_pairs")
            if cnt("association.admissible_pairs") else 0.0,
            "ratio",
        ),
        "association.step_share": (assoc / step_total if step_total else 0.0, "ratio"),
        "kalman.predict_ms": (ms("kalman.predict"), "ms"),
        "kalman.predict_calls": (float(calls.get("kalman.predict", 0)), "count"),
        "kalman.iterated_update_ms": (ms("kalman.iterated_update"), "ms"),
        "kalman.update_calls": (float(calls.get("kalman.iterated_update", 0)), "count"),
        "kalman.iterations_mean": (statistics.fmean(iters) if iters else 0.0, "count"),
        "kalman.not_converged": (cnt("kalman.not_converged"), "count"),
        "kalman.jitter_retries": (cnt("kalman.iterated_update:IllConditionedUpdate"), "count"),
        "kalman.divergences": (
            cnt("kalman.predict:FilterDivergence") + cnt("kalman.iterated_update:FilterDivergence"),
            "count",
        ),
        "lifting.complete_ms": (ms("lifting.complete"), "ms"),
        "lifting.frames_filled": (cnt("lifting.frames_filled"), "count"),
        "lifting.gaps_skipped": (cnt("lifting.gaps_skipped"), "count"),
        "metrics.clear_match_ms": (ms("metrics.evaluate") - ms("metrics.idf1"), "ms"),
        "metrics.clear_match_calls": (float(clear_calls), "count"),
        "metrics.idf1_ms": (ms("metrics.idf1"), "ms"),
        "metrics.gt_ids": (cnt("metrics.gt_ids"), "count"),
        "metrics.hyp_ids": (cnt("metrics.hyp_ids"), "count"),
        "trace.absent": (float(len(absent)), "count"),
    }
    return out, absent


# Layers on Tracker.step's path: self time for step, inclusive for what it calls.
TRACKER_SIDE = (
    "tracker.step_self_ms",
    "association.build_cost_matrix_ms",
    "association.solve_assignment_ms",
    "kalman.iterated_update_ms",
    "kalman.predict_ms",
)


def run_traced(b: Bench) -> dict:
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[tuple[dict, set[str]]] = []
    durations: list[float] = []
    while another_round(start, b.seconds, durations, 2):
        t_round = time.monotonic()
        k = len(traced)
        # alternate which side goes first so drift between them cancels
        order = (False, True) if k % 2 == 0 else (True, False)
        pair = {}
        for is_traced in order:
            pair[is_traced] = b.pipeline(f"{'t' if is_traced else 'u'}{k}", "traced" if is_traced else "plain")
        if not (pair[False]["ok"] and pair[True]["ok"]):
            break
        b.op(
            pair[True]["track_bytes"] == pair[False]["track_bytes"],
            "track output differs with tracing on",
        )
        b.op(pair[True]["report"] == pair[False]["report"], "evaluate report differs with tracing on")
        docs = {}
        for verb in VERBS:
            path = b.work / f"t{k}.{verb}.json"
            docs[verb] = json.loads(path.read_text())
        plain.append(pair[False])
        traced.append(pair[True])
        layers.append(layer_metrics(docs))
        durations.append(time.monotonic() - t_round)

    metrics: dict[str, tuple[float, str]] = {}
    if layers:
        for key, (_, unit) in layers[0][0].items():
            metrics[key] = (statistics.median(lm[key][0] for lm, _ in layers), unit)
        plain_s = statistics.median(r["pipeline_s"] for r in plain)
        traced_s = statistics.median(r["pipeline_s"] for r in traced)
        metrics["trace.pipeline_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        absent = set().union(*(ab for _, ab in layers))
        print(f"# {b.name}: {len(traced)} traced rounds, each paired with an untraced one")
        print(
            f"# tracing overhead: traced pipeline_s {traced_s:.4f} s - untraced {plain_s:.4f} s "
            f"= {traced_s - plain_s:+.4f} s ({100.0 * (traced_s - plain_s) / plain_s:+.1f}%)"
        )
        print("# tracker-side time, largest first (self for tracker.step, inclusive for its callees):")
        for name in sorted(TRACKER_SIDE, key=lambda n: -metrics[n][0]):
            print(f"#   {name:34s} {metrics[name][0]:10.2f} ms")
        print(f"# association share of Tracker.step: {metrics['association.step_share'][0]:.3f}")
        if absent:
            print(f"# absent (reported as 0): {', '.join(sorted(absent))}")
    return metrics


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "headtrack" / "cli.py").is_file():
        print(f"perfbench: no headtrack sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)

    def on_alarm(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        bench.prepare()
        print(f"# {args.workload} seed {args.seed}: {bench.wl.why}")
        print(f"# environment: {environment()}")
        bench.check_import()
        metrics = run_traced(bench) if args.trace else run_e2e(bench)
    except Deadline:
        bench.stop_child()
        print(f"perfbench: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        bench.stop_child()
        shutil.rmtree(bench.work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for problem in bench.problems:
        print(f"# FAILED: {problem}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
