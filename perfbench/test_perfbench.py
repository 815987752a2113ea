"""Fast smoke test of the benchmark harness at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench_run  # noqa: E402
from scene import SceneParams, build_scene, format_rows, sidecar_bytes, write_scene  # noqa: E402

TINY = SceneParams(
    targets=5, frames=14, image_width=640.0, image_height=480.0,
    height_range=(40.0, 80.0), speed_range=(2.0, 5.0), noise_std=1.0,
    descriptor_dim=16, feat_noise_std=0.05,
    occlusions_per_target=1, occlusion_len=(2, 3),
)


def _files(scene):
    return format_rows(scene.gt), format_rows(scene.dets), sidecar_bytes(scene)


def test_scene_builder_is_deterministic():
    assert _files(build_scene(TINY, 7)) == _files(build_scene(TINY, 7))
    assert _files(build_scene(TINY, 7)) != _files(build_scene(TINY, 8))


def test_boxes_stay_inside_the_image():
    scene = build_scene(TINY, 3)
    for rows in (scene.gt, scene.dets):
        x, y, w, h = rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
        assert (x >= 0).all() and (y >= 0).all()
        assert (x + w <= TINY.image_width).all() and (y + h <= TINY.image_height).all()


def test_shuffle_keeps_each_descriptor_on_its_own_box(tmp_path):
    from headtrack import dataio
    from headtrack.geometry import iou

    scene = build_scene(TINY, 11)
    shuffled = any(
        (np.diff(scene.det_target[scene.dets[:, 0] == f]) < 0).any()
        for f in range(1, TINY.frames + 1)
    )
    assert shuffled, "detection order within frames was not shuffled"

    paths = write_scene(scene, tmp_path)
    gt_by_frame: dict[int, dict[int, object]] = {}
    for line in dataio.parse_mot(paths["gt"]):
        gt_by_frame.setdefault(line.frame, {})[line.id] = line.bbox()
    frames = dataio.mot_to_detections(
        dataio.parse_mot(paths["dets"]), dataio.read_descriptors(paths["features"])
    )
    checked = 0
    for frame, dets in frames.items():
        for det in dets:
            boxed = max(gt_by_frame[frame], key=lambda tid: iou(det.bbox, gt_by_frame[frame][tid]))
            described = int(np.argmax(scene.bases @ det.descriptor.f_cls)) + 1
            assert boxed == described, f"frame {frame}: descriptor of target {described} on box of {boxed}"
            checked += 1
    assert checked == len(scene.dets)


def test_harness_round_at_tiny_size(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    monkeypatch.setitem(
        bench_run.WORKLOADS, "tiny", bench_run.Workload(TINY, method="se3_kalman", why="smoke")
    )
    b = bench_run.Bench("tiny", seed=5, seconds=1)
    b.prepare()
    b.load_frames()
    times, emissions = b.frame_pass(gauged=True)
    assert len(times) == TINY.frames and emissions
    assert b.frame_pass(gauged=False)[1] == emissions

    runs = {mode: b.pipeline(mode[0] + "0", mode) for mode in ("gauged", "plain", "traced")}
    assert all(r["ok"] for r in runs.values()), b.problems
    assert bench_run.parse_track_file(runs["gauged"]["track_bytes"]) == emissions
    for mode in ("plain", "traced"):
        assert runs[mode]["track_bytes"] == runs["gauged"]["track_bytes"]
        assert runs[mode]["report"] == runs["gauged"]["report"]
    gauged = runs["gauged"]
    assert len(gauged["setup_s"]) == len(bench_run.VERBS)
    assert all(0 < s < gauged[f"{v}_s"] for s, v in zip(gauged["setup_s"], bench_run.VERBS))
    assert b.failed == 0, b.problems

    docs = {v: json.loads((b.work / f"t0.{v}.json").read_text()) for v in bench_run.VERBS}
    metrics, absent = bench_run.layer_metrics(docs)
    assert not absent
    assert metrics["tracker.live_tracks_max"][0] == TINY.targets
    assert metrics["dataio.descriptors"][0] == len(b.scene.dets)
    assert metrics["metrics.gt_ids"][0] == TINY.targets


def test_scaled_time_leaves_gauge_runs_out_and_scales_by_their_neighbours():
    from gauge import CHUNK_REF_S as ref
    from gauge import scaled_time

    runs = [[1.0, ref], [2.0, 2 * ref]]  # the machine halves its speed between them
    assert scaled_time(0.5, 1.0, runs) == 0.5
    gap = 2.0 - (1.0 + ref)
    assert abs(scaled_time(1.0 + ref, 2.0, runs) - gap / 1.5) < 1e-12
    whole = 0.5 + gap / 1.5 + (3.0 - (2.0 + 2 * ref)) / 2
    assert abs(scaled_time(0.5, 3.0, runs) - whole) < 1e-12
