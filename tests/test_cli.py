import collections
import contextlib
import dataclasses
import io
import json
import shutil
import struct
import warnings

import pytest

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headtrack import cli, dataio, label_assign, lifting, tracker
from headtrack.association import AppearanceDescriptor, AssociationConfig
from headtrack.dataio import SceneSpec, parse_mot, read_descriptors, write_descriptors
from headtrack.geometry import HeadKeypoint
from headtrack.tracker import TrackerConfig

SCENE = """
targets = 4
motion = crossing
frames = 30
seed = 42
"""

SCENE_OCCLUDED = """
targets = 2
motion = linear
frames = 30
seed = 5
occlusion = 1:10-21
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def raw_sidecar(path, *records):
    """An f_cls-only sidecar written byte by byte from (frame, det_index, *f_cls) tuples.

    For records the writer does not take: a repeated key, a vector that
    is not unit-norm.
    """
    dim = len(records[0]) - 2 if records else 0
    path.write_bytes(struct.pack("<4sHIIIQ", b"FTFV", 1, dim, 0, 0, len(records))
                     + b"".join(struct.pack(f"<II{dim}f", *r) for r in records))
    return path


@pytest.fixture
def sim_dir(tmp_path):
    spec = write(tmp_path / "scene.cfg", SCENE)
    out = tmp_path / "scene"
    assert cli.main(["simulate", "--spec", spec, "--out-dir", str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_expected_files(self, sim_dir):
        assert (sim_dir / "gt.txt").exists()
        assert (sim_dir / "det.txt").exists()
        assert (sim_dir / "features.ftfv").exists()

    def test_bad_scene_key_is_data_error(self, tmp_path, capsys):
        spec = write(tmp_path / "scene.cfg", "walls = 5\n")
        assert cli.main(["simulate", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2


class TestTrack:
    def test_single_target_single_id(self, tmp_path):
        spec = write(tmp_path / "scene.cfg", "targets = 1\nmotion = linear\nframes = 25\n")
        cli.main(["simulate", "--spec", spec, "--out-dir", str(tmp_path / "s")])
        out = tmp_path / "res.txt"
        code = cli.main(
            [
                "track",
                "--dets", str(tmp_path / "s" / "det.txt"),
                "--features", str(tmp_path / "s" / "features.ftfv"),
                "--out", str(out),
                "--min-hits", "1",
            ]
        )
        assert code == 0
        lines = parse_mot(out)
        assert len(lines) == 25
        assert {l.id for l in lines} == {1}

    def test_gap_longer_than_patience_splits_id(self, tmp_path):
        spec = write(tmp_path / "scene.cfg", SCENE_OCCLUDED)
        cli.main(["simulate", "--spec", spec, "--out-dir", str(tmp_path / "s")])
        out = tmp_path / "res.txt"
        cli.main(
            [
                "track",
                "--dets", str(tmp_path / "s" / "det.txt"),
                "--features", str(tmp_path / "s" / "features.ftfv"),
                "--out", str(out),
                "--min-hits", "1",
                "--patience-w", "5",
                "--w-app", "0",
                "--w-mot", "1",
            ]
        )
        lines = parse_mot(out)
        # occluded target resurfaces under a fresh id: 3 ids total
        assert len({l.id for l in lines}) == 3

    def test_dead_time_is_skipped(self, tmp_path, monkeypatch):
        # once no track is live, a step only moves the frame: jump to the next detections
        calls = []
        step = tracker.Tracker.step

        def counted(self, frame, detections):
            calls.append(frame)
            return step(self, frame, detections)

        monkeypatch.setattr(tracker.Tracker, "step", counted)
        rows = ["1,-1,100,100,40,80,1,-1,-1,-1", f"{10**9},-1,100,100,40,80,1,-1,-1,-1"]
        dets = write(tmp_path / "det.txt", "\n".join(rows) + "\n")
        out = tmp_path / "res.txt"
        assert cli.main(["track", "--dets", dets, "--out", str(out), "--min-hits", "1"]) == 0
        patience = cli.RunConfig().patience_w
        assert calls == list(range(1, patience + 2)) + [10**9]
        assert [(l.frame, l.id) for l in parse_mot(out)] == [(1, 1), (10**9, 2)]

    def test_dead_time_skip_keeps_output(self, tmp_path):
        # two walkers that vanish at frames 10 and 20 and coast, then one more
        # at frames 500-503: the same output as stepping every frame
        rows = [f"{f},-1,{100 + 5 * f},100,40,80,1,-1,-1,-1" for f in range(1, 11)]
        rows += [f"{f},-1,{800 - 5 * f},400,40,80,1,-1,-1,-1" for f in range(1, 21)]
        rows += [f"{f},-1,300,300,40,80,1,-1,-1,-1" for f in range(500, 504)]
        dets = write(tmp_path / "det.txt", "\n".join(rows) + "\n")
        cfg = cli.RunConfig(min_hits=1, emit_predictions=True, patience_w=5)
        out = tmp_path / "res.txt"
        cli.run_track_file(dets, None, out, cfg)
        tracking = tracker.Tracker(cli.tracker_config(cfg))
        frames = cli.dataio.mot_to_detections(parse_mot(dets))
        expected = [
            (f, tid, b) for f in range(1, max(frames) + 1) for tid, b in tracking.step(f, frames.get(f, []))
        ]
        assert out.read_text() == cli.dataio.format_mot(cli.dataio.MotTable.from_rows(expected))
        assert {l.frame for l in parse_mot(out)} >= set(range(11, 25))  # coasted boxes

    def test_deterministic_output(self, sim_dir, tmp_path):
        blobs = []
        for k in range(3):
            out = tmp_path / f"res{k}.txt"
            cli.main(
                [
                    "track",
                    "--dets", str(sim_dir / "det.txt"),
                    "--features", str(sim_dir / "features.ftfv"),
                    "--out", str(out),
                    "--min-hits", "1",
                ]
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_directory_batch_mode(self, sim_dir, tmp_path):
        dets_dir = tmp_path / "seqs"
        dets_dir.mkdir()
        for name in ("a.txt", "b.txt"):
            (dets_dir / name).write_bytes((sim_dir / "det.txt").read_bytes())
        out_dir = tmp_path / "results"
        code = cli.main(
            [
                "track",
                "--dets", str(dets_dir),
                "--out", str(out_dir),
                "--min-hits", "1",
                "--w-app", "0", "--w-mot", "1",
            ]
        )
        assert code == 0
        assert (out_dir / "a.txt").read_bytes() == (out_dir / "b.txt").read_bytes()

    def test_nan_descriptor_is_data_error(self, tmp_path, capsys):
        dets = write(tmp_path / "det.txt", "".join(
            f"{f},-1,100,100,40,100,1,-1,-1,-1\n" for f in (1, 2, 3)
        ))
        vectors = [(1.0, 0.0), (np.nan, 0.0), (1.0, 0.0)]
        sidecar = raw_sidecar(tmp_path / "features.ftfv", *((f, 0, *v) for f, v in zip((1, 2, 3), vectors)))
        out = tmp_path / "res.txt"
        code = cli.main(["track", "--dets", dets, "--features", str(sidecar), "--out", str(out)])
        assert code == 2
        assert "f_cls for (2,0) is not unit-norm" in capsys.readouterr().err
        assert not out.exists()


class TestDirectorySidecars:
    @pytest.fixture
    def seq_dirs(self, sim_dir, tmp_path):
        """Sequences a and b share detections; b's sidecar swaps identities from frame 15."""
        dets_dir, feats_dir = tmp_path / "seqs", tmp_path / "feats"
        dets_dir.mkdir()
        feats_dir.mkdir()
        for name in ("a", "b"):
            (dets_dir / f"{name}.txt").write_bytes((sim_dir / "det.txt").read_bytes())
        (feats_dir / "a.ftfv").write_bytes((sim_dir / "features.ftfv").read_bytes())
        swapped = {
            (f, k): AppearanceDescriptor(f_cls=np.roll(d.f_cls, 1)) if f >= 15 else d
            for (f, k), d in read_descriptors(sim_dir / "features.ftfv").items()
        }
        write_descriptors(feats_dir / "b.ftfv", swapped)
        return dets_dir, feats_dir

    def test_each_sequence_reads_its_own_sidecar(self, seq_dirs, tmp_path):
        dets_dir, feats_dir = seq_dirs
        out_dir = tmp_path / "results"
        track = ["track", "--min-hits", "1"]
        assert cli.main(track + ["--dets", str(dets_dir), "--features", str(feats_dir),
                                 "--out", str(out_dir)]) == 0
        for name in ("a", "b"):
            alone = tmp_path / f"{name}_alone.txt"
            assert cli.main(track + ["--dets", str(dets_dir / f"{name}.txt"),
                                     "--features", str(feats_dir / f"{name}.ftfv"),
                                     "--out", str(alone)]) == 0
            assert (out_dir / f"{name}.txt").read_bytes() == alone.read_bytes()
        assert (out_dir / "a.txt").read_bytes() != (out_dir / "b.txt").read_bytes()

    def test_sidecar_file_with_directory_is_data_error(self, seq_dirs, tmp_path, capsys):
        dets_dir, feats_dir = seq_dirs
        sidecar = feats_dir / "a.ftfv"
        code = cli.main(["track", "--dets", str(dets_dir), "--features", str(sidecar),
                         "--out", str(tmp_path / "results")])
        assert code == 2
        assert str(sidecar) in capsys.readouterr().err

    def test_missing_sequence_sidecar_is_data_error(self, seq_dirs, tmp_path, capsys):
        dets_dir, feats_dir = seq_dirs
        (feats_dir / "b.ftfv").unlink()
        code = cli.main(["track", "--dets", str(dets_dir), "--features", str(feats_dir),
                         "--out", str(tmp_path / "results")])
        assert code == 2
        assert str(feats_dir / "b.ftfv") in capsys.readouterr().err
        assert not (tmp_path / "results").exists()


class TestEvaluate:
    def test_gt_against_itself_is_perfect(self, sim_dir, capsys):
        code = cli.main(
            ["evaluate", "--gt", str(sim_dir / "gt.txt"), "--result", str(sim_dir / "gt.txt")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MOTA=1.000000" in out
        assert "IDF1=1.000000" in out
        assert "FP=0" in out and "FN=0" in out and "IDS=0" in out

    def test_tracked_scene_scores_perfectly(self, sim_dir, tmp_path, capsys):
        res = tmp_path / "res.txt"
        cli.main(
            [
                "track",
                "--dets", str(sim_dir / "det.txt"),
                "--features", str(sim_dir / "features.ftfv"),
                "--out", str(res),
                "--min-hits", "1",
            ]
        )
        cli.main(["evaluate", "--gt", str(sim_dir / "gt.txt"), "--result", str(res)])
        out = capsys.readouterr().out
        assert "MOTA=1.000000" in out

    @pytest.mark.parametrize("side", ["gt", "result"])
    def test_duplicate_id_names_file_line_frame_and_id(self, tmp_path, capsys, side):
        good = write(tmp_path / "good.txt", "1,3,0,0,10,20,1,-1,-1,-1\n2,3,1,0,10,20,1,-1,-1,-1\n")
        rows = ["1,3,0,0,10,20,1,-1,-1,-1", "2,3,1,0,10,20,1,-1,-1,-1", "",
                "2,3,9,0,10,20,1,-1,-1,-1"]
        bad = write(tmp_path / "bad.txt", "\n".join(rows) + "\n")
        files = {"gt": good, "result": good, side: bad}
        assert cli.main(["evaluate", "--gt", files["gt"], "--result", files["result"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}: line 4: frame 2 repeats id 3 (first on line 2)" in captured.err


class TestInterpolate:
    def test_gap_free_file_unchanged(self, sim_dir, tmp_path):
        out = tmp_path / "interp.txt"
        code = cli.main(
            [
                "interpolate",
                "--input", str(sim_dir / "gt.txt"),
                "--method", "linear2d",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (sim_dir / "gt.txt").read_bytes()

    def test_fills_track_gaps(self, tmp_path):
        rows = ["1,1,0,0,10,20,1,-1,-1,-1", "5,1,8,0,10,20,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        cli.main(["interpolate", "--input", inp, "--method", "linear2d", "--out", str(out)])
        lines = list(parse_mot(out))
        assert [l.frame for l in lines] == [1, 2, 3, 4, 5]
        assert lines[2].box.x == pytest.approx(4.0)

    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_box_above_image_is_filled(self, tmp_path, method):
        # y + h < 0: the box lies wholly above the image top, a legal MOT row
        rows = ["1,1,100,-200,40,80,1,-1,-1,-1", "4,1,130,-190,40,80,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        assert cli.main(["interpolate", "--input", inp, "--method", method, "--out", str(out)]) == 0
        assert [l.frame for l in parse_mot(out)] == [1, 2, 3, 4]

    def test_non_finite_trailing_fields_written_back(self, tmp_path):
        src = write(tmp_path / "r.txt", "1,1,10,10,20,40,1,inf,-inf,nan\n3,1,14,10,20,40,1,-1,-1,-1\n")
        out = tmp_path / "f.txt"
        assert cli.main(["interpolate", "--input", src, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "1,1,10,10,20,40,1,inf,-inf,nan"

    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_observed_rows_written_as_parsed(self, tmp_path, method):
        rows = ["1,1,0,0,10,20,0.5,1,2,3", "3,1,8,0,10,20,0.25,-1,-1,7"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        assert cli.main(["interpolate", "--input", inp, "--method", method, "--out", str(out)]) == 0
        first, gap, last = out.read_text().splitlines()
        assert (first, last) == tuple(rows)
        assert gap.startswith("2,1,") and gap.split(",")[6:] == ["1", "-1", "-1", "-1"]

    def test_branch_cut_names_the_track(self, tmp_path, capsys):
        # a U-turn across the gap: the anchors at frames 3 and 6 face opposite
        # ways, so that gap is left open and every other track is still filled
        rows = [f"{f},7,{x},50,40,80,1,-1,-1,-1" for f, x in
                [(1, 100), (2, 110), (3, 120), (6, 150), (7, 140)]]
        rows += ["1,8,0,0,10,20,1,-1,-1,-1", "4,8,6,0,10,20,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        args = ["interpolate", "--input", inp, "--method", "se3_linear", "--out", str(out)]
        assert cli.main(args) == 0
        err = capsys.readouterr().err
        assert "track 7: gap 4-5 left unfilled" in err and "principal branch" in err
        frames = {}
        for l in parse_mot(out):
            frames.setdefault(l.id, []).append(l.frame)
        assert frames == {7: [1, 2, 3, 6, 7], 8: [1, 2, 3, 4]}

    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_duplicate_frame_and_id_rejected(self, tmp_path, capsys, method):
        rows = ["1,1,0,0,10,20,1,-1,-1,-1", "1,1,2,0,10,20,1,-1,-1,-1", "5,1,8,0,10,20,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        assert cli.main(["interpolate", "--input", inp, "--method", method, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{inp}: line 2: frame 1 repeats id 1 (first on line 1)" in err
        assert not out.exists()

    def test_zero_smoother_noise_names_the_track(self, tmp_path, capsys):
        rows = ["1,4,0,0,10,20,1,-1,-1,-1", "2,4,2,0,10,20,1,-1,-1,-1", "5,4,8,0,10,20,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        args = ["interpolate", "--input", inp, "--method", "se3_kalman", "--out", str(out)]
        assert cli.main(args + ["--se3-process-std", "0", "--se3-meas-std", "0"]) == 2
        err = capsys.readouterr().err
        assert "track 4" in err and "singular" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_overflowing_centres_name_the_track(self, tmp_path, capsys, method):
        # legal centres whose differences overflow to inf
        rows = ["1,5,1e308,0,40,80,1,-1,-1,-1", "2,5,-1e308,0,40,80,1,-1,-1,-1",
                "4,5,1e308,0,40,80,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        assert cli.main(["interpolate", "--input", inp, "--method", method, "--out", str(out)]) == 2
        assert "track 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, name", [("--se3-meas-std", "meas_std"), ("--se3-process-std", "process_std")]
    )
    def test_overflowing_smoother_std_rejected(self, sim_dir, tmp_path, capsys, flag, name):
        # 1e200 is finite, but its square, which the smoother uses, is not
        out = tmp_path / "out.txt"
        args = ["interpolate", "--input", str(sim_dir / "gt.txt"), "--method", "se3_kalman"]
        assert cli.main(args + ["--out", str(out), flag, "1e200"]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_deleted_method_is_usage_error(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as e:
            cli.main(["interpolate", "--input", str(sim_dir / "gt.txt"),
                      "--method", "linear3d", "--out", str(tmp_path / "out.txt")])
        assert e.value.code == 1


class TestExtremeValuesQuiet:
    """Legal values near the float limit keep their exit codes and print no numpy warning."""

    def run(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert [str(w.message) for w in caught] == []
        return code, capsys.readouterr().err

    def test_track_box_near_limit(self, tmp_path, capsys):
        dets = write(tmp_path / "det.txt", "1,-1,100,100,40,1e308,1,-1,-1,-1\n"
                                           "2,-1,100,100,40,1e308,1,-1,-1,-1\n")
        out = tmp_path / "out.txt"
        args = ["track", "--dets", dets, "--out", str(out), "--min-hits", "1"]
        assert self.run(args, capsys) == (0, "")
        assert len(parse_mot(out)) == 2

    def test_simulate_box_near_limit(self, tmp_path, capsys):
        spec = write(tmp_path / "scene.cfg", "targets = 1\nframes = 3\nbox_height = 1e300\n")
        code, err = self.run(["simulate", "--spec", spec, "--out-dir", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        assert len(parse_mot(tmp_path / "gt.txt")) == 3
        # two such boxes: their areas overflow, so their IoU is nan, which is a clash
        spec = write(tmp_path / "two.cfg", "targets = 2\nframes = 3\nbox_height = 1e300\n")
        code, err = self.run(["simulate", "--spec", spec, "--out-dir", str(tmp_path / "o")], capsys)
        assert (code, err) == (2, f"headtrack: {spec}: targets 1 and 2 overlap at spawn\n")
        assert not (tmp_path / "o").exists()

    def test_simulate_descriptor_noise_near_limit(self, tmp_path, capsys):
        # the vectors' norms overflow: simulate wrote zero vectors, which track rejected
        spec = write(tmp_path / "scene.cfg", "targets = 2\nframes = 3\nfeat_noise_std = 1e300\n")
        code, err = self.run(["simulate", "--spec", spec, "--out-dir", str(tmp_path / "o")], capsys)
        assert (code, err) == (2, f"headtrack: {spec}: f_cls must be unit-norm (got |v| = 0.0)\n")
        assert not (tmp_path / "o").exists()

    def test_track_h_min_near_limit(self, sim_dir, tmp_path, capsys):
        # (meas_std_weight * h_min)^2 is finite: the rows it diverges are removed quietly
        out = tmp_path / "o.txt"
        args = ["track", "--dets", str(sim_dir / "det.txt"), "--out", str(out), "--h-min", "1e155"]
        assert self.run(args, capsys) == (0, "")
        assert out.exists()

    def test_track_h_min_whose_variance_overflows(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "o.txt"
        args = ["track", "--dets", str(sim_dir / "det.txt"), "--out", str(out), "--h-min", "1e156"]
        assert self.run(args, capsys) == (
            2, "headtrack: h_min 1e+156 makes the measurement variance inf, outside (0, inf)\n")
        assert not out.exists()

    def test_se3_linear_centres_near_limit(self, tmp_path, capsys):
        rows = ["1,5,1e308,0,40,80,1,-1,-1,-1", "2,5,-1e308,0,40,80,1,-1,-1,-1",
                "4,5,1e308,0,40,80,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        args = ["interpolate", "--input", inp, "--method", "se3_linear", "--out", str(tmp_path / "o")]
        assert self.run(args, capsys) == (2, f"headtrack: {inp}: track 5: twist must be finite\n")


# one anchor and one target; the two %s add fields to the anchor, then to the target
ASSIGN_ONE = '{"anchors": [{"cx": 5, "cy": 5, "box": [0, 0, 10, 10]%s}], "gts": [{"box": [0, 0, 10, 10]%s}]}'


class TestAssign:
    def test_table_matches_module_oracle(self, tmp_path, capsys):
        doc = {
            "anchors": [
                {"cx": 50, "cy": 50, "box": [0, 0, 100, 90], "cls": 0.9},
                {"cx": 50, "cy": 50, "box": [0, 0, 100, 80], "cls": 0.9},
                {"cx": 50, "cy": 50, "box": [0, 0, 100, 5], "cls": 0.9},
                {"cx": 50, "cy": 50, "box": [0, 95, 100, 100], "cls": 0.9},
            ],
            "gts": [{"box": [0, 0, 100, 100]}],
        }
        scene = write(tmp_path / "scene.json", json.dumps(doc))
        assert cli.main(["assign", "--scene", scene]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = [line.split() for line in out[1:]]
        assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("0", "1")]

    @pytest.mark.parametrize("text,message", [
        ("{not json", "Expecting property name enclosed in double quotes"),
        ('[{"anchors": []}]', "scene must be a JSON object with 'anchors' and 'gts' lists"),
        ('{"anchors": [{"cx": 5, "cy": 5, "box": [0, 0, -10, 10]}], "gts": []}',
         "anchor 0: box extent must be positive, got w=-10, h=10"),
        ('{"anchors": [], "gts": [{"box": [0, 0, 10, 10]}, {"box": [0, 0, 10]}]}',
         "gt 1: BBox.__init__() missing 1 required positional argument"),
        ('{"anchors": [{"cy": 5, "box": [0, 0, 10, 10]}], "gts": []}', "anchor 0: missing key 'cx'"),
        # fields that are not numbers, or not finite, name their entry
        (ASSIGN_ONE % (', "stride": "x"', ""), "anchor 0: stride must be a positive finite number, got 'x'"),
        (ASSIGN_ONE % (', "stride": null', ""), "anchor 0: stride must be a positive finite number, got None"),
        (ASSIGN_ONE % (', "stride": 1e400', ""), "anchor 0: stride must be a positive finite number, got inf"),
        ('{"anchors": [{"cx": 5, "cy": [50], "head": [5, 5, 1], "box": [0, 0, 10, 10]}], "gts": []}',
         "anchor 0: cx and cy must be finite numbers, got (5, [50])"),
        (ASSIGN_ONE % ("", ', "center_radius": "r"'),
         "gt 0: center_radius must be None or a finite number >= 0, got 'r'"),
        (ASSIGN_ONE % ("", ', "center_radius": [1]'),
         "gt 0: center_radius must be None or a finite number >= 0, got [1]"),
    ])
    def test_bad_scene_is_data_error_naming_the_file(self, tmp_path, capsys, text, message):
        scene = write(tmp_path / "scene.json", text)
        assert cli.main(["assign", "--scene", scene]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"headtrack: {scene}: {message}")


class TestConfigHandling:
    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        spec = write(tmp_path / "scene.cfg", SCENE)
        # the keys after warp_speed were keys once; they changed no output
        deleted = ("sigma", "epsilon_conv", "max_iters", "d_min", "depth_eta", "y_normalized",
                   "rotation_mode")
        for key in ("warp_speed",) + deleted:
            cfgfile = write(tmp_path / "run.cfg", f"{key} = 9\n")
            code = cli.main(
                ["simulate", "--spec", spec, "--out-dir", str(tmp_path / "o"), "--config", cfgfile]
            )
            assert code == 2
            assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_non_finite_value_rejected(self, sim_dir, tmp_path, capsys):
        track = ["track", "--dets", str(sim_dir / "det.txt"), "--out", str(tmp_path / "o.txt")]
        cfgfile = write(tmp_path / "run.cfg", "init_score_min = nan\n")
        assert cli.main(track + ["--config", cfgfile]) == 2
        assert "key init_score_min" in capsys.readouterr().err
        assert cli.main(track + ["--gate-g", "inf"]) == 2
        assert "key gate_g" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_h_min_rejected(self, sim_dir, tmp_path, capsys, value):
        # a height clamp of 0 or below would let a measurement variance reach 0
        track = ["track", "--dets", str(sim_dir / "det.txt"), "--out", str(tmp_path / "o.txt")]
        assert cli.main(track + ["--h-min", value]) == 2
        assert "h_min must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    def test_negative_motion_scale_rejected(self, sim_dir, tmp_path, capsys):
        # only 0 means the image diagonal; a negative scale used to run as 0
        track = ["track", "--dets", str(sim_dir / "det.txt")]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main(track + ["--out", str(a), "--motion-scale", "-5"]) == 2
        assert "key motion_scale: expected >= 0" in capsys.readouterr().err
        assert not a.exists()
        assert cli.main(track + ["--out", str(a), "--motion-scale", "0"]) == 0
        assert cli.main(track + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_directory_path_is_data_error(self, sim_dir, tmp_path, capsys):
        gt = str(sim_dir / "gt.txt")
        evaluate = ["evaluate", "--gt", gt, "--result", gt]
        assert cli.main(evaluate + ["--config", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert cli.main(["track", "--dets", str(sim_dir / "det.txt"), "--out", str(out_dir)]) == 2
        assert str(out_dir) in capsys.readouterr().err

    def test_negative_exponent_flag_value(self, sim_dir, tmp_path, capsys):
        track = ["track", "--dets", str(sim_dir / "det.txt")]
        a = tmp_path / "a.txt"
        for flag in (["--motion-scale", "-1e-3"], ["--motion-scale=-1e-3"]):
            # read as a value, it reaches the range check (exit 2), not the parser (exit 1)
            assert cli.main(track + ["--out", str(a)] + flag) == 2
            assert "key motion_scale: expected >= 0" in capsys.readouterr().err
        assert not a.exists()
        assert cli.main(track + ["--out", str(a), "--gate-g", "-1e-3"]) == 2
        assert "gate must be positive" in capsys.readouterr().err

    def test_config_file_and_override_precedence(self, tmp_path):
        cfgfile = write(tmp_path / "run.cfg", "seed = 7\nimage_width = 640\n")
        cfg = cli.load_config(cfgfile, {"seed": "9"})
        assert cfg.seed == 9  # flag beats file
        assert cfg.image_width == 640.0  # file beats default
        assert cfg.patience_w == 30  # default untouched

    def test_bool_coercion(self, tmp_path):
        cfgfile = write(tmp_path / "run.cfg", "emit_predictions = true\n")
        assert cli.load_config(cfgfile).emit_predictions is True
        with pytest.raises(cli.ConfigError):
            cli.load_config(write(tmp_path / "bad.cfg", "emit_predictions = maybe\n"))

    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["track", "--help"])
        assert e.value.code == 0
        # argparse re-wraps help lines, so compare with whitespace removed
        text = "".join(capsys.readouterr().out.split())
        for f in dataclasses.fields(cli.RunConfig):
            flag = f"--{f.name.replace('_', '-')}V"
            assert "".join(f"{flag}{f.metadata['help']} (default {f.default})".split()) in text

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["track"])  # missing required arguments
        assert e.value.code == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = cli.main(
            ["track", "--dets", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.txt")]
        )
        assert code == 2


# One non-default value per scene spec key (every SceneSpec field but the
# raw occlusions, which the occlusion key fills).
SCENE_VALUES = {
    "targets": 3, "motion": "linear", "frames": 12, "image_width": 640.0,
    "image_height": 480.0, "box_height": 40.0, "noise_std": 1.5, "feat_noise_std": 0.25,
    "descriptor_dim": 6, "seed": 9,
}


class TestSettingsStatedOnce:
    """RunConfig's defaults are those of the library configs that own the keys."""

    def test_annotation_matches_default_type(self):
        # load_config parses a key as the type of its default
        for f in dataclasses.fields(cli.RunConfig):
            assert type(f.default).__name__ == f.type, f.name

    def test_tracker_config_defaults(self):
        cfg = cli.RunConfig()
        diagonal = float(np.hypot(cfg.image_width, cfg.image_height))
        expected = TrackerConfig(assoc=AssociationConfig(motion_scale=diagonal))
        assert cli.tracker_config(cfg) == expected
        assert (cfg.image_width, cfg.image_height) == (1920.0, 1080.0)

    def test_lifting_and_assign_defaults(self, sim_dir, tmp_path, monkeypatch):
        seen = []
        complete, tables = lifting.complete, label_assign.assign_tables
        monkeypatch.setattr(lifting, "complete", lambda t, m, c: seen.append(c) or complete(t, m, c))
        monkeypatch.setattr(label_assign, "assign_tables", lambda a, g, c: seen.append(c) or tables(a, g, c))
        gt = str(sim_dir / "gt.txt")
        assert cli.main(["interpolate", "--input", gt, "--out", str(tmp_path / "o.txt")]) == 0
        doc = {"anchors": [{"cx": 5, "cy": 5, "box": [0, 0, 10, 10]}], "gts": [{"box": [0, 0, 10, 10]}]}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["assign", "--scene", write(tmp_path / "s.json", json.dumps(doc))]) == 0
        assert seen[0] == lifting.LiftingConfig() and seen[-1] == label_assign.AssignConfig()

    def test_empty_spec_is_scene_spec_defaults(self, tmp_path):
        spec = write(tmp_path / "scene.cfg", "# no keys\n\n")
        assert cli.parse_scene_spec(spec, cli.RunConfig()) == SceneSpec()

    def test_scene_values_cover_every_key(self):
        fields = {f.name for f in dataclasses.fields(SceneSpec)}
        assert set(SCENE_VALUES) == fields - {"occlusions"}

    @pytest.mark.parametrize("key", sorted(SCENE_VALUES))
    def test_scene_key_round_trips(self, tmp_path, key):
        value = SCENE_VALUES[key]
        spec = write(tmp_path / "scene.cfg", f"{key} = {value}\n")
        parsed = cli.parse_scene_spec(spec, cli.RunConfig())
        assert parsed == dataclasses.replace(SceneSpec(), **{key: value})
        assert type(getattr(parsed, key)) is type(value)

    def test_occlusion_key_and_raw_field(self, tmp_path):
        spec = write(tmp_path / "scene.cfg", "occlusion = 1:2-3; 2:4-5\n")
        assert cli.parse_scene_spec(spec, cli.RunConfig()).occlusions == ((1, 2, 3), (2, 4, 5))
        spec = write(tmp_path / "raw.cfg", "occlusions = 1:2-3\n")
        with pytest.raises(cli.ConfigError, match="raw.cfg:1: unknown scene key 'occlusions'"):
            cli.parse_scene_spec(spec, cli.RunConfig())

    def test_config_file_value_survives_unset_flag(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._VERBS, "evaluate", lambda args, cfg: seen.append(cfg) or 0)
        cfgfile = write(tmp_path / "run.cfg", "iou_threshold = 0.7\nseed = 4\n")
        argv = ["evaluate", "--gt", "g.txt", "--result", "r.txt", "--config", cfgfile]
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--seed", "5"]) == 0
        assert seen[0] == dataclasses.replace(cli.RunConfig(), iou_threshold=0.7, seed=4)
        assert seen[1] == dataclasses.replace(cli.RunConfig(), iou_threshold=0.7, seed=5)

    def test_spec_value_survives_unset_flag(self, tmp_path, monkeypatch):
        specs = []
        generate = cli.dataio.generate_scene
        monkeypatch.setattr(cli.dataio, "generate_scene", lambda s: specs.append(s) or generate(s))
        spec = write(tmp_path / "scene.cfg", "targets = 2\nframes = 3\nimage_width = 640\n")
        argv = ["simulate", "--spec", spec, "--out-dir", str(tmp_path / "o")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
            assert cli.main(argv + ["--image-height", "480", "--image-width", "800"]) == 0
        assert (specs[0].image_width, specs[0].image_height) == (640.0, 1080.0)
        assert (specs[1].image_width, specs[1].image_height) == (800.0, 480.0)


ROWS = ["1,1,10,10,20,40,1,-1,-1,-1", "2,1,12,10,20,40,1,-1,-1,-1", "3,1,14,10,20,40,1,-1,-1,-1"]


def rows_with(path, field, value):
    """ROWS written to ``path`` with one field of its third line replaced."""
    rows = [line.split(",") for line in ROWS]
    rows[2][field] = value
    return write(path, "".join(",".join(r) + "\n" for r in rows))


class TestBadRowsNameFileAndLine:
    VERBS = ["track", "interpolate", "evaluate --gt", "evaluate --result"]

    @staticmethod
    def argv(verb, bad, good, out):
        return {
            "track": ["track", "--dets", bad, "--out", out],
            "interpolate": ["interpolate", "--input", bad, "--out", out],
            "evaluate --gt": ["evaluate", "--gt", bad, "--result", good],
            "evaluate --result": ["evaluate", "--gt", good, "--result", bad],
        }[verb]

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("field,value,message", [
        (2, "nan", "box coordinates must be finite"),
        (3, "-inf", "box coordinates must be finite"),
        (4, "-40", "box extent must be positive, got w=-40.0, h=40.0"),
        (5, "0", "box extent must be positive, got w=20.0, h=0.0"),
    ])
    def test_bad_box_field(self, tmp_path, capsys, verb, field, value, message):
        bad = rows_with(tmp_path / "bad.txt", field, value)
        good = write(tmp_path / "good.txt", "\n".join(ROWS))
        out = tmp_path / "o.txt"
        assert cli.main(self.argv(verb, bad, good, str(out))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"headtrack: {bad}: line 3: {message}" in captured.err
        assert not out.exists()

    def test_non_finite_score(self, tmp_path, capsys):
        dets = rows_with(tmp_path / "det.txt", 6, "nan")
        assert cli.main(["track", "--dets", dets, "--out", str(tmp_path / "o.txt")]) == 2
        assert f"{dets}: line 3: detection score must be finite" in capsys.readouterr().err

    def test_head_visibility_out_of_range(self, tmp_path, capsys):
        dets = rows_with(tmp_path / "det.txt", 9, "1.5")
        track = ["track", "--dets", dets, "--out", str(tmp_path / "o.txt")]
        assert cli.main(track) == 0  # without --head-format the trailing fields are not read
        assert cli.main(track + ["--head-format"]) == 2
        assert f"{dets}: line 3: visibility must lie in [0, 1], got 1.5" in capsys.readouterr().err


class TestSidecarMatchesDetections:
    @pytest.fixture
    def dets(self, tmp_path):
        return write(tmp_path / "det.txt", "\n".join(ROWS))

    def track(self, tmp_path, dets, keys):
        sidecar = raw_sidecar(tmp_path / "features.ftfv", *((f, k, 1.0, 0.0) for f, k in keys))
        out = tmp_path / "o.txt"
        code = cli.main(["track", "--dets", dets, "--features", str(sidecar), "--out", str(out)])
        return code, sidecar, out

    def test_matching_sidecar_runs(self, tmp_path, dets):
        code, _, out = self.track(tmp_path, dets, [(1, 0), (3, 0)])
        assert code == 0 and out.exists()

    def test_repeated_record(self, tmp_path, capsys, dets):
        code, sidecar, out = self.track(tmp_path, dets, [(1, 0), (2, 0), (1, 0)])
        assert code == 2 and not out.exists()
        assert f"{sidecar}: record 3 repeats (frame, det_index) (1,0)" in capsys.readouterr().err

    @pytest.mark.parametrize("orphan", [(2, 1), (4, 0)])
    def test_record_without_detection(self, tmp_path, capsys, dets, orphan):
        code, sidecar, out = self.track(tmp_path, dets, [(1, 0), orphan, (3, 0)])
        assert code == 2 and not out.exists()
        expected = f"{sidecar}: record ({orphan[0]},{orphan[1]}) names no detection line"
        assert expected in capsys.readouterr().err


TWO_BAD_FRAMES = (  # line 2 holds frame 2 and line 3 frame 1, both with a bad score
    "1,-1,10,10,20,40,1,-1,-1,-1\n2,-1,10,10,20,40,nan,-1,-1,-1\n1,-1,50,10,20,40,inf,-1,-1,-1\n"
)


class TestColumnChecksNameTheFirstError:
    """The row and record checks run on whole columns, and exit as the row-by-row checks did."""

    @pytest.mark.parametrize("text,flags,message", [
        (TWO_BAD_FRAMES, [], "line 3: detection score must be finite"),
        (TWO_BAD_FRAMES, ["--head-format"], "line 3: detection score must be finite"),
        ("1,-1,10,10,20,40,1,5,3,0.5\n1,-1,50,10,20,40,nan,5,3,1.5\n", ["--head-format"],
         "line 2: visibility must lie in [0, 1], got 1.5"),
        ("1,-1,10,10,20,40,1,5,3,0.5\n1,-1,50,10,20,40,nan,inf,3,0.5\n", ["--head-format"],
         "line 2: head coordinates must be finite"),
        ("1,-1,10,10,20,40,1,5,3,0.5\n1,-1,50,10,20,40,nan,5,3,1.5\n", [], "line 2: detection score must be finite"),
    ], ids=["frames", "frames, head format", "head visibility", "head coordinates", "score"])
    @pytest.mark.parametrize("orphan", [False, True], ids=["rows", "rows and orphan record"])
    def test_first_error(self, tmp_path, capsys, text, flags, message, orphan):
        dets = write(tmp_path / "det.txt", text)
        out = tmp_path / "o.txt"
        argv = ["track", "--dets", dets, "--out", str(out), *flags]
        if orphan:  # record (2,1) names no line either way, and the bad row is still named
            sidecar = raw_sidecar(tmp_path / "f.ftfv", (1, 0, 1.0), (2, 1, 1.0))
            argv += ["--features", str(sidecar)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"headtrack: {dets}: {message}\n"
        assert not out.exists()

    def test_track_builds_no_row_objects(self, tmp_path, monkeypatch):
        dets, features = heads_scene(tmp_path)
        built = collections.Counter()
        for cls in (tracker.Detection, AppearanceDescriptor, HeadKeypoint):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda obj, check=check: built.update([type(obj)]) or check(obj))
        argv = ["track", "--dets", str(dets), "--features", str(features), "--out", str(tmp_path / "o.txt")]
        assert cli.main(argv + ["--head-format", "--min-hits", "1"]) == 0
        assert built == {} and (tmp_path / "o.txt").stat().st_size
        frames = dataio.mot_to_detections(parse_mot(dets), read_descriptors(features), head_format=True)
        lines = sum(map(len, frames.values()))  # the hooks count what the list form builds
        assert built[tracker.Detection] == built[AppearanceDescriptor] == lines
        assert 0 < built[HeadKeypoint] < lines


def heads_scene(tmp_path):
    """A scene's detection file and sidecar; half its lines carry heads, and frames run backwards in the file."""
    scene = dataio.generate_scene(SceneSpec(
        targets=6, motion="crossing", frames=40, noise_std=1.0, feat_noise_std=0.1, seed=7, occlusions=((2, 10, 16),),
    ))
    t = scene.detections
    extra = np.full((len(t), 3), -1.0)
    extra[::2] = np.stack([t.box[::2, 0] + t.box[::2, 2] / 2, t.box[::2, 1], np.linspace(0, 1, len(extra[::2]))], axis=1)
    lines = dataio.format_mot(dataio.MotTable(t.frame, t.id, t.box, t.conf, extra)).splitlines(keepends=True)
    dets = tmp_path / "det.txt"
    dets.write_text("".join(sorted(lines, key=lambda l: -int(l.split(",")[0]))))  # stable: rows keep their order
    write_descriptors(tmp_path / "features.ftfv", scene.descriptors)
    return dets, tmp_path / "features.ftfv"


class TestTrackFileEqualsListPath:
    @pytest.mark.parametrize("case", ["sidecar", "no sidecar", "head format"])
    @pytest.mark.parametrize("emit", [False, True], ids=["emit detections", "emit predictions"])
    def test_same_emissions(self, tmp_path, case, emit):
        dets, features = heads_scene(tmp_path)
        features = None if case == "no sidecar" else features
        head_format = case == "head format"
        cfg = cli.RunConfig(min_hits=1 if emit else 3, emit_predictions=emit, patience_w=4)
        out = tmp_path / "res.txt"
        cli.run_track_file(dets, features, out, cfg, head_format)
        frames = dataio.mot_to_detections(
            parse_mot(dets), read_descriptors(features) if features else None, head_format=head_format
        )
        tracking = tracker.Tracker(cli.tracker_config(cfg))
        expected = [
            (f, tid, b) for f in range(1, max(frames) + 1) for tid, b in tracking.step(f, frames.get(f, []))
        ]
        assert len(expected) > 150
        assert out.read_text() == dataio.format_mot(dataio.MotTable.from_rows(expected))


class TestSettingRanges:
    """Out-of-range settings exit 2 naming the key, from the config that owns them."""

    @pytest.mark.parametrize("flag,value,message", [
        ("--eps-iou", "-1", "eps_iou must be positive, got -1.0"),
        ("--eps-iou", "0", "eps_iou must be positive, got 0.0"),
        ("--q-topk", "0", "q_topk must be >= 1, got 0"),
        ("--q-topk", "-3", "q_topk must be >= 1, got -3"),
    ])
    def test_assign(self, tmp_path, capsys, flag, value, message):
        doc = {"anchors": [{"cx": 5, "cy": 5, "box": [0, 0, 10, 10]}], "gts": [{"box": [0, 0, 10, 10]}]}
        scene = write(tmp_path / "scene.json", json.dumps(doc))
        assert cli.main(["assign", "--scene", scene, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"headtrack: {message}\n" == captured.err

    @pytest.mark.parametrize("value", ["-1", "0", "1.5"])
    def test_evaluate_iou_threshold(self, tmp_path, capsys, value):
        gt = write(tmp_path / "gt.txt", "\n".join(ROWS))
        assert cli.main(["evaluate", "--gt", gt, "--result", gt, f"--iou-threshold={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"iou_threshold must lie in (0, 1], got {float(value)}" in captured.err

    def test_evaluate_iou_threshold_one(self, tmp_path, capsys):
        gt = write(tmp_path / "gt.txt", "\n".join(ROWS))
        assert cli.main(["evaluate", "--gt", gt, "--result", gt, "--iou-threshold", "1"]) == 0
        assert "MOTA=1.000000" in capsys.readouterr().out

    def test_config_file_value_error_names_line(self, tmp_path, capsys):
        cfgfile = write(tmp_path / "run.cfg", "# settings\nmin_hits = 2.5\n")
        with pytest.raises(cli.ConfigError, match="run.cfg:2: key min_hits: cannot parse '2.5'"):
            cli.load_config(cfgfile)

    def test_simulate_flag_value_named_by_key(self, tmp_path, capsys):
        spec = write(tmp_path / "s.cfg", "targets = 2\nframes = 3\n")
        out = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", spec, "--out-dir", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "headtrack: key seed: seed must be >= 0, got -1\n"
        assert not out.exists()
        write(tmp_path / "s.cfg", "targets = 2\nframes = 3\nseed = -1\n")  # the spec's own value is the spec's fault
        assert cli.main(["simulate", "--spec", spec, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"headtrack: {spec}: seed must be >= 0, got -1\n"

    def test_track_zero_image_size_named_by_key(self, tmp_path, capsys):
        dets = write(tmp_path / "det.txt", "\n".join(ROWS))
        out = tmp_path / "o.txt"
        argv = ["track", "--dets", dets, "--out", str(out), "--image-width", "0", "--image-height", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "headtrack: key image_width: expected > 0, got 0.0\n"
        assert not out.exists()

    def test_track_negative_image_width_rejected(self, tmp_path, capsys):
        # the diagonal of a negative width is still positive; it used to track with it
        dets = write(tmp_path / "det.txt", "\n".join(ROWS))
        out = tmp_path / "o.txt"
        assert cli.main(["track", "--dets", dets, "--out", str(out), "--image-width", "-5"]) == 2
        assert capsys.readouterr().err == "headtrack: key image_width: expected > 0, got -5.0\n"
        assert not out.exists()


CONFIG_KEYS = [f.name for f in dataclasses.fields(cli.RunConfig)]
CONFIG_LINES = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.one_of(st.sampled_from(CONFIG_KEYS + ["sigma"]), st.text(max_size=8)),
        st.sampled_from(["=", " = ", "==", " "]),
        st.one_of(
            st.sampled_from(["nan", "-inf", "1e400", "0", "-1", "7", "0.5", "true", "off", ""]),
            st.text(max_size=12),
        ),
    ),
    st.text(max_size=20),
)
CONFIG_TEXTS = st.lists(CONFIG_LINES, max_size=6).map("\n".join)


class TestConfigFuzz:
    """Any key=value text gives a RunConfig or a ConfigError, and exit 0 or 2."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        write(root / "gt.txt", "1,1,10,10,20,40,1,-1,-1,-1\n2,1,12,10,20,40,1,-1,-1,-1\n")
        return root

    @given(text=CONFIG_TEXTS)
    @settings(max_examples=40, deadline=None)
    def test_load_config(self, fuzz_dir, text):
        cfgfile = write(fuzz_dir / "run.cfg", text)
        try:
            assert isinstance(cli.load_config(cfgfile), cli.RunConfig)
        except cli.ConfigError:
            pass

    @given(text=CONFIG_TEXTS)
    @settings(max_examples=20, deadline=None)
    def test_evaluate_exit_code(self, fuzz_dir, text):
        cfgfile = write(fuzz_dir / "run.cfg", text)
        gt = str(fuzz_dir / "gt.txt")
        assert cli.main(["evaluate", "--gt", gt, "--result", gt, "--config", cfgfile]) in (0, 2)


# Numeric fields come from small fixed sets and free text carries no decimal
# digits, so no input asks for a huge scene or frame range.
NO_DIGITS = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=16)
# Per MOT field: in-range values, extreme values that still parse, then junk.
MOT_VALUES = {
    "frame": ["1", "2", "3", "5"],
    "id": ["-1", "7"],
    "coord": ["0", "10.5", "-30", "2000", "1e308", "-1e308", "1e-300"],
    "size": ["40", "100.25", "1", "1e-300", "1e308"],
    "conf": ["1", "0.3", "0.1", "-5", "1e308"],
    "extra": ["-1", "0.5", "1e308"],
}
MOT_KINDS = ["frame", "id", "coord", "coord", "size", "size", "conf", "extra", "extra", "extra"]
MOT_JUNK = ["0", "-1", "nan", "inf", "-inf", "", "x", "1e400", " 4 ", "2.5"]


@st.composite
def det_texts(draw):
    """MOT detection files: every field in range, or one field or one line broken."""
    lines = [
        ",".join(draw(st.sampled_from(MOT_VALUES[kind])) for kind in MOT_KINDS)
        for _ in range(draw(st.integers(0, 8)))
    ]
    broken = draw(st.sampled_from(["none", "none", "field", "line"]))
    if lines and broken == "field":
        i, k = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, 9))
        fields = lines[i].split(",")
        fields[k] = draw(st.sampled_from(MOT_JUNK))
        lines[i] = ",".join(fields)
    elif broken == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(NO_DIGITS))
    return "\n".join(lines)


F4_VALUES = st.sampled_from([1.0, -1.0, 0.0, 0.6, 0.8, float("nan"), float("inf"), 1e-45, 3e38])


@st.composite
def sidecar_bytes(draw):
    """FTFV sidecars: valid, with one field off, or plain noise."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    dims = [draw(st.integers(0, 2)) for _ in range(3)]
    count = draw(st.integers(0, 4))
    magic = draw(st.sampled_from([b"FTFV", b"FTFX"]))
    version = draw(st.sampled_from([1, 1, 1, 0, 2]))
    body = b""
    for _ in range(count):
        frame, index = draw(st.sampled_from([0, 1, 2, 3, 2**32 - 1])), draw(st.integers(0, 3))
        values = [draw(F4_VALUES) for _ in range(sum(dims))]
        body += struct.pack(f"<II{sum(dims)}f", frame, index, *values)
    count += draw(st.sampled_from([0, 0, 1, -1]))
    return struct.pack("<4sHIIIQ", magic, version, *dims, max(count, 0)) + body


SPEC_VALUES = {
    "targets": ["0", "1", "2", "3", "-1", "x", "1.5"],
    "frames": ["0", "1", "4", "-2", "y"],
    "motion": ["linear", "crossing", "circular", "spiral", ""],
    "seed": ["0", "7", "-1", "z"],
    "descriptor_dim": ["0", "2", "-3", "q"],
    "image_width": ["0", "-5", "640", "1e308", "nan", "inf", "w"],
    "image_height": ["0", "-5", "480", "1e308", "nan", "h"],
    "box_height": ["0", "-1", "40", "1e308", "nan"],
    "noise_std": ["0", "1", "-1", "nan", "1e308"],
    "feat_noise_std": ["0", "0.1", "-1", "nan", "inf", "1e300"],
    "occlusion": ["1:1-2", "1:2-1", "9:1-2", "1:0-3", "a:b-c", "1:1-2;2:2-3", ";", "1-2"],
}
SPEC_LINES = st.one_of(
    st.sampled_from(sorted(SPEC_VALUES)).flatmap(
        lambda key: st.sampled_from(SPEC_VALUES[key]).map(lambda val: f"{key} = {val}")
    ),
    NO_DIGITS,
)
SPEC_TEXTS = st.lists(SPEC_LINES, max_size=8).map("\n".join)


class TestParserFuzz:
    """Any detection text, sidecar or scene spec exits 0, or 2 naming its file."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parsers")
        write(root / "dets.txt", "".join(
            f"{f},-1,{100 + 5 * f},100,40,100,1,-1,-1,-1\n{f},-1,400,300,40,100,0.9,-1,-1,-1\n"
            for f in (1, 2, 3)
        ))
        return root

    @staticmethod
    def check(argv, path):
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = cli.main(argv)
        err = stderr.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert str(path) in err, err
        return code

    @given(text=det_texts())
    @settings(max_examples=150, deadline=None)
    def test_track_dets_text(self, fuzz_dir, text):
        dets = fuzz_dir / "fuzz.txt"
        dets.write_text(text)
        argv = ["track", "--dets", str(dets), "--out", str(fuzz_dir / "o.txt"), "--min-hits", "1"]
        self.check(argv + ["--emit-predictions", "1"], dets)

    @given(data=sidecar_bytes())
    @settings(max_examples=150, deadline=None)
    def test_track_sidecar_bytes(self, fuzz_dir, data):
        sidecar = fuzz_dir / "fuzz.ftfv"
        sidecar.write_bytes(data)
        argv = ["track", "--dets", str(fuzz_dir / "dets.txt"), "--features", str(sidecar),
                "--out", str(fuzz_dir / "o.txt"), "--min-hits", "1"]
        self.check(argv, sidecar)

    @given(text=SPEC_TEXTS)
    @example(text="noise_std = 1e308")  # noisy boxes overflow to inf; writing them exited 3
    @settings(max_examples=150, deadline=None)
    def test_simulate_spec_text(self, fuzz_dir, text):
        spec = fuzz_dir / "fuzz.cfg"
        spec.write_text(text)
        argv = ["simulate", "--spec", str(spec), "--out-dir", str(fuzz_dir / "scene")]
        self.check(argv, spec)

    @given(text=SPEC_TEXTS)
    @example(text="feat_noise_std = 1e300")  # its descriptors overflowed to zero vectors
    @settings(max_examples=30, deadline=None)
    def test_track_reads_simulate_output(self, fuzz_dir, text):
        spec = fuzz_dir / "fuzz.cfg"
        spec.write_text(text)
        scene = fuzz_dir / "tracked_scene"
        shutil.rmtree(scene, ignore_errors=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = self.check(["simulate", "--spec", str(spec), "--out-dir", str(scene)], spec)
        assert [str(w.message) for w in caught] == []
        if code == 0:
            argv = ["track", "--dets", str(scene / "det.txt"), "--out", str(fuzz_dir / "o.txt")]
            if (scene / "features.ftfv").exists():
                argv += ["--features", str(scene / "features.ftfv")]
            with contextlib.redirect_stderr(io.StringIO()) as stderr:
                assert cli.main(argv) == 0, stderr.getvalue()
