import collections
import contextlib
import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mot_oracle
from headtrack import cli, dataio, label_assign, lifting, simulate, tracker
from headtrack.dataio import parse_mot, read_descriptors, write_descriptors
from headtrack.geometry import BBox
from headtrack.head import HeadKeypoint
from headtrack.rows import AppearanceDescriptor, Detection
from headtrack.simulate import SceneSpec

SCENE = """
targets = 4
motion = crossing
frames = 30
seed = 42
"""

QUICK_START = """
targets = 10
motion = crossing
frames = 100
noise_std = 1.0
seed = 42
occlusion = 3:40-44;7:60-64
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

    def test_scene_without_descriptors_removes_an_earlier_sidecar(self, tmp_path):
        # the old sidecar would give the new detections the old scene's identities
        first = write(tmp_path / "first.cfg", "targets = 3\nframes = 10\nseed = 1\n")
        second = write(tmp_path / "second.cfg",
                       "targets = 3\nframes = 10\nseed = 2\nnoise_std = 3\ndescriptor_dim = 0\n")
        out, fresh = tmp_path / "scene", tmp_path / "fresh"
        assert cli.main(["simulate", "--spec", first, "--out-dir", str(out)]) == 0
        assert (out / "features.ftfv").exists()
        for out_dir in (out, fresh):
            assert cli.main(["simulate", "--spec", second, "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["det.txt", "gt.txt"]
        for name in ("gt.txt", "det.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("name,output", [
        ("gt.txt", "ground truth"), ("det.txt", "detections"), ("features.ftfv", "descriptors"),
    ])
    @pytest.mark.parametrize("flag,held", [("--spec", "scene spec"), ("--config", "settings")])
    def test_out_dir_file_that_is_a_read_file_is_data_error(self, tmp_path, capsys, name, output, flag, held):
        # a scene without descriptors would delete features.ftfv, as a stale sidecar
        out = tmp_path / "sim"
        out.mkdir()
        spec = write(tmp_path / "scene.cfg", "targets = 3\nframes = 10\nseed = 1\ndescriptor_dim = 0\n")
        read = out / name
        read.write_text(Path(spec).read_text() if flag == "--spec" else "seed = 2\n")
        before = read.read_bytes()
        (tmp_path / "link").hardlink_to(read)
        for spelling in (str(read), f"{out}/./{name}", str(tmp_path / "link")):
            given = ["--spec", spelling] if flag == "--spec" else ["--spec", spec, "--config", spelling]
            assert cli.main(["simulate", "--out-dir", str(out)] + given) == 2
            assert capsys.readouterr().err == (
                f"headtrack: {read}: --out-dir writes the {flag} file; the {output} would overwrite the {held}\n")
        assert read.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == [name]

    @pytest.mark.parametrize("under,error", [("", "[Errno 17] File exists"), ("/sub", "[Errno 20] Not a directory")])
    def test_out_dir_that_is_a_file_is_os_error(self, tmp_path, capsys, under, error):
        # a path under a file names no file: the overwrite check passes it, and making the directory fails
        spec = write(tmp_path / "scene.cfg", "targets = 3\nframes = 10\nseed = 1\n")
        (tmp_path / "file").write_text("kept\n")
        out = f"{tmp_path / 'file'}{under}"
        assert cli.main(["simulate", "--spec", spec, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"headtrack: {error}: '{out}'\n"
        assert (tmp_path / "file").read_text() == "kept\n"


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
        expected = stepped_table(cfg, cli.dataio.split_frames(parse_mot(dets)))
        assert out.read_text() == mot_oracle.format_mot(expected)
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

    def test_out_that_is_the_dets_file_is_data_error(self, sim_dir, tmp_path, capsys):
        dets = tmp_path / "det.txt"
        dets.write_bytes((sim_dir / "det.txt").read_bytes())
        (tmp_path / "link.txt").hardlink_to(dets)
        for out in (str(dets), f"{tmp_path}/./det.txt", str(tmp_path / "link.txt")):
            assert cli.main(["track", "--dets", str(dets), "--out", out]) == 2
            assert capsys.readouterr().err == (
                f"headtrack: {out}: --out is the --dets file; the tracks would overwrite the detections\n")
        assert dets.read_bytes() == (sim_dir / "det.txt").read_bytes()

    def test_out_that_is_the_dets_directory_is_data_error(self, sim_dir, tmp_path, capsys):
        seqs = tmp_path / "seqs"
        seqs.mkdir()
        (seqs / "a.txt").write_bytes((sim_dir / "det.txt").read_bytes())
        for out in (f"{seqs}/", str(tmp_path / "seqs" / ".." / "seqs")):
            assert cli.main(["track", "--dets", str(seqs), "--out", out]) == 2
            assert capsys.readouterr().err == (
                f"headtrack: {out}: --out is the --dets directory; the tracks would overwrite the detections\n")
        assert sorted(p.name for p in seqs.iterdir()) == ["a.txt"]
        assert (seqs / "a.txt").read_bytes() == (sim_dir / "det.txt").read_bytes()

    @pytest.mark.parametrize("flag,name,held", [
        ("--features", "features.ftfv", "descriptors"), ("--config", "run.cfg", "settings"),
    ])
    def test_out_that_is_a_read_file_is_data_error(self, sim_dir, tmp_path, capsys, flag, name, held):
        (tmp_path / "features.ftfv").write_bytes((sim_dir / "features.ftfv").read_bytes())
        (tmp_path / "run.cfg").write_text("min_hits = 1\n")
        read = tmp_path / name
        before = read.read_bytes()
        (tmp_path / "link").hardlink_to(read)
        argv = ["track", "--dets", str(sim_dir / "det.txt"), "--features", str(tmp_path / "features.ftfv"),
                "--config", str(tmp_path / "run.cfg")]
        for out in (str(read), f"{tmp_path}/./{name}", str(tmp_path / "link")):
            assert cli.main(argv + ["--out", out]) == 2
            assert capsys.readouterr().err == (
                f"headtrack: {out}: --out is the {flag} file; the tracks would overwrite the {held}\n")
        assert read.read_bytes() == before

    def test_directory_output_that_is_an_input_is_data_error(self, sim_dir, tmp_path, capsys):
        seqs, feats, res = tmp_path / "seqs", tmp_path / "feats", tmp_path / "res"
        for d in (seqs, feats, res):
            d.mkdir()
        (seqs / "a.txt").write_bytes((sim_dir / "det.txt").read_bytes())
        (feats / "a.ftfv").write_bytes((sim_dir / "features.ftfv").read_bytes())
        config = res / "a.txt"  # the config file is where a.txt's tracks would go
        config.write_text("min_hits = 1\n")
        argv = ["track", "--dets", str(seqs), "--features", str(feats), "--out", str(res)]
        for spelling in (str(config), f"{res}/./a.txt"):
            assert cli.main(argv + ["--config", spelling]) == 2
            assert capsys.readouterr().err == (
                f"headtrack: {res / 'a.txt'}: --out is the --config file; the tracks would overwrite the settings\n")
        config.unlink()
        (res / "a.txt").hardlink_to(feats / "a.ftfv")  # a hard link to the sidecar
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"headtrack: {res / 'a.txt'}: --out is the --features file; the tracks would overwrite the descriptors\n")
        assert (feats / "a.ftfv").read_bytes() == (sim_dir / "features.ftfv").read_bytes()
        assert (seqs / "a.txt").read_bytes() == (sim_dir / "det.txt").read_bytes()

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
        swapped = read_descriptors(sim_dir / "features.ftfv")
        late, f_cls = swapped.frame >= 15, swapped.vectors["f_cls"]
        f_cls[late] = np.roll(f_cls[late], 1, axis=1)
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

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_result_warns_nothing(self, sim_dir, tmp_path, capsys, text):
        """No text to read gives no reader warning: evaluate's stderr stays empty."""
        empty = write(tmp_path / "empty.txt", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["evaluate", "--gt", str(sim_dir / "gt.txt"), "--result", empty]) == 0
        assert caught == []
        out, err = capsys.readouterr()
        assert err == "" and "FP=0" in out

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

    def test_evaluate_builds_no_row_objects(self, sim_dir, monkeypatch, capsys):
        built = []
        check = BBox.__post_init__
        monkeypatch.setattr(BBox, "__post_init__", lambda box: built.append(box) or check(box))
        gt = str(sim_dir / "gt.txt")
        assert cli.main(["evaluate", "--gt", gt, "--result", gt]) == 0
        assert built == [] and "MOTA=1.000000" in capsys.readouterr().out

    def test_edited_quick_start_ground_truth_report(self, tmp_path, capsys):
        """The quick-start gt scored against itself with ids 3 and 7 swapped from frame 50, id 5
        dropped in frames 20-29 and id 2 shifted by 0.6 w in frames 60-69: both matching passes act."""
        spec = write(tmp_path / "scene.cfg", QUICK_START)
        assert cli.main(["simulate", "--spec", spec, "--out-dir", str(tmp_path / "scene")]) == 0
        gt = tmp_path / "scene" / "gt.txt"
        t = dataio.parse_mot(gt)
        keep = ~((t.id == 5) & (t.frame >= 20) & (t.frame <= 29))
        swap = (t.frame >= 50) & ((t.id == 3) | (t.id == 7))
        ids = np.where(swap, 10 - t.id, t.id)
        shift = (t.id == 2) & (t.frame >= 60) & (t.frame <= 69)
        box = t.box.copy()
        box[shift, 0] += 0.6 * box[shift, 2]
        res = tmp_path / "res.txt"
        dataio.write_mot(res, dataio.MotTable(t.frame[keep], ids[keep], box[keep]))
        capsys.readouterr()
        assert cli.main(["evaluate", "--gt", str(gt), "--result", str(res)]) == 0
        assert capsys.readouterr().out == "MOTA=0.968000\nIDF1=0.886432\nFP=10\nFN=20\nIDS=2\nGT=1000\n"


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
        # the whole table is read before the filled one is written, so a file may fill itself
        assert cli.main(["interpolate", "--input", inp, "--method", "linear2d", "--out", inp]) == 0
        assert (tmp_path / "in.txt").read_bytes() == out.read_bytes()

    def test_out_that_is_the_config_file_is_data_error(self, sim_dir, tmp_path, capsys):
        config = tmp_path / "i.cfg"
        config.write_text("se3_meas_std = 2\n")
        (tmp_path / "link.cfg").hardlink_to(config)
        for out in (str(config), f"{tmp_path}/./i.cfg", str(tmp_path / "link.cfg")):
            assert cli.main(["interpolate", "--input", str(sim_dir / "gt.txt"), "--config", str(config), "--out", out]) == 2
            assert capsys.readouterr().err == (
                f"headtrack: {out}: --out is the --config file; the filled rows would overwrite the settings\n")
        assert config.read_text() == "se3_meas_std = 2\n"

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
        err = capsys.readouterr().err  # the message names the keys that set the two stds
        want = "track 4: singular smoother covariance; raise se3_process_std or se3_meas_std"
        assert err == f"headtrack: {inp}: {want}\n"
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
        assert f"headtrack: key se3_{name}: {name} must have a finite square" in capsys.readouterr().err
        assert not out.exists()
        # beside a valid std set to another value, only the overflowing one is named
        other = "--se3-process-std" if flag == "--se3-meas-std" else "--se3-meas-std"
        assert cli.main(args + ["--out", str(out), other, "0.2", flag, "1e200"]) == 2
        assert capsys.readouterr().err.startswith(f"headtrack: key se3_{name}: {name} must have a finite square")

    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_interpolate_builds_no_row_objects(self, sim_dir, tmp_path, monkeypatch, method):
        t = parse_mot(sim_dir / "gt.txt")
        keep = (t.frame % 7 != 3) & (t.frame % 7 != 4) | (t.id == 1)  # two-frame gaps in three tracks
        result = tmp_path / "result.txt"
        dataio.write_mot(result, dataio.MotTable(t.frame[keep], t.id[keep], t.box[keep]))
        built = []
        check = BBox.__post_init__
        monkeypatch.setattr(BBox, "__post_init__", lambda box: built.append(box) or check(box))
        out = tmp_path / "filled.txt"
        assert cli.main(["interpolate", "--input", str(result), "--method", method, "--out", str(out)]) == 0
        assert built == [] and len(parse_mot(out)) == len(t) > keep.sum()

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
            2, "headtrack: key h_min: h_min 1e+156 makes the measurement variance inf, outside (0, inf)\n")
        assert not out.exists()

    def test_track_cost_span_too_wide(self, sim_dir, tmp_path, capsys):
        # a gate near the float limit admits motion costs whose span the assignment cannot encode
        out = tmp_path / "o.txt"
        det = sim_dir / "det.txt"
        args = ["track", "--dets", str(det), "--out", str(out), "--gate-g", "1e308", "--motion-scale", "1e-306"]
        code, err = self.run(args, capsys)
        assert code == 2
        assert err.startswith(f"headtrack: {det}: frame 2: admissible costs span 0.0 to ")
        assert err.endswith(", too wide to encode as a 4 x 4 assignment\n")
        assert not out.exists()

    def test_track_coasting_box_not_finite(self, tmp_path, capsys):
        # a track that grows towards the float limit coasts at frame 4 to a box whose width overflows
        rows = ["1,-1,10,10,1e308,1e154,1,-1,-1,-1", "2,-1,10,10,1.69e308,1.3e154,1,-1,-1,-1",
                "3,-1,10,10,1.7e308,1.5e154,1,-1,-1,-1", "9,-1,10,10,1e3,1e3,1,-1,-1,-1"]
        dets = write(tmp_path / "det.txt", "\n".join(rows) + "\n")
        out = tmp_path / "o.txt"
        args = ["track", "--dets", dets, "--out", str(out), "--min-hits", "1", "--motion-scale", "1e308",
                "--emit-predictions", "1"]
        assert self.run(args, capsys) == (2, f"headtrack: {dets}: frame 4: box coordinates must be finite, "
                                             "got BBox(x=-inf, y=0.0, w=inf, h=1.5533125586706647e+154)\n")
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
        pytest.param("[" * 200000 + "]" * 200000, "maximum recursion depth exceeded", id="nested too deeply"),
    ])
    def test_bad_scene_is_data_error_naming_the_file(self, tmp_path, capsys, text, message):
        scene = write(tmp_path / "scene.json", text)
        assert cli.main(["assign", "--scene", scene]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"headtrack: {scene}: {message}")

    @pytest.mark.parametrize("anchor,gt,message", [
        ([0, 0, 1e308, 1e308], [0, 0, 1e308, 1e308],  # the area overflows: the IoU would be nan
         "anchor 0: box far corner and area must be finite, got BBox(x=0, y=0, w=1e+308, h=1e+308)"),
        ([-1e308, 0, 1e308, 10], [1e308, 0, 1e308, 10],  # the anchor's area overflows, and the gt's far corner
         "anchor 0: box far corner and area must be finite, got BBox(x=-1e+308, y=0, w=1e+308, h=10)"),
        ([0, 0, 10, 10], [1e308, 0, 1e308, 10],
         "gt 0: box far corner and area must be finite, got BBox(x=1e+308, y=0, w=1e+308, h=10)"),
    ], ids=["area", "anchor then gt corner", "gt corner"])
    def test_box_overflow_is_data_error_naming_the_entry(self, tmp_path, capsys, anchor, gt, message):
        doc = {"anchors": [{"cx": 5, "cy": 5, "box": anchor}], "gts": [{"box": gt}]}
        scene = write(tmp_path / "scene.json", json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["assign", "--scene", scene]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", f"headtrack: {scene}: {message}\n")

    @pytest.mark.parametrize("anchor,row", [
        ({"cx": -1e308, "cy": 0, "box": [0, 0, 10, 10]}, "0 - (no foreground anchors)"),
        ({"cx": 0, "cy": 0, "stride": 1e308, "box": [0, 0, 10, 10]}, "0 0 55.955189 0.000000"),
    ], ids=["centre distance", "radius"])
    def test_region_overflow_is_silent(self, tmp_path, capsys, anchor, row):
        # the centre distance, or 2.5 strides, passes the float limit: inf, as a Python float
        doc = {"anchors": [anchor], "gts": [{"box": [1.5e308, 0, 1e307, 1]}]}
        scene = write(tmp_path / "scene.json", json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["assign", "--scene", scene]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == (f"gt anchor cost iou\n{row}\n", "")


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
        assert "key gate_g: gate must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity", "-INF", "-NaN"])
    def test_non_digit_negative_flag_values(self, sim_dir, tmp_path, capsys, value):
        # float() reads these; as a separate argument they are values too, not
        # options (an argparse usage error, exit 1), and every key rejects them
        # as --key=value does
        track = ["track", "--dets", str(sim_dir / "det.txt"), "--out", str(tmp_path / "o.txt")]
        for f in dataclasses.fields(cli.RunConfig):
            flag = f"--{f.name.replace('_', '-')}"
            runs = []
            for form in ([flag, value], [f"{flag}={value}"]):
                runs.append((cli.main(track + form), capsys.readouterr().err))
            assert runs[0] == runs[1]
            code, err = runs[0]
            assert code == 2 and err.startswith(f"headtrack: key {f.name}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("flags,line", [
        (["--lambda-reg", "-1"], "key lambda_reg: feature weights must be non-negative"),
        (["--w-app", "0", "--w-mot", "0"], "key w_app, w_mot: need w_app, w_mot >= 0 with a positive sum"),
        (["--gate-g", "0", "--image-width", "640"], "key gate_g: gate must be positive, got 0.0"),
        (["--w-app", "0.3", "--gate-g", "-1"], "key gate_g: gate must be positive, got -1.0"),
        (["--lambda-cls", "0.2", "--lambda-head", "-0.5"], "key lambda_head: feature weights must be non-negative"),
    ])
    def test_association_range_names_the_key(self, sim_dir, tmp_path, capsys, flags, line):
        # a failed check names the keys it reads, not other keys the run sets
        track = ["track", "--dets", str(sim_dir / "det.txt"), "--out", str(tmp_path / "o.txt")]
        assert cli.main(track + flags) == 2
        assert capsys.readouterr().err == f"headtrack: {line}\n"

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

    @pytest.mark.parametrize("verb", cli._VERBS)
    def test_help_lists_every_config_key(self, capsys, verb):
        with pytest.raises(SystemExit) as e:
            cli.main([verb, "--help"])
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

    @pytest.mark.parametrize("flag,error", [(["--seed", "1"], "argument verb: invalid choice: '1'"),
                                            (["--seed=1"], "unrecognized arguments: --seed=1\n")],
                             ids=["value", "joined"])
    def test_config_flag_before_the_verb_is_usage_error(self, sim_dir, capsys, flag, error):
        """Before the verb, a config flag is the top-level parser's usage error; after it, the verb's flags still parse."""
        gt = str(sim_dir / "gt.txt")
        with pytest.raises(SystemExit) as e:
            cli.main([*flag, "evaluate", "--gt", gt, "--result", gt, "--iou-threshold", "0.5"])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: headtrack [-h] {track,") and f"headtrack: error: {error}" in err

    def test_main_without_argv_reads_sys_argv(self, sim_dir, tmp_path, monkeypatch):
        """``main()`` takes the verb, and so the config flags it accepts, from ``sys.argv``."""
        argv = ["track", "--dets", str(sim_dir / "det.txt"), "--min-hits", "1", "--out"]
        monkeypatch.setattr(sys, "argv", ["headtrack", *argv, str(tmp_path / "console.txt")])
        assert cli.main() == 0
        assert cli.main([*argv, str(tmp_path / "main.txt")]) == 0
        assert (tmp_path / "console.txt").read_bytes() == (tmp_path / "main.txt").read_bytes() != b""

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = cli.main(
            ["track", "--dets", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.txt")]
        )
        assert code == 2


def console(argv, cwd, preexec_fn=None):
    """Exit code, stdout and stderr of ``python -m headtrack.cli argv`` run in ``cwd``, after ``preexec_fn``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "headtrack.cli", *argv], cwd=cwd, env=env,
                          preexec_fn=preexec_fn, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(argv, capsys):
    """Exit code, stdout and stderr of ``cli.main(argv)`` run in this process."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    return code, *capsys.readouterr()


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_console_path_writes_what_main_writes(tmp_path, monkeypatch, capsys):
    """The console script writes the files, streams and exit codes of ``main``, up to interpreter exit."""
    steps = [
        ["simulate", "--spec", "scene.cfg", "--out-dir", "scene"],
        ["track", "--dets", "scene/det.txt", "--features", "scene/features.ftfv", "--out", "result.txt",
         "--min-hits", "1"],
        *(["interpolate", "--input", "result.txt", "--method", method, "--out", f"{method}.txt"]
          for method in lifting.METHODS),
        ["evaluate", "--gt", "scene/gt.txt", "--result", "result.txt"],
        ["track"],  # a usage error
        ["track", "--dets", "bad.txt", "--out", "bad_result.txt"],  # a bad box on line 2
    ]
    roots = tmp_path / "console", tmp_path / "main"
    for root in roots:
        root.mkdir()
        write(root / "scene.cfg", QUICK_START)
        write(root / "bad.txt", "1,-1,10,10,20,40,1,-1,-1,-1\n2,-1,10,10,-20,40,1,-1,-1,-1\n")
    monkeypatch.chdir(roots[1])
    codes = []
    for argv in steps:
        run = console(argv, roots[0])
        assert run == in_process(argv, capsys), argv
        codes.append(run[0])
    assert codes == [0] * 6 + [1, 2]
    files = tree_bytes(roots[0])
    assert files == tree_bytes(roots[1])
    assert len(files) == 9


# One non-default value per scene spec key (every SceneSpec field but the
# raw occlusions, which the occlusion key fills).
SCENE_VALUES = {
    "targets": 3, "motion": "linear", "frames": 12, "image_width": 640.0,
    "image_height": 480.0, "box_height": 40.0, "noise_std": 1.5, "feat_noise_std": 0.25,
    "descriptor_dim": 6, "seed": 9,
}


class TestSettingsStatedOnce:
    """RunConfig states each key's default once; the library and the scene spec read it."""

    def test_annotation_matches_default_type(self):
        # load_config parses a key as the type of its default
        for f in dataclasses.fields(cli.RunConfig):
            assert type(f.default).__name__ == f.type, f.name

    def test_tracker_config_defaults(self):
        cfg = cli.RunConfig()
        assert cli.tracker_config(cfg) is cfg
        assert tracker.Tracker(cli.tracker_config(cfg)).motion_scale == float(np.hypot(1920.0, 1080.0))
        assert (cfg.image_width, cfg.image_height) == (1920.0, 1080.0)
        assert (SceneSpec().image_width, SceneSpec().image_height, SceneSpec().seed) == (1920.0, 1080.0, 0)

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
        assert seen[0] == seen[-1] == cli.RunConfig()  # each verb hands the library its run config

    def test_empty_spec_is_scene_spec_defaults(self, tmp_path):
        spec = write(tmp_path / "scene.cfg", "# no keys\n\n")
        assert cli.parse_scene_spec(spec, cli.RunConfig()) == (SceneSpec(), [])

    def test_scene_values_cover_every_key(self):
        fields = {f.name for f in dataclasses.fields(SceneSpec)}
        assert set(SCENE_VALUES) == fields - {"occlusions"}

    @pytest.mark.parametrize("key", sorted(SCENE_VALUES))
    def test_scene_key_round_trips(self, tmp_path, key):
        value = SCENE_VALUES[key]
        spec = write(tmp_path / "scene.cfg", f"{key} = {value}\n")
        parsed, from_cfg = cli.parse_scene_spec(spec, cli.RunConfig())
        assert from_cfg == []
        assert parsed == dataclasses.replace(SceneSpec(), **{key: value})
        assert type(getattr(parsed, key)) is type(value)

    def test_occlusion_key_and_raw_field(self, tmp_path):
        spec = write(tmp_path / "scene.cfg", "occlusion = 1:2-3; 2:4-5\n")
        assert cli.parse_scene_spec(spec, cli.RunConfig())[0].occlusions == ((1, 2, 3), (2, 4, 5))
        spec = write(tmp_path / "raw.cfg", "occlusions = 1:2-3\n")
        with pytest.raises(cli.ConfigError, match="raw.cfg:1: unknown scene key 'occlusions'"):
            cli.parse_scene_spec(spec, cli.RunConfig())

    def test_keys_taken_from_cfg(self, tmp_path):
        # a flag (even at its default), or --config where the spec is silent and the value is not the default
        spec = write(tmp_path / "scene.cfg", "image_height = 480\n")
        cfg = dataclasses.replace(cli.RunConfig(), image_width=640.0, image_height=720.0)
        assert cli.parse_scene_spec(spec, cfg) == (SceneSpec(image_width=640.0, image_height=480.0), ["image_width"])
        default = dataclasses.replace(cli.RunConfig(), image_width=640.0, image_height=1080.0, seed=3)
        assert cli.parse_scene_spec(spec, default, flags={"image_height", "seed"}) == (
            SceneSpec(image_width=640.0, image_height=1080.0, seed=3), ["image_width", "image_height", "seed"])
        assert cli.parse_scene_spec(spec, cli.RunConfig()) == (SceneSpec(image_height=480.0), [])

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 1\n\xff\n")
        spec = write(tmp_path / "scene.cfg", "targets = 2\nframes = 3\n")
        decode = "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"
        for argv in (["--spec", str(bad)], ["--spec", spec, "--config", str(bad)]):
            assert cli.main(["simulate", "--out-dir", str(tmp_path / "o"), *argv]) == 2
            assert capsys.readouterr().err == f"headtrack: {bad}: {decode}\n"
        assert not (tmp_path / "o").exists()

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
        generate = simulate.generate_scene
        monkeypatch.setattr(simulate, "generate_scene", lambda s: specs.append(s) or generate(s))
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
        for cls in (Detection, AppearanceDescriptor, HeadKeypoint, BBox):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda obj, check=check: built.update([type(obj)]) or check(obj))
        track = tracker.Track  # a live track is its row: the verb builds no Track, not even one per spawn
        monkeypatch.setattr(tracker, "Track", lambda *a, track=track: built.update([track]) or track(*a))
        argv = ["track", "--dets", str(dets), "--features", str(features), "--out", str(tmp_path / "o.txt")]
        assert cli.main(argv + ["--head-format", "--min-hits", "1"]) == 0
        assert built == {} and (tmp_path / "o.txt").stat().st_size
        coasted = tmp_path / "coasted.txt"  # emitted boxes of coasting tracks are columns too
        assert cli.main(argv[:-1] + [str(coasted), "--head-format", "--min-hits", "1", "--emit-predictions", "1"]) == 0
        assert built == {} and len(parse_mot(coasted)) > len(parse_mot(tmp_path / "o.txt"))
        frames = dataio.split_frames(parse_mot(dets), read_descriptors(features), head_format=True)
        lines = sum(map(len, frames.values()))
        assert built == {}  # splitting builds no row either
        rows = [d for batch in frames.values() for d in batch]  # the hooks count what iterating the batches builds
        assert built[Detection] == built[AppearanceDescriptor] == built[BBox] == len(rows) == lines > 0
        assert built[HeadKeypoint] == 0  # a batch carries no head


def heads_scene(tmp_path):
    """A scene's detection file and sidecar; half its lines carry heads, and frames run backwards in the file."""
    scene = simulate.generate_scene(SceneSpec(
        targets=6, motion="crossing", frames=40, noise_std=1.0, feat_noise_std=0.1, seed=7, occlusions=((2, 10, 16),),
    ))
    t = scene.detections
    extra = np.full((len(t), 3), -1.0)
    extra[::2] = np.stack([t.box[::2, 0] + t.box[::2, 2] / 2, t.box[::2, 1], np.linspace(0, 1, len(extra[::2]))], axis=1)
    lines = mot_oracle.format_mot(dataio.MotTable(t.frame, t.id, t.box, t.conf, extra)).splitlines(keepends=True)
    dets = tmp_path / "det.txt"
    dets.write_text("".join(sorted(lines, key=lambda l: -int(l.split(",")[0]))))  # stable: rows keep their order
    write_descriptors(tmp_path / "features.ftfv", scene.descriptors)
    return dets, tmp_path / "features.ftfv"


class TestTrackFileEqualsSteppedBatches:
    @pytest.mark.parametrize("case", ["sidecar", "no sidecar", "head format"])
    @pytest.mark.parametrize("emit", [False, True], ids=["emit detections", "emit predictions"])
    def test_same_emissions(self, tmp_path, case, emit):
        dets, features = heads_scene(tmp_path)
        features = None if case == "no sidecar" else features
        head_format = case == "head format"
        cfg = cli.RunConfig(min_hits=1 if emit else 3, emit_predictions=emit, patience_w=4)
        out = tmp_path / "res.txt"
        cli.run_track_file(dets, features, out, cfg, head_format)
        frames = dataio.split_frames(
            parse_mot(dets), read_descriptors(features) if features else None, head_format=head_format
        )
        expected = stepped_table(cfg, frames)
        assert len(expected) > 150
        assert out.read_text() == mot_oracle.format_mot(expected)


def stepped_table(cfg, frames):
    """The concatenated Emissions columns of a Tracker stepped through every frame up to the last of ``frames``."""
    tracking = tracker.Tracker(cli.tracker_config(cfg))
    steps = [(f, tracking.step(f, frames.get(f, ()))) for f in range(1, max(frames) + 1)]
    return dataio.MotTable(
        np.concatenate([np.full(len(out.ids), f) for f, out in steps]),
        np.concatenate([out.ids for _, out in steps]),
        np.concatenate([out.boxes for _, out in steps]),
    )


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
        assert captured.out == "" and f"headtrack: key {flag[2:].replace('-', '_')}: {message}\n" == captured.err

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

    def test_simulate_generation_error_names_flagged_image_size(self, tmp_path, capsys):
        # a 1e-320 wide image puts both spawn boxes on one spot
        spec = write(tmp_path / "s.cfg", "targets = 2\nframes = 3\n")
        out = tmp_path / "scene"
        argv = ["simulate", "--spec", spec, "--out-dir", str(out), "--image-width", "1e-320"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"headtrack: key image_width and {spec}: targets 1 and 2 overlap at spawn\n"
        assert cli.main(argv + ["--image-height", "1e-320"]) == 2
        assert capsys.readouterr().err == (
            f"headtrack: key image_width, image_height and {spec}: targets 1 and 2 overlap at spawn\n")
        assert not out.exists()

    def test_simulate_generation_error_names_config_image_size(self, tmp_path, capsys):
        spec = write(tmp_path / "s.cfg", "targets = 2\nframes = 3\n")
        cfgfile = write(tmp_path / "c.cfg", "image_width = 1e-320\n")
        out = tmp_path / "scene"
        argv = ["simulate", "--spec", spec, "--out-dir", str(out), "--config", cfgfile]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"headtrack: key image_width and {spec}: targets 1 and 2 overlap at spawn\n"
        assert not out.exists()
        write(tmp_path / "s.cfg", "targets = 2\nframes = 3\nimage_width = 640\n")  # the spec beats --config
        assert cli.main(argv) == 0

    def test_simulate_generation_error_names_the_spec_image_size(self, tmp_path, capsys):
        spec = write(tmp_path / "s.cfg", "targets = 2\nframes = 3\nimage_height = 1e-320\n")
        out = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", spec, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"headtrack: {spec}: targets 1 and 2 overlap at spawn\n"
        # a flag beats the spec, so the flag's key is named
        assert cli.main(["simulate", "--spec", spec, "--out-dir", str(out), "--image-height", "1e-320"]) == 2
        assert capsys.readouterr().err == f"headtrack: key image_height and {spec}: targets 1 and 2 overlap at spawn\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["image_width", "image_height"])
    def test_spec_image_size_prints_the_flags_line(self, tmp_path, capsys, key):
        # the spec's image size takes RunConfig's check: the flag's text, located in the spec
        out = tmp_path / "scene"
        spec = write(tmp_path / "s.cfg", f"targets = 2\nframes = 3\n{key} = 0\n")
        assert cli.main(["simulate", "--spec", spec, "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"headtrack: {spec}: key {key}: expected > 0, got 0.0\n")
        good = write(tmp_path / "good.cfg", "targets = 2\nframes = 3\n")
        assert cli.main(["simulate", "--spec", good, "--out-dir", str(out), f"--{key.replace('_', '-')}", "0"]) == 2
        assert capsys.readouterr() == ("", f"headtrack: key {key}: expected > 0, got 0.0\n")
        assert not out.exists()

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


# One out-of-range value per range check of RunConfig, and the line it prints.
OUT_OF_RANGE = [
    ("--w-app", "-1", "key w_app, w_mot: need w_app, w_mot >= 0 with a positive sum"),
    ("--w-mot", "-1", "key w_app, w_mot: need w_app, w_mot >= 0 with a positive sum"),
    ("--lambda-cls", "-1", "key lambda_cls: feature weights must be non-negative"),
    ("--lambda-reg", "-1", "key lambda_reg: feature weights must be non-negative"),
    ("--lambda-head", "-1", "key lambda_head: feature weights must be non-negative"),
    ("--gate-g", "0", "key gate_g: gate must be positive, got 0.0"),
    ("--motion-scale", "-1", "key motion_scale: expected >= 0 (0 is the image diagonal), got -1.0"),
    ("--patience-w", "0", "key patience_w: patience_w must be >= 1, got 0"),
    ("--min-hits", "0", "key min_hits: min_hits must be >= 1, got 0"),
    ("--descriptor-momentum", "1", "key descriptor_momentum: descriptor_momentum must lie in [0, 1), got 1.0"),
    ("--h-min", "0", "key h_min: h_min must be positive and finite, got 0.0"),
    ("--h-min", "1e156", "key h_min: h_min 1e+156 makes the measurement variance inf, outside (0, inf)"),
    ("--se3-process-std", "1e200", "key se3_process_std: process_std must have a finite square, got 1e+200"),
    ("--se3-meas-std", "1e200", "key se3_meas_std: meas_std must have a finite square, got 1e+200"),
    ("--eps-iou", "0", "key eps_iou: eps_iou must be positive, got 0.0"),
    ("--q-topk", "0", "key q_topk: q_topk must be >= 1, got 0"),
    ("--iou-threshold", "0", "key iou_threshold: iou_threshold must lie in (0, 1], got 0.0"),
    ("--image-width", "0", "key image_width: expected > 0, got 0.0"),
    ("--image-height", "0", "key image_height: expected > 0, got 0.0"),
    ("--seed", "-1", "key seed: seed must be >= 0, got -1"),
]
UNBOUNDED_KEYS = {"init_score_min", "emit_predictions", "alpha", "beta"}  # any finite value (or boolean) runs


class TestConfigContract:
    """Every verb builds the one RunConfig first: a key out of range exits 2 naming it, and writes nothing."""

    @staticmethod
    def argv(verb, root):
        dets = write(root / "det.txt", "\n".join(ROWS))
        spec = write(root / "scene.cfg", "targets = 2\nframes = 3\n")
        doc = {"anchors": [{"cx": 5, "cy": 5, "box": [0, 0, 10, 10]}], "gts": [{"box": [0, 0, 10, 10]}]}
        scene = write(root / "scene.json", json.dumps(doc))
        return {
            "track": ["track", "--dets", dets, "--out", str(root / "out")],
            "interpolate": ["interpolate", "--input", dets, "--out", str(root / "out")],
            "evaluate": ["evaluate", "--gt", dets, "--result", dets],
            "simulate": ["simulate", "--spec", spec, "--out-dir", str(root / "out")],
            "assign": ["assign", "--scene", scene],
        }[verb]

    def test_every_bounded_key_is_covered(self):
        keys = {flag[2:].replace("-", "_") for flag, _, _ in OUT_OF_RANGE}
        assert keys == set(CONFIG_KEYS) - UNBOUNDED_KEYS

    @pytest.mark.parametrize("verb", cli._VERBS)
    @pytest.mark.parametrize("flag,value,line", OUT_OF_RANGE, ids=[f"{f}={v}" for f, v, _ in OUT_OF_RANGE])
    def test_out_of_range_exits_2_naming_the_key(self, tmp_path, capsys, verb, flag, value, line):
        argv = self.argv(verb, tmp_path)
        before = sorted(tmp_path.iterdir())
        assert cli.main([*argv, f"{flag}={value}"]) == 2
        assert capsys.readouterr() == ("", f"headtrack: {line}\n")
        assert sorted(tmp_path.iterdir()) == before  # no output file or directory

    @pytest.mark.parametrize("verb", cli._VERBS)
    def test_config_file_value_reads_as_the_flag(self, tmp_path, capsys, verb):
        cfgfile = write(tmp_path / "run.cfg", "patience_w = 0\n")
        assert cli.main([*self.argv(verb, tmp_path), "--config", cfgfile]) == 2
        assert capsys.readouterr() == ("", "headtrack: key patience_w: patience_w must be >= 1, got 0\n")
        assert not (tmp_path / "out").exists()


def capped(argv, cwd, limit=3 * 2**30):
    """``console(argv, cwd)`` with the process's address space capped at ``limit`` bytes."""
    import resource  # POSIX only, as the class that calls this

    return console(argv, cwd, lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux")
class TestOutOfMemory:
    """An input whose output cannot be held exits 2 naming the file, before any output, in a process whose
    address space is capped, so the test itself stays small."""

    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_interpolate_gap_of_a_trillion_frames(self, tmp_path, method):
        write(tmp_path / "gap.txt", "1,5,10,10,20,40,1,-1,-1,-1\n1000000000000,5,10,10,20,40,1,-1,-1,-1\n")
        argv = ["interpolate", "--input", "gap.txt", "--method", method, "--out", "o.txt"]
        assert capped(argv, tmp_path) == (
            2, "", "headtrack: gap.txt: track 5: not enough memory to fill frames 2-999999999999\n")
        assert not (tmp_path / "o.txt").exists()

    def test_simulate_a_trillion_frames(self, tmp_path):
        write(tmp_path / "big.cfg", "targets = 1\nframes = 1000000000000\n")
        assert capped(["simulate", "--spec", "big.cfg", "--out-dir", "scene"], tmp_path) == (
            2, "", "headtrack: big.cfg: the scene does not fit in memory (targets = 1, frames = 1000000000000)\n")
        assert not (tmp_path / "scene").exists()

    # a track's last frame at the largest int64: its gap is past what numpy makes one array of
    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_interpolate_gap_past_the_address_space(self, tmp_path, method):
        write(tmp_path / "gap.txt", "1,5,10,10,20,40,1,-1,-1,-1\n9223372036854775807,5,10,10,20,40,1,-1,-1,-1\n")
        argv = ["interpolate", "--input", "gap.txt", "--method", method, "--out", "o.txt"]
        assert capped(argv, tmp_path) == (
            2, "", "headtrack: gap.txt: track 5: not enough memory to fill frames 2-9223372036854775806\n")
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("spec,size", [
        ("frames = 10000000000000000000", "targets = 1, frames = 10000000000000000000"),  # past int64
        ("frames = 1152921504606846976", "targets = 1, frames = 1152921504606846976"),  # 2**60
        ("descriptor_dim = 10000000000000000000", "targets = 1, frames = 100, descriptor_dim = 10000000000000000000"),
    ], ids=["frames past int64", "frames 2**60", "descriptor_dim past int64"])
    def test_simulate_past_the_address_space(self, tmp_path, spec, size):
        write(tmp_path / "big.cfg", f"targets = 1\n{spec}\n")
        assert capped(["simulate", "--spec", "big.cfg", "--out-dir", "scene"], tmp_path) == (
            2, "", f"headtrack: big.cfg: the scene does not fit in memory ({size})\n")
        assert not (tmp_path / "scene").exists()

    # 25,000 boxes: one (25000, 25000) float64 array, 4.66 GiB, is past the cap, so it fails at once
    BOXES = np.random.default_rng(3).uniform(0.0, 1e5, (25000, 2)).round(1)

    def test_track_costs_of_a_frame(self, tmp_path):
        rows = [f"-1,{x},{y},20,40,1,-1,-1,-1\n" for x, y in self.BOXES.tolist()]
        write(tmp_path / "det.txt", "".join(f"{frame},{row}" for frame in (1, 2) for row in rows))
        assert capped(["track", "--dets", "det.txt", "--out", "o.txt"], tmp_path) == (
            2, "", "headtrack: det.txt: frame 2: not enough memory for 25000 tracks and 25000 detections\n")
        assert not (tmp_path / "o.txt").exists()

    def test_evaluate_a_frame_against_itself(self, tmp_path):
        write(tmp_path / "gt.txt", "".join(f"1,{i},{x},{y},20,40,1,-1,-1,-1\n"
                                           for i, (x, y) in enumerate(self.BOXES.tolist(), 1)))
        assert capped(["evaluate", "--gt", "gt.txt", "--result", "gt.txt"], tmp_path) == (
            2, "", "headtrack: gt.txt: not enough memory to evaluate against gt.txt\n")


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


def raw_texts(lines, max_size):
    """Files of up to ``max_size`` ``lines`` in UTF-8, or raw byte lines that need not decode.

    A raw line carries no ASCII digit, so it asks for no huge scene.
    """
    raw = st.binary(max_size=16).map(lambda b: b.translate(None, b"0123456789"))
    return st.lists(st.one_of(lines.map(str.encode), raw), max_size=max_size).map(b"\n".join)


CONFIG_TEXTS = raw_texts(CONFIG_LINES, max_size=6)


class TestConfigFuzz:
    """Any key=value file gives a RunConfig or a ConfigError, and exits 0, or 2 naming the file or a key."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        write(root / "gt.txt", "1,1,10,10,20,40,1,-1,-1,-1\n2,1,12,10,20,40,1,-1,-1,-1\n")
        return root

    @given(text=CONFIG_TEXTS)
    @example(text=b"w_app=-1")  # out of range: RunConfig's ValueError came out unwrapped
    @settings(max_examples=40, deadline=None)
    def test_load_config(self, fuzz_dir, text):
        cfgfile = fuzz_dir / "run.cfg"
        cfgfile.write_bytes(text)
        try:
            assert isinstance(cli.load_config(cfgfile), cli.RunConfig)
        except cli.ConfigError:
            pass

    @given(text=CONFIG_TEXTS)
    @example(text=b"seed = 1\n\xff = 2")  # not UTF-8: the decode error named no file
    @settings(max_examples=20, deadline=None)
    def test_evaluate_exit_code(self, fuzz_dir, text):
        cfgfile = fuzz_dir / "run.cfg"
        cfgfile.write_bytes(text)
        gt = str(fuzz_dir / "gt.txt")
        TestParserFuzz.check(["evaluate", "--gt", gt, "--result", gt, "--config", str(cfgfile)], cfgfile, *CONFIG_KEYS)


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
def det_texts(draw, ids=MOT_VALUES["id"]):
    """MOT files with ids from ``ids``: every field in range, or one field or one line broken."""
    values = dict(MOT_VALUES, id=ids)
    lines = [
        ",".join(draw(st.sampled_from(values[kind])) for kind in MOT_KINDS)
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
SPEC_TEXTS = raw_texts(SPEC_LINES, max_size=8)


# Flag values: numbers float() reads, extreme or out of range for some key, then junk.
FLAG_VALUES = ["-inf", "-nan", "-Infinity", "inf", "nan", "-1", "-0.5", "0", "0.5", "2", "7", "1e308", "-1e308",
               "1e-320", "1_0", "-1_0", "-1e-3", "true", "x", "", "-", "-x", " 4 ", "1e400"]


# Each verb on fuzz_dir inputs: its flags and file names, in pairs.
FLAG_VERBS = {
    "track": ("--dets", "dets.txt", "--out", "o.txt"),
    "interpolate": ("--input", "gt.txt", "--out", "filled.txt"),
    "evaluate": ("--gt", "gt.txt", "--result", "dets_ids.txt"),
    "simulate": ("--spec", "spec.cfg", "--out-dir", "scene"),
    "assign": ("--scene", "assign.json"),
}


class TestParserFuzz:
    """Any input text, sidecar, scene spec or flag value exits 0, or 2 naming its file or key."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parsers")
        write(root / "dets.txt", "".join(
            f"{f},-1,{100 + 5 * f},100,40,100,1,-1,-1,-1\n{f},-1,400,300,40,100,0.9,-1,-1,-1\n"
            for f in (1, 2, 3)
        ))
        write(root / "gt.txt", "".join(f"{f},1,{100 + 5 * f},100,40,100,1,-1,-1,-1\n" for f in (1, 2, 3, 6)))
        write(root / "dets_ids.txt", "1,1,105,100,40,100,1,-1,-1,-1\n3,2,115,100,40,100,1,-1,-1,-1\n")
        write(root / "spec.cfg", "targets = 2\nframes = 3\n")
        write(root / "assign.json", json.dumps({"anchors": [{"cx": 5, "cy": 5, "stride": 8, "box": [0, 0, 10, 10]}],
                                                "gts": [{"box": [0, 0, 10, 10]}]}))
        return root

    @staticmethod
    def check(argv, *names):
        """Exit 0, or 2 with an error naming one of ``names``; never 1 or 3, nor a traceback."""
        with contextlib.redirect_stderr(io.StringIO()) as stderr, contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
        err = stderr.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert any(str(name) in err for name in names), err
        return code

    @given(text=det_texts())
    @settings(max_examples=150, deadline=None)
    def test_track_dets_text(self, fuzz_dir, text):
        dets = fuzz_dir / "fuzz.txt"
        dets.write_text(text)
        argv = ["track", "--dets", str(dets), "--out", str(fuzz_dir / "o.txt"), "--min-hits", "1"]
        self.check(argv + ["--emit-predictions", "1"], dets)

    @given(text=det_texts(ids=["1", "2", "7", "-1"]), method=st.sampled_from(lifting.METHODS))
    @settings(max_examples=150, deadline=None)
    def test_interpolate_input_text(self, fuzz_dir, text, method):
        result = fuzz_dir / "fuzz_result.txt"
        result.write_text(text)
        self.check(["interpolate", "--input", str(result), "--method", method,
                    "--out", str(fuzz_dir / "filled.txt")], result)

    @given(text=det_texts(ids=["1", "2", "7", "-1"]), side=st.sampled_from(["--gt", "--result"]))
    @settings(max_examples=150, deadline=None)
    def test_evaluate_text(self, fuzz_dir, text, side):
        fuzzed = fuzz_dir / "fuzz_eval.txt"
        fuzzed.write_text(text)
        files = {"--gt": fuzz_dir / "gt.txt", "--result": fuzz_dir / "gt.txt", side: fuzzed}
        self.check(["evaluate", "--gt", str(files["--gt"]), "--result", str(files["--result"])], fuzzed)

    @given(verb=st.sampled_from(sorted(FLAG_VERBS)), key=st.sampled_from(CONFIG_KEYS),
           value=st.sampled_from(FLAG_VALUES), joined=st.booleans())
    @example(verb="track", key="gate_g", value="-inf", joined=False)  # once read as an option: exit 1
    @settings(max_examples=300, deadline=None)
    def test_flag_value(self, fuzz_dir, verb, key, value, joined):
        # a value float() reads, or any value joined to its flag by "=", is a value
        if not joined and value.startswith("-"):
            try:
                float(value)
            except ValueError:
                joined = True
        files = [fuzz_dir / name for name in FLAG_VERBS[verb][1::2]]
        argv = [verb] + [a for flag, path in zip(FLAG_VERBS[verb][::2], files) for a in (flag, str(path))]
        flag = f"--{key.replace('_', '-')}"
        self.check(argv + ([f"{flag}={value}"] if joined else [flag, value]), key, *files)

    @given(data=sidecar_bytes())
    @settings(max_examples=150, deadline=None)
    def test_track_sidecar_bytes(self, fuzz_dir, data):
        sidecar = fuzz_dir / "fuzz.ftfv"
        sidecar.write_bytes(data)
        argv = ["track", "--dets", str(fuzz_dir / "dets.txt"), "--features", str(sidecar),
                "--out", str(fuzz_dir / "o.txt"), "--min-hits", "1"]
        self.check(argv, sidecar)

    @given(text=SPEC_TEXTS)
    @example(text=b"noise_std = 1e308")  # noisy boxes overflow to inf; writing them exited 3
    @example(text=b"targets = 2\n\xff\xfe")  # not UTF-8: the decode error named no file
    @settings(max_examples=150, deadline=None)
    def test_simulate_spec_text(self, fuzz_dir, text):
        spec = fuzz_dir / "fuzz.cfg"
        spec.write_bytes(text)
        argv = ["simulate", "--spec", str(spec), "--out-dir", str(fuzz_dir / "scene")]
        self.check(argv, spec)

    @given(text=SPEC_TEXTS)
    @example(text=b"feat_noise_std = 1e300")  # its descriptors overflowed to zero vectors
    @settings(max_examples=30, deadline=None)
    def test_track_reads_simulate_output(self, fuzz_dir, text):
        # every run writes into one directory: simulate leaves no file of an earlier scene
        spec = fuzz_dir / "fuzz.cfg"
        spec.write_bytes(text)
        scene = fuzz_dir / "tracked_scene"
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
