import dataclasses
import json

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack import cli, lifting
from headtrack.dataio import DescriptorRecord, parse_mot, read_descriptors, write_descriptors

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
        records = [
            DescriptorRecord(f, 0, f_cls=np.array([np.nan if f == 2 else 1.0, 0.0]))
            for f in (1, 2, 3)
        ]
        sidecar = tmp_path / "features.ftfv"
        write_descriptors(sidecar, records, dim_cls=2, dim_reg=0, dim_head=0)
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
        records = [
            DescriptorRecord(f, k, f_cls=np.roll(d.f_cls, 1) if f >= 15 else d.f_cls)
            for (f, k), d in sorted(read_descriptors(sim_dir / "features.ftfv").items())
        ]
        write_descriptors(feats_dir / "b.ftfv", records, dim_cls=4, dim_reg=0, dim_head=0)
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
        lines = parse_mot(out)
        assert [l.frame for l in lines] == [1, 2, 3, 4, 5]
        assert lines[2].x == pytest.approx(4.0)

    @pytest.mark.parametrize("method", lifting.METHODS)
    def test_box_above_image_is_filled(self, tmp_path, method):
        # y + h < 0: the box lies wholly above the image top, a legal MOT row
        rows = ["1,1,100,-200,40,80,1,-1,-1,-1", "4,1,130,-190,40,80,1,-1,-1,-1"]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        assert cli.main(["interpolate", "--input", inp, "--method", method, "--out", str(out)]) == 0
        assert [l.frame for l in parse_mot(out)] == [1, 2, 3, 4]

    def test_branch_cut_names_the_track(self, tmp_path, capsys):
        # a U-turn across the gap: the anchors at frames 3 and 6 face opposite ways
        rows = [f"{f},7,{x},50,40,80,1,-1,-1,-1" for f, x in
                [(1, 100), (2, 110), (3, 120), (6, 150), (7, 140)]]
        inp = write(tmp_path / "in.txt", "\n".join(rows) + "\n")
        out = tmp_path / "out.txt"
        code = cli.main(["interpolate", "--input", inp, "--method", "se3_linear", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "track 7" in err and "principal branch" in err

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

    def test_bad_scene_is_data_error(self, tmp_path):
        scene = write(tmp_path / "scene.json", "{not json")
        assert cli.main(["assign", "--scene", scene]) == 2


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
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main(track + ["--out", str(a), "--motion-scale", "-1e-3"]) == 0
        assert cli.main(track + ["--out", str(b), "--motion-scale=-1e-3"]) == 0
        assert a.read_bytes() == b.read_bytes()
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
