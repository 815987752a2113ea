import io
import struct
import warnings

import itertools
import re

import mot_oracle
import numpy as np
import pytest
import scene_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import det_texts, raw_sidecar, sidecar_bytes

from headtrack import dataio
from headtrack.association import FEATURE_KINDS
from headtrack.dataio import (
    Descriptors,
    MotParseError,
    MotTable,
    check_unique_ids,
    format_mot,
    mot_to_detections,
    parse_mot,
    read_descriptors,
    split_frames,
    write_descriptors,
    write_mot,
)
from headtrack.geometry import BBox
from headtrack.rows import AppearanceDescriptor, MotLine
from headtrack.simulate import MOTION_MODELS, SceneSpec, generate_scene


class TestMotText:
    def test_canonical_detection_line(self):
        (l,) = parse_mot(["1,2,100,200,50,150,1,-1,-1,-1"])
        assert (l.frame, l.id) == (1, 2)
        assert l.box == BBox(100.0, 200.0, 50.0, 150.0)
        assert l.conf == 1.0
        assert l.extra == (-1.0, -1.0, -1.0)

    def test_empty_input(self):
        assert len(parse_mot([])) == 0
        assert format_mot(MotTable((), (), ())) == ""

    def test_columns(self):
        table = parse_mot(["1,-1,100,200,50,150,0.9,120,210,0.8", "", "3,4,1,2,3,4,1,-1,-1,-1"])
        assert (table.frame.dtype, table.id.dtype) == (np.int64, np.int64)
        assert table.frame.tolist() == [1, 3] and table.id.tolist() == [-1, 4]
        assert table.box.tolist() == [[100, 200, 50, 150], [1, 2, 3, 4]]
        assert table.conf.tolist() == [0.9, 1.0]
        assert table.extra.tolist() == [[120, 210, 0.8], [-1, -1, -1]]
        assert table.lineno.tolist() == [1, 3]

    def test_malformed_line_reports_number(self):
        with pytest.raises(MotParseError) as e:
            parse_mot(["1,2,0,0,5,5,1,-1,-1,-1", "garbage"])
        assert e.value.lineno == 2

    def test_wrong_field_count(self):
        with pytest.raises(MotParseError):
            parse_mot(["1,2,3,4"])

    def test_bad_frame_index(self):
        with pytest.raises(MotParseError):
            parse_mot(["0,1,0,0,5,5,1,-1,-1,-1"])

    @pytest.mark.parametrize("row,message", [
        ("1,1,nan,0,5,5,1,-1,-1,-1", "box coordinates must be finite"),
        ("1,1,0,inf,5,5,1,-1,-1,-1", "box coordinates must be finite"),
        ("1,1,0,0,-40,5,1,-1,-1,-1", "box extent must be positive"),
        ("1,1,0,0,5,0,1,-1,-1,-1", "box extent must be positive"),
    ])
    def test_bad_box_reports_number(self, row, message):
        with pytest.raises(MotParseError, match=f"line 3: {message}") as e:
            parse_mot(["1,2,0,0,5,5,1,-1,-1,-1", "", row])
        assert e.value.lineno == 3

    def test_iteration_yields_rows(self):
        (line,) = parse_mot(["1,2,3,4,5,6,1,-1,-1,-1"])
        assert line.bbox() is line.box
        assert line == MotLine(frame=1, id=2, box=BBox(3, 4, 5, 6), conf=1)

    def test_line_numbers_count_blank_lines(self):
        lines = list(parse_mot(["", "1,1,0,0,1,1,1,-1,-1,-1", "", "1,2,0,0,1,1,1,-1,-1,-1"]))
        assert [l.lineno for l in lines] == [2, 4]
        assert lines[0] == MotLine(frame=1, id=1, box=BBox(0, 0, 1, 1), conf=1)

    def test_out_of_range_integer_named(self):
        big = str(2**63)
        with pytest.raises(MotParseError, match=f"line 2: {big} does not fit in 64 bits"):
            parse_mot(["1,1,0,0,1,1,1,-1,-1,-1", f"1,{big},0,0,1,1,1,-1,-1,-1"])
        assert parse_mot([f"1,{-(2**63)},0,0,1,1,1,-1,-1,-1"]).id.tolist() == [-(2**63)]

    def test_repeated_frame_and_id_reported_at_second_line(self):
        rows = ["1,1,0,0,1,1,1,-1,-1,-1", "1,2,0,0,1,1,1,-1,-1,-1", "1,1,5,0,1,1,1,-1,-1,-1"]
        check_unique_ids(parse_mot(rows[:2]))
        with pytest.raises(MotParseError, match=r"line 3: frame 1 repeats id 1 \(first on line 1\)"):
            check_unique_ids(parse_mot(rows))

    def test_output_sorted_by_frame_then_id(self):
        rows = MotTable([2, 1, 1], [1, 5, 2], [(0, 0, 1, 1)] * 3)
        text = format_mot(rows)
        firsts = [line.split(",")[:2] for line in text.strip().split("\n")]
        assert firsts == [["1", "2"], ["1", "5"], ["2", "1"]]

    def test_non_finite_fields_format(self):
        # parse_mot accepts them in the trailing fields, and interpolate writes those back
        inf, nan = float("inf"), float("nan")
        rows = MotTable([1], [1], [(0, 0, 1, 1)], extra=[(inf, -inf, nan)])
        assert format_mot(rows) == "1,1,0,0,1,1,1,inf,-inf,nan\n"

    def test_file_roundtrip(self, tmp_path):
        rows = [MotLine(frame=1, id=3, box=BBox(10.25, -4.5, 33.1, 80.0), conf=0.75)]
        path = tmp_path / "x.txt"
        write_mot(path, MotTable([1], [3], [(10.25, -4.5, 33.1, 80.0)], conf=[0.75]))
        assert list(parse_mot(path)) == rows

    @given(
        st.lists(
            st.builds(
                MotLine,
                frame=st.integers(1, 5000),
                id=st.integers(-1, 5000),
                box=st.builds(
                    BBox,
                    x=st.floats(-1e5, 1e5),
                    y=st.floats(-1e5, 1e5),
                    w=st.floats(0.01, 1e4),
                    h=st.floats(0.01, 1e4),
                ),
                conf=st.floats(0, 1),
                extra=st.tuples(
                    st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(0, 1)
                ),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_parse_format_identity(self, rows):
        table = MotTable(
            [l.frame for l in rows], [l.id for l in rows],
            [(l.box.x, l.box.y, l.box.w, l.box.h) for l in rows],
            [l.conf for l in rows], [l.extra for l in rows],
        )
        parsed = parse_mot(format_mot(table).splitlines())
        assert sorted(parsed, key=lambda l: (l.frame, l.id)) == sorted(
            rows, key=lambda l: (l.frame, l.id)
        )


class TestDescriptorFile:
    def units(self, rng, n, dim):
        """``n`` random unit rows of ``dim``, each exact in f32."""
        v = rng.normal(size=(n, dim))
        return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype("<f4").astype(float)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        vectors = {"f_cls": self.units(rng, 4, 16), "f_reg": self.units(rng, 4, 8)}
        descs = Descriptors([1, 1, 2, 2], [0, 1, 0, 1], vectors)
        path = tmp_path / "d.ftfv"
        write_descriptors(path, descs)
        first = path.read_bytes()
        assert struct.unpack_from("<HIIIQ", first, 4) == (1, 16, 8, 0, 4)  # dimensions from the vectors
        loaded = read_descriptors(path)
        assert loaded.frame.tolist() == [1, 1, 2, 2] and loaded.det_index.tolist() == [0, 1, 0, 1]
        write_descriptors(path, loaded)
        assert path.read_bytes() == first

    def test_little_endian_layout(self, tmp_path):
        path = tmp_path / "d.ftfv"
        write_descriptors(path, Descriptors([7], [3], {"f_cls": [[1.0]]}))
        raw = path.read_bytes()
        assert raw[:4] == b"FTFV"
        version, dim_cls, dim_reg, dim_head, count = struct.unpack_from("<HIIIQ", raw, 4)
        assert (version, dim_cls, dim_reg, dim_head, count) == (1, 1, 0, 0, 1)
        # header is 4 + 2 + 3*4 + 8 = 26 bytes, then frame/index/f32 payload
        assert len(raw) == 26 + 12
        frame, det_index, value = struct.unpack_from("<IIf", raw, 26)
        assert (frame, det_index, value) == (7, 3, 1.0)

    @pytest.mark.parametrize("vectors", [{}, {"f_cls": np.zeros((0, 4))}])
    def test_no_records(self, tmp_path, vectors):
        # a kind without records declares dimension 0, however wide its empty matrix
        path = tmp_path / "d.ftfv"
        write_descriptors(path, Descriptors([], [], vectors))
        assert path.read_bytes() == struct.pack("<4sHIIIQ", b"FTFV", 1, 0, 0, 0, 0)
        loaded = read_descriptors(path)
        assert len(loaded) == 0 and loaded.vectors == {}
        assert split_frames(MotTable((), (), ()), loaded) == {}

    def test_loaded_vectors_unit_norm(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "d.ftfv"
        write_descriptors(path, Descriptors([1], [0], {"f_cls": self.units(rng, 1, 64)}))
        (v,) = read_descriptors(path).vectors["f_cls"]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_loaded_mapping_is_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        descs = Descriptors([3, 1], [1, 0], {"f_cls": self.units(rng, 2, 4), "f_head": self.units(rng, 2, 2)})
        path = tmp_path / "d.ftfv"
        write_descriptors(path, descs)
        loaded = read_descriptors(path)
        assert isinstance(loaded, Descriptors) and len(loaded) == 2
        assert loaded.frame.tolist() == [3, 1] and loaded.det_index.tolist() == [1, 0]  # record order
        assert sorted(loaded.vectors) == ["f_cls", "f_head"]
        assert loaded.vectors["f_cls"].shape == (2, 4) and loaded.vectors["f_head"].shape == (2, 2)
        for kind, m in descs.vectors.items():  # renormalized in float64 on the way in
            np.testing.assert_allclose(loaded.vectors[kind], m, rtol=0, atol=1e-7)

    def test_non_unit_vector_rejected_on_read(self, tmp_path):
        path = raw_sidecar(tmp_path / "d.ftfv", (1, 0, 3.0))  # |v| = 3
        with pytest.raises(ValueError):
            read_descriptors(path)

    def test_nan_vector_rejected_on_read(self, tmp_path):
        path = raw_sidecar(tmp_path / "d.ftfv", (2, 0, 0.6, np.nan, 0.8))
        with pytest.raises(ValueError, match=r"f_cls for \(2,0\) is not unit-norm"):
            read_descriptors(path)

    def test_repeated_record_rejected(self, tmp_path):
        path = raw_sidecar(tmp_path / "d.ftfv", (1, 0, 1.0), (1, 1, 1.0), (2, 0, 1.0), (1, 1, 1.0))
        with pytest.raises(ValueError, match=r"record 4 repeats \(frame, det_index\) \(1,1\)"):
            read_descriptors(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.ftfv"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(ValueError):
            read_descriptors(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "d.ftfv"
        buf = struct.pack("<4sHIIIQ", b"FTFV", 1, 4, 0, 0, 2)
        path.write_bytes(buf + b"\x00" * 10)
        with pytest.raises(ValueError):
            read_descriptors(path)

    @pytest.mark.parametrize("keys,message", [
        ([(1, 0), (1, -1)], r"key \(1, -1\) does not fit in u4"),
        ([(2**32, 0)], r"key \(4294967296, 0\) does not fit in u4"),
    ])
    def test_unwritable_mapping_rejected(self, tmp_path, keys, message):
        frame, det_index = zip(*keys)
        with pytest.raises(ValueError, match=message):
            write_descriptors(tmp_path / "d.ftfv", Descriptors(frame, det_index, {"f_cls": np.ones((len(keys), 1))}))
        assert not (tmp_path / "d.ftfv").exists()

    @pytest.mark.parametrize("keys,vectors,message", [
        # the first failing record is named, its repeat before its kinds in order
        ([(1, 0), (1, 1), (1, 2)], {"f_cls": [[1, 0], [0.6, 0.9], [0, 1]]},
         r"f_cls for \(1,1\) is not unit-norm: \|v\|=1.08"),
        ([(1, 0), (1, 1), (1, 2)], {"f_cls": [[1, 0], [0, 1], [1, 0]], "f_head": [[1, 0], [1, 0], [0.5, 0.5]]},
         r"f_head for \(1,2\) is not unit-norm"),
        ([(1, 0), (2, 0), (1, 0)], {"f_cls": [[1, 0], [0, 1], [0.5, 0.5]]},
         r"record 3 repeats \(frame, det_index\) \(1,0\)"),
        ([(1, 0), (1, 1)], {"f_cls": [[1, 0], [np.nan, 0]]}, r"f_cls for \(1,1\) is not unit-norm: \|v\|=nan"),
        ([(1, 0)], {"f_cls": np.zeros((1, 0))}, r"f_cls for \(1,0\) is not unit-norm: \|v\|=0.0"),
        ([(1, 0)], {}, "descriptor needs at least one feature kind"),
    ])
    def test_unreadable_records_not_written(self, tmp_path, keys, vectors, message):
        frame, det_index = zip(*keys)
        descs = Descriptors(frame, det_index, vectors)
        with pytest.raises(ValueError, match=message):
            write_descriptors(tmp_path / "d.ftfv", descs)
        assert not (tmp_path / "d.ftfv").exists()

    @pytest.mark.parametrize("frame,det_index,vectors", [
        ([1, 1], [0], {"f_cls": np.eye(2)}),
        ([1, 1], [0, 1], {"f_cls": np.eye(2)[:1]}),  # one row would broadcast to both records
        ([1, 1], [0, 1], {"f_cls": [1.0, 0.0]}),
        ([1, 1], [0, 1], {"f_body": np.eye(2)}),
    ])
    def test_columns_checked_on_construction(self, frame, det_index, vectors):
        with pytest.raises(ValueError, match=r"2 records need 2 det_index values and a 2 x d matrix per kind of"):
            Descriptors(frame, det_index, vectors)


class TestGenerateScene:
    def test_noiseless_linear_detections_equal_gt(self):
        spec = SceneSpec(targets=1, motion="linear", frames=20, noise_std=0.0)
        scene = generate_scene(spec)
        gt_boxes = [(l.frame, l.box) for l in scene.gt]
        det_boxes = [(l.frame, l.box) for l in scene.detections]
        assert gt_boxes == det_boxes

    def test_occlusion_drops_exactly_window_lines(self):
        spec = SceneSpec(
            targets=3, motion="linear", frames=30, occlusions=((2, 10, 14),)
        )
        scene = generate_scene(spec)
        assert len(scene.gt) == 90
        assert len(scene.detections) == 90 - 5
        frames_with_two = [f for f in range(10, 15)]
        for f in frames_with_two:
            assert sum(1 for l in scene.detections if l.frame == f) == 2

    def test_seed_determinism_byte_identical(self, tmp_path):
        spec = SceneSpec(targets=5, motion="crossing", frames=40, noise_std=1.0,
                         feat_noise_std=0.05, seed=42)
        outputs = []
        for run in range(2):
            scene = generate_scene(spec)
            gt_path = tmp_path / f"gt{run}.txt"
            det_path = tmp_path / f"det{run}.txt"
            feat_path = tmp_path / f"f{run}.ftfv"
            write_mot(gt_path, scene.gt)
            write_mot(det_path, scene.detections)
            write_descriptors(feat_path, scene.descriptors)
            outputs.append(
                (gt_path.read_bytes(), det_path.read_bytes(), feat_path.read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        base = SceneSpec(targets=3, frames=10, noise_std=1.0, seed=1)
        other = SceneSpec(targets=3, frames=10, noise_std=1.0, seed=2)
        a = generate_scene(base)
        b = generate_scene(other)
        assert [l.box for l in a.detections] != [l.box for l in b.detections]

    def test_one_hot_descriptors_by_default(self):
        descs = generate_scene(SceneSpec(targets=4, frames=2)).descriptors
        assert descs.frame.tolist() == [1] * 4 + [2] * 4 and descs.det_index.tolist() == [0, 1, 2, 3] * 2
        assert list(descs.vectors) == ["f_cls"]
        assert np.array_equal(descs.vectors["f_cls"], np.tile(np.eye(4), (2, 1)))

    @pytest.mark.parametrize("spec", [
        SceneSpec(targets=5, motion="crossing", frames=30, noise_std=1.0, feat_noise_std=0.2, descriptor_dim=16,
                  seed=9, occlusions=((2, 5, 12), (4, 1, 30))),
        SceneSpec(targets=3, frames=6, feat_noise_std=0.1, seed=2),  # one-hot
        SceneSpec(targets=2, motion="crossing", frames=4, box_height=1.0, occlusions=((1, 1, 4), (2, 1, 4))),
    ], ids=["occluded", "one-hot", "all occluded"])
    def test_sidecar_round_trip(self, tmp_path, spec):
        scene = generate_scene(spec)
        path = tmp_path / "features.ftfv"
        write_descriptors(path, scene.descriptors)
        loaded = read_descriptors(path)
        # each record of the file is one detection line of its frame, in file order
        lines = scene.detections.frame
        assert loaded.frame.tolist() == scene.descriptors.frame.tolist() == lines.tolist()
        assert loaded.det_index.tolist() == scene.descriptors.det_index.tolist()
        assert loaded.det_index.tolist() == [int((lines[:k] == f).sum()) for k, f in enumerate(lines)]
        if not len(lines):
            assert path.stat().st_size == 26 and loaded.vectors == {}
            return
        want = scene.descriptors.vectors["f_cls"]
        assert list(loaded.vectors) == ["f_cls"]
        np.testing.assert_allclose(loaded.vectors["f_cls"], want, rtol=0, atol=1e-7)
        record = np.dtype([("frame", "<u4"), ("det_index", "<u4"), ("f_cls", "<f4", (want.shape[1],))])
        stored = np.frombuffer(path.read_bytes(), record, offset=26)["f_cls"]
        assert np.array_equal(stored, want.astype("<f4"))

    def test_overlapping_spawn_rejected(self):
        spec = SceneSpec(targets=8, motion="crossing", frames=10, box_height=900.0)
        with pytest.raises(ValueError):
            generate_scene(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(targets=0)
        with pytest.raises(ValueError):
            SceneSpec(motion="teleport")
        with pytest.raises(ValueError):
            SceneSpec(frames=10, occlusions=((1, 5, 20),))
        with pytest.raises(ValueError):
            SceneSpec(targets=2, occlusions=((3, 1, 2),))

    @pytest.mark.parametrize("field,value", [
        ("noise_std", -1.0),
        ("feat_noise_std", -0.5),
        ("noise_std", float("nan")),
        ("descriptor_dim", -2),
        ("image_width", 0.0),
        ("image_height", 0.0),
        ("box_height", -80.0),
        ("seed", -1),
    ])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SceneSpec(**{field: value})

    def test_zero_descriptor_dim_makes_no_descriptors(self):
        scene = generate_scene(SceneSpec(targets=2, frames=3, descriptor_dim=0))
        assert scene.descriptors is None

    def test_circular_motion_stays_in_frame(self):
        spec = SceneSpec(targets=6, motion="circular", frames=50)
        scene = generate_scene(spec)
        for l in scene.gt:
            assert -200 < l.box.x < spec.image_width + 200
            assert -200 < l.box.y < spec.image_height + 200


def _scene_outcome(generate, write_sidecar, spec, path):
    """A scene's table columns and sidecar bytes, or the type and text of what generating it raises.

    Equal columns, bit for bit, print the same MOT text. A message's
    ``np.float64(v)`` reads as ``v``: the row-at-a-time generator built
    boxes from numpy scalars, the column-wise one from Python floats.
    """
    try:
        scene = generate(spec)
    except ValueError as exc:
        return type(exc).__name__, re.sub(r"np\.float64\(([^)]*)\)", r"\1", str(exc))
    columns = [getattr(t, c).tobytes() for t in (scene.gt, scene.detections) for c in ("frame", "id", "box")]
    return "ok", columns, path.read_bytes() if write_sidecar(path, scene) else None


def _write_old(path, scene):
    if scene.descriptor_dim:
        scene_oracle.write_descriptors(path, scene.descriptors, scene.descriptor_dim, 0, 0)
        return True
    return False


def _write_new(path, scene):
    if scene.descriptors is not None:
        write_descriptors(path, scene.descriptors)
        return True
    return False


class TestSceneOracle:
    """The column-wise generator and writer against the row-at-a-time ones in ``scene_oracle``."""

    # targets, frames, noise_std, feat_noise_std, descriptor_dim, seed
    GRID = list(itertools.product((1, 3, 10, 25), (1, 2, 40, 101), (0.0, 1.5), (0.0, 0.1),
                                  (None, 0, 4, 64), (0, 7)))

    @staticmethod
    def same(spec, tmp_path):
        want = _scene_outcome(scene_oracle.generate_scene, _write_old, spec, tmp_path / "old.ftfv")
        got = _scene_outcome(generate_scene, _write_new, spec, tmp_path / "new.ftfv")
        if want[0] == "ok" and want[2] is not None and want[2][18:26] == bytes(8):
            # no records: the old header kept dim_cls, the new one reads it from no vectors
            want = (*want[:2], want[2][:6] + bytes(12) + want[2][18:])
        assert got == want, spec

    @pytest.mark.parametrize("motion", MOTION_MODELS)
    def test_grid(self, tmp_path, motion):
        # 4 descriptor dims: one-hot (None, 64 when it is >= targets), none, random bases (4 < targets)
        for targets, frames, noise, feat_noise, dim, seed in self.GRID:
            spec = SceneSpec(
                targets=targets, motion=motion, frames=frames, box_height=8.0, noise_std=noise,
                feat_noise_std=feat_noise, descriptor_dim=dim, seed=seed,
                occlusions=((1, (frames + 3) // 4, (frames + 1) // 2),),
            )
            self.same(spec, tmp_path)

    @pytest.mark.parametrize("spec", [
        SceneSpec(targets=8, motion="crossing", frames=10, box_height=900.0),  # spawn overlap
        SceneSpec(targets=25, motion="linear"),
        SceneSpec(targets=10, motion="circular", box_height=400.0),
        SceneSpec(targets=3, motion="crossing", box_height=1e308),
        SceneSpec(targets=20, motion="linear", box_height=1e308),  # box overflow: h is inf from target 17
        SceneSpec(targets=3, motion="linear", image_height=1e308),
        SceneSpec(targets=2, motion="circular", image_width=1e308, image_height=1e308),
        SceneSpec(targets=3, motion="crossing", frames=5, noise_std=1e308, seed=3),  # detection overflow
        SceneSpec(targets=3, motion="linear", frames=5, noise_std=1e300, feat_noise_std=1e100),
        SceneSpec(targets=2, motion="linear", box_height=5e-324),  # w rounds to 0
        SceneSpec(targets=2, motion="crossing", frames=4, box_height=1.0, occlusions=((1, 1, 4), (2, 1, 4))),
    ])
    def test_extremes_and_errors(self, tmp_path, spec):
        self.same(spec, tmp_path)


class TestSplitFrames:
    def test_grouping_and_descriptors(self):
        lines = parse_mot(
            [
                "1,-1,0,0,10,20,0.9,-1,-1,-1",
                "1,-1,50,0,10,20,0.8,-1,-1,-1",
                "2,-1,2,0,10,20,0.7,-1,-1,-1",
            ]
        )
        e = np.zeros(4)
        e[1] = 1.0
        frames = split_frames(lines, Descriptors([1], [1], {"f_cls": [e]}))
        assert sorted(frames) == [1, 2]
        (first, second), (third,) = frames[1], frames[2]
        assert first.descriptor is None
        desc = second.descriptor
        assert isinstance(desc, AppearanceDescriptor) and np.array_equal(desc.f_cls, e)
        assert desc.f_reg is None and desc.f_head is None
        assert third.score == 0.7 and third.descriptor is None  # frame 2 has no record

    def test_file_order_kept_with_real_ids(self, tmp_path):
        # descending ids must not reorder a frame: sidecar records are keyed
        # by det_index in file order
        lines = parse_mot(
            [
                "2,7,90,0,10,20,0.6,-1,-1,-1",
                "1,9,0,0,10,20,0.9,-1,-1,-1",
                "1,5,50,0,10,20,0.8,-1,-1,-1",
                "2,3,70,0,10,20,0.5,-1,-1,-1",
                "1,1,30,0,10,20,0.7,-1,-1,-1",
            ]
        )
        basis = np.eye(3)
        descs = Descriptors([1, 1, 1, 2], [0, 1, 2, 1], {"f_cls": basis[[0, 1, 2, 2]]})
        path = tmp_path / "dets.ftfv"
        write_descriptors(path, descs)
        frames = split_frames(lines, read_descriptors(path))
        assert list(frames) == [1, 2]
        assert [d.bbox.x for d in frames[1]] == [0.0, 50.0, 30.0]
        assert [d.bbox.x for d in frames[2]] == [90.0, 70.0]
        for k, det in enumerate(frames[1]):
            assert np.array_equal(det.descriptor.f_cls, basis[k])
        without, with_record = frames[2]
        assert without.descriptor is None
        assert np.array_equal(with_record.descriptor.f_cls, basis[2])

    def test_batches_are_their_rows_as_columns(self, tmp_path):
        lines = parse_mot(
            [
                "3,4,1,0,10,20,0.3,-1,-1,-1",
                "2,7,90,0,10,20,0.6,-1,-1,-1",
                "1,9,0,0,10,20,0.9,-1,-1,-1",
                "2,3,70,0,10,20,0.5,-1,-1,-1",
                "1,1,30,0,10,20,0.7,-1,-1,-1",
            ]
        )
        basis = np.eye(3)
        path = tmp_path / "dets.ftfv"
        write_descriptors(path, Descriptors([2, 1], [1, 0], {"f_cls": basis[[2, 0]]}))
        batches = split_frames(lines, read_descriptors(path))
        lists = {frame: list(batch) for frame, batch in batches.items()}
        assert list(batches) == list(lists) == [1, 2, 3]
        for frame, batch in batches.items():
            dets = lists[frame]
            assert batch.boxes.tolist() == [[d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h] for d in dets]
            assert batch.scores.tolist() == [d.score for d in dets]
        assert batches[3].feats == {}  # no record in frame 3
        assert [d.descriptor for d in lists[3]] == [None]
        for frame, has in ((1, [True, False]), (2, [False, True])):
            m, mask = batches[frame].feats["f_cls"]
            assert mask.tolist() == has
            assert m.tolist() == [d.descriptor.f_cls.tolist() if d.descriptor else [0.0] * 3 for d in lists[frame]]

    def test_rows_carry_each_kind_their_record_has(self):
        lines = parse_mot([f"1,-1,{10 * k},0,10,20,0.5,-1,-1,-1" for k in range(3)])
        cls, head = np.eye(2), np.eye(3)[[2, 0]]
        frames = split_frames(lines, Descriptors([1, 1], [2, 0], {"f_cls": cls, "f_head": head}))
        (batch,) = frames.values()
        assert list(batch.feats) == ["f_cls", "f_head"]
        last, middle, first = list(batch)[::-1]
        assert middle.descriptor is None
        assert np.array_equal(first.descriptor.f_cls, cls[1]) and np.array_equal(first.descriptor.f_head, head[1])
        assert np.array_equal(last.descriptor.f_cls, cls[0]) and np.array_equal(last.descriptor.f_head, head[0])
        assert first.descriptor.f_reg is None and last.descriptor.f_reg is None
        assert batch.feats["f_head"][0].tolist() == [head[1].tolist(), [0.0] * 3, head[0].tolist()]

    def test_mot_to_detections_is_split_frames(self, tmp_path):
        scene = generate_scene(SceneSpec(targets=4, frames=12, seed=3, occlusions=((2, 4, 6),)))
        for descriptors in (scene.descriptors, None):
            want = split_frames(scene.detections, descriptors)
            got = mot_to_detections(scene.detections, descriptors)
            assert list(got) == list(want)
            for frame, batch in want.items():
                assert np.array_equal(got[frame].boxes, batch.boxes)
                assert np.array_equal(got[frame].scores, batch.scores)
                assert got[frame].feats.keys() == batch.feats.keys()
                for kind, (m, has) in batch.feats.items():
                    assert np.array_equal(got[frame].feats[kind][0], m)
                    assert np.array_equal(got[frame].feats[kind][1], has)

    @pytest.mark.parametrize("keys", [[(1, 0), (2, 2)], [(4, 0)], [(0, 0)], [(2, -1)]])
    def test_record_without_detection_rejected(self, keys):
        lines = parse_mot(["1,-1,0,0,10,20,0.9,-1,-1,-1", "2,-1,2,0,10,20,0.7,-1,-1,-1", "2,-1,9,0,10,20,0.7,-1,-1,-1"])
        frame, det_index = zip(*keys)
        descs = Descriptors(frame, det_index, {"f_cls": np.ones((len(keys), 1))})
        orphan = keys[-1]
        with pytest.raises(ValueError, match=rf"record \({orphan[0]},{orphan[1]}\) names no detection line"):
            split_frames(lines, descs)
        first = keys[0]  # a table without rows: every record is an orphan
        with pytest.raises(ValueError, match=rf"record \({first[0]},{first[1]}\) names no detection line"):
            split_frames(MotTable((), (), ()), descs)

    @pytest.mark.parametrize("row,message", [
        ("1,-1,0,0,10,20,nan,-1,-1,-1", "detection score must be finite"),
        ("1,-1,0,0,10,20,0.9,5,3,1.5", r"visibility must lie in \[0, 1\]"),
        ("1,-1,0,0,10,20,nan,5,3,1.5", r"visibility must lie in \[0, 1\]"),  # the head before the score
    ])
    def test_bad_detection_reports_number(self, row, message):
        lines = parse_mot(["1,-1,0,0,10,20,0.9,5,3,0.6", row])
        with pytest.raises(MotParseError, match=f"line 2: {message}"):
            split_frames(lines, head_format=True)


def _outcome(read, *args):
    """What ``read`` returns, or the type, text and line of what it raises."""
    try:
        return "ok", read(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "lineno", None)


def _rows(lines):
    return [repr((l.frame, l.id, l.box, l.conf, tuple(l.extra), l.lineno)) for l in lines]


def _bits(table: MotTable):
    """Each column's dtype, shape and bytes, so that equal results are equal bit for bit."""
    cols = (table.frame, table.id, table.box, table.conf, table.extra, table.lineno)
    return [(c.dtype.str, c.shape, c.tobytes()) for c in cols]


def _oracle_bits(lines):
    """``_bits`` of the oracle's rows as a table."""
    lines = list(lines)
    boxes = [(l.box.x, l.box.y, l.box.w, l.box.h) for l in lines]
    return _bits(MotTable([l.frame for l in lines], [l.id for l in lines], boxes, [l.conf for l in lines],
                          [l.extra for l in lines], [l.lineno for l in lines]))


def _vectors(descriptors: Descriptors):
    """Each record's key and the bytes of its kinds' rows, None for a kind the records lack."""
    kinds = [descriptors.vectors.get(k) for k in FEATURE_KINDS]
    keys = zip(descriptors.frame.tolist(), descriptors.det_index.tolist())
    return [(key, [None if m is None else m[r].tobytes() for m in kinds]) for r, key in enumerate(keys)]


def _record_vectors(records: dict):
    """``_vectors`` of the oracle's (frame, det_index) -> AppearanceDescriptor dict."""
    return [(key, [None if getattr(d, k) is None else getattr(d, k).tobytes() for k in FEATURE_KINDS])
            for key, d in records.items()]


MIXED_FAULTS = [
    # frame 0 on line 2 beats a bad float on line 3
    "1,1,0,0,5,5,1,-1,-1,-1\n0,1,0,0,5,5,1,-1,-1,-1\n1,2,x,0,5,5,1,-1,-1,-1",
    # within a line: a bad id before frame 0, frame 0 before a bad box
    "0,x,0,0,5,5,1,-1,-1,-1",
    "0,1,0,0,5,5,1,-1,-1,z",  # the last field is read before frame 0 is named
    "0,1,nan,0,-5,5,1,-1,-1,-1",
    # a non-finite box before a non-positive extent, and a late field before the box
    "1,1,nan,0,-5,5,1,-1,-1,-1",
    "1,1,0,0,-5,5,1,-1,-1,y",
    # a short line after a bad field, and before one
    "1,1,0,0,5,5,z,-1,-1,-1\n1,2,3",
    "\n1,2,3\n1,1,0,0,5,5,z,-1,-1,-1",
    " 4 ,1_0, 1e3 ,0,5,5,Infinity,-1,-1,-1\n\x0c\n2,2,0,0,5,5,1,nan,-inf,1",
]


class TestOracles:
    """Column-wise codecs against the row-at-a-time ones in ``mot_oracle``."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracles")

    @staticmethod
    def same_parse(text):
        got, want = (_outcome(read, io.StringIO(text)) for read in (parse_mot, mot_oracle.parse_mot))
        if want[0] == "ok":
            want = ("ok", _rows(want[1]))
            got = (got[0], _rows(got[1])) if got[0] == "ok" else got
        assert got == want

    @given(text=det_texts())
    @example(text=MIXED_FAULTS[0])
    @settings(max_examples=300, deadline=None)
    def test_parse_mot(self, text):
        self.same_parse(text)
        with pytest.MonkeyPatch.context() as patch:  # chunk borders between lines
            patch.setattr(dataio, "_CHUNK", 2)
            self.same_parse(text)

    @pytest.mark.parametrize("text", MIXED_FAULTS)
    def test_parse_mot_fault_order(self, text):
        self.same_parse(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_CHUNK", 1)
            self.same_parse(text)

    def test_parse_mot_long_file(self):
        rows = [f"{1 + k // 7},{k % 7},{k * 0.5},{-k},{1 + k % 5},{2.25 * (1 + k % 3)},1,-1,-1,-1" for k in range(5000)]
        rows[300] = ""
        self.same_parse("\n".join(rows))
        rows[4321] = rows[4321].replace(",1,-1,", ",1,q,")
        self.same_parse("\n".join(rows))

    @staticmethod
    def same_bits(text):
        """parse_mot's table equals the oracle's rows bit for bit, line numbers and dtypes included."""
        assert _bits(parse_mot(io.StringIO(text))) == _oracle_bits(mot_oracle.parse_mot(io.StringIO(text)))

    @staticmethod
    def one_pass(text):
        """``same_bits``, with the checked parser made to fail: clean text never reaches it."""
        def checked(*_):
            raise AssertionError("clean text reached the checked parser")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_read_checked", checked)
            TestOracles.same_bits(text)

    def test_clean_file_takes_one_pass(self):
        rows = [f"{1 + k // 7},{k % 7},{k * 0.5},{-k},{1 + k % 5},{2.25 * (1 + k % 3)},0.{k},-1,{k}e-3,nan"
                for k in range(5000)]
        self.one_pass("\n".join(rows) + "\n")
        self.one_pass(" +4 , 007 ,\t1e3\u3000,.5,5.,5\xa0,Infinity,-nan,-0.0,1e-400\r\n")
        # empty lines: the C reader skips them, and the table keeps the other lines' numbers
        self.one_pass("\n" + "\n".join(rows[:40]))
        self.one_pass("\n".join(rows[:20] + [""] + rows[20:40]))
        self.one_pass("\n".join(rows) + "\n\n\n")
        self.one_pass("\r\n".join(rows[:10] + ["", ""] + rows[10:40] + ["", ""]))

    @pytest.mark.parametrize("line", [
        "1_0,1,0,0,5,5,1,-1,-1,-1",  # Python reads an underscore between digits; the C reader does not
        "\u0661,1,0,0,5,5,1,-1,-1,-1",  # Arabic-Indic one
        "1,\uff11,0,0,5,5,1,-1,-1,-1",  # fullwidth one
        "1,1,1_0.5,0,5,5,1,-1,-1,-1",
        "1,1,0,0,\u0665,5,1,-1,-1,-1",
        "1,-9223372036854775808,0,0,5,5,1,-1,-1,-1",
        "9223372036854775808,1,0,0,5,5,1,-1,-1,-1",  # outside int64: an error, as a frame and as an id
        "-9223372036854775809,1,0,0,5,5,1,-1,-1,-1",
        "1,9223372036854775808,0,0,5,5,1,-1,-1,-1",
        "1,-9223372036854775809,0,0,5,5,1,-1,-1,-1",
        "",
        " \t",
        "1.0,1,0,0,5,5,1,-1,-1,-1",
        "1,1,0x10,0,5,5,1,-1,-1,-1",
    ])
    def test_tokens_only_python_reads(self, line):
        text = f"1,2,0,0,5,5,1,-1,-1,-1\n{line}\n3,4,1,2,3,4,1,-1,-1,-1"
        self.same_parse(text)
        if _outcome(mot_oracle.parse_mot, io.StringIO(text))[0] == "ok":
            self.same_bits(text)

    @pytest.mark.parametrize("text", ["", "\n\n", " \n\t\n", "\x0c", "\r\n", "\n\r\n"])
    def test_no_rows_warn_nothing(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(parse_mot(io.StringIO(text))) == 0
            assert len(parse_mot(text.splitlines())) == 0
            assert len(parse_mot(text.splitlines(keepends=True))) == 0  # "\r\n" lines arrive as "\r"

    def test_float_spellings(self):
        """A seeded fuzz of the spellings of random doubles reads each to the oracle's bits, in one pass."""
        rng = np.random.default_rng(25)
        doubles = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        doubles = np.concatenate([doubles[np.isfinite(doubles)], rng.normal(0, 1e3, 2000), rng.uniform(-1, 1, 2000)])
        specials = ["nan", "-nan", "NaN", "+nan", "Infinity", "-Infinity", "inf", "-inf", "1e-400", "-1e-400",
                    "-0.0", "-0", "0e0", "1e400", "-1E+400"]

        def spell(v: float, exact: bool = False) -> str:
            """A spelling of ``v``; an exact one reads back to ``v`` itself."""
            style = rng.integers(3 if exact else 6)
            if style == 0:
                return repr(v)
            if style == 1:
                return f"%.{17 if exact else rng.integers(1, 18)}g" % v
            if style == 2:
                return f"%.{16 if exact else rng.integers(0, 18)}E" % v
            if style == 3 and abs(v) < 1e20:
                return f"%.{rng.integers(0, 25)}f" % v
            return str(rng.choice(specials))

        lines = []
        for k in range(0, len(doubles) - 8, 8):
            v = doubles[k:k + 8].tolist()
            # a box the checked parser takes (finite, positive extent), so the line stays clean
            box = ",".join(spell(a, exact=True) for a in v[:2] + [abs(a) or 1.0 for a in v[2:4]])
            tail = ",".join(spell(a) for a in v[4:])
            lines.append(f"{1 + k},{k - 500},{box},{tail}")
        self.one_pass("\n".join(lines))

    SPECIAL = [0.0, -0.0, 0.5, 1e15, -1e15, np.nextafter(1e15, 0), np.nextafter(1e15, 2e15),
               999999999999999.0, -999999999999999.0, 1e308, -1e308, 5e-324, 123456789.0]
    finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
    extent = st.one_of(
        st.sampled_from([s for s in SPECIAL if s > 0]), st.floats(min_value=5e-324, allow_infinity=False)
    )
    anything = st.one_of(st.sampled_from(SPECIAL + [np.inf, -np.inf, np.nan]), st.floats())
    key = st.one_of(st.integers(1, 3), st.integers(-(2**63), 2**63 - 1))

    @given(st.lists(st.tuples(key, key, finite, finite, extent, extent, anything, anything, anything, anything),
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_format_mot(self, rows):
        want = mot_oracle.format_mot(
            mot_oracle.MotLine(f, i, BBox(x, y, w, h), c, (e1, e2, e3))
            for f, i, x, y, w, h, c, e1, e2, e3 in rows
        )
        cols = list(zip(*rows)) or [()] * 10
        table = MotTable(cols[0], cols[1], list(zip(*cols[2:6])), cols[6], list(zip(*cols[7:])))
        assert format_mot(table) == want
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_CHUNK", 3)
            assert format_mot(table) == want

    @given(data=sidecar_bytes())
    @example(data=struct.pack("<4sHIIIQ", b"FTFV", 1, 2**32 - 1, 0, 0, 0))  # no records, huge dimension
    @example(data=struct.pack("<4sHIIIQ", b"FTFV", 1, 0, 0, 0, 2) + struct.pack("<IIII", 1, 0, 1, 0))
    @example(data=struct.pack("<4sHIIIQ", b"FTFV", 1, 1, 1, 0, 3)
             + struct.pack("<IIff", 1, 0, 1.0, 1.0) + struct.pack("<IIff", 1, 1, 1.0, 3.0)
             + struct.pack("<IIff", 1, 0, 2.0, 1.0))  # f_reg of record 2 before the repeat at 3
    @example(data=struct.pack("<4sHIIIQ", b"FTFV", 1, 1, 0, 1, 2)
             + struct.pack("<IIff", 2, 0, 1.0, 1.0) + struct.pack("<IIff", 2, 0, 0.5, 1.0))  # repeat first
    @settings(max_examples=300, deadline=None)
    def test_read_descriptors(self, work, data):
        path = work / "d.ftfv"
        path.write_bytes(data)
        got, want = (_outcome(read, path) for read in (read_descriptors, mot_oracle.read_descriptors))
        if want[0] == "ok":
            want = ("ok", _record_vectors(want[1]))
            got = (got[0], _vectors(got[1])) if got[0] == "ok" else got
        assert got == want
