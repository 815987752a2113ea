import io
import struct

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
from headtrack.association import AppearanceDescriptor
from headtrack.dataio import (
    Descriptors,
    MotLine,
    MotParseError,
    MotTable,
    SceneSpec,
    check_unique_ids,
    format_mot,
    generate_scene,
    mot_to_detections,
    parse_mot,
    read_descriptors,
    split_frames,
    write_descriptors,
    write_mot,
)
from headtrack.geometry import BBox


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
        rows = MotTable.from_rows([(2, 1, BBox(0, 0, 1, 1)), (1, 5, BBox(0, 0, 1, 1)), (1, 2, BBox(0, 0, 1, 1))])
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
    def unit(self, rng, dim):
        v = rng.normal(size=dim)
        return (v / np.linalg.norm(v)).astype("<f4").astype(float)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        descs = {
            (f, i): AppearanceDescriptor(f_cls=self.unit(rng, 16), f_reg=self.unit(rng, 8))
            for f in (1, 2)
            for i in (0, 1)
        }
        path = tmp_path / "d.ftfv"
        write_descriptors(path, descs)
        first = path.read_bytes()
        assert struct.unpack_from("<HIIIQ", first, 4) == (1, 16, 8, 0, 4)  # dimensions from the vectors
        loaded = read_descriptors(path)
        assert list(loaded) == [(1, 0), (1, 1), (2, 0), (2, 1)]
        write_descriptors(path, loaded)
        assert path.read_bytes() == first

    def test_little_endian_layout(self, tmp_path):
        path = tmp_path / "d.ftfv"
        write_descriptors(path, {(7, 3): AppearanceDescriptor(f_cls=np.array([1.0]))})
        raw = path.read_bytes()
        assert raw[:4] == b"FTFV"
        version, dim_cls, dim_reg, dim_head, count = struct.unpack_from("<HIIIQ", raw, 4)
        assert (version, dim_cls, dim_reg, dim_head, count) == (1, 1, 0, 0, 1)
        # header is 4 + 2 + 3*4 + 8 = 26 bytes, then frame/index/f32 payload
        assert len(raw) == 26 + 12
        frame, det_index, value = struct.unpack_from("<IIf", raw, 26)
        assert (frame, det_index, value) == (7, 3, 1.0)

    def test_no_records(self, tmp_path):
        path = tmp_path / "d.ftfv"
        write_descriptors(path, {})
        assert path.read_bytes() == struct.pack("<4sHIIIQ", b"FTFV", 1, 0, 0, 0, 0)
        assert read_descriptors(path) == {}
        assert read_descriptors(path).values() == []

    def test_loaded_vectors_unit_norm(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "d.ftfv"
        write_descriptors(path, {(1, 0): AppearanceDescriptor(f_cls=self.unit(rng, 64))})
        desc = read_descriptors(path)[(1, 0)]
        assert abs(np.linalg.norm(desc.f_cls) - 1.0) < 1e-9

    def test_loaded_mapping_is_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        descs = {(3, 1): AppearanceDescriptor(f_cls=self.unit(rng, 4), f_head=self.unit(rng, 2)),
                 (1, 0): AppearanceDescriptor(f_cls=self.unit(rng, 4), f_head=self.unit(rng, 2))}
        path = tmp_path / "d.ftfv"
        write_descriptors(path, descs)
        loaded = read_descriptors(path)
        assert isinstance(loaded, Descriptors) and len(loaded) == 2
        assert list(loaded) == [(3, 1), (1, 0)]  # record order
        assert loaded.frame.tolist() == [3, 1] and loaded.det_index.tolist() == [1, 0]
        assert sorted(loaded.vectors) == ["f_cls", "f_head"]
        assert loaded.vectors["f_cls"].shape == (2, 4) and loaded.vectors["f_head"].shape == (2, 2)
        assert (3, 1) in loaded and (1, 1) not in loaded and loaded.get((1, 1)) is None
        desc = loaded[(1, 0)]  # built on lookup, from its row
        assert desc.f_reg is None and np.array_equal(desc.f_head, loaded.vectors["f_head"][1])
        with pytest.raises(KeyError):
            loaded[(2, 0)]
        assert [d.f_cls.tolist() for d in loaded.values()] == loaded.vectors["f_cls"].tolist()
        assert Descriptors.of(loaded) is loaded
        assert _vectors(Descriptors.of(descs)) == _vectors(descs)

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

    @pytest.mark.parametrize("descs,message", [
        ({(1, 0): [1.0], (1, 1): [0.0, 1.0]}, "f_cls vectors differ in length"),
        ({(1, 0): [1.0], (2, 0): None}, "f_cls carried by 1 of 2 records"),
        ({(1, -1): [1.0]}, r"key \(1, -1\) does not fit in u4"),
        ({(2**32, 0): [1.0]}, r"key \(4294967296, 0\) does not fit in u4"),
    ])
    def test_unwritable_mapping_rejected(self, tmp_path, descs, message):
        descs = {
            key: AppearanceDescriptor(f_cls=v) if v is not None else AppearanceDescriptor(f_reg=[1.0])
            for key, v in descs.items()
        }
        with pytest.raises(ValueError, match=message):
            write_descriptors(tmp_path / "d.ftfv", descs)
        assert not (tmp_path / "d.ftfv").exists()


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
        scene = generate_scene(SceneSpec(targets=4, frames=2))
        assert list(scene.descriptors) == [(f, k) for f in (1, 2) for k in range(4)]
        for (f, k), desc in scene.descriptors.items():
            assert np.array_equal(desc.f_cls, np.eye(4)[k])

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

    @pytest.mark.parametrize("motion", dataio.MOTION_MODELS)
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


class TestMotToDetections:
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
        from headtrack.association import AppearanceDescriptor

        desc = {(1, 1): AppearanceDescriptor(f_cls=e)}
        frames = mot_to_detections(lines, desc)
        assert sorted(frames) == [1, 2]
        assert len(frames[1]) == 2
        assert frames[1][0].descriptor is None
        assert frames[1][1].descriptor is desc[(1, 1)]
        assert frames[2][0].score == 0.7

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
        descs = {(1, k): AppearanceDescriptor(f_cls=basis[k]) for k in range(3)}
        descs[2, 1] = AppearanceDescriptor(f_cls=basis[2])
        path = tmp_path / "dets.ftfv"
        write_descriptors(path, descs)
        frames = mot_to_detections(lines, read_descriptors(path))
        assert list(frames) == [1, 2]
        assert [d.bbox.x for d in frames[1]] == [0.0, 50.0, 30.0]
        assert [d.bbox.x for d in frames[2]] == [90.0, 70.0]
        for k, det in enumerate(frames[1]):
            assert np.array_equal(det.descriptor.f_cls, basis[k])
        assert frames[2][0].descriptor is None
        assert np.array_equal(frames[2][1].descriptor.f_cls, basis[2])

    def test_batches_are_the_lists_as_columns(self, tmp_path):
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
        write_descriptors(path, {(2, 1): AppearanceDescriptor(f_cls=basis[2]),
                                 (1, 0): AppearanceDescriptor(f_cls=basis[0])})
        descriptors = read_descriptors(path)
        batches, lists = split_frames(lines, descriptors), mot_to_detections(lines, descriptors)
        assert list(batches) == list(lists) == [1, 2, 3]
        for frame, batch in batches.items():
            dets = lists[frame]
            assert batch.boxes.tolist() == [[d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h] for d in dets]
            assert batch.scores.tolist() == [d.score for d in dets]
        assert batches[3].feats == {}  # no record in frame 3
        for frame, has in ((1, [True, False]), (2, [False, True])):
            m, mask = batches[frame].feats["f_cls"]
            assert mask.tolist() == has
            assert m.tolist() == [d.descriptor.f_cls.tolist() if d.descriptor else [0.0] * 3 for d in lists[frame]]

    @pytest.mark.parametrize("keys", [[(1, 0), (2, 2)], [(4, 0)], [(0, 0)], [(2, -1)]])
    def test_record_without_detection_rejected(self, keys):
        lines = parse_mot(["1,-1,0,0,10,20,0.9,-1,-1,-1", "2,-1,2,0,10,20,0.7,-1,-1,-1", "2,-1,9,0,10,20,0.7,-1,-1,-1"])
        descs = {key: AppearanceDescriptor(f_cls=[1.0]) for key in keys}
        orphan = keys[-1]
        for split in (split_frames, mot_to_detections):
            with pytest.raises(ValueError, match=rf"record \({orphan[0]},{orphan[1]}\) names no detection line"):
                split(lines, descs)
        first = keys[0]  # a table without rows: every record is an orphan
        with pytest.raises(ValueError, match=rf"record \({first[0]},{first[1]}\) names no detection line"):
            split_frames(MotTable((), (), ()), descs)

    @pytest.mark.parametrize("row,message", [
        ("1,-1,0,0,10,20,nan,-1,-1,-1", "detection score must be finite"),
        ("1,-1,0,0,10,20,0.9,5,3,1.5", r"visibility must lie in \[0, 1\]"),
    ])
    def test_bad_detection_reports_number(self, row, message):
        lines = parse_mot(["1,-1,0,0,10,20,0.9,5,3,0.6", row])
        for split in (split_frames, mot_to_detections):
            with pytest.raises(MotParseError, match=f"line 2: {message}"):
                split(lines, head_format=True)

    def test_head_format_flag(self):
        lines = parse_mot(["1,-1,0,0,10,20,0.9,5,3,0.6"])
        with_head = mot_to_detections(lines, head_format=True)
        without = mot_to_detections(lines, head_format=False)
        assert with_head[1][0].head is not None
        assert with_head[1][0].head.v_head == 0.6
        assert without[1][0].head is None


def _outcome(read, *args):
    """What ``read`` returns, or the type, text and line of what it raises."""
    try:
        return "ok", read(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "lineno", None)


def _rows(lines):
    return [repr((l.frame, l.id, l.box, l.conf, tuple(l.extra), l.lineno)) for l in lines]


def _vectors(descriptors):
    return [
        (key, [None if getattr(d, k) is None else getattr(d, k).tobytes() for k in ("f_cls", "f_reg", "f_head")])
        for key, d in descriptors.items()
    ]


MIXED_FAULTS = [
    # frame 0 on line 2 beats a bad float on line 3
    "1,1,0,0,5,5,1,-1,-1,-1\n0,1,0,0,5,5,1,-1,-1,-1\n1,2,x,0,5,5,1,-1,-1,-1",
    # within a line: a bad id before frame 0, frame 0 before a bad box
    "0,x,0,0,5,5,1,-1,-1,-1",
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
            want = ("ok", _vectors(want[1]))
            got = (got[0], _vectors(got[1])) if got[0] == "ok" else got
        assert got == want
