import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack.dataio import (
    DescriptorRecord,
    MotLine,
    MotParseError,
    SceneSpec,
    check_unique_ids,
    format_mot,
    generate_scene,
    mot_to_detections,
    parse_mot,
    read_descriptors,
    write_descriptors,
    write_mot,
)


class TestMotText:
    def test_canonical_detection_line(self):
        lines = parse_mot(["1,2,100,200,50,150,1,-1,-1,-1"])
        assert len(lines) == 1
        l = lines[0]
        assert (l.frame, l.id) == (1, 2)
        assert (l.x, l.y, l.w, l.h) == (100.0, 200.0, 50.0, 150.0)
        assert l.conf == 1.0
        assert l.head() is None

    def test_empty_input(self):
        assert parse_mot([]) == []
        assert format_mot([]) == ""

    def test_head_extended_line(self):
        lines = parse_mot(["1,-1,100,200,50,150,0.9,120,210,0.8"])
        head = lines[0].head()
        assert head is not None
        assert (head.x_head, head.y_head, head.v_head) == (120.0, 210.0, 0.8)

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

    def test_box_built_once_at_parse(self):
        (line,) = parse_mot(["1,2,3,4,5,6,1,-1,-1,-1"])
        assert line.bbox() is line.bbox()
        assert line.bbox() == MotLine(frame=1, id=2, x=3, y=4, w=5, h=6, conf=1).bbox()

    def test_line_numbers_count_blank_lines(self):
        lines = parse_mot(["", "1,1,0,0,1,1,1,-1,-1,-1", "", "1,2,0,0,1,1,1,-1,-1,-1"])
        assert [l.lineno for l in lines] == [2, 4]
        assert lines[0] == MotLine(frame=1, id=1, x=0, y=0, w=1, h=1, conf=1)

    def test_repeated_frame_and_id_reported_at_second_line(self):
        rows = ["1,1,0,0,1,1,1,-1,-1,-1", "1,2,0,0,1,1,1,-1,-1,-1", "1,1,5,0,1,1,1,-1,-1,-1"]
        check_unique_ids(parse_mot(rows[:2]))
        with pytest.raises(MotParseError, match=r"line 3: frame 1 repeats id 1 \(first on line 1\)"):
            check_unique_ids(parse_mot(rows))

    def test_output_sorted_by_frame_then_id(self):
        rows = [
            MotLine(frame=2, id=1, x=0, y=0, w=1, h=1, conf=1),
            MotLine(frame=1, id=5, x=0, y=0, w=1, h=1, conf=1),
            MotLine(frame=1, id=2, x=0, y=0, w=1, h=1, conf=1),
        ]
        text = format_mot(rows)
        firsts = [line.split(",")[:2] for line in text.strip().split("\n")]
        assert firsts == [["1", "2"], ["1", "5"], ["2", "1"]]

    def test_non_finite_fields_format(self):
        # parse_mot accepts them in the trailing fields, and interpolate writes those back
        inf, nan = float("inf"), float("nan")
        rows = [MotLine(frame=1, id=1, x=0, y=0, w=1, h=1, conf=1, extra=(inf, -inf, nan))]
        assert format_mot(rows) == "1,1,0,0,1,1,1,inf,-inf,nan\n"

    def test_file_roundtrip(self, tmp_path):
        rows = [MotLine(frame=1, id=3, x=10.25, y=-4.5, w=33.1, h=80.0, conf=0.75)]
        path = tmp_path / "x.txt"
        write_mot(path, rows)
        assert parse_mot(path) == rows

    @given(
        st.lists(
            st.builds(
                MotLine,
                frame=st.integers(1, 5000),
                id=st.integers(-1, 5000),
                x=st.floats(-1e5, 1e5),
                y=st.floats(-1e5, 1e5),
                w=st.floats(0.01, 1e4),
                h=st.floats(0.01, 1e4),
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
        parsed = parse_mot(format_mot(rows).splitlines())
        assert sorted(parsed, key=lambda l: (l.frame, l.id)) == sorted(
            rows, key=lambda l: (l.frame, l.id)
        )


class TestDescriptorFile:
    def unit(self, rng, dim):
        v = rng.normal(size=dim)
        return (v / np.linalg.norm(v)).astype("<f4").astype(float)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        recs = [
            DescriptorRecord(
                frame=f,
                det_index=i,
                f_cls=self.unit(rng, 16),
                f_reg=self.unit(rng, 8),
            )
            for f in (1, 2)
            for i in (0, 1)
        ]
        path = tmp_path / "d.ftfv"
        write_descriptors(path, recs, dim_cls=16, dim_reg=8, dim_head=0)
        first = path.read_bytes()
        loaded = read_descriptors(path)
        assert set(loaded) == {(1, 0), (1, 1), (2, 0), (2, 1)}
        write_descriptors(path, recs, dim_cls=16, dim_reg=8, dim_head=0)
        assert path.read_bytes() == first

    def test_little_endian_layout(self, tmp_path):
        path = tmp_path / "d.ftfv"
        rec = DescriptorRecord(frame=7, det_index=3, f_cls=np.array([1.0]))
        write_descriptors(path, [rec], dim_cls=1, dim_reg=0, dim_head=0)
        raw = path.read_bytes()
        assert raw[:4] == b"FTFV"
        version, dim_cls, dim_reg, dim_head, count = struct.unpack_from("<HIIIQ", raw, 4)
        assert (version, dim_cls, dim_reg, dim_head, count) == (1, 1, 0, 0, 1)
        # header is 4 + 2 + 3*4 + 8 = 26 bytes, then frame/index/f32 payload
        assert len(raw) == 26 + 12
        frame, det_index, value = struct.unpack_from("<IIf", raw, 26)
        assert (frame, det_index, value) == (7, 3, 1.0)

    def test_loaded_vectors_unit_norm(self, tmp_path):
        rng = np.random.default_rng(3)
        recs = [DescriptorRecord(frame=1, det_index=0, f_cls=self.unit(rng, 64))]
        path = tmp_path / "d.ftfv"
        write_descriptors(path, recs, dim_cls=64, dim_reg=0, dim_head=0)
        desc = read_descriptors(path)[(1, 0)]
        assert abs(np.linalg.norm(desc.f_cls) - 1.0) < 1e-9

    def test_non_unit_vector_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.ftfv"
        buf = struct.pack("<4sHIIIQ", b"FTFV", 1, 1, 0, 0, 1)
        buf += struct.pack("<IIf", 1, 0, 3.0)  # |v| = 3
        path.write_bytes(buf)
        with pytest.raises(ValueError):
            read_descriptors(path)

    def test_nan_vector_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.ftfv"
        rec = DescriptorRecord(frame=2, det_index=0, f_cls=np.array([0.6, np.nan, 0.8]))
        write_descriptors(path, [rec], dim_cls=3, dim_reg=0, dim_head=0)
        with pytest.raises(ValueError, match=r"f_cls for \(2,0\) is not unit-norm"):
            read_descriptors(path)

    def test_repeated_record_rejected(self, tmp_path):
        path = tmp_path / "d.ftfv"
        recs = [DescriptorRecord(frame=f, det_index=k, f_cls=np.array([1.0]))
                for f, k in [(1, 0), (1, 1), (2, 0), (1, 1)]]
        write_descriptors(path, recs, dim_cls=1, dim_reg=0, dim_head=0)
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

    def test_dimension_mismatch_on_write(self, tmp_path):
        rec = DescriptorRecord(frame=1, det_index=0, f_cls=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            write_descriptors(tmp_path / "d.ftfv", [rec], dim_cls=3, dim_reg=0, dim_head=0)


class TestGenerateScene:
    def test_noiseless_linear_detections_equal_gt(self):
        spec = SceneSpec(targets=1, motion="linear", frames=20, noise_std=0.0)
        scene = generate_scene(spec)
        gt_boxes = [(l.frame, l.x, l.y, l.w, l.h) for l in scene.gt]
        det_boxes = [(l.frame, l.x, l.y, l.w, l.h) for l in scene.detections]
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
            write_descriptors(
                feat_path, scene.descriptors, scene.descriptor_dim, 0, 0
            )
            outputs.append(
                (gt_path.read_bytes(), det_path.read_bytes(), feat_path.read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        base = SceneSpec(targets=3, frames=10, noise_std=1.0, seed=1)
        other = SceneSpec(targets=3, frames=10, noise_std=1.0, seed=2)
        a = generate_scene(base)
        b = generate_scene(other)
        assert [(l.x, l.y) for l in a.detections] != [(l.x, l.y) for l in b.detections]

    def test_one_hot_descriptors_by_default(self):
        scene = generate_scene(SceneSpec(targets=4, frames=2))
        assert scene.descriptor_dim == 4
        rec = scene.descriptors[0]
        assert np.count_nonzero(rec.f_cls) == 1

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

    def test_circular_motion_stays_in_frame(self):
        spec = SceneSpec(targets=6, motion="circular", frames=50)
        scene = generate_scene(spec)
        for l in scene.gt:
            assert -200 < l.x < spec.image_width + 200
            assert -200 < l.y < spec.image_height + 200


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
        records = [
            DescriptorRecord(frame=1, det_index=k, f_cls=basis[k]) for k in range(3)
        ] + [DescriptorRecord(frame=2, det_index=1, f_cls=basis[2])]
        path = tmp_path / "dets.ftfv"
        write_descriptors(path, records, dim_cls=3, dim_reg=0, dim_head=0)
        frames = mot_to_detections(lines, read_descriptors(path))
        assert list(frames) == [1, 2]
        assert [d.bbox.x for d in frames[1]] == [0.0, 50.0, 30.0]
        assert [d.bbox.x for d in frames[2]] == [90.0, 70.0]
        for k, det in enumerate(frames[1]):
            assert np.array_equal(det.descriptor.f_cls, basis[k])
        assert frames[2][0].descriptor is None
        assert np.array_equal(frames[2][1].descriptor.f_cls, basis[2])

    @pytest.mark.parametrize("row,message", [
        ("1,-1,0,0,10,20,nan,-1,-1,-1", "detection score must be finite"),
        ("1,-1,0,0,10,20,0.9,5,3,1.5", r"visibility must lie in \[0, 1\]"),
    ])
    def test_bad_detection_reports_number(self, row, message):
        lines = parse_mot(["1,-1,0,0,10,20,0.9,5,3,0.6", row])
        with pytest.raises(MotParseError, match=f"line 2: {message}"):
            mot_to_detections(lines, head_format=True)

    def test_head_format_flag(self):
        lines = parse_mot(["1,-1,0,0,10,20,0.9,5,3,0.6"])
        with_head = mot_to_detections(lines, head_format=True)
        without = mot_to_detections(lines, head_format=False)
        assert with_head[1][0].head is not None
        assert with_head[1][0].head.v_head == 0.6
        assert without[1][0].head is None
