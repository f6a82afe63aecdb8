import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinebeat
from kinebeat.audio import AudioClip, OnsetEnvelope
from kinebeat.pose import (
    ClipSpec,
    PoseSequence,
    interpolate_low_confidence,
    parse_pose_file,
    segment_clips,
    serialize_pose_file,
)

from conftest import pose_from_xy, random_pose_frames


def make_file(fps, frames):
    if isinstance(frames, np.ndarray):
        frames = frames.tolist()
    return json.dumps({"fps": fps, "frames": frames}).encode()


class TestParse:
    def test_documented_format_roundtrip_shape(self, rng):
        data = make_file(60, random_pose_frames(rng, 308, 17))
        seq = parse_pose_file(data)
        assert seq.fps == 60.0
        assert seq.frames.shape == (308, 17, 3)

    def test_ragged_joints_reports_frame(self, rng):
        frames = random_pose_frames(rng, 10, 17).tolist()
        frames[4] = frames[4][:16]
        with pytest.raises(ValueError, match="ragged joints at frame 4"):
            parse_pose_file(make_file(60, frames))

    def test_five_point_one_two_seconds_at_60fps(self, rng):
        # 5.12 * 60 = 307.2 frames; the parser accepts any T >= 3, so a
        # 308-frame file parses fine and only segment_clips enforces the
        # rounded 307-frame clip length.
        assert round(5.12 * 60) == 307
        seq = parse_pose_file(make_file(60, random_pose_frames(rng, 308, 17)))
        assert seq.n_frames == 308
        assert ClipSpec(5.12).frames_at(60.0) == 307

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_pose_file(b"{not json")

    def test_nan_literal_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            parse_pose_file(b'{"fps": 60, "frames": [[[NaN, 0, 1]], [[0, 0, 1]], [[0, 0, 1]]]}')

    def test_huge_literal_rejected(self):
        data = b'{"fps": 60, "frames": [[[1e999, 0, 1]], [[0, 0, 1]], [[0, 0, 1]]]}'
        with pytest.raises(ValueError, match="non-finite coordinate at frame 0"):
            parse_pose_file(data)

    def test_too_few_frames(self, rng):
        with pytest.raises(ValueError, match="at least 3 frames"):
            parse_pose_file(make_file(60, random_pose_frames(rng, 2, 3)))

    def test_confidence_out_of_range(self, rng):
        frames = random_pose_frames(rng, 5, 2)
        frames[3, 1, 2] = 1.5
        with pytest.raises(ValueError, match="confidence out of \\[0, 1\\] at frame 3"):
            parse_pose_file(make_file(60, frames))

    def test_one_json_loader(self):
        """json.loads is called once, in pose.load_json; no other module handles JSONDecodeError."""
        loads, decode_errors = [], []

        def visit(node, module, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, module, child.name)
                    continue
                if isinstance(child, ast.ImportFrom) and child.module == "json":
                    loads.append((module, "from json import"))
                if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                    if child.value.id == "json" and child.attr == "loads":
                        loads.append((module, function))
                    if child.value.id == "json" and child.attr == "JSONDecodeError":
                        decode_errors.append(module)
                visit(child, module, function)

        for path in sorted(Path(kinebeat.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
        assert loads == [("pose.py", "load_json")]
        assert set(decode_errors) == {"pose.py"}

    def test_isfinite_only_in_pose(self):
        """np.isfinite is called only in pose.py: every data type checks its arrays there."""
        calls = []
        for path in sorted(Path(kinebeat.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "isfinite":
                    if isinstance(node.value, ast.Name) and node.value.id == "np":
                        calls.append(path.name)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                    assert "isfinite" not in {alias.name for alias in node.names}, path.name
        assert set(calls) == {"pose.py"}

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: OnsetEnvelope(True, np.zeros(4)), id="OnsetEnvelope"),
        pytest.param(lambda: ClipSpec(True), id="ClipSpec"),
        pytest.param(lambda: AudioClip(True, np.zeros(4)), id="AudioClip"),
    ])
    def test_bool_rate_refused(self, make):
        with pytest.raises(ValueError, match="rate|duration"):
            make()

    def test_bad_fps(self, rng):
        frames = random_pose_frames(rng, 5, 2)
        with pytest.raises(ValueError):
            parse_pose_file(make_file(0, frames))
        with pytest.raises(ValueError, match="fps"):
            parse_pose_file(json.dumps({"fps": "x", "frames": frames.tolist()}).encode())

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_parse_serialize_parse_identity(self, data):
        n_frames = data.draw(st.integers(3, 12))
        n_joints = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        seq = PoseSequence(fps=60.0, frames=random_pose_frames(rng, n_frames, n_joints))
        again = parse_pose_file(serialize_pose_file(seq))
        assert again.fps == seq.fps
        np.testing.assert_array_equal(again.frames, seq.frames)


class TestInterpolate:
    def test_single_dip_midpoint(self):
        xy = np.zeros((10, 1, 2))
        xy[:, 0, 0] = np.arange(10)
        seq = pose_from_xy(xy, conf=0.9)
        frames = seq.frames.copy()
        frames[5, 0, 0] = 999.0  # corrupted coordinate
        frames[4, 0, 0] = 10.0
        frames[6, 0, 0] = 14.0
        frames[5, 0, 2] = 0.1
        repaired = interpolate_low_confidence(PoseSequence(60.0, frames), threshold=0.3)
        assert repaired.frames[5, 0, 0] == 12.0
        assert repaired.frames[5, 0, 2] == 0.3

    def test_threshold_zero_is_identity(self, rng):
        seq = PoseSequence(60.0, random_pose_frames(rng, 20, 3))
        out = interpolate_low_confidence(seq, threshold=0.0)
        np.testing.assert_array_equal(out.frames, seq.frames)

    def test_leading_gap_holds_first_valid(self):
        frames = np.zeros((6, 1, 3))
        frames[:, 0, 2] = [0.1, 0.1, 0.1, 0.9, 0.9, 0.9]
        frames[3:, 0, 0] = 7.0
        frames[3:, 0, 1] = 7.0
        frames[:3, 0, :2] = -1.0
        repaired = interpolate_low_confidence(PoseSequence(60.0, frames), threshold=0.3)
        np.testing.assert_array_equal(repaired.frames[:3, 0, 0], [7.0, 7.0, 7.0])
        np.testing.assert_array_equal(repaired.frames[:3, 0, 1], [7.0, 7.0, 7.0])

    def test_joint_with_no_valid_frame_named(self):
        frames = np.zeros((5, 2, 3))
        frames[:, 0, 2] = 0.9
        frames[:, 1, 2] = 0.05
        with pytest.raises(ValueError, match="joint 1"):
            interpolate_low_confidence(PoseSequence(60.0, frames), threshold=0.3)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed, threshold):
        rng = np.random.default_rng(seed)
        frames = random_pose_frames(rng, 15, 3)
        frames[:, :, 2] = np.maximum(frames[:, :, 2], 0.96)  # one anchor per joint
        frames[3:9, :, 2] = rng.uniform(0, 1, size=(6, 3))
        seq = PoseSequence(60.0, frames)
        once = interpolate_low_confidence(seq, threshold)
        twice = interpolate_low_confidence(once, threshold)
        np.testing.assert_array_equal(once.frames, twice.frames)


class TestSegment:
    def test_1000_frames_at_60fps(self, rng):
        seq = PoseSequence(60.0, random_pose_frames(rng, 1000, 2))
        clips = segment_clips(seq, ClipSpec(5.12))
        assert round(5.12 * 60) == 307
        assert len(clips) == 1000 // 307 == 3
        assert all(c.n_frames == 307 for c in clips)
        assert 1000 - 3 * 307 == 79  # dropped remainder

    def test_exactly_one_clip(self, rng):
        seq = PoseSequence(60.0, random_pose_frames(rng, 307, 2))
        assert len(segment_clips(seq, ClipSpec(5.12))) == 1

    def test_one_frame_short(self, rng):
        seq = PoseSequence(60.0, random_pose_frames(rng, 306, 2))
        assert segment_clips(seq, ClipSpec(5.12)) == []

    def test_tiny_clip_rejected(self, rng):
        seq = PoseSequence(60.0, random_pose_frames(rng, 100, 2))
        with pytest.raises(ValueError, match="at least 3"):
            segment_clips(seq, ClipSpec(0.02))

    @given(st.integers(3, 400), st.integers(0, 2**32 - 1), st.floats(0.06, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_clips_cover_prefix_without_gap_or_overlap(self, n_frames, seed, duration):
        rng = np.random.default_rng(seed)
        seq = PoseSequence(60.0, random_pose_frames(rng, n_frames, 2))
        clip_len = ClipSpec(duration).frames_at(60.0)
        if clip_len < 3:
            return
        clips = segment_clips(seq, ClipSpec(duration))
        assert len(clips) == n_frames // clip_len
        if clips:
            stitched = np.concatenate([c.frames for c in clips], axis=0)
            np.testing.assert_array_equal(stitched, seq.frames[: len(clips) * clip_len])
