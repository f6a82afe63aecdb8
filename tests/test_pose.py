import ast
import gc
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinebeat
from kinebeat import cli, pose
from kinebeat.audio import AudioClip, OnsetEnvelope
from kinebeat.pose import (
    ClipSpec,
    PoseSequence,
    finite_array,
    interpolate_low_confidence,
    load_json,
    parse_pose_file,
    segment_clips,
    serialize_pose_file,
)

from conftest import parse_pose_loop, pose_from_xy, random_pose_frames


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

    def test_threads_are_made_only_by_run_on_two_threads(self):
        """threading is imported only by pose.py, and a Thread is made in one place."""
        threads, imports = [], []
        for path in sorted(Path(kinebeat.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "Thread":
                    threads.append(path.name)
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
                    if "threading" in names:
                        imports.append(path.name)
        assert threads == ["pose.py"] and imports == ["pose.py"]

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


# JSON number texts at the edges of the one-conversion path: ints near 2**53, in
# [2**63, 2**64) and past them, a 400-digit int, and floats that overflow to inf
EDGE_NUMBERS = [
    "0", "-0", "-0.0", "1", "0.5", "1.0", "1e-320", str(2**53 - 1), str(2**53 + 1), str(-(2**53) - 3),
    str(2**63 - 1), str(2**63), str(2**63 + 1), str(2**64 - 1), str(2**64), str(-(2**63) - 1),
    "1" + "0" * 400, "-1" + "0" * 400, "1e400", "-1e400", "1.7976931348623157e308",
]
NOT_NUMBERS = ["true", "false", "null", '"1.5"', '"x"', "[1]", "[]", "{}", "NaN", "Infinity"]


def _number_text():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
        st.integers(-(2**70), 2**70).map(str),
        st.integers(2**53 - 8, 2**53 + 8).map(str),
        st.integers(2**63, 2**64 - 1).map(str),
        st.floats(0.0, 1.0).map(json.dumps),  # a confidence, so that some files are valid
        st.sampled_from(EDGE_NUMBERS),
    )


@st.composite
def pose_documents(draw):
    """Keypoint JSON text: mostly plain numbers, sometimes a non-number, a ragged or
    empty frame, a keypoint of the wrong length, or a `true` in an unrelated key."""
    n_frames, n_joints = draw(st.integers(3, 5)), draw(st.integers(1, 3))
    value = st.one_of(_number_text(), st.sampled_from(NOT_NUMBERS)) if draw(st.booleans()) else _number_text()
    frames = [[[draw(value) for _ in range(3)] for _ in range(n_joints)] for _ in range(n_frames)]
    t = draw(st.integers(0, n_frames - 1))
    damage = draw(st.sampled_from([
        "none", "none", "ragged", "no-joints", "short-keypoint", "long-keypoint",
        "every-keypoint-short", "every-value-wrapped", "frames-of-numbers",
    ]))
    if damage == "ragged":
        frames[t] = frames[t][:-1] if n_joints > 1 else frames[t] + frames[t]
    elif damage == "no-joints":
        frames[t] = []
    elif damage.endswith("-keypoint"):
        frames[t][0] = frames[t][0][:2] if damage == "short-keypoint" else frames[t][0] + ["0"]
    elif damage == "every-keypoint-short":  # (T, J, 2) as one array
        frames = [[kp[:2] for kp in f] for f in frames]
    elif damage == "every-value-wrapped":  # (T, J, 3, 1)
        frames = [[[f"[{v}]" for v in kp] for kp in f] for f in frames]
    body = "[" + ", ".join("[" + ", ".join("[" + ", ".join(kp) + "]" for kp in f) + "]" for f in frames) + "]"
    if damage == "frames-of-numbers":  # (T, 3)
        body = "[" + ", ".join("[" + ", ".join(f[0]) + "]" for f in frames) + "]"
    extra = ', "note": "true"' if draw(st.booleans()) else ""
    fps = draw(st.sampled_from(["60", "29.97", "0", "true", '"60"']))
    return f'{{"fps": {fps}, "frames": {body}{extra}}}'.encode()


def outcome(parse, data):
    """What parse makes of data: the fps and the frames' bytes, or the error's type and text."""
    try:
        seq = parse(data)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return seq.fps, seq.frames.dtype.str, seq.frames.shape, seq.frames.tobytes()


class TestOneConversionPath:
    """parse_pose_file against the per-value loop it skips on files of plain numbers."""

    @given(pose_documents())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_value_loop(self, data):
        assert outcome(parse_pose_file, data) == outcome(parse_pose_loop, data)

    @pytest.mark.parametrize("text", EDGE_NUMBERS + NOT_NUMBERS)
    def test_every_edge_value_matches_the_per_value_loop(self, text):
        for where in range(3):  # the value in x, y, then confidence of frame 1
            kp = ["0.5"] * 3
            kp[where] = text
            data = ('{"fps": 60, "frames": [[[1, 2, 0.5]], [[%s]], [[1, 2.5, 1]]]}' % ", ".join(kp)).encode()
            assert outcome(parse_pose_file, data) == outcome(parse_pose_loop, data)

    def test_plain_numbers_skip_the_loop_and_a_true_anywhere_takes_it(self, monkeypatch, rng, tmp_path):
        frames = random_pose_frames(rng, 20, 4).tolist()
        frames[3][1] = [7, -2, 1]  # ints among the floats still convert in one go
        checked = []
        monkeypatch.setattr(pose, "json_number", lambda v, what: checked.append(what) or float(v))
        plain = make_file(60, frames)
        flagged = json.dumps({"fps": 60, "frames": frames, "true": "false"}).encode()
        # its u and l are in an extra key, so "true" and "false" are searched for, and not found
        keyed = json.dumps({"fps": 60, "frames": frames, "source": "lab"}).encode()
        for name, data in [("plain", plain), ("flagged", flagged), ("keyed", keyed)]:
            path = tmp_path / f"{name}.json"
            path.write_bytes(data)
            for contents in (data, cli._read_file(str(path))):  # bytes, and the CLI's read-only mmap
                checked.clear()
                np.testing.assert_array_equal(parse_pose_file(contents).frames, np.asarray(frames))
                assert checked == ["fps"] if name != "flagged" else len(checked) == 1 + 20 * 4 * 3


class TestNonFiniteLiterals:
    """NaN, Infinity and -Infinity parse as floats, as 1e999 does, and the value checks refuse each
    of them with the same line naming the frame, on either path and in the per-value loop's
    reference."""

    @pytest.mark.parametrize("where, message", [
        (0, "non-finite coordinate at frame 1"),
        (1, "non-finite coordinate at frame 1"),
        (2, "confidence out of [0, 1] at frame 1"),
    ])
    @pytest.mark.parametrize("path", ["one-conversion", "per-value-loop"])
    def test_one_line_naming_the_frame(self, monkeypatch, path, where, message):
        checked, json_number = [], pose.json_number
        monkeypatch.setattr(pose, "json_number", lambda v, what: checked.append(what) or json_number(v, what))
        extra = ', "true": 1' if path == "per-value-loop" else ""  # a true anywhere takes the loop
        for text in ["NaN", "Infinity", "-Infinity", "1e999"]:
            kp = ["0.5"] * 3
            kp[where] = text
            data = ('{"fps": 60, "frames": [[[1, 2, 0.5]], [[%s]], [[1, 2.5, 1]]]%s}'
                    % (", ".join(kp), extra)).encode()
            for parse in (parse_pose_file, parse_pose_loop):
                with pytest.raises(ValueError) as exc:
                    parse(data)
                assert str(exc.value) == message, (text, parse)
        assert any(what.startswith("keypoint value") for what in checked) == (path == "per-value-loop")

    @pytest.mark.parametrize("text, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    def test_fps_is_refused_by_value_and_an_extra_key_accepted(self, text, shown):
        frames = b"[[[1, 2, 0.5]], [[1, 2, 0.5]], [[1, 2.5, 1]]]"
        for parse in (parse_pose_file, parse_pose_loop):
            with pytest.raises(ValueError) as exc:
                parse(b'{"fps": %s, "frames": %s}' % (text.encode(), frames))
            assert str(exc.value) == f"fps must be a positive finite number, got {shown}"
            seq = parse(b'{"fps": 60, "frames": %s, "note": %s}' % (frames, text.encode()))
            assert seq.fps == 60.0 and seq.frames.tolist() == json.loads(frames)


class TestLoadJsonCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("data", [b'{"a": [1, 2]}', b'{"a": [1, 2'])
    def test_collector_state_restored(self, enabled, data, monkeypatch):
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: seen.append(gc.isenabled()) or loads(*a, **k))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                load_json(data, "doc")
            except ValueError:
                assert data.endswith(b"2")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]


class TestRunOnTwoThreads:
    """run_on_two_threads' own contract, on plain Python work functions: the caller runs
    items[::2] and one helper items[1::2] under the caller's np.errstate; one item, or no thread
    to be had, runs work(items) in the caller; an exception on either side reaches the caller
    once the helper is joined, and no thread outlives the call."""

    @staticmethod
    def record_starts(monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        return started

    @staticmethod
    def record_parts():
        parts = []
        return parts, lambda items: parts.append((threading.get_ident(), list(items)))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_the_caller_runs_the_even_items_and_one_helper_the_odd(self, monkeypatch, n):
        started = self.record_starts(monkeypatch)
        parts, work = self.record_parts()
        pose.run_on_two_threads(work, list(range(n)))
        assert len(started) == 1 and not started[0].is_alive()
        caller, helper = threading.get_ident(), started[0].ident
        assert helper != caller
        assert sorted(parts, key=lambda part: part[0] != caller) == [
            (caller, list(range(0, n, 2))), (helper, list(range(1, n, 2)))]

    @pytest.mark.parametrize("items", [[], [7]])
    def test_no_second_item_runs_every_item_in_the_caller(self, monkeypatch, items):
        started = self.record_starts(monkeypatch)
        parts, work = self.record_parts()
        pose.run_on_two_threads(work, items)
        assert parts == [(threading.get_ident(), items)] and started == []

    def test_no_thread_to_start_runs_every_item_in_the_caller(self, monkeypatch):
        def cannot_start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", cannot_start)
        parts, work = self.record_parts()
        threads = threading.active_count()
        pose.run_on_two_threads(work, list(range(5)))
        assert parts == [(threading.get_ident(), list(range(5)))]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_the_helper_sees_the_callers_errstate(self, monkeypatch, state):
        started = self.record_starts(monkeypatch)
        seen = {}
        with np.errstate(all=state):
            pose.run_on_two_threads(lambda items: seen.setdefault(threading.get_ident(), np.geterr()), [0, 1])
            expected = np.geterr()
        assert expected != np.geterr()  # the state differs from the default a new thread starts with
        assert seen == {threading.get_ident(): expected, started[0].ident: expected}

    def test_a_helper_exception_is_raised_in_the_caller_after_the_join(self, monkeypatch):
        class HelperFailed(Exception):
            pass

        started = self.record_starts(monkeypatch)
        caller, raised, done = threading.get_ident(), threading.Event(), []

        def work(items):
            if threading.get_ident() == caller:  # finishes only once the helper has failed
                assert raised.wait(timeout=60)
                done.append(list(items))
            else:
                raised.set()
                raise HelperFailed(list(items))

        with pytest.raises(HelperFailed) as exc:
            pose.run_on_two_threads(work, [0, 1, 2])
        assert exc.value.args == ([1],) and done == [[0, 2]]
        assert not started[0].is_alive()

    def test_a_caller_exception_still_joins_the_helper(self, monkeypatch):
        class CallerFailed(Exception):
            pass

        started = self.record_starts(monkeypatch)
        caller, done = threading.get_ident(), []

        def work(items):
            if threading.get_ident() == caller:
                raise CallerFailed
            time.sleep(0.05)  # the helper outlasts the caller's failure unless joined
            done.append(list(items))

        with pytest.raises(CallerFailed):
            pose.run_on_two_threads(work, [0, 1])
        assert done == [[1]] and not started[0].is_alive()


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

    def test_threshold_of_one_repairs_every_lower_confidence(self):
        xy = np.zeros((5, 1, 2))
        xy[:, 0, 0] = np.arange(5)
        frames = pose_from_xy(xy, conf=1.0).frames
        frames[2, 0] = [99.0, 99.0, 0.999]
        repaired = interpolate_low_confidence(PoseSequence(60.0, frames), threshold=1.0)
        np.testing.assert_array_equal(repaired.frames[2, 0], [2.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="threshold must be in"):
            interpolate_low_confidence(PoseSequence(60.0, frames), threshold=np.nextafter(1.0, 2.0))

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


@pytest.mark.parametrize("misuse, message", [
    pytest.param(lambda: finite_array([1.0, 2.0], "offsets", 2), "offsets must have 2 axes, got shape (2,)",
                 id="array-rank"),
    pytest.param(lambda: PoseSequence(60.0, np.zeros((4, 2, 2))),
                 "frames must have shape (T, J, 3), got (4, 2, 2)", id="frames-shape"),
    pytest.param(lambda: PoseSequence(60.0, np.zeros((2, 1, 3))), "need at least 3 frames, got 2",
                 id="frame-count"),
    pytest.param(lambda: PoseSequence(60.0, np.zeros((3, 0, 3))), "need at least 1 joint",
                 id="joint-count"),
])
def test_misuse_raises_its_message(misuse, message):
    with pytest.raises(ValueError) as exc:
        misuse()
    assert str(exc.value) == message
