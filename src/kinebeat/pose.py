"""Parsing, repair, and segmentation of 2D keypoint sequences.

Keypoint files are JSON: ``{"fps": <number>, "frames": [[[x, y, confidence],
... J entries], ... T frames]}``. Coordinates are pixels, confidence is in
[0, 1]. The COCO 17-joint ordering is the documented convention, but the
joint count is not hard-coded.

This module is also the value boundary: load_json decodes a document, json_number,
positive_number and number_array check its values, and finite_array a data type's arrays.
It also holds run_on_two_threads, the one place a thread is started.
"""

from __future__ import annotations

import contextvars
import gc
import json
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_CLIP_SECONDS = 5.12
DEFAULT_CONFIDENCE_THRESHOLD = 0.3


def json_number(value, what: str) -> float:
    """value as a float; a bool, a non-number or an int too large for a float raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} is too large: {exc}") from exc


def positive_number(value, what: str) -> float:
    """json_number(value, what), which must also be finite and positive."""
    number = json_number(value, what)
    if not (math.isfinite(number) and number > 0):
        raise ValueError(f"{what} must be a positive finite number, got {value!r}")
    return number


def finite_array(value, what: str, ndim: int, nonnegative=False, dtype=np.float64) -> np.ndarray:
    """value as a finite array of dtype with ndim axes, >= 0 if nonnegative; else ValueError."""
    try:
        array = np.asarray(value, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    if array.ndim != ndim:
        raise ValueError(f"{what} must have {ndim} axes, got shape {array.shape}")
    if not np.isfinite(array).all() or (nonnegative and (array < 0).any()):
        raise ValueError(f"{what} must be finite{' and nonnegative' if nonnegative else ''}")
    return array


def number_array(value, what: str, dtype=np.float64) -> np.ndarray:
    """value, a JSON list of numbers (no bools), as a finite array of dtype; else ValueError."""
    if not isinstance(value, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        raise ValueError(f"{what} must be a list of numbers")
    return finite_array(value, what, 1, dtype=dtype)


def load_json(data, what: str):
    """The JSON document in UTF-8 data, bytes or a read-only mmap; bad UTF-8 or JSON raises
    ValueError(f"{what}: ...").

    NaN and Infinity literals parse as floats, which the data types refuse by value.
    The cyclic garbage collector is off while json.loads runs, since a decoded
    document holds no reference cycles and its rescans of the growing document
    cost time; the collector's state is restored afterwards.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(str(data, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what}: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def run_on_two_threads(work, items) -> None:
    """work(items[::2]) in the calling thread and work(items[1::2]) in a helper thread.

    numpy releases the interpreter lock in its array operations, so the two
    halves overlap on two cores; work must write only its own items' output.
    A single item, or a process that cannot start a thread, runs
    work(items) in the caller. The helper runs in a copy of the caller's
    context, so it sees the caller's np.errstate (context-local since numpy
    2.0), and an exception it raises is raised again in the caller once the
    helper is joined; no thread outlives the call.
    """
    if len(items) > 1:
        errors = []

        def helper():
            try:
                work(items[1::2])
            except BaseException as exc:  # raised again in the calling thread
                errors.append(exc)

        thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
        try:
            thread.start()
        except RuntimeError:  # no thread to be had
            pass
        else:
            try:
                work(items[::2])
            finally:
                thread.join()
            if errors:
                raise errors[0]
            return
    work(items)


@dataclass(frozen=True)
class PoseSequence:
    """Timed 2D keypoint trajectories: frames has shape (T, J, 3) = (x, y, confidence)."""

    fps: float
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "fps", positive_number(self.fps, "fps"))
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise ValueError(f"frames must have shape (T, J, 3), got {frames.shape}")
        if frames.shape[0] < 3:
            raise ValueError(f"need at least 3 frames, got {frames.shape[0]}")
        if frames.shape[1] < 1:
            raise ValueError("need at least 1 joint")
        coords = frames[:, :, :2]
        bad = ~np.isfinite(coords).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"non-finite coordinate at frame {int(np.argmax(bad))}")
        conf = frames[:, :, 2]
        bad = ~(np.isfinite(conf) & (conf >= 0.0) & (conf <= 1.0)).all(axis=1)
        if bad.any():
            raise ValueError(f"confidence out of [0, 1] at frame {int(np.argmax(bad))}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_joints(self) -> int:
        return self.frames.shape[1]

    def xy(self) -> np.ndarray:
        """The (T, J, 2) coordinate block, without confidences."""
        return self.frames[:, :, :2]

    def confidence(self) -> np.ndarray:
        return self.frames[:, :, 2]


@dataclass(frozen=True)
class ClipSpec:
    """Fixed clip duration in seconds; frame count is round(duration * fps)."""

    duration: float = DEFAULT_CLIP_SECONDS

    def __post_init__(self):
        object.__setattr__(self, "duration", positive_number(self.duration, "clip duration"))

    def frames_at(self, fps: float) -> int:
        frames = self.duration * fps
        if not math.isfinite(frames):
            raise ValueError(f"clip of {self.duration} s at {fps} fps is not a finite frame count")
        return int(round(frames))


def parse_pose_file(data) -> PoseSequence:
    """Parse the documented keypoint JSON format into a validated PoseSequence.

    Rejects malformed JSON, ragged joint counts, non-finite coordinates (NaN
    and Infinity literals included), out-of-range confidences, and T < 3.
    Errors name the offending frame index where one exists.

    A file whose bytes hold no true or false, and whose frames convert in one
    np.asarray to an int64 or float64 array of shape (T, J, 3), skips the
    per-value loop; anything else takes it, and it alone words the errors.
    """
    doc = load_json(data, "malformed keypoint JSON")
    if not isinstance(doc, dict) or "fps" not in doc or "frames" not in doc:
        raise ValueError('keypoint JSON must be an object with "fps" and "frames"')
    raw = doc["frames"]
    if not isinstance(raw, list) or len(raw) < 3:
        raise ValueError(f"need at least 3 frames, got {len(raw) if isinstance(raw, list) else 0}")
    # np.asarray would take bools as numbers; find, since `in` on an mmap compares single bytes.
    # A one-byte find is a memchr, so a word is searched for only where its u or l occurs.
    if (data.find(b"u") < 0 or data.find(b"true") < 0) and (data.find(b"l") < 0 or data.find(b"false") < 0):
        try:  # no dtype: strings, nulls and ints past float64 land in U or O and take the loop
            frames = np.asarray(raw)
        except ValueError:  # ragged lists take the loop too
            pass
        else:
            if frames.dtype in (np.int64, np.float64) and frames.ndim == 3 and frames.shape[2] == 3:
                return PoseSequence(fps=doc["fps"], frames=frames)
    n_joints = None
    for t, frame in enumerate(raw):
        if not isinstance(frame, list):
            raise ValueError(f"frame {t} is not a list of keypoints")
        if n_joints is None:
            n_joints = len(frame)
            if n_joints < 1:
                raise ValueError("frame 0 has no joints")
        elif len(frame) != n_joints:
            raise ValueError(f"ragged joints at frame {t}: expected {n_joints}, got {len(frame)}")
        what = f"keypoint value at frame {t}"
        for kp in frame:
            if not isinstance(kp, list) or len(kp) != 3:
                raise ValueError(f"bad keypoint at frame {t}: expected [x, y, confidence]")
            for v in kp:
                json_number(v, what)
    return PoseSequence(fps=doc["fps"], frames=np.asarray(raw, dtype=np.float64))


def serialize_pose_file(seq: PoseSequence) -> bytes:
    """Inverse of parse_pose_file; parse(serialize(seq)) reproduces seq exactly."""
    doc = {"fps": seq.fps, "frames": seq.frames.tolist()}
    return json.dumps(doc).encode("utf-8")


def check_confidence_threshold(threshold: float) -> None:
    """interpolate_low_confidence's rule, which needs no keypoints: threshold is in [0, 1]."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")


def interpolate_low_confidence(
    seq: PoseSequence, threshold: float = DEFAULT_CONFIDENCE_THRESHOLD
) -> PoseSequence:
    """Repair joints whose confidence falls below threshold.

    Entries with confidence < threshold are replaced by linear interpolation
    between the nearest flanking frames of the same joint with confidence
    >= threshold; gaps at either boundary hold the nearest valid value.
    Repaired confidences are set to threshold, which makes the operation
    idempotent at a fixed threshold.
    """
    check_confidence_threshold(threshold)
    frames = seq.frames.copy()
    conf = frames[:, :, 2]
    invalid = conf < threshold
    t_all = np.arange(seq.n_frames)
    for j in range(seq.n_joints):
        bad = invalid[:, j]
        if bad.all():
            raise ValueError(f"joint {j} has no frame with confidence >= {threshold}")
        good = ~bad
        for c in range(2):
            # np.interp holds the edge values outside the valid range.
            frames[bad, j, c] = np.interp(t_all[bad], t_all[good], frames[good, j, c])
        frames[bad, j, 2] = threshold
    return replace(seq, frames=frames)


def segment_clips(seq: PoseSequence, spec: ClipSpec = ClipSpec()) -> list[PoseSequence]:
    """Cut a sequence into consecutive non-overlapping fixed-length clips.

    The clip length is round(duration * fps) frames; a trailing remainder
    shorter than one clip is dropped.
    """
    clip_len = spec.frames_at(seq.fps)
    if clip_len < 3:
        raise ValueError(
            f"clip of {spec.duration} s at {seq.fps} fps is {clip_len} frames; need at least 3"
        )
    n_clips = seq.n_frames // clip_len
    return [
        PoseSequence(fps=seq.fps, frames=seq.frames[i * clip_len : (i + 1) * clip_len])
        for i in range(n_clips)
    ]
