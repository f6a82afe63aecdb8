"""Parsing, repair, and segmentation of 2D keypoint sequences.

Keypoint files are JSON: ``{"fps": <number>, "frames": [[[x, y, confidence],
... J entries], ... T frames]}``. Coordinates are pixels, confidence is in
[0, 1]. The COCO 17-joint ordering is the documented convention, but the
joint count is not hard-coded.

This module is also the value boundary: load_json decodes a document, json_number,
positive_number and number_array check its values, and finite_array a data type's arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_CLIP_SECONDS = 5.12
DEFAULT_CONFIDENCE_THRESHOLD = 0.3


def _reject_constant(token):
    raise ValueError(f"non-finite literal {token!r} not accepted")


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


def load_json(data: bytes, what: str, parse_constant=None):
    """The JSON document in UTF-8 bytes; bad UTF-8 or JSON raises ValueError(f"{what}: ...").

    NaN and Infinity literals parse as floats unless parse_constant raises.
    """
    try:
        return json.loads(data.decode("utf-8"), parse_constant=parse_constant)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


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

    @property
    def duration(self) -> float:
        return self.n_frames / self.fps

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


def parse_pose_file(data: bytes) -> PoseSequence:
    """Parse the documented keypoint JSON format into a validated PoseSequence.

    Rejects malformed JSON, NaN/Infinity literals, ragged joint counts,
    non-finite coordinates, out-of-range confidences, and T < 3. Errors
    name the offending frame index where one exists.
    """
    doc = load_json(data, "malformed keypoint JSON", parse_constant=_reject_constant)
    if not isinstance(doc, dict) or "fps" not in doc or "frames" not in doc:
        raise ValueError('keypoint JSON must be an object with "fps" and "frames"')
    raw = doc["frames"]
    if not isinstance(raw, list) or len(raw) < 3:
        raise ValueError(f"need at least 3 frames, got {len(raw) if isinstance(raw, list) else 0}")
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
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    frames = seq.frames.copy()
    conf = frames[:, :, 2]
    invalid = conf < threshold
    t_all = np.arange(seq.n_frames)
    for j in range(seq.n_joints):
        bad = invalid[:, j]
        if not bad.any():
            continue
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
