"""Shared synthetic fixtures (poses, oscillators, click-track WAVs), the
per-frame loop that `pick_beats` ran before `windowed_peaks` replaced it and
the per-value pose parser that `parse_pose_file`'s one-conversion path skips,
kept verbatim as references on plain arrays. `detect_kinematic_beats` is
checked against `oracles.windowed_peaks_oracle`."""

import io
import os
import sys
from pathlib import Path

# one BLAS thread unless the caller says otherwise, set before numpy loads: on a
# 2-core host, two unpinned suites side by side spent 57-59 s each in an attnpos
# gradcheck test that takes 2.5 s when both are pinned
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
from scipy.io import wavfile

sys.path.insert(0, str(Path(__file__).parent))  # for tests.oracles as plain `oracles`

from kinebeat.pose import PoseSequence, json_number, load_json


def pose_from_xy(xy, fps=60.0, conf=1.0):
    """Wrap a (T, J, 2) coordinate array into a PoseSequence."""
    xy = np.asarray(xy, dtype=np.float64)
    frames = np.concatenate([xy, np.full(xy.shape[:2] + (1,), conf)], axis=2)
    return PoseSequence(fps=fps, frames=frames)


def triangle_pose(n_frames=480, half_period=30, fps=60.0, step=4.0):
    """Single joint sweeping back and forth at constant speed.

    Direction reverses every `half_period` frames: position peaks at frames
    half_period, 2*half_period, ... so the bin-switch acceleration spike
    lands exactly at each reversal.
    """
    t = np.arange(n_frames)
    phase = t % (2 * half_period)
    x = np.where(phase < half_period, phase, 2 * half_period - phase) * step
    xy = np.stack([x, np.zeros_like(x)], axis=1)[:, None, :]
    return pose_from_xy(xy, fps=fps)


def sine_pose(n_frames=512, period=60, fps=60.0, amp=50.0, phase=0.1):
    """Single joint in smooth horizontal simple harmonic motion.

    Speed varies continuously, so the acceleration envelope survives
    frame-repetition time stretching; used for the tempo-scaling checks.
    """
    t = np.arange(n_frames)
    x = amp * np.sin(2.0 * np.pi * t / period + phase)
    xy = np.stack([x, np.zeros_like(x)], axis=1)[:, None, :]
    return pose_from_xy(xy, fps=fps)


def repeat_frames(seq, times):
    """Integer slow-down: each frame repeated `times` times, fps unchanged."""
    return PoseSequence(fps=seq.fps, frames=np.repeat(seq.frames, times, axis=0))


def decimate_frames(seq, step):
    """Integer speed-up: keep every `step`-th frame, fps unchanged."""
    return PoseSequence(fps=seq.fps, frames=seq.frames[::step])


def click_wav_bytes(bpm, seconds=5.12, sample_rate=22050, amp=0.9, start=0.25, fmt="pcm16"):
    """A WAV of 1-sample unit impulses every 60/bpm seconds."""
    n = int(round(seconds * sample_rate))
    samples = np.zeros(n, dtype=np.float64)
    period = 60.0 / bpm
    t = start
    while t < seconds:
        samples[int(round(t * sample_rate))] = amp
        t += period
    return wav_bytes(samples, sample_rate, fmt=fmt)


def wav_bytes(samples, sample_rate, fmt="pcm16"):
    buf = io.BytesIO()
    if fmt == "pcm16":
        wavfile.write(buf, sample_rate, (np.asarray(samples) * 32767).astype(np.int16))
    elif fmt == "float32":
        wavfile.write(buf, sample_rate, np.asarray(samples, dtype=np.float32))
    else:
        raise ValueError(fmt)
    return buf.getvalue()


def one_error_line(code, out, err) -> str:
    """cli.main's contract for bad input, asserted on its exit code, stdout and stderr: exit 2,
    nothing on stdout, and one stderr line that starts with "error: " and holds no traceback and
    no usage text. Returns that line without its newline."""
    assert code == 2, (code, out, err)
    assert out == "", out
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err and "usage:" not in err, err
    return err[:-1]


def random_pose_frames(rng, n_frames, n_joints, scale=100.0):
    """Random (T, J, 3) nested lists with confidences in [0, 1]."""
    xy = rng.uniform(-scale, scale, size=(n_frames, n_joints, 2))
    conf = rng.uniform(0.0, 1.0, size=(n_frames, n_joints, 1))
    return np.concatenate([xy, conf], axis=2)


def pick_beats_loop(v, frame_rate, window, delta):
    """pick_beats' former per-frame loop; returns the beat times."""
    n = len(v)
    half = int(round(window * frame_rate / 2.0))
    sigma = float(v.std())
    times = []
    for t in range(n):
        if not v[t] > 0.0:
            continue
        if t > 0 and v[t - 1] == v[t]:
            continue
        lo = max(0, t - half)
        hi = min(n, t + half + 1)
        seg = v[lo:hi]
        if v[t] >= seg.max() and v[t] >= seg.mean() + delta * sigma:
            times.append(t / frame_rate)
    return np.asarray(times, dtype=np.float64)


def parse_pose_loop(data: bytes) -> PoseSequence:
    """parse_pose_file as it was before its one-conversion path: every value checked in a loop."""
    doc = load_json(data, "malformed keypoint JSON")
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
