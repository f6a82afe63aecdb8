"""Seeded input generator for the benchmark workloads.

Everything here runs before the timed phase. The program under test sees
only the files written here; the ground truth (onset times, tempo, sizes)
stays with the benchmark for the output checks.

Beat grids sit on the STFT hop grid: the beat period is an integer number
of 256-sample hops at 22.05 kHz, so the true tempo is exactly one of the
tempo estimator's candidate lags and a correct estimate lands within the
+-1 BPM check.

Neither input is clean. The songs lay their clicks over a chord and a
broadband noise floor, so the onset envelope is positive on every frame;
the dancer's keypoints carry enough jitter to flip direction bins between
reversals, so the total acceleration is above the beat floor on nearly
every frame. Both peak pickers therefore test every frame, as they do on
recorded music and tracked dancers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from kinebeat.inversion import ModelDims, make_teacher_student_dataset, sample_json_dict
from kinebeat.pose import PoseSequence, serialize_pose_file

SAMPLE_RATE = 22050
HOP = 256
FPS = 60.0
JOINTS = 17
CONFIDENCE_THRESHOLD = 0.3
LOW_CONFIDENCE_SHARE = 0.03
CLIP_SECONDS = 5.12
FROZEN_SEED = 1001
POSE_JITTER_PX = 0.5  # flips a direction bin on some frames of every stroke
CLICK_AMP = 0.75
NOISE_RMS = 0.001
CHORD = ((220.0, 0.05), (277.2, 0.035), (329.6, 0.025))  # (Hz, amplitude)


@dataclass
class Inputs:
    """Ground truth the checks use, and sizes recorded with the results."""

    truth: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def bpm_of_lag(lag: int) -> float:
    return 60.0 * SAMPLE_RATE / (HOP * lag)


def onset_samples(lag: int, start_s: float, seconds: float) -> np.ndarray:
    """Sample indices of clicks every lag * HOP samples, ending one STFT window early."""
    n = int(round(seconds * SAMPLE_RATE))
    first = int(round(start_s * SAMPLE_RATE))
    return np.arange(first, n - 2048, lag * HOP)


def dancer(rng, onset_times: np.ndarray, seconds: float) -> PoseSequence:
    """A 17-joint dancer reversing direction at every onset.

    Each joint sweeps back and forth along its own direction, taken at the
    centre of one of the eight direction bins, with POSE_JITTER_PX of
    jitter: enough to flip a bin now and then, so the kinematic beats are
    the reversals plus some spurious ones between them. About 3% of
    keypoints get a confidence below the repair threshold and a displaced
    position, which the repair pass must undo.
    """
    n_frames = int(round(seconds * FPS))
    t = np.arange(n_frames, dtype=np.float64)
    rev = np.unique(np.round(onset_times * FPS).astype(np.int64))
    # extend the grid by one period on each side so every frame has a segment
    period = float(np.median(np.diff(rev)))
    knots = np.concatenate([[rev[0] - period], rev, [rev[-1] + period, n_frames + period]])
    seg = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    frac = (t - knots[seg]) / (knots[seg + 1] - knots[seg])
    wave = np.where(seg % 2 == 0, frac, 1.0 - frac)  # 0..1 triangle, peaks on the grid

    angles = (rng.integers(0, 8, JOINTS) + 0.5) * (2.0 * math.pi / 8)
    amps = rng.uniform(60.0, 140.0, JOINTS)
    centres = rng.uniform(100.0, 500.0, (JOINTS, 2))
    disp = wave[:, None] * amps[None, :]
    xy = np.empty((n_frames, JOINTS, 2))
    xy[:, :, 0] = centres[:, 0] + disp * np.cos(angles)
    xy[:, :, 1] = centres[:, 1] + disp * np.sin(angles)
    xy += rng.normal(0.0, POSE_JITTER_PX, xy.shape)

    conf = rng.uniform(0.5, 1.0, (n_frames, JOINTS))
    low = rng.random((n_frames, JOINTS)) < LOW_CONFIDENCE_SHARE
    conf[low] = rng.uniform(0.0, CONFIDENCE_THRESHOLD, int(low.sum()))
    xy[low] += rng.normal(0.0, 25.0, (int(low.sum()), 2))
    frames = np.concatenate([xy, conf[:, :, None]], axis=2)
    return PoseSequence(fps=FPS, frames=frames)


def song(rng, onsets: np.ndarray, seconds: float) -> np.ndarray:
    """Clicks at the onsets over a held chord and a white-noise floor; peak below 1."""
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    samples = NOISE_RMS * rng.standard_normal(n)
    for freq, amp in CHORD:
        samples += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    samples[onsets] += CLICK_AMP
    return samples


def write_float32_stereo(path: Path, left: np.ndarray, right: np.ndarray) -> None:
    wavfile.write(path, SAMPLE_RATE, np.stack([left, right], axis=1).astype(np.float32))


def write_pcm16_mono(path: Path, samples: np.ndarray) -> None:
    wavfile.write(path, SAMPLE_RATE, (samples * 32767).astype(np.int16))


def _pose_sizes(seq: PoseSequence, raw: bytes) -> dict:
    return {
        "frames": seq.n_frames,
        "joints": seq.n_joints,
        "bytes": len(raw),
        "low_confidence_keypoints": int((seq.confidence() < CONFIDENCE_THRESHOLD).sum()),
    }


def long_take(out: Path, seed: int, seconds: float) -> Inputs:
    """take.json, a long dancer take, and song.wav, float32 stereo on the same beat grid."""
    rng = np.random.default_rng([seed, 1])
    lag = int(rng.integers(42, 46))  # 117-125 BPM: similar work on every seed
    start = float(rng.uniform(0.25, 0.5))
    onsets = onset_samples(lag, start, seconds)
    times = onsets / SAMPLE_RATE
    seq = dancer(rng, times, seconds)
    raw = serialize_pose_file(seq)
    inp = Inputs()
    (out / "take.json").write_bytes(raw)
    mix = song(rng, onsets, seconds)
    write_float32_stereo(out / "song.wav", mix, 0.6 * mix)
    inp.truth = {"onsets_s": times.tolist(), "bpm": bpm_of_lag(lag)}
    inp.sizes = {
        "pose": _pose_sizes(seq, raw),
        "audio": {
            "samples": len(mix),
            "channels": 2,
            "format": "float32",
            "bytes": (out / "song.wav").stat().st_size,
            "onsets": len(onsets),
        },
    }
    return inp


def clip_batch(out: Path, seed: int, n_pairs: int) -> Inputs:
    """clipNN.json and clipNN.wav: short dancer clips and PCM16 mono songs, each at its own tempo."""
    rng = np.random.default_rng([seed, 2])
    # the same set of tempi on every seed, in a seeded order
    lags = rng.permutation(np.arange(36, 36 + 16))[:n_pairs]
    inp = Inputs()
    inp.truth = {"clips": []}
    pose_bytes = audio_bytes = onsets_total = 0
    for i, lag in enumerate(lags):
        start = float(rng.uniform(0.2, 0.4))
        onsets = onset_samples(int(lag), start, CLIP_SECONDS)
        times = onsets / SAMPLE_RATE
        seq = dancer(rng, times, CLIP_SECONDS)
        raw = serialize_pose_file(seq)
        poses = out / f"clip{i:02d}.json"
        poses.write_bytes(raw)
        wav = out / f"clip{i:02d}.wav"
        write_pcm16_mono(wav, song(rng, onsets, CLIP_SECONDS))
        inp.truth["clips"].append({"onsets_s": times.tolist(), "bpm": bpm_of_lag(int(lag))})
        pose_bytes += len(raw)
        audio_bytes += wav.stat().st_size
        onsets_total += len(onsets)
    inp.sizes = {
        "pairs": int(n_pairs),
        "pose": {"frames": seq.n_frames, "joints": seq.n_joints, "bytes": pose_bytes},
        "audio": {
            "samples": int(round(CLIP_SECONDS * SAMPLE_RATE)),
            "channels": 1,
            "format": "pcm16",
            "bytes": audio_bytes,
            "onsets": onsets_total,
        },
    }
    return inp


def teacher_student(out: Path, seed: int, variant: str, mode: str, n_samples: int) -> Path:
    """A directory of teacher-student samples in the train-toy input schema."""
    data = out / f"data_{variant}_{mode}"
    data.mkdir()
    dataset = make_teacher_student_dataset(
        ModelDims(), variant, mode, n_samples, seed=seed, frozen_seed=FROZEN_SEED
    )
    for i, sample in enumerate(dataset):
        (data / f"sample{i:03d}.json").write_text(json.dumps(sample_json_dict(sample)))
    return data
