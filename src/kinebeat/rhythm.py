"""Kinematic rhythm extraction from 2D keypoint sequences.

The pipeline turns pose trajectories into a binary per-frame beat indicator:

1. frame-to-frame velocity of every joint,
2. direction discretization: each velocity's magnitude (speed) is assigned
   to one of K angular bins by its direction; a still joint has no bin,
3. half-wave-rectified temporal difference of the binned magnitudes,
4. sum over joints and bins into a single total-acceleration curve,
5. windowed local maxima of that curve mark the kinematic beats.

Steps 2-4 keep a speed and bin index per joint, not a (T, J, K) array: over
bins, the rectified difference sums to speed[t+1] where the bin changed, else
max(0, speed[t+1] - speed[t]), so a reversal spikes even at constant speed.

Index alignment: velocities live between frames, and the acceleration at
index t is aligned to original frame t + 2 (each of the two difference
operations consumes one leading frame). Bits 0 and 1 of a rhythm sequence
are therefore always 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .pose import DEFAULT_CONFIDENCE_THRESHOLD, PoseSequence, finite_array, load_json, number_array
from .pose import interpolate_low_confidence, positive_number

DEFAULT_BINS = 8
DEFAULT_WINDOW_SECONDS = 0.3
DEFAULT_MIN_REL = 0.05


@dataclass(frozen=True)
class VelocityField:
    """Per-joint (vx, vy) in pixels/frame; shape (T-1, J, 2)."""

    fps: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", positive_number(self.fps, "fps"))
        values = finite_array(self.values, "velocity values", 3)
        object.__setattr__(self, "values", values)
        if values.shape[2] != 2:
            raise ValueError(f"velocity values must have shape (T-1, J, 2), got {values.shape}")


@dataclass(frozen=True)
class DirectionalVelocity:
    """Per-joint speed and direction bin, both of shape (T-1, J).

    bin[t, j] is in [0, bins), or -1 exactly where speed[t, j] is 0: a still
    joint has no direction.
    """

    fps: float
    bins: int
    speed: np.ndarray
    bin: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", positive_number(self.fps, "fps"))
        if self.bins < 2:
            raise ValueError(f"need at least 2 direction bins, got {self.bins}")
        speed = finite_array(self.speed, "speeds", 2, nonnegative=True)
        index = np.asarray(self.bin)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "bin", index)
        if index.shape != speed.shape:
            raise ValueError(f"speed and bin need one (T-1, J) shape, got {speed.shape}, {index.shape}")
        valid = np.where(speed > 0.0, (index >= 0) & (index < self.bins), index == -1)
        if index.dtype.kind != "i" or not valid.all():
            raise ValueError(f"bin must be in [0, {self.bins}) where speed > 0, and -1 where it is 0")

    @property
    def values(self) -> np.ndarray:
        """The dense (T-1, J, K) view, built on each read; a still joint's 0 lands in bin 0."""
        dense = np.zeros(self.speed.shape + (self.bins,))
        np.put_along_axis(dense, np.maximum(self.bin, 0)[:, :, None], self.speed[:, :, None], axis=2)
        return dense


@dataclass(frozen=True)
class DiscreteAcceleration:
    """Half-wave-rectified temporal difference of binned velocity, summed over bins; shape (T-2, J)."""

    fps: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", positive_number(self.fps, "fps"))
        values = finite_array(self.values, "rectified accelerations", 2, nonnegative=True)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TotalAcceleration:
    """Sum of rectified accelerations over joints and bins; shape (T-2,)."""

    fps: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", positive_number(self.fps, "fps"))
        values = finite_array(self.values, "total acceleration", 1, nonnegative=True)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RhythmSequence:
    """Binary per-frame beat indicator; bit t marks a beat at t / fps seconds."""

    fps: float
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", positive_number(self.fps, "fps"))
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise ValueError(f"bits must be a vector, got shape {bits.shape}")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("bits must be 0 or 1")
        bits = bits.astype(np.uint8)
        object.__setattr__(self, "bits", bits)
        if len(bits) < 3:
            raise ValueError(f"need at least 3 bits, got {len(bits)}")
        if bits[0] != 0 or bits[1] != 0:
            raise ValueError("bits 0 and 1 must be 0; acceleration is undefined there")

    def beat_times(self) -> np.ndarray:
        return np.flatnonzero(self.bits) / self.fps

    def to_json(self) -> bytes:
        return json.dumps({"fps": self.fps, "bits": self.bits.tolist()}).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "RhythmSequence":
        return cls.from_json_dict(load_json(data, "malformed rhythm JSON"))

    @classmethod
    def from_json_dict(cls, doc) -> "RhythmSequence":
        """The RhythmSequence of an already parsed rhythm document."""
        if not isinstance(doc, dict) or "fps" not in doc or "bits" not in doc:
            raise ValueError('rhythm JSON must be an object with "fps" and "bits"')
        return cls(fps=doc["fps"], bits=number_array(doc["bits"], '"bits"'))


@dataclass(frozen=True)
class RhythmConfig:
    """End-to-end extraction parameters.

    min_value is an absolute floor on the acceleration at a beat; min_rel
    adds a floor relative to the curve's maximum, suppressing numerically
    tiny maxima in near-still passages. confidence_threshold drives the
    keypoint repair pass (0 disables it).
    """

    bins: int = DEFAULT_BINS
    window: float = DEFAULT_WINDOW_SECONDS
    min_value: float = 0.0
    min_rel: float = DEFAULT_MIN_REL
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD


def compute_velocity(seq: PoseSequence) -> VelocityField:
    """First-order temporal difference of the keypoint coordinates."""
    xy = seq.xy()
    return VelocityField(fps=seq.fps, values=xy[1:] - xy[:-1])


def direction_discretize(vel: VelocityField, bins: int = DEFAULT_BINS) -> DirectionalVelocity:
    """Assign each velocity's magnitude to one of `bins` angular sectors.

    The direction angle is the two-argument arctangent of (vy, vx) mapped to
    [0, 2*pi); sector k covers [k, k+1) * 2*pi/bins, with the top edge
    clamped into the last sector. Zero-magnitude velocities carry no
    direction and get bin -1.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 direction bins, got {bins}")
    if bins > np.iinfo(np.int64).max:
        raise ValueError(f"direction bins must fit in int64, got {bins}")
    vx = vel.values[:, :, 0]
    vy = vel.values[:, :, 1]
    speed = np.sqrt(vx * vx + vy * vy)
    theta = np.arctan2(vy, vx)
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    width = 2.0 * np.pi / bins
    k = np.minimum(np.floor(theta / width).astype(np.int64), bins - 1)
    return DirectionalVelocity(fps=vel.fps, bins=bins, speed=speed, bin=np.where(speed > 0.0, k, -1))


def discrete_acceleration(dv: DirectionalVelocity) -> DiscreteAcceleration:
    """Temporal difference of binned magnitudes, keeping positive values only, summed over bins."""
    if dv.speed.shape[0] < 2:
        raise ValueError("need at least 2 velocity steps to differentiate")
    rise = np.maximum(0.0, dv.speed[1:] - dv.speed[:-1])
    moved = dv.bin[1:] != dv.bin[:-1]
    return DiscreteAcceleration(fps=dv.fps, values=np.where(moved, dv.speed[1:], rise))


def total_acceleration(aq: DiscreteAcceleration) -> TotalAcceleration:
    """Sum rectified accelerations over joints.

    Uses exact (fsum) accumulation so the result does not depend on
    summation order; this keeps the pipeline bit-identical to a plain
    nested-loop transcription, whose extra (J, K) terms are exact zeros.
    """
    totals = np.array([math.fsum(row) for row in aq.values.tolist()], dtype=np.float64)
    return TotalAcceleration(fps=aq.fps, values=totals)


def peak_half_window(window: float, rate: float) -> int:
    """Half-width in frames, round(window * rate / 2), of a peak window of `window` seconds."""
    if not (window > 0 and window * rate < math.inf):
        raise ValueError(f"window must be positive and finite in frames, got {window!r} s")
    return int(round(window * rate / 2.0))


def windowed_peaks(values: np.ndarray, half: int, floor: float) -> np.ndarray:
    """Indices t of the windowed maxima of values that exceed floor.

    t is kept iff values[t] > floor, values[t] >= every value within `half`
    frames on either side (windows clipped at the edges), and t is the first
    of its plateau (run of equal values). All comparisons are exact.
    """
    half = min(half, len(values))
    keep = values > floor
    keep[1:] &= values[1:] != values[:-1]
    if len(values):
        padded = np.pad(values, half, constant_values=-np.inf)
        keep &= values >= sliding_window_view(padded, 2 * half + 1).max(axis=1)
    return np.flatnonzero(keep)


def detect_kinematic_beats(
    acc: TotalAcceleration,
    window: float = DEFAULT_WINDOW_SECONDS,
    min_value: float = 0.0,
    min_rel: float = 0.0,
) -> RhythmSequence:
    """Mark windowed local maxima of the total acceleration as beats.

    Index t of the acceleration curve is a beat iff its value exceeds the
    threshold max(min_value, min_rel * max(acc)), is >= every value within
    round(window * fps / 2) frames on either side, and is the first element
    of its plateau (run of equal values). Beat t is written at rhythm index
    t + 2 to align with the original frames.
    """
    half = peak_half_window(window, acc.fps)
    if not (min_value >= 0 and min_rel >= 0):
        raise ValueError("thresholds must be nonnegative")
    a = acc.values
    threshold = max(min_value, min_rel * float(a.max())) if len(a) else min_value
    bits = np.zeros(len(a) + 2, dtype=np.uint8)
    bits[windowed_peaks(a, half, threshold) + 2] = 1
    return RhythmSequence(fps=acc.fps, bits=bits)


def extract_rhythm(seq: PoseSequence, config: RhythmConfig = RhythmConfig()) -> RhythmSequence:
    """Run the full pose-to-rhythm pipeline under one configuration."""
    repaired = interpolate_low_confidence(seq, config.confidence_threshold)
    vel = compute_velocity(repaired)
    dv = direction_discretize(vel, config.bins)
    aq = discrete_acceleration(dv)
    acc = total_acceleration(aq)
    return detect_kinematic_beats(acc, config.window, config.min_value, config.min_rel)
