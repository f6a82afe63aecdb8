"""Kinematic rhythm extraction from 2D keypoint sequences.

The pipeline turns pose trajectories into a binary per-frame beat indicator:

1. frame-to-frame velocity of every joint,
2. direction discretization: each velocity's magnitude is assigned to one of
   K angular bins by its direction,
3. half-wave-rectified temporal difference of the binned magnitudes,
4. sum over joints and bins into a single total-acceleration curve,
5. windowed local maxima of that curve mark the kinematic beats.

A direction reversal moves a joint's magnitude between bins, which the
rectified difference registers as a spike even when speed is constant; this
is what makes movement transitions visible to step 5.

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

from .pose import PoseSequence, interpolate_low_confidence

DEFAULT_BINS = 8
DEFAULT_WINDOW_SECONDS = 0.3
DEFAULT_MIN_REL = 0.05


def _require_finite_fps(fps) -> float:
    if not (isinstance(fps, (int, float)) and math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be a positive finite number, got {fps!r}")
    return float(fps)


@dataclass(frozen=True)
class VelocityField:
    """Per-joint (vx, vy) in pixels/frame; shape (T-1, J, 2)."""

    fps: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", _require_finite_fps(self.fps))
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 3 or values.shape[2] != 2:
            raise ValueError(f"velocity values must have shape (T-1, J, 2), got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("velocity values must be finite")


@dataclass(frozen=True)
class DirectionalVelocity:
    """Velocity magnitude mass per direction bin; shape (T-1, J, K).

    For each (t, j) at most one bin is nonzero; a zero-magnitude velocity
    leaves the whole row zero.
    """

    fps: float
    bins: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", _require_finite_fps(self.fps))
        if self.bins < 2:
            raise ValueError(f"need at least 2 direction bins, got {self.bins}")
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 3 or values.shape[2] != self.bins:
            raise ValueError(f"values must have shape (T-1, J, {self.bins}), got {values.shape}")
        if not np.isfinite(values).all() or (values < 0).any():
            raise ValueError("binned magnitudes must be finite and nonnegative")
        if ((values > 0).sum(axis=2) > 1).any():
            raise ValueError("more than one nonzero bin for a single (t, j)")


@dataclass(frozen=True)
class DiscreteAcceleration:
    """Half-wave-rectified temporal difference of binned velocity; shape (T-2, J, K)."""

    fps: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", _require_finite_fps(self.fps))
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 3:
            raise ValueError(f"values must have shape (T-2, J, K), got {values.shape}")
        if not np.isfinite(values).all() or (values < 0).any():
            raise ValueError("rectified accelerations must be finite and nonnegative")


@dataclass(frozen=True)
class TotalAcceleration:
    """Sum of rectified accelerations over joints and bins; shape (T-2,)."""

    fps: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", _require_finite_fps(self.fps))
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"values must be a vector, got shape {values.shape}")
        if not np.isfinite(values).all() or (values < 0).any():
            raise ValueError("total acceleration must be finite and nonnegative")


@dataclass(frozen=True)
class RhythmSequence:
    """Binary per-frame beat indicator; bit t marks a beat at t / fps seconds."""

    fps: float
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fps", _require_finite_fps(self.fps))
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
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed rhythm JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    @classmethod
    def from_json_dict(cls, doc) -> "RhythmSequence":
        """The RhythmSequence of an already parsed rhythm document."""
        if not isinstance(doc, dict) or "fps" not in doc or "bits" not in doc:
            raise ValueError('rhythm JSON must be an object with "fps" and "bits"')
        return cls(fps=doc["fps"], bits=np.asarray(doc["bits"]))


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
    confidence_threshold: float = 0.3


def compute_velocity(seq: PoseSequence) -> VelocityField:
    """First-order temporal difference of the keypoint coordinates."""
    xy = seq.xy()
    return VelocityField(fps=seq.fps, values=xy[1:] - xy[:-1])


def direction_discretize(vel: VelocityField, bins: int = DEFAULT_BINS) -> DirectionalVelocity:
    """Assign each velocity's magnitude to one of `bins` angular sectors.

    The direction angle is the two-argument arctangent of (vy, vx) mapped to
    [0, 2*pi); sector k covers [k, k+1) * 2*pi/bins, with the top edge
    clamped into the last sector. Zero-magnitude velocities carry no
    direction and leave all bins zero.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 direction bins, got {bins}")
    vx = vel.values[:, :, 0]
    vy = vel.values[:, :, 1]
    speed = np.sqrt(vx * vx + vy * vy)
    theta = np.arctan2(vy, vx)
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    width = 2.0 * np.pi / bins
    k = np.minimum(np.floor(theta / width).astype(np.int64), bins - 1)
    values = np.zeros(vel.values.shape[:2] + (bins,), dtype=np.float64)
    np.put_along_axis(values, k[:, :, None], np.where(speed > 0.0, speed, 0.0)[:, :, None], axis=2)
    return DirectionalVelocity(fps=vel.fps, bins=bins, values=values)


def discrete_acceleration(dv: DirectionalVelocity) -> DiscreteAcceleration:
    """Temporal difference of binned magnitudes, keeping positive values only."""
    if dv.values.shape[0] < 2:
        raise ValueError("need at least 2 velocity steps to differentiate")
    diff = dv.values[1:] - dv.values[:-1]
    return DiscreteAcceleration(fps=dv.fps, values=np.maximum(0.0, diff))


def total_acceleration(aq: DiscreteAcceleration) -> TotalAcceleration:
    """Sum rectified accelerations over joints and bins.

    Uses exact (fsum) accumulation so the result does not depend on
    summation order; this keeps the pipeline bit-identical to a plain
    nested-loop transcription.
    """
    flat = aq.values.reshape(aq.values.shape[0], -1)
    totals = np.array([math.fsum(row) for row in flat.tolist()], dtype=np.float64)
    return TotalAcceleration(fps=aq.fps, values=totals)


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
    if not (window > 0):
        raise ValueError(f"window must be positive, got {window!r}")
    if min_value < 0 or min_rel < 0:
        raise ValueError("thresholds must be nonnegative")
    a = acc.values
    n = len(a)
    half = int(round(window * acc.fps / 2.0))
    threshold = max(min_value, min_rel * float(a.max())) if n else min_value
    bits = np.zeros(n + 2, dtype=np.uint8)
    for t in range(n):
        if not a[t] > threshold:
            continue
        if t > 0 and a[t - 1] == a[t]:
            continue
        lo = max(0, t - half)
        hi = min(n, t + half + 1)
        if a[t] >= a[lo:hi].max():
            bits[t + 2] = 1
    return RhythmSequence(fps=acc.fps, bits=bits)


def extract_rhythm(seq: PoseSequence, config: RhythmConfig = RhythmConfig()) -> RhythmSequence:
    """Run the full pose-to-rhythm pipeline under one configuration."""
    repaired = interpolate_low_confidence(seq, config.confidence_threshold)
    vel = compute_velocity(repaired)
    dv = direction_discretize(vel, config.bins)
    aq = discrete_acceleration(dv)
    acc = total_acceleration(aq)
    return detect_kinematic_beats(acc, config.window, config.min_value, config.min_rel)
