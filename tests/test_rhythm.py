import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinebeat.pose import PoseSequence
from kinebeat.rhythm import (
    DirectionalVelocity,
    DiscreteAcceleration,
    RhythmConfig,
    RhythmSequence,
    TotalAcceleration,
    VelocityField,
    compute_velocity,
    detect_kinematic_beats,
    direction_discretize,
    discrete_acceleration,
    extract_rhythm,
    total_acceleration,
)

from conftest import (
    pose_from_xy,
    random_pose_frames,
    repeat_frames,
    sine_pose,
    triangle_pose,
)
from oracles import direction_bin_oracle, rhythm_bits_oracle, windowed_peaks_oracle

RAW = RhythmConfig(confidence_threshold=0.0, min_rel=0.0)


def dense_directogram(vel, bins):
    """The dense (T-1, J, K) one-hot directogram of a (T-1, J, 2) velocity array.

    direction_discretize's former dense construction, kept verbatim as the
    reference for its speed and bin index form.
    """
    vx = vel[:, :, 0]
    vy = vel[:, :, 1]
    speed = np.sqrt(vx * vx + vy * vy)
    theta = np.arctan2(vy, vx)
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    width = 2.0 * np.pi / bins
    k = np.minimum(np.floor(theta / width).astype(np.int64), bins - 1)
    values = np.zeros(vel.shape[:2] + (bins,), dtype=np.float64)
    np.put_along_axis(values, k[:, :, None], np.where(speed > 0.0, speed, 0.0)[:, :, None], axis=2)
    return values


def dense_total_acceleration(dense):
    """Rectified difference of the dense directogram, fsum over joints and bins per step."""
    flat = np.maximum(0.0, dense[1:] - dense[:-1]).reshape(len(dense) - 1, -1)
    return np.array([math.fsum(row) for row in flat.tolist()], dtype=np.float64)


class TestVelocity:
    def test_stationary_is_zero(self):
        xy = np.ones((10, 3, 2)) * 5.0
        vel = compute_velocity(pose_from_xy(xy))
        assert not vel.values.any()
        assert vel.values.shape == (9, 3, 2)

    def test_constant_slope(self):
        xy = np.zeros((12, 1, 2))
        xy[:, 0, 0] = 2.0 * np.arange(12)
        vel = compute_velocity(pose_from_xy(xy))
        np.testing.assert_array_equal(vel.values[:, 0, 0], 2.0)
        np.testing.assert_array_equal(vel.values[:, 0, 1], 0.0)

    def test_matches_direct_subtraction(self, rng):
        frames = random_pose_frames(rng, 5, 2)
        vel = compute_velocity(PoseSequence(60.0, frames))
        for t in range(4):
            for j in range(2):
                for c in range(2):
                    assert vel.values[t, j, c] == frames[t + 1, j, c] - frames[t, j, c]


class TestDirectionDiscretize:
    def field(self, vx, vy):
        return compute_velocity(
            pose_from_xy(np.cumsum([[[0, 0]], [[vx, vy]], [[vx, vy]]], axis=0))
        )

    def test_east_goes_to_bin_0(self):
        dv = direction_discretize(self.field(1.0, 0.0), bins=8)
        assert dv.values[0, 0, 0] == 1.0
        assert dv.values[0, 0, 1:].sum() == 0.0

    def test_south_goes_to_bin_6(self):
        # theta = 3*pi/2 for (vx, vy) = (0, -1); 3*pi/2 / (pi/4) = 6
        speed, k = direction_bin_oracle(0.0, -1.0, 8)
        assert (speed, k) == (1.0, 6)
        dv = direction_discretize(self.field(0.0, -1.0), bins=8)
        assert dv.values[0, 0, 6] == 1.0
        assert np.count_nonzero(dv.values[0, 0]) == 1

    def test_zero_velocity_has_no_bin(self):
        dv = direction_discretize(self.field(0.0, 0.0), bins=8)
        assert not dv.values.any()

    def test_needs_two_bins(self):
        with pytest.raises(ValueError, match="at least 2"):
            direction_discretize(self.field(1.0, 0.0), bins=1)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_bin_mass_conservation_and_one_hot(self, seed, bins):
        rng = np.random.default_rng(seed)
        frames = random_pose_frames(rng, 12, 3)
        vel = compute_velocity(PoseSequence(60.0, frames))
        dv = direction_discretize(vel, bins=bins)
        speed = np.sqrt((vel.values**2).sum(axis=2))
        np.testing.assert_array_equal(dv.values.sum(axis=2), speed)
        assert ((dv.values > 0).sum(axis=2) <= 1).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bins_match_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        frames = random_pose_frames(rng, 8, 2)
        vel = compute_velocity(PoseSequence(60.0, frames))
        dv = direction_discretize(vel, bins=8)
        for t in range(vel.values.shape[0]):
            for j in range(2):
                speed, k = direction_bin_oracle(*vel.values[t, j], 8)
                if k is None:
                    assert not dv.values[t, j].any()
                else:
                    assert dv.values[t, j, k] == speed


class TestAcceleration:
    def test_constant_velocity_zero_acceleration(self):
        dv = DirectionalVelocity(60.0, 4, speed=np.full((6, 1), 2.0), bin=np.full((6, 1), 1))
        aq = discrete_acceleration(dv)
        assert not aq.values.any()

    def test_step_up_registers(self):
        dv = DirectionalVelocity(60.0, 4, speed=np.array([[0.0], [5.0]]), bin=np.array([[-1], [2]]))
        aq = discrete_acceleration(dv)
        assert aq.values[0, 0] == 5.0

    def test_step_down_is_rectified(self):
        dv = DirectionalVelocity(60.0, 4, speed=np.array([[5.0], [0.0]]), bin=np.array([[2], [-1]]))
        aq = discrete_acceleration(dv)
        assert not aq.values.any()

    def test_bin_change_registers_full_speed(self):
        # the mass leaves bin 1 for bin 2: +5 in bin 2, and bin 1's -6 is rectified away
        dv = DirectionalVelocity(60.0, 4, speed=np.array([[6.0], [5.0]]), bin=np.array([[1], [2]]))
        aq = discrete_acceleration(dv)
        assert aq.values[0, 0] == 5.0

    def test_total_of_zeros(self):
        acc = total_acceleration(DiscreteAcceleration(60.0, np.zeros((4, 2))))
        assert not acc.values.any()

    def test_total_single_entry(self):
        values = np.zeros((4, 2))
        values[1, 0] = 3.5
        acc = total_acceleration(DiscreteAcceleration(60.0, values))
        np.testing.assert_array_equal(acc.values, [0.0, 3.5, 0.0, 0.0])

    def test_total_matches_fsum_loops(self, rng):
        values = rng.uniform(0, 5, size=(7, 3))
        acc = total_acceleration(DiscreteAcceleration(60.0, values))
        for t in range(7):
            expected = math.fsum(values[t, j] for j in range(3))
            assert acc.values[t] == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_total_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 5, size=(6, 2))
        bumped = base + rng.uniform(0, 1, size=base.shape)
        lo = total_acceleration(DiscreteAcceleration(60.0, base))
        hi = total_acceleration(DiscreteAcceleration(60.0, bumped))
        assert (hi.values >= lo.values).all()

    @given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.integers(1, 5), st.sampled_from([2, 4, 8]))
    @settings(max_examples=100, deadline=None)
    def test_stages_match_dense_reference(self, seed, n_frames, n_joints, bins):
        rng = np.random.default_rng(seed)
        # coarse steps that are often zero: still joints, repeated speeds and bins
        steps = rng.integers(-2, 3, size=(n_frames - 1, n_joints, 2)).astype(np.float64)
        xy = np.concatenate([np.zeros((1, n_joints, 2)), np.cumsum(steps, axis=0)])
        vel = compute_velocity(pose_from_xy(xy))
        dv = direction_discretize(vel, bins)
        dense = dense_directogram(vel.values, bins)
        assert dv.values.tobytes() == dense.tobytes()
        got = total_acceleration(discrete_acceleration(dv)).values
        assert got.tobytes() == dense_total_acceleration(dense).tobytes()


class TestDetectBeats:
    WINDOW = 4.0 / 60.0  # half-window of round(0.0667 * 60 / 2) = 2 frames

    def test_single_spike(self):
        acc = TotalAcceleration(60.0, np.array([0.0, 0.0, 9.0, 0.0, 0.0]))
        r = detect_kinematic_beats(acc, window=self.WINDOW, min_value=0.0)
        np.testing.assert_array_equal(r.bits, [0, 0, 0, 0, 1, 0, 0])

    def test_constant_plateau_marks_first_only(self):
        acc = TotalAcceleration(60.0, np.full(6, 3.0))
        r = detect_kinematic_beats(acc, window=self.WINDOW, min_value=0.0)
        np.testing.assert_array_equal(r.bits, [0, 0, 1, 0, 0, 0, 0, 0])

    def test_min_value_suppresses(self):
        acc = TotalAcceleration(60.0, np.array([0.0, 0.0, 9.0, 0.0, 0.0]))
        r = detect_kinematic_beats(acc, window=self.WINDOW, min_value=9.0)
        assert not r.bits.any()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_matches_predicate_scan(self, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.uniform(0, 4, size=50), 1)  # rounding provokes plateau ties
        acc = TotalAcceleration(60.0, values)
        r = detect_kinematic_beats(acc, window=0.1, min_value=0.3)
        expected = windowed_peaks_oracle(values.tolist(), 60.0, 0.1, 0.3, offset=2)
        np.testing.assert_array_equal(r.bits, expected)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, data):
        n = data.draw(st.one_of(st.integers(1, 3), st.integers(4, 60)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = np.round(rng.uniform(0, 3, size=n), data.draw(st.integers(0, 1)))  # plateaus
        half = data.draw(st.integers(0, n + 3))  # up to wider than the signal
        window = (2 * half + 0.5) / 60.0  # rounds to exactly `half` frames
        min_value = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
        min_rel = data.draw(st.sampled_from([0.0, 0.05, 0.5]))
        r = detect_kinematic_beats(TotalAcceleration(60.0, values), window, min_value, min_rel)
        expected = windowed_peaks_oracle(values.tolist(), 60.0, window, min_value, min_rel, offset=2)
        np.testing.assert_array_equal(r.bits, expected)

    @pytest.mark.parametrize("window", [0.0, math.nan, math.inf, 1e308])
    def test_rejects_window_without_a_finite_positive_width(self, window):
        acc = TotalAcceleration(60.0, np.array([0.0, 0.0, 9.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="window must be positive and finite"):
            detect_kinematic_beats(acc, window=window)


class TestRhythmFile:
    def test_integral_float_bits_accepted_bools_rejected(self):
        seq = RhythmSequence.from_json(b'{"fps": 60, "bits": [0, 0, 1.0, 0]}')
        assert seq.to_json() == b'{"fps": 60.0, "bits": [0, 0, 1, 0]}'
        with pytest.raises(ValueError, match='"bits" must be a list of numbers'):
            RhythmSequence.from_json(b'{"fps": 60, "bits": [false, false, true, false]}')


class TestExtractRhythm:
    def test_stationary_pose_has_no_beats(self):
        seq = pose_from_xy(np.full((40, 2, 2), 7.0))
        assert not extract_rhythm(seq).bits.any()

    def test_triangle_oscillator_beats_near_reversals(self):
        seq = triangle_pose(n_frames=480, half_period=30)
        bits = extract_rhythm(seq).bits
        beats = np.flatnonzero(bits)
        reversals = np.arange(30, 460, 30)
        assert len(beats) >= len(reversals) - 1
        for b in beats:
            assert np.abs(reversals - b).min() <= 1

    def test_triangle_matches_component_composition(self):
        seq = triangle_pose(n_frames=240, half_period=30)
        cfg = RhythmConfig()
        acc = total_acceleration(
            discrete_acceleration(direction_discretize(compute_velocity(seq), cfg.bins))
        )
        composed = detect_kinematic_beats(acc, cfg.window, cfg.min_value, cfg.min_rel)
        np.testing.assert_array_equal(extract_rhythm(seq, cfg).bits, composed.bits)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_pipeline_equals_bruteforce_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_frames = data.draw(st.integers(3, 40))
        n_joints = data.draw(st.integers(1, 6))
        bins = data.draw(st.sampled_from([4, 8, 16]))
        frames = random_pose_frames(rng, n_frames, n_joints)
        seq = PoseSequence(60.0, frames)
        cfg = RhythmConfig(bins=bins, window=0.3, min_rel=0.05, confidence_threshold=0.0)
        got = extract_rhythm(seq, cfg).bits
        expected = rhythm_bits_oracle(frames.tolist(), 60.0, bins, 0.3, 0.0, 0.05)
        np.testing.assert_array_equal(got, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance_exact(self, seed):
        rng = np.random.default_rng(seed)
        # dyadic coordinates keep the shifted differences bit-exact
        xy = rng.integers(-2000, 2000, size=(20, 3, 2)).astype(np.float64) * 0.5
        shift = rng.integers(-500, 500, size=2).astype(np.float64)
        a = pose_from_xy(xy)
        b = pose_from_xy(xy + shift)
        np.testing.assert_array_equal(
            compute_velocity(a).values, compute_velocity(b).values
        )
        np.testing.assert_array_equal(extract_rhythm(a, RAW).bits, extract_rhythm(b, RAW).bits)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 12]))
    @settings(max_examples=30, deadline=None)
    def test_rotation_by_one_bin_permutes_cyclically(self, seed, bins):
        rng = np.random.default_rng(seed)
        width = 2.0 * np.pi / bins
        # velocities sampled away from bin boundaries so the permutation is clean
        angles = (rng.integers(0, bins, size=(15, 2)) + rng.uniform(0.1, 0.9, size=(15, 2))) * width
        speeds = rng.uniform(0.5, 3.0, size=(15, 2))
        steps = np.stack([speeds * np.cos(angles), speeds * np.sin(angles)], axis=2)
        xy = np.concatenate([np.zeros((1, 2, 2)), np.cumsum(steps, axis=0)], axis=0)
        center = rng.uniform(-5, 5, size=2)
        rot = np.array(
            [[np.cos(width), -np.sin(width)], [np.sin(width), np.cos(width)]]
        )
        xy_rot = (xy - center) @ rot.T + center
        dv = direction_discretize(compute_velocity(pose_from_xy(xy)), bins)
        dv_rot = direction_discretize(compute_velocity(pose_from_xy(xy_rot)), bins)
        np.testing.assert_allclose(
            dv_rot.values, np.roll(dv.values, 1, axis=2), rtol=1e-9, atol=1e-12
        )
        acc = total_acceleration(discrete_acceleration(dv))
        acc_rot = total_acceleration(discrete_acceleration(dv_rot))
        np.testing.assert_allclose(acc_rot.values, acc.values, rtol=1e-9, atol=1e-12)

    def test_long_take_builds_no_per_bin_array(self):
        # a 3-minute take: 10 800 x 17 x 8 float64 is 11.7 MB per dense directogram
        rng = np.random.default_rng(5)
        xy = np.cumsum(rng.normal(0.0, 2.0, size=(10_800, 17, 2)), axis=0)
        seq = PoseSequence(60.0, np.concatenate([xy, rng.uniform(0, 1, size=(10_800, 17, 1))], axis=2))
        tracemalloc.start()
        try:
            extract_rhythm(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"extract_rhythm peaked at {peak / 1e6:.1f} MB"

    def test_frame_repetition_scales_beat_intervals(self):
        seq = sine_pose(n_frames=512, period=60)
        base = np.diff(np.flatnonzero(extract_rhythm(seq).bits))
        slowed = np.diff(np.flatnonzero(extract_rhythm(repeat_frames(seq, 2)).bits))
        assert abs(base.mean() * 2 - slowed.mean()) <= 1.0


def still(shape):
    """Zero speeds of shape, and the -1 bins that go with them."""
    return np.zeros(shape), np.full(shape, -1)


@pytest.mark.parametrize("misuse, message", [
    pytest.param(lambda: VelocityField(60.0, np.zeros((4, 2, 3))),
                 "velocity values must have shape (T-1, J, 2), got (4, 2, 3)", id="velocity-shape"),
    pytest.param(lambda: DirectionalVelocity(60.0, 1, *still((4, 2))),
                 "need at least 2 direction bins, got 1", id="directional-bins"),
    pytest.param(lambda: DirectionalVelocity(60.0, 8, np.zeros((4, 2)), np.full((4, 3), -1)),
                 "speed and bin need one (T-1, J) shape, got (4, 2), (4, 3)", id="directional-shape"),
    pytest.param(lambda: DirectionalVelocity(60.0, 8, np.ones((4, 2)), np.full((4, 2), 8)),
                 "bin must be in [0, 8) where speed > 0, and -1 where it is 0", id="directional-bin-range"),
    pytest.param(lambda: RhythmSequence(60.0, np.zeros((3, 3), dtype=int)),
                 "bits must be a vector, got shape (3, 3)", id="rhythm-rank"),
    pytest.param(lambda: discrete_acceleration(DirectionalVelocity(60.0, 8, *still((1, 2)))),
                 "need at least 2 velocity steps to differentiate", id="one-velocity-step"),
])
def test_misuse_raises_its_message(misuse, message):
    with pytest.raises(ValueError) as exc:
        misuse()
    assert str(exc.value) == message
