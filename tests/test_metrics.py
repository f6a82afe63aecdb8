import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinebeat import metrics
from kinebeat.audio import BeatList, TempoEstimate
from kinebeat.metrics import (
    MAX_PHASE_STEPS,
    AlignmentReport,
    PhaseAlignment,
    aggregate_reports,
    f1_score,
    match_beats,
    phase_align,
    tempo_difference,
)

from oracles import max_matching_oracle, phase_align_oracle

# BCS/BHS/F1 triples reported for the three backbone variants.
PUBLISHED_TRIPLES = [
    (0.4761, 0.4398, 0.4572),
    (0.4118, 0.3874, 0.3992),
    (0.4419, 0.3605, 0.3971),
]


def beats(*times):
    return BeatList(times=np.asarray(times, dtype=np.float64))


@st.composite
def rounded_beats(draw, denominator):
    """0-30 distinct beat times within 8 s, rounded to 1/denominator s."""
    ticks = draw(st.lists(st.integers(0, 8 * denominator), max_size=30, unique=True))
    return sorted(t / denominator for t in ticks)


def random_beats(rng, max_beats=10):
    n = int(rng.integers(0, max_beats + 1))
    return BeatList(times=np.cumsum(rng.uniform(0.05, 1.0, size=n)))


class TestF1:
    @pytest.mark.parametrize("bcs,bhs,expected", PUBLISHED_TRIPLES)
    def test_published_triples(self, bcs, bhs, expected):
        assert abs(f1_score(bcs, bhs) - expected) <= 5e-5

    def test_zero_when_both_zero(self):
        assert f1_score(0.0, 0.0) == 0.0


class TestMatchBeats:
    def test_worked_example(self):
        report = match_beats(beats(1.0, 2.0, 3.0), beats(1.1, 2.5))
        assert report.b_a == 1
        assert report.bcs == 1 / 3
        assert report.bhs == 1 / 2
        assert report.f1 == pytest.approx(0.4)
        assert report.pairs == ((1.0, 1.1),)
        assert not report.degenerate

    def test_identical_lists_score_one(self, rng):
        b = random_beats(rng, 8)
        report = match_beats(b, b)
        assert report.bcs == report.bhs == report.f1 == 1.0

    def test_empty_gen_is_flagged_zero(self):
        report = match_beats(beats(), beats(1.0, 2.0))
        assert report.degenerate
        assert report.bcs == report.bhs == report.f1 == 0.0

    def test_pairs_within_tolerance_and_one_to_one(self, rng):
        for _ in range(50):
            g, r = random_beats(rng), random_beats(rng)
            report = match_beats(g, r, tolerance=0.2)
            gens = [p[0] for p in report.pairs]
            refs = [p[1] for p in report.pairs]
            assert len(set(gens)) == len(gens)
            assert len(set(refs)) == len(refs)
            assert all(abs(a - b) <= 0.2 for a, b in report.pairs)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.6))
    @settings(max_examples=100, deadline=None)
    def test_sweep_equals_exhaustive_matching(self, seed, tolerance):
        rng = np.random.default_rng(seed)
        g, r = random_beats(rng), random_beats(rng)
        report = match_beats(g, r, tolerance=tolerance)
        assert report.b_a == max_matching_oracle(g.times.tolist(), r.times.tolist(), tolerance)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g, r = random_beats(rng), random_beats(rng)
        fwd = match_beats(g, r)
        rev = match_beats(r, g)
        assert fwd.b_a == rev.b_a
        assert fwd.bcs == rev.bhs
        assert fwd.bhs == rev.bcs

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_joint_time_shift_changes_nothing(self, seed, shift):
        rng = np.random.default_rng(seed)
        g, r = random_beats(rng), random_beats(rng)
        base = match_beats(g, r)
        moved = match_beats(
            BeatList(times=g.times + shift), BeatList(times=r.times + shift)
        )
        assert base.b_a == moved.b_a
        assert base.f1 == moved.f1


class TestTempoDifference:
    def test_equal_is_zero(self):
        assert tempo_difference(TempoEstimate(120.0), TempoEstimate(120.0)) == 0.0

    def test_absolute(self):
        assert tempo_difference(TempoEstimate(120.0), TempoEstimate(104.0)) == 16.0

    def test_dataset_mean(self):
        pairs = [(120.0, 100.0), (90.0, 102.0)]
        diffs = [tempo_difference(TempoEstimate(a), TempoEstimate(b)) for a, b in pairs]
        assert sum(diffs) / len(diffs) == 16.0


class TestAggregate:
    def test_single_report_is_its_own_summary(self):
        report = match_beats(beats(1.0, 2.0, 3.0), beats(1.1, 2.5))
        summary = aggregate_reports([report])
        assert summary.mean_bcs == report.bcs
        assert summary.mean_f1 == report.f1
        assert summary.b_a == report.b_a

    def test_mean_of_f1(self):
        a = match_beats(beats(1.0, 2.0, 3.0, 4.0, 5.0), beats(1.0, 20.0))  # f1 = 2/7
        b = match_beats(beats(1.0), beats(1.0))  # f1 = 1
        summary = aggregate_reports([a, b])
        assert summary.mean_f1 == pytest.approx((a.f1 + b.f1) / 2)

    def test_mean_f1_differs_from_f1_of_means(self):
        # one balanced clip, one extremely unbalanced clip
        a = match_beats(beats(1.0), beats(1.0))
        b = match_beats(beats(*np.arange(1, 11, dtype=float)), beats(1.0))
        summary = aggregate_reports([a, b])
        assert summary.mean_f1 != summary.f1_of_means
        assert summary.pooled_bcs == summary.b_a / summary.b_g

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_reports([])


class TestPhaseAlign:
    def test_injected_shift_recovered(self):
        ref = beats(*np.arange(0.5, 5.0, 0.5))
        gen = BeatList(times=ref.times + 0.37)
        result = phase_align(gen, ref)
        assert result.report.f1 == 1.0
        assert abs(result.offset - (-0.37)) <= 0.01 + 1e-12

    def test_identical_lists_offset_zero(self):
        ref = beats(0.5, 1.0, 2.0, 3.3)
        result = phase_align(ref, ref)
        assert result.offset == 0.0
        assert result.report.f1 == 1.0

    def test_empty_gen_degenerate(self):
        result = phase_align(beats(), beats(1.0, 2.0))
        assert result.offset == 0.0
        assert result.report.degenerate

    @pytest.mark.parametrize("search_range,step", [
        (math.inf, 0.01), (math.nan, 0.01), (1.0, math.inf), (1.0, math.nan),
        (math.inf, math.inf),
    ])
    def test_non_finite_grid_rejected(self, search_range, step):
        with pytest.raises(ValueError, match="finite"):
            phase_align(beats(1.0), beats(1.0), search_range=search_range, step=step)

    @pytest.mark.parametrize("tolerance", [0.0, -0.05, math.nan])
    def test_non_positive_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError) as exc:
            phase_align(beats(1.0), beats(1.0), tolerance=tolerance)
        assert str(exc.value) == f"tolerance must be positive, got {tolerance!r}"

    @pytest.mark.parametrize("step", [0.0, -0.01])
    def test_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError, match="step must be positive"):
            phase_align(beats(1.0), beats(1.0), step=step)

    @pytest.mark.parametrize("search_range,step", [
        (1e300, 1e-300), (math.nextafter(MAX_PHASE_STEPS, math.inf), 1.0),
    ])
    def test_oversized_grid_rejected_before_matching(self, monkeypatch, search_range, step):
        def no_matching(*args):
            raise AssertionError("matched before the grid was checked")

        monkeypatch.setattr(metrics, "_match_times", no_matching)
        with pytest.raises(ValueError, match="search range / step"):
            phase_align(beats(1.0), beats(1.0), search_range=search_range, step=step)

    def test_grid_at_the_bound_accepted(self, monkeypatch):
        monkeypatch.setattr(metrics, "_match_times", lambda gen, ref, tolerance: [])
        result = phase_align(beats(1.0), beats(1.0), search_range=MAX_PHASE_STEPS, step=1.0)
        assert result.offset == 0.0

    @given(st.data(), st.sampled_from([10, 100]), st.sampled_from([0.05, 0.1, 0.2]))
    @settings(max_examples=200, deadline=None)
    def test_matches_f1_ranked_oracle(self, data, denominator, tolerance):
        # coarse times make F1 plateaus and exact residual ties common
        g = data.draw(rounded_beats(denominator))
        r = data.draw(rounded_beats(denominator))
        offset, pairs, b_a, bcs, bhs, f1 = phase_align_oracle(g, r, 1.0, 0.01, tolerance)
        expected = PhaseAlignment(offset=offset, report=AlignmentReport(
            b_g=len(g), b_t=len(r), b_a=b_a, bcs=bcs, bhs=bhs, f1=f1, pairs=pairs,
            degenerate=not (g and r),
        ))
        got = phase_align(beats(*g), beats(*r), search_range=1.0, step=0.01, tolerance=tolerance)
        assert got == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_no_worse_than_unshifted(self, seed):
        rng = np.random.default_rng(seed)
        g, r = random_beats(rng), random_beats(rng)
        aligned = phase_align(g, r)
        assert aligned.report.f1 >= match_beats(g, r).f1
