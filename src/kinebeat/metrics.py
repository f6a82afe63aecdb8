"""Rhythm alignment metrics between generated and reference beat lists.

Definitions, with B_g generated beats, B_t reference beats, and B_a the size
of a maximum one-to-one matching between them under |gen - ref| <= tolerance:

- BCS (beat coverage score): B_a / B_g, the precision of the generated beats.
- BHS (beat hit score):      B_a / B_t, the recall of the reference beats.
- F1: harmonic mean of BCS and BHS.
- TD (tempo difference): |gen_bpm - ref_bpm|.

"Aligned" means one-to-one: a single generated beat cannot cover several
reference beats. Because the tolerance window is uniform, a sorted
two-pointer sweep attains the maximum matching. Empty beat lists yield
flagged zero scores instead of errors so batch evaluation never aborts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .audio import BeatList, TempoEstimate

DEFAULT_TOLERANCE_SECONDS = 0.2
DEFAULT_PHASE_RANGE_SECONDS = 1.0
DEFAULT_PHASE_STEP_SECONDS = 0.01
MAX_PHASE_STEPS = 100_000  # offsets per side phase_align may score; the defaults score 100


def f1_score(bcs: float, bhs: float) -> float:
    """Harmonic mean of BCS and BHS; 0 when both are 0."""
    if bcs + bhs == 0.0:
        return 0.0
    return 2.0 * bcs * bhs / (bcs + bhs)


@dataclass(frozen=True)
class AlignmentReport:
    """Counts, scores, and the matched pairs that justify them."""

    b_g: int
    b_t: int
    b_a: int
    bcs: float
    bhs: float
    f1: float
    pairs: tuple
    degenerate: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AggregateReport:
    """Dataset-level summary: per-clip means are the headline, pooled counts follow.

    mean_f1 is the unweighted mean of per-clip F1 values and can differ from
    the harmonic mean of mean_bcs and mean_bhs (f1_of_means); both are kept.
    Pooled scores recompute BCS/BHS/F1 from the summed counts.
    """

    n_clips: int
    b_g: int
    b_t: int
    b_a: int
    mean_bcs: float
    mean_bhs: float
    mean_f1: float
    f1_of_means: float
    pooled_bcs: float
    pooled_bhs: float
    pooled_f1: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PhaseAlignment:
    """Best global offset applied to the generated beats, and the report there."""

    offset: float
    report: AlignmentReport

    def to_json_dict(self) -> dict:
        return asdict(self)


def _match_times(gen: list, ref: list, tolerance: float) -> list:
    """Maximum one-to-one matching of two ascending lists of floats under a tolerance.

    Two-pointer sweep: pair the earliest compatible beats and advance
    whichever side is lagging. With a uniform tolerance this greedy matching
    is maximum (a standard exchange argument on interval graphs).
    """
    pairs = []
    i = j = 0
    while i < len(gen) and j < len(ref):
        if abs(gen[i] - ref[j]) <= tolerance:
            pairs.append((gen[i], ref[j]))
            i += 1
            j += 1
        elif gen[i] < ref[j] - tolerance:
            i += 1
        else:
            j += 1
    return pairs


def _report_from_times(gen: np.ndarray, ref: np.ndarray, tolerance: float) -> AlignmentReport:
    pairs = _match_times(gen.tolist(), ref.tolist(), tolerance)
    b_g, b_t, b_a = len(gen), len(ref), len(pairs)
    degenerate = b_g == 0 or b_t == 0
    bcs = b_a / b_g if b_g else 0.0
    bhs = b_a / b_t if b_t else 0.0
    return AlignmentReport(
        b_g=b_g,
        b_t=b_t,
        b_a=b_a,
        bcs=bcs,
        bhs=bhs,
        f1=f1_score(bcs, bhs),
        pairs=tuple(pairs),
        degenerate=degenerate,
    )


def check_tolerance(tolerance: float) -> None:
    """match_beats' and phase_align's tolerance is positive, so not NaN."""
    if not (tolerance > 0):
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")


def match_beats(
    gen: BeatList, ref: BeatList, tolerance: float = DEFAULT_TOLERANCE_SECONDS
) -> AlignmentReport:
    """Score the alignment of generated beats against reference beats."""
    check_tolerance(tolerance)
    return _report_from_times(gen.times, ref.times, tolerance)


def tempo_difference(gen: TempoEstimate, ref: TempoEstimate) -> float:
    """Absolute tempo difference in BPM."""
    return abs(gen.bpm - ref.bpm)


def aggregate_reports(reports) -> AggregateReport:
    """Summarize per-clip reports: mean scores, summed counts, pooled scores."""
    reports = list(reports)
    if not reports:
        raise ValueError("cannot aggregate an empty list of reports")
    b_g = sum(r.b_g for r in reports)
    b_t = sum(r.b_t for r in reports)
    b_a = sum(r.b_a for r in reports)
    mean_bcs = sum(r.bcs for r in reports) / len(reports)
    mean_bhs = sum(r.bhs for r in reports) / len(reports)
    mean_f1 = sum(r.f1 for r in reports) / len(reports)
    pooled_bcs = b_a / b_g if b_g else 0.0
    pooled_bhs = b_a / b_t if b_t else 0.0
    return AggregateReport(
        n_clips=len(reports),
        b_g=b_g,
        b_t=b_t,
        b_a=b_a,
        mean_bcs=mean_bcs,
        mean_bhs=mean_bhs,
        mean_f1=mean_f1,
        f1_of_means=f1_score(mean_bcs, mean_bhs),
        pooled_bcs=pooled_bcs,
        pooled_bhs=pooled_bhs,
        pooled_f1=f1_score(pooled_bcs, pooled_bhs),
    )


def phase_align(
    gen: BeatList,
    ref: BeatList,
    search_range: float = DEFAULT_PHASE_RANGE_SECONDS,
    step: float = DEFAULT_PHASE_STEP_SECONDS,
    tolerance: float = DEFAULT_TOLERANCE_SECONDS,
) -> PhaseAlignment:
    """Find the single global offset of the generated beats that aligns best.

    Every offset in {-range, ..., -step, 0, step, ..., +range} is scored.
    The match count B_a, whose order at fixed B_g and B_t is F1's, is
    maximized first; a uniform tolerance makes it flat over a band of offsets,
    so ties are broken by the smallest mean |gen + offset - ref| over the
    matched pairs, then by smallest |offset|, negative before positive. A
    degenerate pair of lists reports offset 0.
    """
    if not (0 < step < math.inf):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not (step <= search_range < math.inf):
        raise ValueError(f"search range {search_range!r} must be finite and >= step {step!r}")
    check_tolerance(tolerance)
    steps = search_range / step
    if steps > MAX_PHASE_STEPS:
        raise ValueError(f"search range / step must be <= {MAX_PHASE_STEPS}, got {steps!r}")
    n_steps = int(math.floor(steps + 1e-9))
    ref_times = ref.times.tolist()

    def rank(offset):
        pairs = _match_times((gen.times + offset).tolist(), ref_times, tolerance)
        residual = sum(abs(g - r) for g, r in pairs) / len(pairs) if pairs else math.inf
        # F1 grows strictly with the count at fixed B_g and B_t, so -count orders as -F1
        return (-len(pairs), residual, abs(offset), 0 if offset <= 0 else 1)

    best = min((k * step for k in range(-n_steps, n_steps + 1)), key=rank)
    report = _report_from_times(gen.times + best, ref.times, tolerance)
    return PhaseAlignment(offset=best, report=report)
