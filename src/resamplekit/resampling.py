"""Shuffle (permutation) tests and bootstrap confidence distributions.

Replicate r draws from ``substream(seed, r)``, so a run is fully
determined by (data, statistic, number of replicates, seed).  The draw plans,
their lanes forms and the chunking that runs them are specified once, in
``rng``.  Each procedure here passes a reducer to ``rng.shuffled`` or
``rng.drawn``: a function from one position-major block, a row per position
or draw and a column per lane, to the statistic of each lane.  It reads
values at those positions through ``rng.lane_sums``, which sums each lane on
its own in numpy's order for a C-contiguous row, so no block size changes a
value, not even the float summation order.

Summaries of a run (the histogram, tail shares, a shuffle test's hits, and
the diagnostics' mean, moments and out-of-bounds share) read its values
through ``_walk``, a slice of at most ``spec.SUMMARY_SLICE`` values (256 KB)
at a time, so their temporaries are the size of a slice, not of the run.
Counts add up exactly over slices.  Sums keep every bit because numpy's sum
of a contiguous float64 array is the pairwise tree that the ``rng``
docstring writes out, and a subtree is the same rule on a contiguous span:
the walk cuts the run where the tree cuts it (in halves at multiples of 8,
never a span of ``spec.PAIRWISE_BLOCK`` values or fewer), sums each slice
with numpy and adds the sums back up the tree (Higham, "The accuracy of
floating point summation", SIAM J. Sci. Comput., 1993).  Only the interval
and the median sort a whole copy, one after the other.  Summaries refuse
NaN and infinities, which they find in the minimum and maximum or the
sorted ends that they read anyway.

p-values count ties inclusively: two-sided p = #{|T*| >= |T_obs|} / N,
one-sided variants count T* >= T_obs (or <=).  The statistic table, these
rules and the exact shuffle p are in ``spec``, which needs no numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng, spec
from .data import GroupedSample, PairedSample, Sample
from .spec import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_REPLICATES,
    INTERVAL_VALUES,
    STAT_CORRELATION,
    STAT_MEAN,
    STATISTICS,
    _check_tail_direction,
    _describe,
    check_bin_width,
    check_bootstrap,
    check_finite,
    check_level,
    check_report,
    check_scale_bounds,
    check_shuffle_test,
)

# Diagnostics thresholds.  Skewness above 0.25 marks a resample distribution
# as visibly lopsided (mild sampling noise at N=1000 stays well below this);
# fewer than 9 observations gets a coarse-sample note.
SKEWNESS_FLAG_THRESHOLD = 0.25
SMALL_SAMPLE_SIZE = 9

# Histograms refuse bin widths that could give more bins than this (reports
# use well under 100).
MAX_BINS = 10**4
# Characters in the longest bar of a text histogram.
HISTOGRAM_BAR_WIDTH = 50


@dataclass(frozen=True)
class Histogram:
    """Counts per bin; bins are aligned so that 0 is a bin center.

    A value v belongs to the bin with center c when c - w/2 <= v < c + w/2.
    """

    bin_width: float
    centers: tuple[float, ...]
    counts: tuple[int, ...]

    @classmethod
    def from_values(cls, values, bin_width: float = DEFAULT_BIN_WIDTH) -> "Histogram":
        check_bin_width(bin_width)
        v = _values_array(values)
        # A width of at least `fit` gives at most MAX_BINS bins, with bin
        # indexes below 2**62 so that they fit int64.
        vmin, vmax = float(v.min()), float(v.max())
        _check_ends(v, vmin, vmax)
        fit = max((vmax - vmin) / (MAX_BINS - 1), max(-vmin, vmax) / 2**61)
        if bin_width < fit:
            raise ValueError(
                f"bin width {bin_width:g} gives too many bins for these values "
                f"(limit {MAX_BINS}); use a width of at least {fit * 1.01:.3g}"
            )

        def bins(s):
            return np.floor(s / bin_width + 0.5).astype(np.int64)

        # A bin index never falls as v rises, so vmin's and vmax's bins are
        # the first and the last.
        lo, hi = bins(np.array([vmin, vmax])).tolist()
        counts = _walk(v, lambda s: np.bincount(bins(s) - lo, minlength=hi - lo + 1))
        centers = tuple(float(i * bin_width) for i in range(lo, hi + 1))
        return cls(bin_width=float(bin_width), centers=centers, counts=tuple(counts.tolist()))

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_csv(self) -> str:
        lines = ["bin_center,count"]
        lines += [f"{c:.12g},{n}" for c, n in zip(self.centers, self.counts)]
        return "\n".join(lines) + "\n"

    def to_ascii(self) -> str:
        peak = max(self.counts) if self.counts else 0
        lines = []
        for c, n in zip(self.centers, self.counts):
            bar = "#" * (max(1, round(n / peak * HISTOGRAM_BAR_WIDTH)) if n else 0)
            lines.append(f"{c:>10.6g} | {bar} {n}")
        return "\n".join(lines)


def read_only(values) -> np.ndarray:
    """``values`` as a float64 array that cannot be written to."""
    arr = np.asarray(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def eq_by_fields(self, other) -> bool:
    """Value equality over the dataclass fields, ndarray fields by
    ``np.array_equal`` (a cached tuple in ``__dict__`` is not a field)."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class ResampleDistribution:
    """Statistic values over N replicates, plus what produced them.

    ``array`` is the one stored copy of the values, a read-only float64
    array; ``values`` is a tuple of the same floats, built when first read.
    """

    array: np.ndarray
    observed: float
    statistic: str
    mode: str  # "with-replacement" | "without-replacement"
    n_resamples: int
    seed: int
    source_size: int
    redraw_count: int = 0

    def __post_init__(self):
        if len(self.array) != self.n_resamples:
            raise ValueError(f"{len(self.array)} values for {self.n_resamples} replicates")
        object.__setattr__(self, "array", read_only(self.array))

    __eq__ = eq_by_fields

    @functools.cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())


class _ReadsDistribution:
    """A report's run, read from its one stored copy in ``distribution``."""

    @property
    def observed(self) -> float:
        return self.distribution.observed

    @property
    def statistic(self) -> str:
        return self.distribution.statistic

    @property
    def n_resamples(self) -> int:
        return self.distribution.n_resamples

    @property
    def seed(self) -> int:
        return self.distribution.seed


@dataclass(frozen=True)
class TestReport(_ReadsDistribution):
    distribution: ResampleDistribution
    p_value: float
    sidedness: str
    histogram: Histogram
    description: str  # which direction the statistic was taken in


@dataclass(frozen=True)
class DiagnosticsReport:
    source_size: int
    skewness: float
    mean_median_gap: float  # |mean - median| / sd of the resample values
    skew_flagged: bool
    scale_bounds: tuple[float, float] | None
    out_of_bounds_fraction: float | None
    bounds_flagged: bool
    small_sample: bool
    notes: tuple[str, ...]


@dataclass(frozen=True)
class BootstrapReport(_ReadsDistribution):
    distribution: ResampleDistribution
    interval_level: float
    interval: tuple[float, float]
    tail_direction: str
    tail_probabilities: tuple[tuple[float, float], ...]  # (threshold, probability)
    histogram: Histogram
    diagnostics: DiagnosticsReport
    description: str


# ---------------------------------------------------------------------------
# statistic evaluation (shared by observed value and all replicates)


def _grouped_diffs(values: np.ndarray, n1: int, block: np.ndarray) -> np.ndarray:
    """Per lane of a position-major block: the mean of the values at its
    first n1 positions minus the mean of the values at the rest."""
    s1 = rng.lane_sums(values, block[:n1])
    s2 = rng.lane_sums(values, block[n1:])
    return s1 / n1 - s2 / (len(block) - n1)


def _correlations(xs: np.ndarray, ys: np.ndarray):
    """The reducer of a position-major block, each lane a permutation of
    0..n-1, to the Pearson r of fixed xs against ys in the order of each lane.

    The sums are of xs - xs[0] and ys - ys[0] (the shifted-data algorithm),
    so data far from zero do not cancel; integer data stay exact.  The y
    sums are the same for every permutation, so they are taken once, on ys.
    The columns come from ``_paired_columns``, so the squared sums can
    neither under- nor overflow.
    """
    n = xs.size
    dx = xs - xs[0]
    dy = ys - ys[0]
    sx, sy = dx.sum(), dy.sum()
    den = np.sqrt((n * (dx * dx).sum() - sx * sx) * (n * (dy * dy).sum() - sy * sy))

    def correlations(block):
        return (n * rng.lane_sums(dy, block, dx) - sx * sy) / den

    return correlations


def _paired_columns(data: PairedSample) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns, each scaled by the power of two that brings its
    largest magnitude into [0.5, 1).

    The scaling is exact (short of values 2^1022 times smaller than the
    largest) and r does not depend on it, but without it x = 0, 0, 1e-200, 0
    underflows to a zero spread and x = 0, 1e200, 2e200, 3e200 overflows.
    """

    def unit(values):
        arr = np.asarray(values, dtype=float)
        return np.ldexp(arr, -np.frexp(np.abs(arr).max())[1])

    return unit(data.xs), unit(data.ys)


def observed_statistic(data, statistic: str | None = None) -> float:
    """The statistic evaluated on the real data (no resampling): ``statistic``
    as a check in ``spec`` resolved it, or None for the kind's default."""
    statistic = STATISTICS[type(data)][0] if statistic is None else statistic
    if statistic == STAT_MEAN:
        arr = np.asarray(data.values, dtype=float)
        return float(arr.reshape(1, -1).mean(axis=1)[0])
    if statistic == STAT_CORRELATION:
        return float(_correlations(*_paired_columns(data))(rng.positions(data.n).reshape(-1, 1))[0])
    g1, g2 = data.group_names
    ordered = np.asarray(data.group_values(g1) + data.group_values(g2), dtype=float)
    return float(_grouped_diffs(ordered, data.group_count(g1), rng.positions(data.n).reshape(-1, 1))[0])


# ---------------------------------------------------------------------------
# shuffle tests


def _at_least_as_extreme(stat, observed, sidedness: str):
    """Whether ``stat`` is at least as extreme as ``observed`` (ties count),
    elementwise on a float array; ``spec._extreme_bounds`` is the same rule on
    the exact first-group sums."""
    if sidedness == "two-sided":
        return abs(stat) >= abs(observed)
    if sidedness == "greater":
        return stat >= observed
    return stat <= observed


def shuffle_test(
    data: GroupedSample | PairedSample,
    statistic: str | None = None,
    n_resamples: int = DEFAULT_REPLICATES,
    seed: int = 0,
    sidedness: str = "two-sided",
    bin_width: float | None = None,
) -> TestReport:
    """Re-deal the data N times under the baseline hypothesis (no replacement).

    Two-group data is re-dealt to the original group sizes; paired data keeps
    its x column and shuffles the y column against it (Pearson r).  Ties
    count: the p-value is the fraction of re-deals whose statistic is at
    least as extreme as the observed one.  ``bin_width`` defaults by statistic
    (``spec.check_shuffle_test``).
    """
    statistic, bin_width, k = check_shuffle_test(data, statistic, n_resamples, sidedness, bin_width)
    if statistic == STAT_CORRELATION:
        reduce = _correlations(*_paired_columns(data))
    else:
        reduce = functools.partial(_grouped_diffs, np.asarray(data.values, dtype=float), k)
    kernel = functools.partial(rng.shuffled, rng.positions(data.n), k, reduce)
    replicates, _ = rng.run_chunks(seed, n_resamples, data.n, kernel)
    observed = observed_statistic(data, statistic)
    dist = ResampleDistribution(
        replicates, observed, statistic, "without-replacement", n_resamples, seed, data.n
    )
    hits = _walk(dist.array, lambda s: np.count_nonzero(_at_least_as_extreme(s, observed, sidedness)))
    histogram = Histogram.from_values(dist.array, bin_width)
    return TestReport(dist, hits / n_resamples, sidedness, histogram, _describe(data, statistic))


def shuffle_test_paired(
    data: PairedSample,
    n_resamples: int = DEFAULT_REPLICATES,
    seed: int = 0,
    sidedness: str = "two-sided",
    bin_width: float | None = None,
) -> TestReport:
    """``shuffle_test`` of Pearson r on paired data."""
    return shuffle_test(data, STAT_CORRELATION, n_resamples, seed, sidedness, bin_width)


# ---------------------------------------------------------------------------
# bootstrap


def bootstrap(
    data: Sample | GroupedSample,
    statistic: str | None = None,
    n_resamples: int = DEFAULT_REPLICATES,
    seed: int = 0,
) -> ResampleDistribution:
    """Resample whole rows with replacement N times and evaluate the statistic.

    Grouped data keeps each row's value/group pairing; replicates that lose
    an entire group are redrawn (the rule is in ``rng``) and counted in
    ``redraw_count``.
    """
    statistic = check_bootstrap(data, statistic, n_resamples)
    n = data.n
    observed = observed_statistic(data, statistic)
    arr = np.asarray(data.values, dtype=float)
    if statistic == STAT_MEAN:
        kernel = functools.partial(rng.drawn, n, lambda block: rng.lane_sums(arr, block) / n, False)
    else:
        g1, _ = data.group_names
        in_g1 = np.asarray([g == g1 for g in data.groups], dtype=float)
        reduce = functools.partial(_grouped_resample_diffs, np.stack([arr, arr * in_g1, in_g1]))
        kernel = functools.partial(rng.drawn, n, reduce, True)
    values, redraws = rng.run_chunks(seed, n_resamples, n, kernel)
    return ResampleDistribution(values, observed, statistic, "with-replacement", n_resamples, seed, n, redraws)


def _grouped_resample_diffs(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Per lane of a block of drawn positions: the mean of the group-1 values
    at them minus the mean of the others (nan when the lane holds only one
    group), stacked over the count of group-1 positions.

    ``table`` stacks the values, the values with the second group's zeroed
    and the group-1 flags as 0.0 or 1.0, so one ``lane_sums`` gives the
    total, the group-1 sum and the (exact) group-1 count."""
    total, s1, c1 = rng.lane_sums(table, block)
    s2 = total - s1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([s1 / c1 - s2 / (len(block) - c1), c1])


# ---------------------------------------------------------------------------
# summaries of a resample distribution


def _values_array(dist) -> np.ndarray:
    """The values every summary reads, refused when there are none."""
    v = dist.array if isinstance(dist, ResampleDistribution) else np.asarray(dist, dtype=float)
    if v.size == 0:
        raise ValueError("cannot summarize an empty value list")
    return v


def _walk(v: np.ndarray, leaf, lo: int = 0, hi: int | None = None):
    """The sum of ``leaf`` of each slice of v[lo:hi], added back up numpy's
    pairwise tree (module docstring).

    A span of k values, more than ``spec.SUMMARY_SLICE`` and more than the
    ``spec.PAIRWISE_BLOCK`` that numpy's pairwise sum adds in running sums,
    is cut where that sum cuts it, after its first (k // 2) // 8 * 8
    values.  So where ``leaf`` returns its slice's sums, the walk returns
    v's sums bit for bit; counts add up exactly in any order."""
    hi = v.size if hi is None else hi
    k = hi - lo
    if k <= max(spec.SUMMARY_SLICE, spec.PAIRWISE_BLOCK):
        return leaf(v[lo:hi])
    mid = lo + k // 2 // 8 * 8
    return _walk(v, leaf, lo, mid) + _walk(v, leaf, mid, hi)


def _check_ends(v: np.ndarray, low: float, high: float) -> None:
    """Raise ValueError, counting v's values that are not finite, unless
    ``low`` and ``high`` are finite: v's minimum and maximum, or its sorted
    ends, as the caller read them (both carry NaN, which sorts last)."""
    if not (math.isfinite(low) and math.isfinite(high)):
        bad = v.size - np.count_nonzero(np.isfinite(v))
        raise ValueError(f"{bad} of {v.size} values are NaN or infinite; summaries need finite values")


def _sorted_percentile(s: np.ndarray, q: float) -> float:
    pos = q * (s.size - 1)
    i = int(math.floor(pos))
    frac = pos - i
    if i + 1 < s.size:
        return float(s[i] + frac * (s[i + 1] - s[i]))
    return float(s[i])


def percentile_interval(dist, level: float = 0.95) -> tuple[float, float]:
    """Equal-tailed interval: the (1-level)/2 and 1-(1-level)/2 percentiles."""
    check_level(level)
    v = _values_array(dist)
    if v.size < INTERVAL_VALUES:
        raise ValueError("need at least two values for an interval")
    alpha = (1 - level) / 2
    s = np.sort(v)
    _check_ends(s, s[0], s[-1])
    return _sorted_percentile(s, alpha), _sorted_percentile(s, 1 - alpha)


def tail_probability(dist, threshold: float, direction: str = "ge") -> float:
    """Fraction of values >= threshold ("ge", default) or > threshold ("gt")."""
    _check_tail_direction(direction)
    check_finite(threshold=threshold)
    v = _values_array(dist)
    beyond = np.greater_equal if direction == "ge" else np.greater

    def count(s):
        _check_ends(v, s.min(), s.max())
        return np.count_nonzero(beyond(s, threshold))

    return float(_walk(v, count) / v.size)


def _median(v: np.ndarray) -> float:
    """The median of v from one sort: the middle value, or the mean of the
    two middle values, as ``np.median`` takes it."""
    s = np.sort(v)
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2)


def _central_moments(v: np.ndarray, e: int) -> tuple[float, float, float]:
    """The mean of v and the second and third moments of v about it, all
    taken on v scaled by 2^-e, which is exact: the mean in one walk, the
    moments in a second over v - mean.  Each is numpy's mean of the whole
    array, bit for bit (``_walk``)."""
    mu = _walk(v, lambda s: np.ldexp(s, -e).sum()) / v.size

    def powers(s):
        d = np.ldexp(s, -e)
        d -= mu
        d2 = d * d
        m2 = d2.sum()
        d2 *= d
        return np.array([m2, d2.sum()])

    m2, m3 = (_walk(v, powers) / v.size).tolist()
    return float(mu), m2, m3


def diagnostics(
    dist: ResampleDistribution, scale_bounds: tuple[float, float] | None = None
) -> DiagnosticsReport:
    """Sanity checks before reading the distribution as tentative probabilities.

    Reports asymmetry (skewness plus the |mean - median|/sd gap, flagged above
    ``SKEWNESS_FLAG_THRESHOLD``), the mass whose mirror image around the
    observed value falls outside the measurement scale (flagged when any),
    and whether the source sample is small.
    """
    v = _values_array(dist)
    low, high = float(v.min()), float(v.max())
    _check_ends(v, low, high)
    # e is 0 while |v| lies within 2^±256, so ordinary moments are unscaled;
    # beyond, v is scaled to that edge, where the cubes of v - mean and the
    # sums of N of them neither overflow nor underflow.
    exponent = math.frexp(max(-low, high))[1]
    e = exponent - min(256, max(-256, exponent))
    mu, m2, m3 = _central_moments(v, e)
    mu = math.ldexp(mu, e)
    med = _median(v)
    sd = math.ldexp(math.sqrt(m2), e)
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    gap = abs(mu - med) / sd if sd > 0 else 0.0
    skew_flagged = abs(skew) > SKEWNESS_FLAG_THRESHOLD
    oob = None
    bounds_flagged = False
    if scale_bounds is not None:
        check_scale_bounds(scale_bounds)
        lo, hi = float(scale_bounds[0]), float(scale_bounds[1])
        twice = 2.0 * dist.observed

        def outside(s):
            reflected = twice - s
            return np.count_nonzero((reflected < lo) | (reflected > hi))

        oob = float(_walk(v, outside) / v.size)
        bounds_flagged = oob > 0
    small = dist.source_size < SMALL_SAMPLE_SIZE
    notes = []
    if skew_flagged:
        notes.append(
            f"resample distribution is noticeably asymmetric (skewness {skew:.2f}); "
            "read intervals and tail probabilities as rough"
        )
    if bounds_flagged:
        notes.append(
            f"{oob:.1%} of the distribution mirrors to outside the measurement "
            f"scale ({scale_bounds[0]:g}, {scale_bounds[1]:g}); probabilities near "
            "the scale edge claim more than is possible"
        )
    if small:
        notes.append(
            f"only {dist.source_size} observations: the resampled view of the "
            "population may be too coarse"
        )
    return DiagnosticsReport(
        source_size=dist.source_size,
        skewness=skew,
        mean_median_gap=gap,
        skew_flagged=skew_flagged,
        scale_bounds=tuple(scale_bounds) if scale_bounds is not None else None,
        out_of_bounds_fraction=oob,
        bounds_flagged=bounds_flagged,
        small_sample=small,
        notes=tuple(notes),
    )


def bootstrap_report(
    data: Sample | GroupedSample,
    statistic: str | None = None,
    n_resamples: int = DEFAULT_REPLICATES,
    seed: int = 0,
    level: float = 0.95,
    thresholds=(),
    tail_direction: str = "ge",
    scale_bounds: tuple[float, float] | None = None,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> BootstrapReport:
    """Bootstrap plus percentile interval, tail probabilities and diagnostics;
    every option is checked before the first replicate is drawn."""
    thresholds = tuple(thresholds)
    check_report(n_resamples, level, thresholds, tail_direction, scale_bounds, bin_width)
    dist = bootstrap(data, statistic, n_resamples, seed)
    values = dist.array
    return BootstrapReport(
        distribution=dist,
        interval_level=level,
        interval=percentile_interval(values, level),
        tail_direction=tail_direction,
        tail_probabilities=tuple(
            (float(t), tail_probability(values, t, tail_direction)) for t in thresholds
        ),
        histogram=Histogram.from_values(values, bin_width),
        diagnostics=diagnostics(dist, scale_bounds),
        description=_describe(data, dist.statistic),
    )
