"""Shuffle (permutation) tests and bootstrap confidence distributions.

Replicate r draws from ``substream(seed, r)``, so a run is fully
determined by (data, statistic, number of replicates, seed).  The draw plans,
their lanes forms and the chunking that runs them are specified once, in
``rng``.  Each procedure here builds a kernel that reduces one chunk of
lanes to its statistic, row by row on C-contiguous rows, so the chunk size
never changes a value, not even the float summation order.

p-values count ties inclusively: two-sided p = #{|T*| >= |T_obs|} / N,
one-sided variants count T* >= T_obs (or <=).

The exact shuffle p (``exact_shuffle_p``) counts the same rule over all
C(n, n1) splits without listing them.  The values are scaled to exact Python
ints by their largest denominator (a power of two, since every double is a
dyadic rational); the mean difference is then a monotone function of the
first-group sum, so each test is a range of that sum; and a meet-in-the-middle
count (Horowitz & Sahni, 1974) pairs the subset sums of the two halves of the
rows, of subsets no larger than the smaller group, by bisection.  Its cap,
``ENUMERATION_LIMIT``, counts those half-subset sums, not the splits: at most
2^h + 2^(n-h) for h = n // 2, so 10^6 reaches 37 rows.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .data import GroupedSample, PairedSample, Sample

STAT_MEAN = "mean"
STAT_MEAN_DIFF = "mean-diff"
STAT_PROPORTION_DIFF = "proportion-diff"
STAT_CORRELATION = "correlation"
GROUP_STATS = (STAT_MEAN_DIFF, STAT_PROPORTION_DIFF)

# The statistics each data kind takes; the first is the kind's default.
STATISTICS = {
    Sample: (STAT_MEAN,),
    GroupedSample: GROUP_STATS,
    PairedSample: (STAT_CORRELATION,),
}
_KIND_NAMES = {Sample: "one-sample", GroupedSample: "two-group", PairedSample: "paired"}
# How reports describe each statistic; the {} are the two group names.
_DESCRIPTIONS = {
    STAT_MEAN: "mean",
    STAT_MEAN_DIFF: "mean({}) - mean({})",
    STAT_PROPORTION_DIFF: "proportion({}) - proportion({})",
    STAT_CORRELATION: "pearson correlation of y against fixed x",
}

SIDEDNESS = ("two-sided", "greater", "less")

# Diagnostics thresholds.  Skewness above 0.25 marks a resample distribution
# as visibly lopsided (mild sampling noise at N=1000 stays well below this);
# fewer than 9 observations gets a coarse-sample note.
SKEWNESS_FLAG_THRESHOLD = 0.25
SMALL_SAMPLE_SIZE = 9

DEFAULT_REPLICATES = 1000
DEFAULT_BIN_WIDTH = 2.0
CORRELATION_BIN_WIDTH = 0.05

ENUMERATION_LIMIT = 10**6

# Histograms refuse bin widths that could give more bins than this (reports
# use well under 100).
MAX_BINS = 10**4
# Characters in the longest bar of a text histogram.
HISTOGRAM_BAR_WIDTH = 50


def check_bin_width(bin_width: float) -> None:
    """Raise ValueError unless the histogram bin width is finite and > 0."""
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be a finite number > 0, got {bin_width}")


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
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            raise ValueError("cannot bin an empty value list")
        # A width of at least `fit` gives at most MAX_BINS bins, with bin
        # indexes below 2**62 so that they fit int64.
        vmin, vmax = float(v.min()), float(v.max())
        fit = max((vmax - vmin) / (MAX_BINS - 1), max(-vmin, vmax) / 2**61)
        if bin_width < fit:
            raise ValueError(
                f"bin width {bin_width:g} gives too many bins for these values "
                f"(limit {MAX_BINS}); use a width of at least {fit * 1.01:.3g}"
            )
        k = np.floor(v / bin_width + 0.5).astype(np.int64)
        lo, hi = int(k.min()), int(k.max())
        counts = np.bincount(k - lo, minlength=hi - lo + 1)
        centers = tuple(float(i * bin_width) for i in range(lo, hi + 1))
        return cls(bin_width=float(bin_width), centers=centers, counts=tuple(int(c) for c in counts))

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


def _read_only(values) -> np.ndarray:
    """``values`` as a float64 array that cannot be written to."""
    arr = np.asarray(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _eq_by_fields(self, other) -> bool:
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
        object.__setattr__(self, "array", _read_only(self.array))

    __eq__ = _eq_by_fields

    @functools.cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())


@dataclass(frozen=True)
class TestReport:
    observed: float
    p_value: float
    statistic: str
    sidedness: str
    n_resamples: int
    seed: int
    histogram: Histogram
    description: str  # which direction the statistic was taken in
    distribution: ResampleDistribution


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
class BootstrapReport:
    distribution: ResampleDistribution
    interval_level: float
    interval: tuple[float, float]
    tail_direction: str
    tail_probabilities: tuple[tuple[float, float], ...]  # (threshold, probability)
    histogram: Histogram
    diagnostics: DiagnosticsReport
    description: str

    @property
    def observed(self) -> float:
        return self.distribution.observed

    @property
    def seed(self) -> int:
        return self.distribution.seed

    @property
    def n_resamples(self) -> int:
        return self.distribution.n_resamples


# ---------------------------------------------------------------------------
# statistic evaluation (shared by observed value and all replicates)


def _grouped_diffs(mat: np.ndarray, n1: int) -> np.ndarray:
    """Mean of the first n1 columns minus mean of the rest, per row."""
    s1 = mat[:, :n1].sum(axis=1)
    s2 = mat[:, n1:].sum(axis=1)
    return s1 / n1 - s2 / (mat.shape[1] - n1)


def _correlations(xs: np.ndarray, ys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pearson r of fixed xs against each row of ``rows``, each row a
    permutation of ys.

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
    products = rows - ys[0]
    products *= dx
    return (n * products.sum(axis=1) - sx * sy) / den


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


def _resolve(caller: str, data, statistic: str | None, *kinds) -> str:
    """The statistic ``caller`` computes on ``data``: ``statistic``, or the
    default of the data's kind when it is None.  ``kinds`` are the data kinds
    that ``caller`` takes; anything else is a ValueError."""
    kind = next((k for k in kinds if isinstance(data, k)), None)
    if kind is None:
        accepted = " or ".join(_KIND_NAMES[k] for k in kinds)
        got = f"{_KIND_NAMES[type(data)]} data" if type(data) in _KIND_NAMES else type(data).__name__
        raise ValueError(f"{caller} needs {accepted} data, got {got}")
    stats = STATISTICS[kind]
    statistic = stats[0] if statistic is None else statistic
    if statistic not in stats:
        raise ValueError(
            f"statistic {statistic!r} does not apply to {_KIND_NAMES[kind]} data; use one of {stats}"
        )
    if statistic == STAT_PROPORTION_DIFF and not set(data.values) <= {0.0, 1.0}:
        raise ValueError("proportion-diff needs 0/1 values")
    if statistic == STAT_CORRELATION:
        if data.n < 3:
            raise ValueError("need at least 3 pairs for a correlation test")
        if len(set(data.xs)) == 1 or len(set(data.ys)) == 1:
            raise ValueError("correlation undefined: a coordinate has zero variance")
    return statistic


def _describe(data, statistic: str) -> str:
    """What ``statistic`` measures on ``data``, in the words of the reports."""
    names = data.group_names if isinstance(data, GroupedSample) else ()
    return _DESCRIPTIONS[statistic].format(*names)


def _check_sidedness(sidedness: str) -> None:
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")


def observed_statistic(data, statistic: str | None = None) -> float:
    """The statistic evaluated on the real data (no resampling)."""
    statistic = _resolve("observed_statistic", data, statistic, *STATISTICS)
    if statistic == STAT_MEAN:
        arr = np.asarray(data.values, dtype=float)
        return float(arr.reshape(1, -1).mean(axis=1)[0])
    if statistic == STAT_CORRELATION:
        xs, ys = _paired_columns(data)
        return float(_correlations(xs, ys, ys.reshape(1, -1))[0])
    g1, g2 = data.group_names
    ordered = np.asarray(data.group_values(g1) + data.group_values(g2), dtype=float)
    return float(_grouped_diffs(ordered.reshape(1, -1), data.group_count(g1))[0])


# ---------------------------------------------------------------------------
# shuffle tests


def _at_least_as_extreme(stat, observed, sidedness: str):
    """Whether ``stat`` is at least as extreme as ``observed`` (ties count),
    elementwise on a float array; ``_extreme_bounds`` is the same rule on the
    exact first-group sums."""
    if sidedness == "two-sided":
        return abs(stat) >= abs(observed)
    if sidedness == "greater":
        return stat >= observed
    return stat <= observed


def default_bin_width(statistic: str) -> float:
    """The histogram bin width of a shuffle test of ``statistic``."""
    return CORRELATION_BIN_WIDTH if statistic == STAT_CORRELATION else DEFAULT_BIN_WIDTH


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
    least as extreme as the observed one.  ``bin_width`` defaults to
    ``default_bin_width(statistic)``.
    """
    statistic = _resolve("shuffle_test", data, statistic, GroupedSample, PairedSample)
    _check_sidedness(sidedness)
    if n_resamples < 1:
        raise ValueError("need at least one replicate")
    if statistic == STAT_CORRELATION:
        xs, ys = _paired_columns(data)

        def kernel(blk) -> np.ndarray:
            return _correlations(xs, ys, rng.prefix_shuffle_rows(ys, blk, data.n))

    else:
        arr = np.asarray(data.values, dtype=float)
        n1 = data.group_count(data.group_names[0])

        def kernel(blk) -> np.ndarray:
            return _grouped_diffs(rng.prefix_shuffle_rows(arr, blk, n1), n1)

    replicates = rng.run_chunks(seed, n_resamples, data.n, kernel)
    observed = observed_statistic(data, statistic)
    dist = ResampleDistribution(
        replicates, observed, statistic, "without-replacement", n_resamples, seed, data.n
    )
    hits = np.count_nonzero(_at_least_as_extreme(dist.array, observed, sidedness))
    if bin_width is None:
        bin_width = default_bin_width(statistic)
    histogram = Histogram.from_values(dist.array, bin_width)
    return TestReport(
        observed, hits / n_resamples, statistic, sidedness, n_resamples, seed, histogram,
        _describe(data, statistic), dist,
    )


def shuffle_test_paired(
    data: PairedSample,
    n_resamples: int = DEFAULT_REPLICATES,
    seed: int = 0,
    sidedness: str = "two-sided",
    bin_width: float | None = None,
) -> TestReport:
    """``shuffle_test`` of Pearson r on paired data."""
    return shuffle_test(data, STAT_CORRELATION, n_resamples, seed, sidedness, bin_width)


def exact_shuffle_p(
    data: GroupedSample,
    statistic: str | None = None,
    sidedness: str = "two-sided",
) -> Fraction:
    """Exact shuffle-test p over every way to split the rows, ties inclusive.

    All C(n, n1) assignments of rows to the first group are equally likely
    under shuffling.  They are counted, not listed:

    * every stored double is a dyadic rational, so scaling by the largest
      denominator D (a power of two) makes each value an exact Python int;
    * with n1 and n fixed, n1·n2·(mean difference) = s1·n − T·n1 for the
      scaled first-group sum s1 and total T, so "at least as extreme" is a
      range of s1 (see ``_extreme_bounds``);
    * meet in the middle (Horowitz & Sahni, 1974): the subset sums of each
      half of the rows are listed by subset size, and for each left sum the
      right sums of the complementary size that land in the range are
      counted by bisection in the sorted right lists.  A split is named by
      its smaller group, so only subsets of at most min(n1, n2) values are
      listed.

    ``ENUMERATION_LIMIT`` caps the number of half-subset sums listed, which
    is the work done: at most 2^h + 2^(n−h) for h = n // 2, and far fewer
    when one group is small.  It reaches 37 rows for any split.
    """
    _resolve("exact_shuffle_p", data, statistic, GroupedSample)
    _check_sidedness(sidedness)
    g1, _ = data.group_names
    n = data.n
    n1 = data.group_count(g1)
    h = n // 2
    smaller = min(n1, n - n1)
    # Counted exactly up to _COUNT_PRINT_LIMIT, so past the cap whenever the
    # true count is.
    listed = sum(sum(_binomials(m, smaller, _COUNT_PRINT_LIMIT)) for m in (h, n - h))
    if listed > ENUMERATION_LIMIT:
        *_, splits = _binomials(n, smaller, _COUNT_PRINT_LIMIT)
        raise ValueError(
            f"exact count is capped at {ENUMERATION_LIMIT} half-subset sums; this data needs "
            f"{_count_text(listed)} for C({n}, {n1}) = {_count_text(splits)} splits"
        )
    ratios = [v.as_integer_ratio() for v in data.values]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    total = sum(ints)
    observed = sum(v for v, g in zip(ints, data.groups) if g == g1)
    if 2 * n1 > n:
        # Name each split by the second group instead: its sum is total − s1,
        # which reverses the one-sided tests and keeps the two-sided one.
        n1, observed = n - n1, total - observed
        sidedness = {"greater": "less", "less": "greater"}.get(sidedness, sidedness)
    low, high = _extreme_bounds(observed, total, n1, n, sidedness)
    right = [sorted(sums) for sums in _subset_sums_by_size(ints[h:], n1)]
    hits = 0
    for k, left in enumerate(_subset_sums_by_size(ints[:h], n1)):
        sums = right[n1 - k]
        for s in left:
            if high is not None:
                hits += len(sums) - bisect.bisect_left(sums, high - s)
            if low is not None:
                hits += bisect.bisect_right(sums, low - s)
    return Fraction(hits, math.comb(n, n1))


# Error messages print counts up to this size in full.  Past it, the exact
# binomials would take seconds to compute for a million rows and could
# exceed the interpreter's limit on int-to-str digits.
_COUNT_PRINT_LIMIT = 10**18


def _binomials(m: int, size: int, limit: int):
    """C(m, 0), C(m, 1), ..., C(m, min(size, m)), stopping after the first
    term above ``limit``."""
    term = 1
    for k in range(min(size, m) + 1):
        yield term
        if term > limit:
            return
        term = term * (m - k) // (k + 1)


def _count_text(count: int) -> str:
    return str(count) if count <= _COUNT_PRINT_LIMIT else "more than 10^18"


def _subset_sums_by_size(values: list[int], max_size: int) -> list[list[int]]:
    """Entry k lists the sums of all subsets of k values, for k <= max_size."""
    by_size = [[0]]
    for v in values:
        if len(by_size) <= max_size:
            by_size.append([])
        for k in range(len(by_size) - 1, 0, -1):
            by_size[k] += [s + v for s in by_size[k - 1]]
    return by_size


def _extreme_bounds(observed: int, total: int, n1: int, n: int, sidedness: str):
    """(low, high): a first-group sum s1 is at least as extreme as the observed
    one iff s1 <= low or s1 >= high (None: no bound on that side).

    n1·n2·(mean difference) = s1·n − total·n1 increases with s1, so the
    one-sided tests compare s1 with the observed sum, and the two-sided test
    keeps |s1·n − total·n1| >= a, the observed distance, as an integer floor
    and ceiling.  The two ranges never overlap: with a = 0 they would share
    s1 = total·n1/n, so high is at least low + 1 and every split counts once.
    """
    if sidedness == "greater":
        return None, observed
    if sidedness == "less":
        return observed, None
    a = abs(observed * n - total * n1)
    low = (total * n1 - a) // n
    return low, max(-((-(total * n1 + a)) // n), low + 1)


# ---------------------------------------------------------------------------
# bootstrap


_MAX_REDRAW_ROUNDS = 10_000


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
    statistic = _resolve("bootstrap", data, statistic, Sample, GroupedSample)
    if n_resamples < 1:
        raise ValueError("need at least one replicate")
    n = data.n
    observed = observed_statistic(data, statistic)
    arr = np.asarray(data.values, dtype=float)
    redraws = 0
    if statistic == STAT_MEAN:

        def kernel(blk) -> np.ndarray:
            return arr[rng.index_rows(blk, n, n)].mean(axis=1)

    else:
        g1, _ = data.group_names
        in_g1 = np.asarray([g == g1 for g in data.groups])

        def kernel(blk) -> np.ndarray:
            nonlocal redraws
            idx = rng.index_rows(blk, n, n)
            redraws += _redraw_single_group_rows(idx, in_g1, blk)
            return _grouped_resample_diffs(arr, in_g1, idx)

    return ResampleDistribution(
        rng.run_chunks(seed, n_resamples, n, kernel),
        observed=observed,
        statistic=statistic,
        mode="with-replacement",
        n_resamples=n_resamples,
        seed=seed,
        source_size=n,
        redraw_count=redraws,
    )


def _grouped_resample_diffs(arr: np.ndarray, in_g1: np.ndarray, idx: np.ndarray) -> np.ndarray:
    picked = arr[idx]
    mask1 = in_g1[idx]
    c1 = mask1.sum(axis=1)
    c2 = idx.shape[1] - c1
    s1 = (picked * mask1).sum(axis=1)
    s2 = picked.sum(axis=1) - s1
    return s1 / c1 - s2 / c2


def _lost_a_group(idx: np.ndarray, in_g1: np.ndarray) -> np.ndarray:
    counts = in_g1[idx].sum(axis=1)
    return (counts == 0) | (counts == idx.shape[1])


def _redraw_single_group_rows(idx: np.ndarray, in_g1: np.ndarray, blk) -> int:
    """Redraw, in place, the rows of idx that lost a whole group; returns the
    number of redraws.

    ``blk`` is the lanes object whose lanes drew idx.  Each attempt continues
    a bad lane's own stream with n fresh index draws, and only the lanes still
    bad are stepped, so a row depends on its own substream alone.  ``blk`` is
    narrowed to those lanes on the way.
    """
    n_items = idx.shape[1]
    lanes = np.flatnonzero(_lost_a_group(idx, in_g1))  # positions in blk
    rows = lanes  # the rows of idx they redraw
    redraws = 0
    rounds = 0
    while lanes.size:
        rounds += 1
        if rounds > _MAX_REDRAW_ROUNDS:
            raise RuntimeError("grouped bootstrap kept drawing one-group resamples")
        redraws += lanes.size
        blk.keep(lanes)
        fresh = rng.index_rows(blk, n_items, n_items)
        bad = _lost_a_group(fresh, in_g1)
        idx[rows[~bad]] = fresh[~bad]
        lanes = np.flatnonzero(bad)
        rows = rows[bad]
    return redraws


# ---------------------------------------------------------------------------
# summaries of a resample distribution


def _values_array(dist) -> np.ndarray:
    if isinstance(dist, ResampleDistribution):
        return dist.array
    return np.asarray(dist, dtype=float)


def _sorted_percentile(s: np.ndarray, q: float) -> float:
    pos = q * (s.size - 1)
    i = int(math.floor(pos))
    frac = pos - i
    if i + 1 < s.size:
        return float(s[i] + frac * (s[i + 1] - s[i]))
    return float(s[i])


def percentile_interval(dist, level: float = 0.95) -> tuple[float, float]:
    """Equal-tailed interval: the (1-level)/2 and 1-(1-level)/2 percentiles."""
    if not 0 < level < 1:
        raise ValueError(f"interval level must be in (0, 1), got {level}")
    v = _values_array(dist)
    if v.size < 2:
        raise ValueError("need at least two values for an interval")
    alpha = (1 - level) / 2
    s = np.sort(v)
    return _sorted_percentile(s, alpha), _sorted_percentile(s, 1 - alpha)


def tail_probability(dist, threshold: float, direction: str = "ge") -> float:
    """Fraction of values >= threshold ("ge", default) or > threshold ("gt")."""
    v = _values_array(dist)
    if direction == "ge":
        return float(np.count_nonzero(v >= threshold) / v.size)
    if direction == "gt":
        return float(np.count_nonzero(v > threshold) / v.size)
    raise ValueError(f"direction must be 'ge' or 'gt', got {direction!r}")


def diagnostics(
    dist: ResampleDistribution, scale_bounds: tuple[float, float] | None = None
) -> DiagnosticsReport:
    """Sanity checks before reading the distribution as tentative probabilities.

    Reports asymmetry (skewness plus the |mean - median|/sd gap, flagged above
    ``SKEWNESS_FLAG_THRESHOLD``), the mass whose mirror image around the
    observed value falls outside the measurement scale (flagged when any),
    and whether the source sample is small.
    """
    v = dist.array
    mu = float(v.mean())
    med = float(np.median(v))
    m2 = float(((v - mu) ** 2).mean())
    sd = math.sqrt(m2)
    skew = float(((v - mu) ** 3).mean() / m2**1.5) if m2 > 0 else 0.0
    gap = abs(mu - med) / sd if sd > 0 else 0.0
    skew_flagged = abs(skew) > SKEWNESS_FLAG_THRESHOLD
    oob = None
    bounds_flagged = False
    if scale_bounds is not None:
        lo, hi = float(scale_bounds[0]), float(scale_bounds[1])
        if not lo < hi:
            raise ValueError(f"scale bounds must satisfy low < high, got {scale_bounds}")
        reflected = 2.0 * dist.observed - v
        oob = float(np.count_nonzero((reflected < lo) | (reflected > hi)) / v.size)
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
    """Bootstrap plus percentile interval, tail probabilities and diagnostics."""
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
