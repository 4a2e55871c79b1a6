"""Shuffle (permutation) tests and bootstrap confidence distributions.

Replicate randomness is always derived from ``substream(seed, r)`` for
replicate index r, so a run is fully determined by (data, statistic, number
of replicates, seed) no matter how replicates are scheduled.  The per-
replicate draw sequences are:

* shuffle test on a two-group sample of n rows with n1 rows in the first
  group: n1 partial forward Fisher-Yates steps over the values in original
  row order; the first n1 positions become the first group.
* paired shuffle test: n - 1 Fisher-Yates steps over the y column (a full
  shuffle); the x column stays fixed.
* bootstrap of n rows: n draws of ``below(n)``, each an index into the
  original rows.  For grouped data a replicate that loses a whole group is
  redrawn from the same substream (n fresh index draws per attempt) until
  both groups are present; redraws are counted on the result.

Each draw plan is one kernel, run by ``rng.run_chunks`` on numpy lanes in
lockstep, in bounded chunks each reduced to its statistic (memory grows with
the chunk, not with N x n).  Lane r is always ``substream(seed, r)`` and each
statistic is evaluated row by row on C-contiguous rows, so the chunk size
never changes a value, not even the float summation order.  The tests run
the same kernels unchunked on ``rng.ScalarLanes``, the Python-int oracle for
the numpy engine, and check the draw plans above against
``SeededGenerator``'s own methods; ``bench/refgen.py`` checks them outside
the program.

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
    """
    n = xs.size
    dx = xs - xs[0]
    dy = ys - ys[0]
    sx, sy = dx.sum(), dy.sum()
    den = np.sqrt((n * (dx * dx).sum() - sx * sx) * (n * (dy * dy).sum() - sy * sy))
    products = rows - ys[0]
    products *= dx
    return (n * products.sum(axis=1) - sx * sy) / den


def _check_statistic(data, statistic: str) -> None:
    if isinstance(data, Sample):
        if statistic != STAT_MEAN:
            raise ValueError(
                f"statistic {statistic!r} needs grouped or paired data"
            )
    elif isinstance(data, GroupedSample):
        if statistic not in GROUP_STATS:
            raise ValueError(
                f"statistic {statistic!r} does not apply to two-group data; "
                f"use one of {GROUP_STATS}"
            )
        if statistic == STAT_PROPORTION_DIFF and not set(data.values) <= {0.0, 1.0}:
            raise ValueError("proportion-diff needs 0/1 values")
    elif isinstance(data, PairedSample):
        if statistic != STAT_CORRELATION:
            raise ValueError(f"paired data supports only {STAT_CORRELATION!r}")
    else:
        raise ValueError(f"unsupported data type {type(data).__name__}")


def default_statistic(data) -> str:
    if isinstance(data, Sample):
        return STAT_MEAN
    if isinstance(data, GroupedSample):
        return STAT_MEAN_DIFF
    if isinstance(data, PairedSample):
        return STAT_CORRELATION
    raise ValueError(f"unsupported data type {type(data).__name__}")


def _difference_description(data: GroupedSample, statistic: str) -> str:
    g1, g2 = data.group_names
    what = "proportion" if statistic == STAT_PROPORTION_DIFF else "mean"
    return f"{what}({g1}) - {what}({g2})"


def observed_statistic(data, statistic: str | None = None) -> float:
    """The statistic evaluated on the real data (no resampling)."""
    if statistic is None:
        statistic = default_statistic(data)
    _check_statistic(data, statistic)
    if isinstance(data, Sample):
        arr = np.asarray(data.values, dtype=float)
        return float(arr.reshape(1, -1).mean(axis=1)[0])
    if isinstance(data, GroupedSample):
        g1, g2 = data.group_names
        ordered = np.asarray(data.group_values(g1) + data.group_values(g2), dtype=float)
        return float(_grouped_diffs(ordered.reshape(1, -1), data.group_count(g1))[0])
    xs = np.asarray(data.xs, dtype=float)
    ys = np.asarray(data.ys, dtype=float)
    return float(_correlations(xs, ys, ys.reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# draw kernels, each run by rng.run_chunks


def _prefix_shuffle_rows(arr: np.ndarray, blk, steps: int) -> np.ndarray:
    """One copy of arr per lane, after `steps` Fisher-Yates steps of that lane."""
    n = arr.size
    mat = np.tile(arr, (blk.count, 1))
    flat = mat.reshape(-1)
    row_start = np.arange(0, blk.count * n, n)
    for i in range(steps):
        a = row_start + i
        b = blk.below(n - i)
        b += a
        left = flat[a]
        flat[a] = flat[b]
        flat[b] = left
    return mat


def _prefix_shuffle_matrix(
    values, n_resamples: int, seed: int, k: int, statistic=np.asarray
) -> np.ndarray:
    """Row r is the value list after k Fisher-Yates steps of substream(seed, r).

    The result is ``statistic(rows)`` (by default the rows themselves), where
    ``statistic`` maps a matrix of such rows to one result per row; it is
    applied to one chunk of rows at a time.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    steps = min(k, n - 1)

    def kernel(blk) -> np.ndarray:
        return statistic(_prefix_shuffle_rows(arr, blk, steps))

    return rng.run_chunks(seed, n_resamples, n, kernel)


def _index_rows(blk, n_items: int, n_draws: int) -> np.ndarray:
    """Row i holds n_draws successive below(n_items) draws of the block's lane i."""
    idx = np.empty((blk.count, n_draws), dtype=np.int64)
    for d in range(n_draws):
        idx[:, d] = blk.below(n_items)
    return idx


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
    if sidedness == "less":
        return stat <= observed
    raise ValueError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")


def shuffle_test(
    data: GroupedSample,
    statistic: str = STAT_MEAN_DIFF,
    n_resamples: int = DEFAULT_REPLICATES,
    seed: int = 0,
    sidedness: str = "two-sided",
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> TestReport:
    """Re-deal the values to the original group sizes N times (no replacement).

    Ties count: the p-value is the fraction of re-deals whose statistic is
    at least as extreme as the observed one.
    """
    if not isinstance(data, GroupedSample):
        raise ValueError("shuffle_test needs a two-group sample")
    _check_statistic(data, statistic)
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
    if n_resamples < 1:
        raise ValueError("need at least one replicate")
    g1, _ = data.group_names
    n1 = data.group_count(g1)
    diffs = _prefix_shuffle_matrix(
        data.values, n_resamples, seed, n1, lambda mat: _grouped_diffs(mat, n1)
    )
    return _shuffle_report(
        data, statistic, diffs, seed, sidedness, bin_width, _difference_description(data, statistic)
    )


def shuffle_test_paired(
    data: PairedSample,
    n_resamples: int = DEFAULT_REPLICATES,
    seed: int = 0,
    sidedness: str = "two-sided",
    bin_width: float = CORRELATION_BIN_WIDTH,
) -> TestReport:
    """Shuffle the y column against the fixed x column; statistic is Pearson r."""
    if not isinstance(data, PairedSample):
        raise ValueError("shuffle_test_paired needs a paired sample")
    if data.n < 3:
        raise ValueError("need at least 3 pairs for a correlation test")
    xs = np.asarray(data.xs, dtype=float)
    ys = np.asarray(data.ys, dtype=float)
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("correlation undefined: a coordinate has zero variance")
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
    if n_resamples < 1:
        raise ValueError("need at least one replicate")
    rs = _prefix_shuffle_matrix(
        ys, n_resamples, seed, data.n - 1, lambda mat: _correlations(xs, ys, mat)
    )
    return _shuffle_report(
        data, STAT_CORRELATION, rs, seed, sidedness, bin_width,
        "pearson correlation of y against fixed x",
    )


def _shuffle_report(
    data, statistic: str, replicates: np.ndarray, seed: int, sidedness: str,
    bin_width: float, description: str,
) -> TestReport:
    observed = observed_statistic(data, statistic)
    n = len(replicates)
    dist = ResampleDistribution(replicates, observed, statistic, "without-replacement", n, seed, data.n)
    hits = np.count_nonzero(_at_least_as_extreme(dist.array, observed, sidedness))
    histogram = Histogram.from_values(dist.array, bin_width)
    return TestReport(observed, hits / n, statistic, sidedness, n, seed, histogram, description, dist)


def exact_shuffle_p(
    data: GroupedSample,
    statistic: str = STAT_MEAN_DIFF,
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
    _check_statistic(data, statistic)
    if not isinstance(data, GroupedSample):
        raise ValueError("exact enumeration needs a two-group sample")
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
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
    an entire group are redrawn (see module docstring) and counted in
    ``redraw_count``.
    """
    if statistic is None:
        statistic = default_statistic(data)
    _check_statistic(data, statistic)
    if n_resamples < 1:
        raise ValueError("need at least one replicate")
    n = data.n
    observed = observed_statistic(data, statistic)
    arr = np.asarray(data.values, dtype=float)
    redraws = 0
    if isinstance(data, Sample):

        def kernel(blk) -> np.ndarray:
            return arr[_index_rows(blk, n, n)].mean(axis=1)

    else:
        g1, _ = data.group_names
        in_g1 = np.asarray([g == g1 for g in data.groups])

        def kernel(blk) -> np.ndarray:
            nonlocal redraws
            idx = _index_rows(blk, n, n)
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
        fresh = _index_rows(blk, n_items, n_items)
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


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation at position q*(N-1) (0-indexed)."""
    s = np.sort(_values_array(values))
    if s.size == 0:
        raise ValueError("no values")
    if not 0 <= q <= 1:
        raise ValueError(f"percentile level must be in [0, 1], got {q}")
    return _sorted_percentile(s, q)


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
    if isinstance(data, GroupedSample):
        description = _difference_description(data, dist.statistic)
    else:
        description = "mean"
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
        description=description,
    )
