"""The numpy-free spec: which statistic each data kind takes, the rules,
checks and defaults of every procedure, the exact shuffle p, and the
Bernoulli experiment with its exact binomial.

Nothing here draws a replicate, so the command line reads its choices and
checks from this module without importing numpy.  Each drawing procedure's
checks are one function here, which the procedure calls first and the
command line calls before it imports numpy; a ``BernoulliExperiment`` runs
its checks as it is built, so ``simulate.simulate_bernoulli`` gets one
checked.  ``check_run``, part of each, caps the lane-values of a run and the
bytes of a block's draw table, sized by the same integer arithmetic that
``rng`` reads.

The exact shuffle p (``exact_shuffle_p``) counts ties inclusively, as the
Monte Carlo p of ``resampling`` does, over all C(n, n1) splits without listing
them.  The values are scaled to exact Python ints by their largest denominator
(a power of two, since every double is a dyadic rational); the mean difference
is then a monotone function of the first-group sum, so each test is a range of
that sum; and a meet-in-the-middle count (Horowitz & Sahni, 1974) pairs the
subset sums of the two halves of the rows, of subsets no larger than the
smaller group, by bisection.  Its cap, ``ENUMERATION_LIMIT``, counts those
half-subset sums, not the splits: at most 2^h + 2^(n-h) for h = n // 2, so
10^6 reaches 37 rows.

One-sample and two-group data must have sums that a float can hold
(``check_magnitude``): n x max|v| x SUM_MARGIN must not pass the largest
double, about 1.8e308.  A lane's sum of its n values is then at most n·max|v|,
and every difference the procedures and summaries take of such sums and of
means stays finite: a second group's sum as total - s1 (2·n·max|v|), a mean
difference, the histogram's range and the diagnostics' reflection
2·observed - v (at most 6·max|v|).  So 1e308, 1.5e308 and 1.7e308 are
refused by name before any draw, where their mean would read inf.  Paired
data need no rule: ``_paired_columns`` scales each column first.  Once group
sums are exact and means correctly rounded (ROADMAP item 1), a mean is finite
for any finite data and this rule can relax to the differences alone.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

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
TAIL_DIRECTIONS = ("ge", "gt")
# The events a Bernoulli experiment scores on its success count.
EVENTS = ("exactly", "at-least", "at-most")
POLL_MODES = ("with-replacement", "without-replacement")

DEFAULT_REPLICATES = 1000
# The fewest values a percentile interval reads, so the fewest replicates of
# a run that reports one.
INTERVAL_VALUES = 2
DEFAULT_BIN_WIDTH = 2.0
CORRELATION_BIN_WIDTH = 0.05

ENUMERATION_LIMIT = 10**6
# The most replicates, runs, polls, trials per run or draws per poll that a
# command line or a library call may ask for: each one is drawn, so a count
# far past this would run for hours and grow its results without bound.
MAX_REPLICATES = 10**8
# How far below the largest double n x max|v| must stay (see check_magnitude).
SUM_MARGIN = 8
# The most lane-values one run may draw or hold: its count of replicates,
# runs or polls times the values each lane takes (its row width).  At 9-35 ns
# per lane-value, from a Bernoulli trial to a paired shuffle step, the largest
# legal run takes minutes, where the counts capped one by one allowed years.
MAX_WORK = 10**10
# The most bytes of a block's draw table: its lanes x the draws of each lane
# x the bytes of a row position.  A bootstrap of 10^6 rows at 1000
# replicates, whose table would take 4 GB, is refused before any draw.
MAX_TABLE_BYTES = 1 << 28

# Sizes of rng.run_chunks' blocks and of a shuffle's sub-blocks (see
# block_lanes, chunk_lanes): about CHUNK_ELEMENTS values per sub-block, so a
# kernel's matrices stay in cache and memory stays bounded by the block
# rather than by replicates x row width.
CHUNK_ELEMENTS = 1 << 18
CHUNK_FLOOR = 1 << 10
# The pairwise sum of the spec (``rng.lane_sums``, and numpy's float sums)
# adds at most this many values in running sums, and halves longer spans.
PAIRWISE_BLOCK = 128
# Values per slice of a summary's walk over a run (``resampling._walk``):
# 2^15 float64 values take 256 KB, so a slice and the temporaries made from
# it stay in a 2 MB L2 cache.
SUMMARY_SLICE = 1 << 15
# The most positions in a shuffle's sub-block: a 10^4-row poll's takes 419
# lanes, and wide-rows peak RSS reads 57 MB, where glibc mapped each 20.5 MB
# sub-block of CHUNK_FLOOR lanes fresh (76 MB; numpy 2.4, glibc 2.36).
SUB_BLOCK_ELEMENTS = 1 << 22


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
    check_magnitude(data)
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


def _check_tail_direction(direction: str) -> None:
    if direction not in TAIL_DIRECTIONS:
        raise ValueError(f"direction must be {' or '.join(map(repr, TAIL_DIRECTIONS))}, got {direction!r}")


def check_level(level: float) -> None:
    """Raise ValueError unless the interval level lies in (0, 1)."""
    if not 0 < level < 1:
        raise ValueError(f"interval level must be in (0, 1), got {level}")


def check_finite(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is given but not finite."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


def check_scale_bounds(bounds: tuple[float, float] | None) -> None:
    """Raise ValueError unless the scale bounds are None, or finite with low < high."""
    if bounds is None:
        return
    check_finite(**{"low scale bound": bounds[0], "high scale bound": bounds[1]})
    if not float(bounds[0]) < float(bounds[1]):
        raise ValueError(f"scale bounds must satisfy low < high, got {bounds}")


def check_count(option: str, count: int, interval: bool = False) -> None:
    """Raise ValueError naming ``option`` unless 1 <= ``count`` <=
    MAX_REPLICATES, and for a run that reports an ``interval``, unless
    ``count`` is at least INTERVAL_VALUES."""
    if count < 1:
        raise ValueError(f"{option} must be at least 1, got {count}")
    if interval and count < INTERVAL_VALUES:
        raise ValueError(f"{option} must be at least {INTERVAL_VALUES} for an interval, got {count}")
    if count > MAX_REPLICATES:
        raise ValueError(f"{option} must be at most {MAX_REPLICATES}, got {count}")


def check_run(count: int, width: int, draws: int = 0) -> None:
    """Raise ValueError unless a run of ``count`` lanes of ``width`` values
    each is at most MAX_WORK lane-values, and its block's draw table of
    ``draws`` positions per lane at most MAX_TABLE_BYTES."""
    if count * width > MAX_WORK:
        raise ValueError(
            f"a run of {count} replicates x {width} values each is {count * width} lane-values, "
            f"above the cap of {MAX_WORK}"
        )
    lanes = min(count, block_lanes(width))
    size = lanes * draws * position_bytes(width)
    if size > MAX_TABLE_BYTES:
        raise ValueError(
            f"a draw table of {lanes} lanes x {draws} draws is {size} bytes, "
            f"above the cap of {MAX_TABLE_BYTES} bytes"
        )


def check_magnitude(data) -> None:
    """Raise ValueError for one-sample or two-group data whose sums could
    overflow: n x max|v| x SUM_MARGIN past the largest double (the rule in
    the module docstring).  Paired data pass."""
    if isinstance(data, PairedSample):
        return
    largest = max(map(abs, data.values))
    limit = sys.float_info.max / (SUM_MARGIN * data.n)
    if largest > limit:
        raise ValueError(
            f"values as large as {largest:g} could overflow a sum of {data.n} rows; "
            f"the largest magnitude accepted for {data.n} rows is {limit:.6g}"
        )


def check_bin_width(bin_width: float) -> None:
    """Raise ValueError unless the histogram bin width is finite and > 0."""
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be a finite number > 0, got {bin_width}")


def check_shuffle_test(data, statistic: str | None, count: int, sidedness: str, bin_width: float | None):
    """The checks of ``resampling.shuffle_test``: returns the statistic, the bin
    width (its default if None) and the first group's size (every row for a correlation)."""
    statistic = _resolve("shuffle_test", data, statistic, GroupedSample, PairedSample)
    _check_sidedness(sidedness)
    check_count("n_resamples", count)
    if bin_width is None:
        bin_width = CORRELATION_BIN_WIDTH if statistic == STAT_CORRELATION else DEFAULT_BIN_WIDTH
    check_bin_width(bin_width)
    k = data.n if statistic == STAT_CORRELATION else data.group_count(data.group_names[0])
    check_run(count, data.n, len(shuffle_steps(data.n, k)))
    return statistic, bin_width, k


def check_report(count, level, thresholds, tail_direction, scale_bounds, bin_width) -> None:
    """The checks of ``resampling.bootstrap_report``'s own options, the ones
    ``bootstrap`` does not take, and of its count of replicates, of which
    its interval needs INTERVAL_VALUES."""
    check_count("n_resamples", count, interval=True)
    check_level(level)
    _check_tail_direction(tail_direction)
    check_scale_bounds(scale_bounds)
    check_bin_width(bin_width)
    for t in thresholds:
        check_finite(threshold=t)


def check_bootstrap(data, statistic: str | None, count: int) -> str:
    """The checks of ``resampling.bootstrap``; returns the statistic.  A
    report runs ``check_report`` first."""
    statistic = _resolve("bootstrap", data, statistic, Sample, GroupedSample)
    check_count("n_resamples", count)
    check_run(count, data.n, data.n)
    return statistic


def check_poll(population, sample_size: int, mode: str, count: int) -> None:
    """The checks of ``simulate.simulate_poll``."""
    if mode not in POLL_MODES:
        raise ValueError(f"mode must be one of {POLL_MODES}, got {mode!r}")
    check_count("sample_size", sample_size)
    check_count("n_polls", count)
    if mode == "with-replacement":
        check_run(count, sample_size)
    elif sample_size > population.n:
        raise ValueError(f"cannot poll {sample_size} of {population.n} electors without replacement")
    else:
        check_run(count, population.n, len(shuffle_steps(population.n, sample_size)))


# ---------------------------------------------------------------------------
# the Bernoulli experiment and the exact binomial


def exact_binomial(n: int, k: int, p) -> Fraction:
    """P(exactly k successes in n trials), as an exact rational."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"success probability must be in [0, 1], got {p}")
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


@dataclass(frozen=True)
class BernoulliExperiment:
    """Repeated runs of n trials, scored by an event on the success count.
    Building one runs every check of ``simulate.simulate_bernoulli``."""

    trials_per_run: int
    success_probability: Fraction
    event: str  # "exactly" | "at-least" | "at-most"
    event_count: int
    runs: int

    def __post_init__(self):
        check_count("trials_per_run", self.trials_per_run)
        check_count("runs", self.runs)
        object.__setattr__(self, "success_probability", Fraction(self.success_probability))
        if not 0 <= self.success_probability <= 1:
            raise ValueError(f"success probability must be in [0, 1], got {self.success_probability}")
        if self.success_probability.denominator >= 1 << 63:
            raise ValueError("success probability needs a denominator below 2**63 to be sampled exactly")
        if self.event not in EVENTS:
            raise ValueError(f"event must be one of {EVENTS}, got {self.event!r}")
        if not 0 <= self.event_count <= self.trials_per_run:
            raise ValueError(f"event count must be in [0, {self.trials_per_run}], got {self.event_count}")
        check_run(self.runs, self.trials_per_run)

    def matches(self, successes):
        """Whether a success count satisfies the event; elementwise on arrays."""
        if self.event == "exactly":
            return successes == self.event_count
        if self.event == "at-least":
            return successes >= self.event_count
        return successes <= self.event_count

    def exact_probability(self) -> Fraction:
        """The event probability by exact enumeration over success counts."""
        n, p = self.trials_per_run, self.success_probability
        return sum((exact_binomial(n, k, p) for k in range(n + 1) if self.matches(k)), Fraction(0))


# ---------------------------------------------------------------------------
# the sizing of blocks and draw tables


def shuffle_steps(n: int, k: int) -> range:
    """The ranges of the draws of ``sample_without_replacement`` of k of n
    items: ``below(n - i)`` for i = 0..min(k, n-1)-1."""
    return range(n, n - min(k, n - 1), -1)


def position_bytes(n: int) -> int:
    """The bytes of the narrowest signed integer that holds the positions
    0..n-1: 2 up to 2**15 rows, 4 above (8 past 2**31)."""
    return 2 if n <= 1 << 15 else 4 if n <= 1 << 31 else 8


def chunk_lanes(width: int) -> int:
    """Lanes per sub-block for rows of ``width`` values: CHUNK_ELEMENTS //
    width, but at least CHUNK_FLOOR so numpy's per-call cost is spread over
    enough lanes, and at most SUB_BLOCK_ELEMENTS // width (at least 1)."""
    width = max(width, 1)
    return max(1, min(max(CHUNK_FLOOR, CHUNK_ELEMENTS // width), SUB_BLOCK_ELEMENTS // width))


def block_lanes(width: int) -> int:
    """Lanes per block for rows of ``width`` values: CHUNK_ELEMENTS // width,
    or where that is at most CHUNK_FLOOR, CHUNK_FLOOR times 8 //
    ``position_bytes(width)``, so a block's draw table takes the bytes of
    CHUNK_FLOOR lanes of float64 rows (4096 lanes for int16 positions)."""
    lanes = CHUNK_ELEMENTS // max(width, 1)
    if lanes <= CHUNK_FLOOR:
        lanes = CHUNK_FLOOR * (8 // position_bytes(width))
    return lanes


# ---------------------------------------------------------------------------
# the exact shuffle p


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
