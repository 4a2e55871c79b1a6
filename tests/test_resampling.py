"""Shuffle tests, bootstrap, intervals, tails, diagnostics, enumeration."""

import itertools
import math
import random
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resamplekit import resampling
from resamplekit.data import GroupedSample, PairedSample, Sample, get_fixture
from resamplekit.resampling import (
    Histogram,
    bootstrap,
    bootstrap_report,
    diagnostics,
    exact_shuffle_p,
    observed_statistic,
    percentile,
    percentile_interval,
    shuffle_test,
    shuffle_test_paired,
    tail_probability,
)
from resamplekit.resampling import _prefix_shuffle_matrix
from resamplekit.rng import substream

VEG6 = get_fixture("veg6").payload
VEG9 = get_fixture("veg9").payload
SKEWED9 = get_fixture("skewed9").payload


# ---------------------------------------------------------------------------
# exact enumeration


def test_exact_veg6_two_sided():
    # Independently verified: of the 20 ways to pick the three "first group"
    # rows, exactly 6 give |difference| >= 64/3 (first-group sums 120, 128,
    # 132, 196, 200, 208).
    assert exact_shuffle_p(VEG6) == Fraction(6, 20)


def test_exact_veg6_one_sided():
    # greater: first-group sums 196, 200, 208 reach the observed +64/3;
    # less: everything except the two strictly-greater splits (ties count).
    assert exact_shuffle_p(VEG6, sidedness="greater") == Fraction(3, 20)
    assert exact_shuffle_p(VEG6, sidedness="less") == Fraction(18, 20)


def test_exact_ties_inclusive_constant_groups():
    data = GroupedSample.from_rows([(5, "a"), (5, "a"), (5, "b"), (5, "b")])
    assert exact_shuffle_p(data) == 1


def test_exact_one_row_per_group():
    data = GroupedSample.from_rows([(1, "a"), (2, "b")])
    # Both assignments tie in |difference|.
    assert exact_shuffle_p(data) == 1


def test_exact_enumeration_cap(monkeypatch):
    monkeypatch.setattr(resampling, "ENUMERATION_LIMIT", 1000)
    rows = [(float(i), "a" if i % 2 else "b") for i in range(40)]
    with pytest.raises(ValueError, match="capped"):
        exact_shuffle_p(GroupedSample.from_rows(rows))


@given(
    st.lists(st.integers(min_value=0, max_value=99), min_size=2, max_size=8),
    st.integers(min_value=1, max_value=7),
)
def test_exact_p_bounds(values, split):
    # The observed assignment always meets its own criterion (ties count),
    # so the exact p can never drop below one part in C(n, n1).
    if split >= len(values):
        split = len(values) - 1
    rows = [(float(v), "a" if i < split else "b") for i, v in enumerate(values)]
    data = GroupedSample.from_rows(rows)
    p = exact_shuffle_p(data)
    assert Fraction(1, math.comb(len(values), split)) <= p <= 1


def test_exact_matches_brute_force_on_binary_data():
    # proportion-diff on 0/1 rows, checked against a from-scratch enumeration.
    rows = [(1, "a"), (1, "a"), (0, "a"), (0, "b"), (1, "b")]
    data = GroupedSample.from_rows(rows)
    vals = [v for v, _ in rows]
    n1 = 3
    obs = Fraction(2, 3) - Fraction(1, 2)
    hits = total = 0
    for combo in itertools.combinations(range(5), n1):
        s1 = sum(vals[i] for i in combo)
        d = Fraction(s1, 3) - Fraction(sum(vals) - s1, 2)
        hits += abs(d) >= abs(obs)
        total += 1
    assert exact_shuffle_p(data, "proportion-diff") == Fraction(hits, total)


def _brute_force_exact_p(data, sidedness):
    """Every split listed, every mean difference an exact Fraction."""
    g1, _ = data.group_names
    n, n1 = data.n, data.group_count(g1)
    vals = [Fraction(v) for v in data.values]
    total = sum(vals)

    def diff(sum1):
        return sum1 / n1 - (total - sum1) / (n - n1)

    observed = diff(sum(Fraction(v) for v in data.group_values(g1)))
    hits = 0
    for combo in itertools.combinations(range(n), n1):
        d = diff(sum(vals[i] for i in combo))
        if sidedness == "two-sided":
            hits += abs(d) >= abs(observed)
        elif sidedness == "greater":
            hits += d >= observed
        else:
            hits += d <= observed
    return Fraction(hits, math.comb(n, n1))


_WIDE_VALUES = (1e-300, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -7.5)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(
            st.one_of(
                st.lists(st.integers(-20, 20).map(float), min_size=n, max_size=n),
                st.lists(st.integers(-99, 99).map(lambda k: k / 10), min_size=n, max_size=n),
                st.lists(
                    st.one_of(
                        st.sampled_from(_WIDE_VALUES), st.integers(-3, 3).map(lambda k: k / 10)
                    ),
                    min_size=n, max_size=n,
                ),
            ),
            st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda g: 0 < sum(g) < n),
        )
    ),
    st.sampled_from(["two-sided", "greater", "less"]),
)
# Two-sided cases where the bound opposite the observed sum is not a whole
# number and a split sum lies next to it: they pin its floor and ceiling.
@example(([4.0, 4.0, 1.0, 2.0], [False, True, False, False]), "two-sided")
@example(([4.0, 4.0, 4.0, 0.0, 5.0], [False, False, False, True, True]), "two-sided")
def test_exact_p_equals_brute_force_enumeration(case, sidedness):
    # Integer, one-decimal and wide-exponent values (subnormals next to
    # 1e300), groups of unequal sizes in any row order.
    values, in_first = case
    data = GroupedSample(values, ["a" if g else "b" for g in in_first])
    assert exact_shuffle_p(data, sidedness=sidedness) == _brute_force_exact_p(data, sidedness)


def test_exact_p_on_thirty_one_decimal_rows_equals_a_size_indexed_dp():
    # C(30, 13) = 119,759,850 splits.  The Counter DP below tracks, for each
    # subset size, how many subsets reach each exact scaled sum; four distinct
    # values keep its state small while 0.1, 0.2 and 0.7 are not dyadic.
    rng = random.Random(30)
    values = [rng.choice((0.1, 0.2, 0.7, 2.5)) for _ in range(30)]
    groups = ["a" if i < 13 else "b" for i in range(30)]
    rng.shuffle(groups)
    data = GroupedSample(values, groups)
    scale = max(Fraction(v).denominator for v in values)
    ints = [int(Fraction(v) * scale) for v in values]
    n, n1 = 30, 13
    by_size = [Counter() for _ in range(n1 + 1)]
    by_size[0][0] = 1
    for v in ints:
        for k in range(n1, 0, -1):
            for s, c in by_size[k - 1].items():
                by_size[k][s + v] += c
    total = sum(ints)
    observed = sum(v for v, g in zip(ints, groups) if g == "a")

    def diff(s1):
        return Fraction(s1, n1) - Fraction(total - s1, n - n1)

    for sidedness, hit in (
        ("two-sided", lambda d: abs(d) >= abs(diff(observed))),
        ("greater", lambda d: d >= diff(observed)),
        ("less", lambda d: d <= diff(observed)),
    ):
        hits = sum(c for s, c in by_size[n1].items() if hit(diff(s)))
        assert exact_shuffle_p(data, sidedness=sidedness) == Fraction(hits, math.comb(n, n1))


def test_exact_cap_counts_the_half_subset_sums_listed(monkeypatch):
    # 10 rows split 5/5: 2^5 + 2^5 = 64 half-subset sums, for C(10, 5) = 252 splits.
    data = GroupedSample([float(i) for i in range(10)], ["a", "b"] * 5)
    uncapped = exact_shuffle_p(data)
    monkeypatch.setattr(resampling, "ENUMERATION_LIMIT", 64)
    assert exact_shuffle_p(data) == uncapped
    monkeypatch.setattr(resampling, "ENUMERATION_LIMIT", 63)
    with pytest.raises(ValueError, match="capped") as err:
        exact_shuffle_p(data)
    assert "needs 64 for C(10, 5) = 252 splits" in str(err.value)


def test_exact_cap_message_on_many_rows_is_short():
    # C(20000, 10000) has 6,019 digits, past the interpreter's default limit
    # for printing an int, and takes long to count exactly at 10^6 rows.
    data = GroupedSample([float(i % 7) for i in range(20000)], ["a", "b"] * 10000)
    with pytest.raises(ValueError, match="capped") as err:
        exact_shuffle_p(data)
    assert "needs more than 10^18 for C(20000, 10000) = more than 10^18 splits" in str(err.value)


def test_exact_p_lists_no_subset_larger_than_the_smaller_group(monkeypatch):
    # 40 rows with 2 in one group: 2 * (1 + 20 + 190) = 422 half-subset sums
    # for C(40, 2) = 780 splits, where an even split would need 2^20 + 2^20.
    rng = random.Random(40)
    values = [rng.randint(-9, 9) / 10 for _ in range(40)]
    monkeypatch.setattr(resampling, "ENUMERATION_LIMIT", 422)
    for groups in (["a"] * 2 + ["b"] * 38, ["a"] * 38 + ["b"] * 2):
        data = GroupedSample(values, groups)
        for sidedness in ("two-sided", "greater", "less"):
            want = _brute_force_exact_p(data, sidedness)
            assert exact_shuffle_p(data, sidedness=sidedness) == want


def test_exact_p_reaches_splits_beyond_a_million():
    # C(24, 12) = 2,704,156 splits; the twelve larger values in one group
    # are beaten only by that split and its mirror image.
    data = GroupedSample([0.3] * 12 + [0.1] * 12, ["a"] * 12 + ["b"] * 12)
    assert exact_shuffle_p(data) == Fraction(2, math.comb(24, 12))
    assert exact_shuffle_p(data, sidedness="greater") == Fraction(1, math.comb(24, 12))
    assert exact_shuffle_p(data, sidedness="less") == 1


# ---------------------------------------------------------------------------
# Monte Carlo shuffle test


def test_shuffle_test_veg6_close_to_exact():
    report = shuffle_test(VEG6, n_resamples=100_000, seed=0)
    assert report.observed == pytest.approx(64 / 3)
    assert abs(report.p_value - 0.30) < 0.005


def test_shuffle_test_within_three_binomial_se_of_exact():
    exact = float(exact_shuffle_p(VEG6))
    for seed in (0, 1, 2, 3):
        report = shuffle_test(VEG6, n_resamples=10_000, seed=seed)
        se = math.sqrt(exact * (1 - exact) / 10_000)
        assert abs(report.p_value - exact) < 3 * se


def test_shuffle_test_constant_groups_p_one():
    data = GroupedSample.from_rows([(5, "a"), (5, "a"), (5, "b"), (5, "b")])
    report = shuffle_test(data, n_resamples=500, seed=1)
    assert report.observed == 0.0
    assert report.p_value == 1.0


def test_shuffle_test_relabel_invariance():
    swapped = GroupedSample(
        values=VEG6.values,
        groups=tuple("X" if g == "Vegetarian" else "Y" for g in VEG6.groups),
    )
    a = shuffle_test(VEG6, n_resamples=2000, seed=3)
    b = shuffle_test(swapped, n_resamples=2000, seed=3)
    assert a.p_value == b.p_value


def test_difference_antisymmetric_under_group_swap():
    reversed_rows = GroupedSample.from_rows(
        [(69, "Omnivore"), (37, "Omnivore"), (26, "Omnivore"),
         (74, "Vegetarian"), (65, "Vegetarian"), (57, "Vegetarian")]
    )
    assert observed_statistic(reversed_rows) == pytest.approx(-observed_statistic(VEG6))


def test_shuffle_test_sidedness_counts():
    report_g = shuffle_test(VEG6, n_resamples=5000, seed=2, sidedness="greater")
    report_l = shuffle_test(VEG6, n_resamples=5000, seed=2, sidedness="less")
    report_2 = shuffle_test(VEG6, n_resamples=5000, seed=2)
    assert 0 < report_g.p_value < report_2.p_value
    assert report_l.p_value > 0.5
    # {|d| >= obs} is contained in {d >= obs} union {d <= obs} (obs > 0).
    assert report_2.p_value <= report_g.p_value + report_l.p_value


def test_shuffle_test_validation():
    with pytest.raises(ValueError):
        shuffle_test(VEG9)  # not grouped
    with pytest.raises(ValueError):
        shuffle_test(VEG6, statistic="mean")
    with pytest.raises(ValueError):
        shuffle_test(VEG6, statistic="proportion-diff")  # values not 0/1
    with pytest.raises(ValueError):
        shuffle_test(VEG6, n_resamples=0)
    with pytest.raises(ValueError):
        shuffle_test(VEG6, sidedness="both")


def test_shuffle_replicates_preserve_value_multiset(scalar_oracle):
    for run in (lambda fn: fn(), scalar_oracle):
        mat = run(lambda: _prefix_shuffle_matrix(VEG6.values, 50, 7, 3))
        target = sorted(VEG6.values)
        for row in mat:
            assert sorted(row) == target


def test_shuffle_test_scalar_equals_vectorized(scalar_oracle):
    a = shuffle_test(VEG6, n_resamples=400, seed=5)
    b = scalar_oracle(lambda: shuffle_test(VEG6, n_resamples=400, seed=5))
    assert a == b


def test_shuffle_test_carries_distribution():
    report = shuffle_test(VEG6, n_resamples=200, seed=1)
    dist = report.distribution
    assert dist.mode == "without-replacement"
    assert dist.n_resamples == 200
    assert dist.observed == report.observed
    assert len(dist.values) == 200
    # The shuffle distribution supports the same summaries as a bootstrap.
    lo, hi = percentile_interval(dist, 0.9)
    assert lo <= 0 <= hi


# ---------------------------------------------------------------------------
# paired shuffle test (correlation)


def test_paired_perfect_correlation():
    pairs = PairedSample((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    report = shuffle_test_paired(pairs, n_resamples=5000, seed=0)
    assert report.observed == pytest.approx(1.0)
    # Exact enumeration oracle: over all 120 permutations of y only the
    # identity and the full reversal give |r| = 1, so p tends to 2/120.
    exact = _paired_exact_two_sided(pairs)
    assert exact == Fraction(2, 120)
    se = math.sqrt(float(exact) * (1 - float(exact)) / 5000)
    assert abs(report.p_value - float(exact)) < 3 * se


def _paired_exact_two_sided(pairs: PairedSample) -> Fraction:
    xs = pairs.xs
    obs = _pearson(xs, pairs.ys)
    hits = total = 0
    for perm in itertools.permutations(pairs.ys):
        hits += abs(_pearson(xs, perm)) >= abs(obs) - 1e-12
        total += 1
    return Fraction(hits, total)


def _pearson(x, y):
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def test_paired_constant_y_rejected():
    with pytest.raises(ValueError, match="zero variance"):
        shuffle_test_paired(PairedSample((1, 2, 3), (4, 4, 4)))


def test_paired_needs_three_pairs():
    with pytest.raises(ValueError):
        shuffle_test_paired(PairedSample((1, 2), (3, 4)))


def test_paired_independent_data_large_p():
    gen = substream(17, 0)
    xs = tuple(gen.random() for _ in range(30))
    ys = tuple(gen.random() for _ in range(30))
    report = shuffle_test_paired(PairedSample(xs, ys), n_resamples=1000, seed=0)
    assert report.p_value > 0.01


def _exact_pearson(xs, ys) -> float:
    """Pearson r of the stored doubles, from exact rational sums."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    n = len(xs)
    sxy = n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)
    vx = n * sum(x * x for x in xs) - sum(xs) ** 2
    vy = n * sum(y * y for y in ys) - sum(ys) ** 2
    r2 = sxy * sxy / (vx * vy)
    with localcontext() as ctx:
        ctx.prec = 40
        r = (Decimal(r2.numerator) / Decimal(r2.denominator)).sqrt()
    return math.copysign(float(r), sxy)


@pytest.mark.parametrize(
    "xs",
    [
        (1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3, 1e9 + 4),
        (10_000_000.1, 10_000_000.2, 10_000_000.3, 10_000_000.4, 10_000_000.5),
    ],
)
def test_paired_correlation_does_not_cancel_on_offset_data(xs):
    # Raw moments (n*sxx - sx*sx) lose every digit here: the first set gave
    # r = nan, p = 0 and a histogram bin at -4.6e17, the second r = 0.565685
    # where the stored doubles have r = 0.7999999992549419.
    pairs = PairedSample(xs, (1, 3, 2, 5, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = shuffle_test_paired(pairs, n_resamples=500, seed=0)
    assert report.observed == pytest.approx(_exact_pearson(pairs.xs, pairs.ys), abs=1e-12)
    assert np.isfinite(report.distribution.array).all()
    assert np.abs(report.distribution.array).max() <= 1 + 1e-12


def test_paired_scalar_equals_vectorized(scalar_oracle):
    pairs = PairedSample((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5))
    a = shuffle_test_paired(pairs, n_resamples=300, seed=4)
    b = scalar_oracle(lambda: shuffle_test_paired(pairs, n_resamples=300, seed=4))
    assert a == b


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_veg9_mean_distribution():
    dist = bootstrap(VEG9, seed=0)
    assert dist.observed == 60.0
    assert dist.n_resamples == 1000
    assert dist.mode == "with-replacement"
    # Resample averages roughly span 20 units either side of 60.
    assert 35 < min(dist.values) < 48
    assert 72 < max(dist.values) < 85


def test_bootstrap_single_value_degenerate():
    dist = bootstrap(Sample((7.0,)), n_resamples=50, seed=1)
    assert set(dist.values) == {7.0}


def test_bootstrap_first_replicate_replayable():
    # Replay the documented draw sequence for replicate 0 by hand.
    dist = bootstrap(VEG9, seed=0)
    gen = substream(0, 0)
    picks = [VEG9.values[gen.below(9)] for _ in range(9)]
    assert dist.values[0] == np.asarray(picks).mean()


def test_bootstrap_mean_of_means_near_sample_mean():
    values = np.asarray(VEG9.values)
    sd = float(values.std())
    n, big_n = 9, 4000
    dist = bootstrap(VEG9, n_resamples=big_n, seed=2)
    tolerance = 3 * sd / math.sqrt(n * big_n)
    assert abs(np.mean(dist.values) - 60.0) < tolerance


def test_bootstrap_grouped_keeps_pairing_and_redraws():
    tiny = GroupedSample.from_rows([(10, "a"), (20, "b")])
    dist = bootstrap(tiny, n_resamples=64, seed=0)
    # Every surviving replicate has both groups, so the only possible value
    # is -10 or +10 ... actually with one row each the difference is fixed.
    assert set(dist.values) == {-10.0}
    # Half of all raw 2-row resamples are single-group, so redraws happened.
    assert dist.redraw_count > 0


def test_bootstrap_grouped_scalar_equals_vectorized_with_redraws(scalar_oracle):
    a = bootstrap(VEG6, n_resamples=300, seed=0)
    b = scalar_oracle(lambda: bootstrap(VEG6, n_resamples=300, seed=0))
    assert a.values == b.values
    assert a.redraw_count == b.redraw_count
    assert a.redraw_count > 0  # 6-row 3/3 data loses a group ~3% of the time


def test_bootstrap_multi_round_redraws_stay_in_lockstep(scalar_oracle):
    # With one row per group, half of all attempts lose a group, so many
    # replicates need several redraw rounds; both engines must agree anyway.
    tiny = GroupedSample.from_rows([(10, "a"), (20, "b")])
    a = bootstrap(tiny, n_resamples=128, seed=2)
    b = scalar_oracle(lambda: bootstrap(tiny, n_resamples=128, seed=2))
    assert a.values == b.values
    assert a.redraw_count == b.redraw_count
    assert a.redraw_count > 64  # expected about one redraw per replicate


def test_bootstrap_sample_scalar_equals_vectorized(scalar_oracle):
    a = bootstrap(VEG9, n_resamples=500, seed=3)
    b = scalar_oracle(lambda: bootstrap(VEG9, n_resamples=500, seed=3))
    assert a.values == b.values


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap(VEG9, statistic="mean-diff")
    with pytest.raises(ValueError):
        bootstrap(VEG9, n_resamples=0)


# ---------------------------------------------------------------------------
# percentile interval / tails


def test_percentile_interval_frozen_example():
    values = list(range(1, 1001))
    lo, hi = percentile_interval(values, 0.95)
    assert lo == pytest.approx(25.975, abs=1e-9)
    assert hi == pytest.approx(975.025, abs=1e-9)


def test_percentile_linear_interpolation_rule():
    # position q*(N-1), linear between order statistics
    assert percentile([10.0, 20.0], 0.25) == 12.5
    assert percentile([10.0, 20.0, 30.0], 0.5) == 20.0
    assert percentile([1.0], 0.0) == 1.0
    assert percentile([1.0], 1.0) == 1.0


def test_percentile_interval_validation():
    with pytest.raises(ValueError):
        percentile_interval([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        percentile_interval([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        percentile_interval([1.0], 0.95)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=60,
    ),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_percentile_interval_within_range(values, level):
    lo, hi = percentile_interval(values, level)
    assert min(values) <= lo <= hi <= max(values)


def test_tail_probability_edges():
    dist = bootstrap(VEG9, seed=0)
    assert tail_probability(dist, -math.inf) == 1.0
    assert tail_probability(dist, max(dist.values) + 1) == 0.0
    assert tail_probability([1.0, 2.0, 2.0, 3.0], 2.0) == 0.75  # >= includes ties
    assert tail_probability([1.0, 2.0, 2.0, 3.0], 2.0, "gt") == 0.25
    with pytest.raises(ValueError):
        tail_probability([1.0], 0.0, "between")


def test_tail_probability_veg9_near_095():
    for seed in range(5):
        dist = bootstrap(VEG9, seed=seed)
        assert 0.93 <= tail_probability(dist, 50) <= 0.97


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_veg9_symmetric():
    diag = diagnostics(bootstrap(VEG9, seed=0), scale_bounds=(0, 100))
    assert not diag.skew_flagged
    assert diag.small_sample is False
    assert diag.out_of_bounds_fraction == 0.0
    assert not diag.bounds_flagged


def test_diagnostics_skewed9_flags():
    diag = diagnostics(bootstrap(SKEWED9, seed=0), scale_bounds=(0, 100))
    assert diag.skew_flagged
    assert diag.skewness < -0.25
    # Values 20 below the observed mean of 85 mirror to 105: impossible mass.
    assert diag.out_of_bounds_fraction > 0
    assert diag.bounds_flagged
    assert any("asymmetric" in note for note in diag.notes)
    assert any("outside the measurement scale" in note for note in diag.notes)


def test_diagnostics_constant_sample():
    diag = diagnostics(bootstrap(Sample((5.0, 5.0, 5.0)), n_resamples=100, seed=0))
    assert diag.skewness == 0.0
    assert diag.mean_median_gap == 0.0
    assert not diag.skew_flagged
    assert diag.small_sample  # 3 < 9


def test_diagnostics_bounds_validation():
    dist = bootstrap(VEG9, n_resamples=100, seed=0)
    with pytest.raises(ValueError):
        diagnostics(dist, scale_bounds=(100, 0))


# ---------------------------------------------------------------------------
# sample size behaviour (duplicating vs halving rows)


def test_duplicating_rows_strengthens_evidence():
    group_a = [58.0, 66.0, 61.0, 54.0, 69.0, 57.0, 63.0, 51.0]
    group_b = [52.0, 45.0, 57.0, 48.0, 60.0, 42.0, 55.0, 49.0]

    def grouped(a, b):
        return GroupedSample.from_rows(
            [(v, "a") for v in a] + [(v, "b") for v in b]
        )

    p = lambda data: shuffle_test(data, n_resamples=10_000, seed=0).p_value
    p_original = p(grouped(group_a, group_b))
    p_duplicated = p(grouped(group_a * 2, group_b * 2))
    p_halved = p(grouped(group_a[:4], group_b[:4]))
    assert p_duplicated < p_original < p_halved
    # Doubling the data leaves the observed difference unchanged.
    assert observed_statistic(grouped(group_a * 2, group_b * 2)) == pytest.approx(
        observed_statistic(grouped(group_a, group_b))
    )


# ---------------------------------------------------------------------------
# histogram


def test_histogram_counts_sum_and_alignment():
    hist = Histogram.from_values([0.0, 0.5, 1.0, -1.0, 2.4], bin_width=2.0)
    assert hist.total == 5
    assert 0.0 in hist.centers
    # 1.0 sits on a boundary: [1, 3) belongs to the bin centred on 2.
    by_center = dict(zip(hist.centers, hist.counts))
    assert by_center[0.0] == 3  # 0.0, 0.5 and -1.0 (inclusive lower edge)
    assert by_center[2.0] == 2  # 1.0 and 2.4


def test_histogram_contiguous_centers():
    hist = Histogram.from_values([0.0, 10.0], bin_width=2.0)
    assert hist.centers == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    assert hist.counts == (1, 0, 0, 0, 0, 1)


@settings(deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=100,
    ),
    st.floats(min_value=0.25, max_value=10),
)
def test_histogram_each_value_in_exactly_one_bin(values, width):
    hist = Histogram.from_values(values, width)
    assert hist.total == len(values)
    centers = np.asarray(hist.centers)
    for v in values:
        inside = (centers - width / 2 <= v) & (v < centers + width / 2)
        assert int(inside.sum()) == 1


def test_histogram_csv_and_ascii():
    hist = Histogram.from_values([0.0, 0.0, 2.0], bin_width=2.0)
    assert hist.to_csv() == "bin_center,count\n0,2\n2,1\n"
    ascii_art = hist.to_ascii()
    assert "0 |" in ascii_art and "2 |" in ascii_art


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram.from_values([1.0], bin_width=0)
    with pytest.raises(ValueError):
        Histogram.from_values([], bin_width=1)


# ---------------------------------------------------------------------------
# assembled report


def test_bootstrap_report_assembly():
    report = bootstrap_report(
        VEG9, thresholds=[50], scale_bounds=(0, 100), seed=0
    )
    assert report.observed == 60.0
    lo, hi = report.interval
    assert 47 <= lo <= 51 and 70 <= hi <= 74
    ((threshold, prob),) = report.tail_probabilities
    assert threshold == 50.0
    assert 0.93 <= prob <= 0.97
    assert report.histogram.total == 1000
    assert not report.diagnostics.skew_flagged


def test_histogram_rejects_non_finite_bin_widths():
    for width in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match="bin width"):
            Histogram.from_values([1.0, 2.0], bin_width=width)


def test_bootstrap_report_summaries_match_the_standalone_calls():
    rep = bootstrap_report(
        VEG9, n_resamples=2001, seed=4, level=0.9, thresholds=(50, 61.5),
        scale_bounds=(0, 100), bin_width=1.5,
    )
    dist = rep.distribution
    values = list(dist.values)
    assert rep.interval == (percentile(values, 0.05), percentile(values, 0.95))
    assert rep.interval == percentile_interval(values, 0.9)
    assert rep.tail_probabilities == tuple((t, tail_probability(values, t)) for t in (50.0, 61.5))
    assert rep.histogram == Histogram.from_values(values, 1.5)
    assert rep.diagnostics == diagnostics(dist, (0, 100))


def test_histogram_refuses_too_many_bins_and_names_a_width_that_fits():
    from resamplekit import resampling

    values = [74.0, 65.0, 57.0, 78.0, 54.0, 47.0, 38.0, 34.0, 93.0]
    for width in (1e-300, 0.001, 5e-324):
        with pytest.raises(ValueError, match="use a width of at least") as info:
            Histogram.from_values(values, width)
        message = str(info.value)
        assert len(message.splitlines()) == 1
        fit = float(message.rsplit(" ", 1)[1])
        assert len(Histogram.from_values(values, fit).counts) <= resampling.MAX_BINS
        with pytest.raises(ValueError):
            Histogram.from_values(values, fit / 1.05)
    # One bin, but its index would not fit a 64-bit integer.
    with pytest.raises(ValueError, match="bin width"):
        Histogram.from_values([5.0, 5.0], 1e-300)
