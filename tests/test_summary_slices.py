"""Summaries read a run in slices, and no slice size changes a figure.

Every summary of ``resampling`` reads its values through ``_walk``, which
cuts the run where numpy's pairwise sum cuts it, into slices of at most
``spec.SUMMARY_SLICE`` values.  Counts add up exactly, and slice sums added
back up the tree are numpy's sum of the whole array.  The tests patch the
slice size, as ``tiny_blocks`` does for blocks, and compare every report
figure bit for bit with the default size.  Below 128 values a slice is one
of numpy's running-sum blocks, so sizes 8 and 24 cut a run into slices of
128 values.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from resamplekit import resampling, spec
from resamplekit.data import Sample, get_fixture
from resamplekit.resampling import (
    Histogram,
    ResampleDistribution,
    bootstrap,
    bootstrap_report,
    diagnostics,
    percentile_interval,
    shuffle_test,
    tail_probability,
)
from resamplekit.simulate import simulate_poll

VEG6 = get_fixture("veg6").payload
VEG9 = get_fixture("veg9").payload

SIZES = (8, 24, 1000)
COUNTS = (1, 7, 8, 129, 10**5 + 3)


def bits(x):
    """x with every float as its hex text and every array as its bytes, so
    that == compares bits (and tells -0.0 from 0.0)."""
    if dataclasses.is_dataclass(x):
        return tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(map(bits, x))
    return x


def across_sizes(monkeypatch, call):
    """bits(call()) at the default slice size, then at each of SIZES."""
    out = [bits(call())]
    for size in SIZES:
        with monkeypatch.context() as patched:
            patched.setattr(spec, "SUMMARY_SLICE", size)
            out.append(bits(call()))
    return out


def wide_values(count, seed=0):
    """Values of every sign and of exponents far apart, no two sums alike."""
    rand = np.random.default_rng(seed)
    return rand.standard_normal(count) * 10.0 ** rand.integers(-3, 4, count) + 50


@pytest.mark.parametrize("count", [max(c, 2) for c in COUNTS])
@pytest.mark.parametrize("direction", ["ge", "gt"])
@pytest.mark.parametrize(
    "data, thresholds, bounds",
    [(VEG9, (50, 60), (40, 80)), (VEG6, (0, 11.6667), (-15, 15))],
    ids=["plain", "grouped"],
)
def test_bootstrap_reports_do_not_depend_on_the_slice_size(monkeypatch, data, thresholds, bounds, direction,
                                                          count):
    def report():
        return bootstrap_report(
            data, n_resamples=count, seed=3, thresholds=thresholds, tail_direction=direction, scale_bounds=bounds
        )

    default, *patched = across_sizes(monkeypatch, report)
    assert all(p == default for p in patched)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("sidedness", ["two-sided", "greater", "less"])
def test_shuffle_tests_do_not_depend_on_the_slice_size(monkeypatch, sidedness, count):
    def run():
        return shuffle_test(VEG6, n_resamples=count, sidedness=sidedness)

    default, *patched = across_sizes(monkeypatch, run)
    assert all(p == default for p in patched)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("scale", [2.0**300, 2.0**-300], ids=["huge", "tiny"])
def test_scaled_diagnostics_do_not_depend_on_the_slice_size(monkeypatch, scale, count):
    values = wide_values(count) * scale
    dist = ResampleDistribution(values, 50 * scale, "mean", "with-replacement", count, 0, 5)
    default, *patched = across_sizes(monkeypatch, lambda: diagnostics(dist, (0, 100 * scale)))
    assert all(p == default for p in patched)


@pytest.mark.parametrize("count", COUNTS)
def test_histograms_do_not_depend_on_the_slice_size(monkeypatch, count):
    values = wide_values(count, seed=1)
    default, *patched = across_sizes(monkeypatch, lambda: Histogram.from_values(values, 8.0))
    assert all(p == default for p in patched)


@pytest.mark.parametrize("size", (1, 128, 1000, 1 << 15))
@pytest.mark.parametrize("count", (1, 7, 8, 9, 128, 129, 1000, 10**5 + 3, 10**6 + 5))
def test_slice_sums_added_up_the_tree_are_numpys_whole_array_sums(monkeypatch, size, count):
    monkeypatch.setattr(spec, "SUMMARY_SLICE", size)
    values = wide_values(count, seed=count)
    assert resampling._walk(values, np.sum).hex() == values.sum().hex()
    # The moments as one whole-array pass over v - mean took them.
    d = values - values.mean()
    d2 = d * d
    expected = (values.mean(), d2.mean(), (d2 * d).mean())
    assert bits(resampling._central_moments(values, 0)) == bits(tuple(map(float, expected)))


@pytest.mark.parametrize(
    "summary",
    [
        lambda v: Histogram.from_values(v, 1.0),
        lambda v: percentile_interval(v),
        lambda v: tail_probability(v, 1.5),
        lambda v: diagnostics(ResampleDistribution(v, 1.5, "mean", "with-replacement", v.size, 0, 9)),
    ],
    ids=["histogram", "interval", "tail", "diagnostics"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_summaries_refuse_values_that_are_not_finite(monkeypatch, summary, bad):
    monkeypatch.setattr(spec, "SUMMARY_SLICE", 8)
    values = np.full(1000, 1.25)
    values[[3, 500, 999]] = [bad, 2.0, bad]
    with pytest.raises(ValueError, match="^2 of 1000 values are NaN or infinite; summaries need finite values$"):
        summary(values)


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_bootstrap_report_holds_its_values_and_one_sorted_copy():
    # The run writes one output array; each summary then reads it a slice at
    # a time, and only the interval's and the median's sorts copy it whole,
    # one after the other.  Whole-array temporaries took 3.00x.
    count = 10**6
    peak = peak_bytes(lambda: bootstrap_report(VEG9, n_resamples=count, thresholds=(50,), scale_bounds=(0, 100)))
    assert peak <= 2.05 * 8 * count


def test_a_shuffle_test_holds_its_values_and_one_block():
    # The hits and the histogram read the run a slice at a time, so the peak
    # is the output array and the block being reduced.  Whole-array
    # temporaries took 3.00x.
    count = 10**6
    peak = peak_bytes(lambda: shuffle_test(VEG6, n_resamples=count))
    assert peak <= 1.54 * 8 * count


def test_a_report_of_one_replicate_is_refused_before_any_draw(no_draws):
    with pytest.raises(ValueError, match="^n_resamples must be at least 2 for an interval, got 1$"):
        bootstrap_report(VEG9, n_resamples=1)
    with pytest.raises(ValueError, match="^n_resamples must be at least 2 for an interval, got 1$"):
        bootstrap_report(Sample([1.0, 2.0]), n_resamples=1, level=0.9)


def test_runs_that_build_no_interval_still_take_one_replicate():
    assert bootstrap(VEG9, n_resamples=1).array.shape == (1,)
    assert simulate_poll(get_fixture("poll500").payload, 20, n_polls=1).array.shape == (1,)


EMPTY_RUN = ResampleDistribution(np.empty(0), 1.5, "mean", "with-replacement", 0, 0, 9)


@pytest.mark.parametrize(
    "summary",
    [
        lambda: Histogram.from_values([], 1.0),
        lambda: percentile_interval([]),
        lambda: tail_probability([], 1.0),
        lambda: tail_probability(EMPTY_RUN, 1.0),
        lambda: diagnostics(EMPTY_RUN),
    ],
    ids=["histogram", "interval", "tail", "tail-of-a-run", "diagnostics"],
)
def test_summaries_refuse_an_empty_run_by_name(summary):
    with pytest.raises(ValueError, match="^cannot summarize an empty value list$"):
        summary()
