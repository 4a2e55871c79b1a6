"""Replicate values are stored once, as the engine's read-only float64 array;
the tuples are built only when read."""

import dataclasses

import numpy as np
import pytest

from resamplekit.data import PairedSample, get_fixture
from resamplekit.resampling import (
    ResampleDistribution,
    bootstrap_report,
    percentile_interval,
    shuffle_test,
    shuffle_test_paired,
)
from resamplekit.simulate import PollResult, simulate_poll

VEG9 = get_fixture("veg9").payload
VEG6 = get_fixture("veg6").payload
POLL500 = get_fixture("poll500").payload
PAIRED = PairedSample((1.0, 2.5, 3.0, 4.2, 5.1, 6.0, 7.7), (2.0, 1.0, 4.0, 3.5, 6.0, 5.5, 9.0))
N = 300

# name -> (run(seed) giving the result object, the name of its tuple)
RUNS = {
    "bootstrap": (lambda seed: bootstrap_report(VEG9, n_resamples=N, seed=seed).distribution, "values"),
    "grouped bootstrap": (lambda seed: bootstrap_report(VEG6, n_resamples=N, seed=seed).distribution, "values"),
    "shuffle test": (lambda seed: shuffle_test(VEG6, n_resamples=N, seed=seed).distribution, "values"),
    "paired shuffle test": (lambda seed: shuffle_test_paired(PAIRED, n_resamples=N, seed=seed).distribution, "values"),
    "poll without replacement": (lambda seed: simulate_poll(POLL500, 20, "without-replacement", N, seed), "proportions"),
    "poll with replacement": (lambda seed: simulate_poll(POLL500, 20, "with-replacement", N, seed), "proportions"),
}


@pytest.mark.parametrize("name", RUNS)
def test_array_is_the_only_stored_copy_and_read_only(name):
    run, boxed = RUNS[name]
    result = run(4)
    assert boxed not in vars(result)  # nothing built the tuple yet
    arr = result.array
    assert arr.dtype == np.float64 and arr.shape == (N,)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0.0
    values = getattr(result, boxed)
    assert values == tuple(arr.tolist())
    assert all(type(v) is float for v in values)
    assert getattr(result, boxed) is values  # built once


@pytest.mark.parametrize("name", RUNS)
def test_equality_compares_values_not_identity(name):
    run, boxed = RUNS[name]
    a, b = run(4), run(4)
    getattr(a, boxed)  # a cached tuple on one side only does not matter
    assert a == b and not a != b
    assert a != run(5)
    field = "redraw_count" if isinstance(a, ResampleDistribution) else "sample_size"
    assert a != dataclasses.replace(a, **{field: getattr(a, field) + 1})
    assert a == dataclasses.replace(a, array=a.array.copy())
    assert a != getattr(a, boxed) and a != "a distribution"
    with pytest.raises(TypeError):
        hash(a)


def test_reports_compare_by_value():
    assert bootstrap_report(VEG6, n_resamples=N, seed=2) == bootstrap_report(VEG6, n_resamples=N, seed=2)
    assert bootstrap_report(VEG6, n_resamples=N, seed=2) != bootstrap_report(VEG6, n_resamples=N, seed=3)
    assert shuffle_test(VEG6, n_resamples=N, seed=2) == shuffle_test(VEG6, n_resamples=N, seed=2)
    assert shuffle_test_paired(PAIRED, n_resamples=N, seed=2) != shuffle_test_paired(PAIRED, n_resamples=N, seed=3)


@pytest.mark.parametrize("mode", ["without-replacement", "with-replacement"])
def test_poll_summaries_read_the_array_as_the_tuple_did(mode):
    result = simulate_poll(POLL500, 20, mode, 999, seed=6)
    props = result.proportions
    assert result.minimum == min(props) and type(result.minimum) is float
    assert result.maximum == max(props) and type(result.maximum) is float
    for level in (0.5, 0.9, 0.95):
        assert result.interval(level) == percentile_interval(props, level)


def test_constructors_take_any_float_sequence_and_check_the_length():
    dist = ResampleDistribution([1, 2.5, 4], 2.0, "mean", "with-replacement", 3, 0, 3)
    assert dist.array.dtype == np.float64 and not dist.array.flags.writeable
    assert dist.values == (1.0, 2.5, 4.0)
    with pytest.raises(ValueError, match="2 values for 3 replicates"):
        ResampleDistribution((1.0, 2.0), 2.0, "mean", "with-replacement", 3, 0, 3)
    poll = PollResult((0.5, 0.25), 4, "with-replacement", 2, 0)
    assert poll.proportions == (0.5, 0.25) and not poll.array.flags.writeable
