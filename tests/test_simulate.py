"""Bernoulli simulation against exact binomials, and poll experiments."""

import math
from fractions import Fraction

import pytest

from resamplekit.data import PopulationVector, get_fixture
from resamplekit.simulate import (
    BernoulliExperiment,
    simulate_bernoulli,
    simulate_poll,
)
from resamplekit.spec import MAX_REPLICATES, exact_binomial

F = Fraction
POLL500 = get_fixture("poll500").payload


# ---------------------------------------------------------------------------
# exact binomial


def test_exact_binomial_known_values():
    assert exact_binomial(8, 4, F(1, 2)) == F(70, 256)
    assert exact_binomial(3, 2, F(1, 2)) == F(3, 8)
    assert exact_binomial(2, 2, F(1, 2)) == F(1, 4)


def test_exact_binomial_sums_to_one():
    for n in (1, 2, 8, 31, 64):
        for p in (F(1, 2), F(1, 3), F(7, 13)):
            total = sum(exact_binomial(n, k, p) for k in range(n + 1))
            assert total == 1


def test_exact_binomial_validation():
    with pytest.raises(ValueError):
        exact_binomial(3, 4, F(1, 2))
    with pytest.raises(ValueError):
        exact_binomial(3, -1, F(1, 2))
    with pytest.raises(ValueError):
        exact_binomial(3, 1, F(3, 2))


def test_experiment_exact_probability_events():
    exp = BernoulliExperiment(8, F(1, 2), "exactly", 4, runs=10)
    assert exp.exact_probability() == F(70, 256)
    at_least = BernoulliExperiment(3, F(1, 2), "at-least", 2, runs=10)
    assert at_least.exact_probability() == F(4, 8)
    at_most = BernoulliExperiment(3, F(1, 2), "at-most", 2, runs=10)
    assert at_most.exact_probability() == F(7, 8)


def test_experiment_validation():
    with pytest.raises(ValueError):
        BernoulliExperiment(0, F(1, 2), "exactly", 0, 10)
    with pytest.raises(ValueError):
        BernoulliExperiment(3, F(1, 2), "sometimes", 1, 10)
    with pytest.raises(ValueError):
        BernoulliExperiment(3, F(1, 2), "exactly", 4, 10)
    with pytest.raises(ValueError):
        BernoulliExperiment(3, F(1, 2), "exactly", 1, 0)
    with pytest.raises(ValueError, match=r"^success probability must be in \[0, 1\], got 3/2$"):
        BernoulliExperiment(8, F(3, 2), "exactly", 4, 10)


# ---------------------------------------------------------------------------
# simulation


def test_eight_children_families_simulation():
    exp = BernoulliExperiment(8, F(1, 2), "exactly", 4, runs=1000)
    estimate = simulate_bernoulli(exp, seed=0)
    assert abs(estimate - 70 / 256) < 0.04


def test_simulation_degenerate_probabilities():
    sure = BernoulliExperiment(5, F(1), "exactly", 5, runs=200)
    assert simulate_bernoulli(sure, seed=0) == 1.0
    never = BernoulliExperiment(5, F(0), "at-least", 1, runs=200)
    assert simulate_bernoulli(never, seed=0) == 0.0


def test_simulation_converges_at_large_runs():
    cases = [(3, 2, F(1, 2)), (8, 4, F(1, 2)), (5, 1, F(1, 3))]
    runs = 1_000_000
    for n, k, p in cases:
        exp = BernoulliExperiment(n, p, "exactly", k, runs=runs)
        exact = float(exp.exact_probability())
        estimate = simulate_bernoulli(exp, seed=1)
        assert abs(estimate - exact) < 4 * math.sqrt(exact * (1 - exact) / runs)


def test_simulation_scalar_equals_vectorized(scalar_oracle):
    exp = BernoulliExperiment(6, F(2, 7), "at-least", 2, runs=400)
    assert simulate_bernoulli(exp, seed=5) == scalar_oracle(lambda: simulate_bernoulli(exp, seed=5))


# ---------------------------------------------------------------------------
# polls


def test_poll_20_without_replacement():
    result = simulate_poll(POLL500, 20, "without-replacement", 1000, seed=0)
    lo, hi = result.interval()
    assert lo == pytest.approx(0.40, abs=0.05)
    assert hi == pytest.approx(0.80, abs=0.05)
    assert result.minimum == pytest.approx(0.30, abs=0.08)
    assert result.maximum == pytest.approx(0.85, abs=0.08)


def test_poll_100_both_modes():
    without = simulate_poll(POLL500, 100, "without-replacement", 1000, seed=0)
    lo, hi = without.interval()
    assert lo == pytest.approx(0.51, abs=0.03)
    assert hi == pytest.approx(0.68, abs=0.03)
    with_repl = simulate_poll(POLL500, 100, "with-replacement", 1000, seed=0)
    lo_w, hi_w = with_repl.interval()
    assert lo_w == pytest.approx(0.51, abs=0.03)
    assert hi_w == pytest.approx(0.69, abs=0.03)


def test_poll_1000_with_replacement():
    result = simulate_poll(POLL500, 1000, "with-replacement", 1000, seed=0)
    lo, hi = result.interval()
    assert lo == pytest.approx(0.57, abs=0.02)
    assert hi == pytest.approx(0.63, abs=0.02)


def test_poll_full_population_is_exact():
    result = simulate_poll(POLL500, 500, "without-replacement", 50, seed=0)
    assert set(result.proportions) == {0.6}


def test_poll_sample_too_large_without_replacement():
    with pytest.raises(ValueError, match="without replacement"):
        simulate_poll(POLL500, 501, "without-replacement", 10, seed=0)


def test_poll_without_replacement_narrower_on_average():
    # Finite-population correction: sampling without replacement varies less.
    for k in (20, 100):
        widths = {"with-replacement": 0.0, "without-replacement": 0.0}
        for mode in widths:
            for seed in range(10):
                lo, hi = simulate_poll(POLL500, k, mode, 500, seed=seed).interval()
                widths[mode] += hi - lo
        assert widths["without-replacement"] <= widths["with-replacement"] + 1e-9


def test_poll_scalar_equals_vectorized(scalar_oracle):
    for mode in ("with-replacement", "without-replacement"):
        a = simulate_poll(POLL500, 25, mode, 80, seed=9)
        b = scalar_oracle(lambda: simulate_poll(POLL500, 25, mode, 80, seed=9))
        assert a.proportions == b.proportions


def _refused_before_drawing(call, argument):
    """``call()`` raises a ValueError that names ``argument`` and the limit
    (a test that calls this takes ``no_draws``, so nothing is drawn)."""
    with pytest.raises(ValueError, match=rf"^{argument} must be at most {MAX_REPLICATES}, got {2**64}$"):
        call()


def test_poll_refuses_counts_above_the_limit(no_draws):
    for mode in ("with-replacement", "without-replacement"):
        _refused_before_drawing(lambda: simulate_poll(POLL500, 20, mode, 2**64), "n_polls")
    _refused_before_drawing(lambda: simulate_poll(POLL500, 2**64, "with-replacement", 10), "sample_size")


def test_bernoulli_refuses_counts_above_the_limit(no_draws):
    # The experiment refuses its counts as it is made, before any draw.
    runs = (8, F(1, 2), "exactly", 4, 2**64)
    _refused_before_drawing(lambda: simulate_bernoulli(BernoulliExperiment(*runs)), "runs")
    trials = (2**64, F(1, 2), "exactly", 4, 10)
    _refused_before_drawing(lambda: simulate_bernoulli(BernoulliExperiment(*trials)), "trials_per_run")


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: simulate_poll(POLL500, 0, "without-replacement", 10), "sample_size"),
        (lambda: simulate_poll(POLL500, 20, "with-replacement", 0), "n_polls"),
        (lambda: BernoulliExperiment(0, F(1, 2), "exactly", 0, 10), "trials_per_run"),
        (lambda: BernoulliExperiment(3, F(1, 2), "exactly", 1, 0), "runs"),
    ],
    ids=["sample_size", "n_polls", "trials_per_run", "runs"],
)
def test_counts_below_one_are_refused_by_name(call, argument):
    with pytest.raises(ValueError, match=rf"^{argument} must be at least 1, got 0$"):
        call()


def test_poll_validation():
    with pytest.raises(ValueError):
        simulate_poll(POLL500, 20, "sideways", 10)
    with pytest.raises(ValueError):
        simulate_poll(POLL500, 0, "with-replacement", 10)
    with pytest.raises(ValueError):
        simulate_poll(POLL500, 20, "with-replacement", 0)


def test_small_population_poll():
    tiny = PopulationVector((1, 0))
    result = simulate_poll(tiny, 2, "without-replacement", 30, seed=0)
    assert set(result.proportions) == {0.5}


def test_experiment_refuses_probabilities_finer_than_the_generator():
    with pytest.raises(ValueError, match=r"denominator below 2\*\*63"):
        BernoulliExperiment(8, F(1, 10**300), "exactly", 3, runs=20)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        BernoulliExperiment(8, F(1, 2**63), "exactly", 3, runs=20)
    finest = BernoulliExperiment(8, F(1, 2**63 - 1), "exactly", 0, runs=20)
    assert simulate_bernoulli(finest, seed=1) == 1.0
