"""Calibration of published CIs and p-values into probability statements."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resamplekit.calibrate import (
    CalibratedDistribution,
    TwoByTwo,
    calibrate_from_interval,
    calibrate_from_p,
    odds_ratio,
    probability_query,
    risk_ratio,
)


# ---------------------------------------------------------------------------
# worked examples of calibrating published results


def test_interval_49_72_probability_above_50():
    dist = calibrate_from_interval(49, 72)
    assert dist.center == 60.5
    assert dist.prob_greater(50) == pytest.approx(0.96, abs=0.005)


def test_interval_t_versus_normal_gap():
    normal = calibrate_from_interval(49, 72, family="normal")
    student = calibrate_from_interval(49, 72, family="t", df=8)
    gap = abs(normal.prob_greater(50) - student.prob_greater(50))
    assert gap == pytest.approx(0.0029, abs=0.001)


def test_p_route_difference_example():
    dist = calibrate_from_p(estimate=10, p=0.02, null_value=0)
    assert dist.prob_greater(0) == pytest.approx(0.99, abs=0.005)
    assert dist.prob_greater(5) == pytest.approx(0.88, abs=0.01)


def test_surgeon_mortality_both_routes_give_98():
    from_p = calibrate_from_p(estimate=0.88, p=0.04, null_value=1)
    assert from_p.prob_less(1) == pytest.approx(0.98, abs=0.01)
    from_ci = calibrate_from_interval(0.79, 0.99)
    assert from_ci.prob_less(1) == pytest.approx(0.98, abs=0.01)


def test_readmission_route_agreement():
    from_ci = calibrate_from_interval(0.91, 1.02)
    from_p = calibrate_from_p(estimate=0.96, p=0.20, null_value=1)
    assert from_ci.prob_less(1) == pytest.approx(0.89, abs=0.01)
    assert from_p.prob_less(1) == pytest.approx(0.90, abs=0.01)
    # The two calibrations of the same analysis agree within 2 points.
    assert abs(from_ci.prob_less(1) - from_p.prob_less(1)) < 0.02


def test_readmission_no_meaningful_difference_query():
    from_p = calibrate_from_p(estimate=0.96, p=0.20, null_value=1)
    prob = 1 - from_p.prob_outside(0.9, 1.1)
    assert prob == pytest.approx(0.98, abs=0.015)


def test_tiny_p_equivalent_confidence():
    dist = calibrate_from_p(estimate=3.9, p=0.003, null_value=0)
    assert dist.prob_greater(0) == pytest.approx(0.9985, abs=0.0005)


def test_regression_coefficient_interval():
    dist = calibrate_from_interval(-3060, -500)
    assert dist.prob_less(0) == pytest.approx(0.997, abs=0.002)


# ---------------------------------------------------------------------------
# structural properties


def test_interval_round_trip_tail_mass():
    dist = calibrate_from_interval(49, 72, level=0.95)
    assert dist.prob_less(49) == pytest.approx(0.025, abs=1e-9)
    assert dist.prob_greater(72) == pytest.approx(0.025, abs=1e-9)
    t_dist = calibrate_from_interval(49, 72, level=0.90, family="t", df=5)
    assert t_dist.prob_less(49) == pytest.approx(0.05, abs=1e-9)


def test_center_conventions():
    from_ci = calibrate_from_interval(0.79, 0.99, estimate=0.88)
    assert from_ci.center == pytest.approx(0.89)
    from_p = calibrate_from_p(estimate=0.88, p=0.04, null_value=1)
    assert from_p.center == 0.88


def test_probability_at_center_is_half():
    for dist in (
        calibrate_from_interval(-2, 6),
        calibrate_from_p(3, 0.2, 0, family="t", df=7),
    ):
        assert dist.prob_greater(dist.center) == pytest.approx(0.5, abs=1e-12)


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
def test_query_monotone(x1, x2):
    dist = calibrate_from_interval(-10, 30)
    lo, hi = sorted((x1, x2))
    assert dist.prob_greater(lo) >= dist.prob_greater(hi)


def test_between_outside_complement():
    dist = calibrate_from_interval(2, 8)
    assert dist.prob_between(3, 7) + dist.prob_outside(3, 7) == pytest.approx(1.0)


def test_asymmetry_note():
    flagged = calibrate_from_interval(0, 10, estimate=9)
    assert flagged.notes and "doubtful" in flagged.notes[0]
    clean = calibrate_from_interval(0, 10, estimate=5.1)
    assert clean.notes == ()


def test_log_scale_option():
    dist = calibrate_from_interval(0.5, 2.0, log_scale=True)
    # ln-symmetric interval: center is ln(1) = 0, so P(theta < 1) = 1/2.
    assert dist.center == pytest.approx(0.0)
    assert dist.prob_less(1.0) == pytest.approx(0.5)
    assert dist.prob_less(0.0) == 0.0
    from_p = calibrate_from_p(0.5, 0.1, 1.0, log_scale=True)
    assert from_p.prob_less(0.5) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        calibrate_from_interval(-1, 2, log_scale=True)


def test_calibration_validation():
    with pytest.raises(ValueError):
        calibrate_from_interval(5, 5)
    with pytest.raises(ValueError):
        calibrate_from_interval(1, 2, level=1.0)
    with pytest.raises(ValueError):
        calibrate_from_interval(1, 2, family="t")  # df missing
    with pytest.raises(ValueError):
        calibrate_from_p(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        calibrate_from_p(0.0, 0.5, 0.0)  # estimate equals baseline
    with pytest.raises(ValueError):
        CalibratedDistribution(center=0, se=-1)


def test_probability_query_parsing():
    dist = calibrate_from_interval(49, 72)
    assert probability_query(dist, "gt 50") == dist.prob_greater(50)
    assert probability_query(dist, "lt 50") == dist.prob_less(50)
    assert probability_query(dist, "between 50,70") == dist.prob_between(50, 70)
    assert probability_query(dist, "outside 50,70") == dist.prob_outside(50, 70)
    for bad in ("gt", "near 50", "between 50", "gt fifty", ""):
        with pytest.raises(ValueError):
            probability_query(dist, bad)
    with pytest.raises(ValueError):
        dist.prob_between(7, 3)


# ---------------------------------------------------------------------------
# 2x2 effect measures


def test_exaggerated_surgeon_example():
    # 4 of 10 die under group 1, 8 of 10 under group 2.
    table = TwoByTwo(4, 6, 8, 2)
    assert odds_ratio(table) == pytest.approx(1 / 6)
    assert risk_ratio(table) == pytest.approx(1 / 2)


def test_identical_groups_give_unit_ratios():
    table = TwoByTwo(3, 7, 3, 7)
    assert odds_ratio(table) == 1.0
    assert risk_ratio(table) == 1.0


def test_rare_events_or_close_to_rr():
    table = TwoByTwo(1, 99, 2, 98)
    assert odds_ratio(table) == pytest.approx(risk_ratio(table), rel=0.02)


@given(st.integers(min_value=1, max_value=20))
def test_ratios_invariant_under_count_scaling(k):
    base = TwoByTwo(4, 6, 8, 2)
    scaled = TwoByTwo(4 * k, 6 * k, 8 * k, 2 * k)
    assert odds_ratio(scaled) == pytest.approx(odds_ratio(base))
    assert risk_ratio(scaled) == pytest.approx(risk_ratio(base))


def test_ratio_division_errors_are_named():
    with pytest.raises(ValueError, match="no non-events"):
        odds_ratio(TwoByTwo(4, 0, 8, 2))
    with pytest.raises(ValueError, match="no events"):
        odds_ratio(TwoByTwo(4, 6, 0, 2))
    with pytest.raises(ValueError, match="no events"):
        risk_ratio(TwoByTwo(4, 6, 0, 2))
    with pytest.raises(ValueError, match="no subjects"):
        TwoByTwo(0, 0, 1, 1)
    with pytest.raises(ValueError):
        TwoByTwo(-1, 2, 3, 4)


def test_exact_fraction_of_exaggerated_example():
    # The quoted fractions are exact: check with rational arithmetic.
    assert Fraction(4, 6) / Fraction(8, 2) == Fraction(1, 6)
    assert Fraction(4, 10) / Fraction(8, 10) == Fraction(1, 2)
    table = TwoByTwo(4, 6, 8, 2)
    assert math.isclose(odds_ratio(table), float(Fraction(1, 6)))


def test_probability_query_refuses_non_finite_arguments():
    dist = calibrate_from_interval(49, 72)
    for bad in ("gt nan", "lt inf", "between 1,inf", "outside -inf,2", "gt 1e400"):
        with pytest.raises(ValueError, match="finite"):
            probability_query(dist, bad)


def test_interval_level_too_small_for_a_width_is_refused():
    with pytest.raises(ValueError, match="level"):
        calibrate_from_interval(1, 2, level=1e-300)


@pytest.mark.parametrize("family, df", [("normal", None), ("t", 5)])
def test_interval_level_too_close_to_1_for_a_quantile_is_refused(family, df):
    with pytest.raises(ValueError, match=r"level 0\.9999999999999999 is too close to 1"):
        calibrate_from_interval(49, 72, level=0.9999999999999999, family=family, df=df)
    assert calibrate_from_interval(49, 72, level=0.9999999999999998, family=family, df=df).se > 0


def test_p_value_too_small_for_a_quantile_is_refused():
    with pytest.raises(ValueError, match="p-value 1e-300 is too small"):
        calibrate_from_p(estimate=1, p=1e-300, null_value=0)
    with pytest.raises(ValueError, match="too small"):
        calibrate_from_p(estimate=1, p=1e-16, null_value=0)
    assert calibrate_from_p(estimate=1, p=1e-15, null_value=0).se > 0


@pytest.mark.parametrize("family, df", [("normal", None), ("t", 5)])
def test_far_tail_probabilities_keep_their_relative_accuracy(family, df):
    stats = pytest.importorskip("scipy.stats")
    ref = stats.norm if family == "normal" else stats.t(df)
    dist = calibrate_from_interval(49, 72, family=family, df=df)
    z = lambda x: (x - dist.center) / dist.se
    for x in (14, 10, -40):
        assert dist.prob_less(x) == pytest.approx(ref.cdf(z(x)), rel=1e-9, abs=0)
        assert dist.prob_greater(121 - x) == pytest.approx(ref.sf(z(121 - x)), rel=1e-9, abs=0)
    outside = ref.cdf(z(10)) + ref.sf(z(111))
    assert dist.prob_outside(10, 111) == pytest.approx(outside, rel=1e-9, abs=0)
    assert dist.prob_greater(50) == pytest.approx(ref.sf(z(50)), rel=1e-12, abs=0)


@pytest.mark.parametrize("family, df", [("normal", None), ("t", 5)])
def test_prob_between_keeps_its_relative_accuracy_in_either_tail(family, df):
    stats = pytest.importorskip("scipy.stats")
    ref = stats.norm if family == "normal" else stats.t(df)
    dist = calibrate_from_interval(49, 72, family=family, df=df)
    z = lambda x: (x - dist.center) / dist.se
    for low, high in ((111, 120), (100, 120), (60.5, 70), (1, 10), (-40, 14), (50, 70)):
        if z(low) >= 0:
            want = ref.sf(z(low)) - ref.sf(z(high))
        else:
            want = ref.cdf(z(high)) - ref.cdf(z(low))
        assert dist.prob_between(low, high) == pytest.approx(want, rel=1e-9, abs=0)


@pytest.mark.parametrize("estimate", [-1, 0])
def test_log_scale_interval_needs_a_positive_estimate(estimate):
    with pytest.raises(ValueError, match=f"estimate {estimate} must be positive on the log scale"):
        calibrate_from_interval(1, 2, estimate=estimate, log_scale=True)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_estimate_or_baseline_is_refused_by_name(value):
    for log_scale in (False, True):
        with pytest.raises(ValueError, match=f"^estimate must be a finite number, got {value}$"):
            calibrate_from_interval(1, 2, estimate=value, log_scale=log_scale)
        with pytest.raises(ValueError, match=f"^estimate must be a finite number, got {value}$"):
            calibrate_from_p(value, 0.05, 1.0, log_scale=log_scale)
        with pytest.raises(ValueError, match=f"^null_value must be a finite number, got {value}$"):
            calibrate_from_p(2.0, 0.05, value, log_scale=log_scale)
