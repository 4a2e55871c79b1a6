"""Normal and t numerics, checked against quadrature and bisection oracles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resamplekit.dists import (
    normal_cdf,
    normal_quantile,
    regularized_incomplete_beta,
    t_cdf,
    t_quantile,
)


def simpson(f, a, b, panels=4000):
    """Composite Simpson quadrature, the oracle for every CDF value here."""
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def normal_cdf_oracle(z):
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    return 0.5 + math.copysign(simpson(density, 0.0, abs(z)), z)


def t_density(df):
    ln_norm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    return lambda t: math.exp(ln_norm - (df + 1) / 2 * math.log1p(t * t / df))


def t_cdf_oracle(x, df):
    return 0.5 + math.copysign(simpson(t_density(df), 0.0, abs(x)), x)


def test_normal_cdf_center_and_symmetry():
    assert normal_cdf(0.0) == 0.5
    for z in (0.5, 1.0, 2.0, 3.0):
        assert normal_cdf(-z) + normal_cdf(z) == pytest.approx(1.0, abs=1e-14)


def test_normal_cdf_against_quadrature():
    for z in (-3.0, -1.5, -0.3, 0.7, 1.2345, 1.959964, 2.5, 4.0):
        assert normal_cdf(z) == pytest.approx(normal_cdf_oracle(z), abs=1e-10)
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_normal_quantile_known_points():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.95996, abs=1e-4)
    assert normal_quantile(0.99) == pytest.approx(2.326348, abs=1e-5)


def test_normal_quantile_round_trip():
    for z in (-6.0, -2.5, -1.0, 0.0, 0.5, 1.2345, 3.0, 6.0):
        assert normal_quantile(normal_cdf(z)) == pytest.approx(z, abs=1e-6)
    for p in (1e-10, 1e-4, 0.3, 0.7, 1 - 1e-4):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_normal_quantile_domain():
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


@given(st.floats(min_value=-8, max_value=8), st.floats(min_value=-8, max_value=8))
def test_normal_cdf_monotone(a, b):
    lo, hi = sorted((a, b))
    assert normal_cdf(lo) <= normal_cdf(hi)


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) is the uniform CDF.
    assert regularized_incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-12)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_t_cdf_center_and_symmetry():
    for df in (1, 2, 8, 30):
        assert t_cdf(0.0, df) == 0.5
        for x in (0.5, 1.7, 3.0):
            assert t_cdf(-x, df) + t_cdf(x, df) == pytest.approx(1.0, abs=1e-12)


def test_t_cdf_against_quadrature():
    for df in (1, 2, 5, 8, 30):
        for x in (-2.7, -1.0, 0.4, 1.0, 2.306, 3.5):
            assert t_cdf(x, df) == pytest.approx(t_cdf_oracle(x, df), abs=1e-9)


def test_t_cdf_df1_is_arctan():
    # Closed form for one degree of freedom.
    for x in (-5.0, -1.0, 0.3, 2.0):
        assert t_cdf(x, 1) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-12)


def test_t_cdf_approaches_normal():
    assert abs(t_cdf(1.0, 10**6) - normal_cdf(1.0)) < 1e-5


def test_t_quantile_known_value():
    assert t_quantile(0.975, 8) == pytest.approx(2.306, abs=1e-3)
    assert t_quantile(0.5, 5) == 0.0


def test_t_quantile_round_trip():
    for df in (1, 4, 8, 25):
        for p in (0.01, 0.2, 0.5, 0.8, 0.975, 0.999):
            assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-10)


def _t_quantile_200_steps(p, df):
    """t_quantile with every one of its 200 bisection steps taken."""
    lo, hi = -1.0, 1.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_t_quantile_stops_early_on_the_same_bits():
    ps = (1e-300, 1e-12, 0.001, 0.025, 0.2, 0.4999, 0.5001, 0.8, 0.975, 0.999, 1 - 1e-12)
    for df in (1, 2, 5, 30, 1000):
        for p in ps:
            assert t_quantile(p, df) == _t_quantile_200_steps(p, df), (p, df)


def test_t_domain_errors():
    with pytest.raises(ValueError):
        t_cdf(0.0, 0)
    with pytest.raises(ValueError):
        t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        t_quantile(0.5, 0)


def test_documented_error_bounds_hold_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    zs = [i / 20 for i in range(-800, 801)]
    assert max(abs(normal_cdf(z) - stats.norm.cdf(z)) for z in zs) < 1e-10
    for df in (1, 2, 3, 5, 10, 30, 100, 1000):
        assert max(abs(t_cdf(x, df) - stats.t.cdf(x, df)) for x in zs) < 1e-9
    ps = [10.0**-k for k in range(1, 301, 3)] + [i / 1000 for i in range(1, 1000)]
    ps += [1 - 10.0**-k for k in range(1, 16)]
    assert max(abs(stats.norm.cdf(normal_quantile(p)) - p) for p in ps) < 1e-12


def test_normal_lower_tail_keeps_its_relative_accuracy():
    stats = pytest.importorskip("scipy.stats")
    for z in (-6.0, -8.5, -10.0, -20.0, -37.0):
        assert normal_cdf(z) == pytest.approx(stats.norm.cdf(z), rel=1e-9, abs=0)
