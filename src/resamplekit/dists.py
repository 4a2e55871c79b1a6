"""Normal and Student-t CDFs and quantiles.

Self-contained numerics so results are stable across environments:

* ``normal_cdf`` evaluates Phi(z) = erfc(-z / sqrt 2) / 2 through the C
  library erfc; absolute error is far below the documented 1e-10 bound, and
  the lower tail keeps its relative accuracy (1 + erf(z / sqrt 2) cancels).
  Upper tails are read as Phi(-z).
* ``normal_quantile`` is the standard library's ``NormalDist.inv_cdf``,
  Wichura's algorithm AS241 (Appl. Statist., 1988): relative error about
  1e-16 over (0, 1).
* ``t_cdf`` uses the regularized incomplete beta function, evaluated by the
  Lentz continued fraction (Numerical Recipes form), |error| < 1e-9.
* ``t_quantile`` inverts ``t_cdf`` by monotone bisection.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def normal_cdf(z: float) -> float:
    """Standard normal CDF Phi(z)."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of ``normal_cdf``; requires 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1, got {p}")
    import statistics  # here, so that only callers, not the CLI's start-up, pay its import

    return statistics.NormalDist().inv_cdf(p)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the continued fraction for the incomplete beta."""
    tiny = 1e-300
    eps = 1e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) with a, b > 0 and 0 <= x <= 1."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_cdf(x: float, df: int) -> float:
    """Student-t CDF with df >= 1 degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x == 0.0:
        return 0.5
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, df / (df + x * x))
    return tail if x < 0 else 1.0 - tail


def t_quantile(p: float, df: int) -> float:
    """Inverse of ``t_cdf`` by bisection; requires 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1, got {p}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if p == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # Once mid is an end, every later step is a fixed point.
        last = mid in (lo, hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if last:
            break
    return 0.5 * (lo + hi)
