"""Answers computed apart from the program: closed forms and exact counts.

Monte Carlo checks allow ``Z`` standard errors, so a correct program fails
one with probability about 2e-9; a wrong draw plan or statistic misses by far
more.  Exact answers are compared for equality.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

Z = 6.0


def moments(values) -> tuple[float, float, float]:
    """Mean, second and fourth central moments of a replicate array."""
    v = np.asarray(values, dtype=float)
    mu = float(v.mean())
    d2 = (v - mu) ** 2
    return mu, float(d2.mean()), float((d2 * d2).mean())


def check_moments(values, mean: float, var: float, what: str) -> list[str]:
    """Replicate mean and variance against their closed forms."""
    n = len(values)
    mu, m2, m4 = moments(values)
    problems = []
    mean_tol = Z * math.sqrt(var / n) + 1e-12 * (1 + abs(mean))
    if abs(mu - mean) > mean_tol:
        problems.append(f"{what}: replicate mean {mu:.6g}, closed form {mean:.6g} (tol {mean_tol:.2g})")
    var_tol = Z * math.sqrt(max(m4 - m2 * m2, 0.0) / n) + 1e-12 * var
    if abs(m2 - var) > var_tol:
        problems.append(f"{what}: replicate variance {m2:.6g}, closed form {var:.6g} (tol {var_tol:.2g})")
    return problems


def check_proportion(estimate: float, p: float, n: int, what: str) -> list[str]:
    se = math.sqrt(p * (1 - p) / n)
    if abs(estimate - p) > Z * se + 1e-12:
        return [f"{what}: {estimate:.6g} is {abs(estimate - p) / se:.1f} SE from {p:.6g}"]
    return []


def plugin_var(values) -> float:
    mu = math.fsum(values) / len(values)
    return math.fsum((v - mu) ** 2 for v in values) / len(values)


def bootstrap_mean_moments(values) -> tuple[float, float]:
    """Mean and variance of the bootstrap mean of n rows (plug-in)."""
    return math.fsum(values) / len(values), plugin_var(values) / len(values)


def grouped_bootstrap_moments(g1, g2) -> tuple[float, float, float]:
    """Mean and variance of the grouped bootstrap mean difference, and q.

    Given c1 rows of group 1 among the n drawn, each group's picks are iid
    from its own rows; resamples with c1 in {0, n} are redrawn, so c1 follows
    the binomial(n, n1/n) law truncated to 1..n-1.  q is the chance a resample
    loses a group.
    """
    n1, n2 = len(g1), len(g2)
    n = n1 + n2
    pi = Fraction(n1, n)
    q = pi**n + (1 - pi) ** n
    v1, v2 = plugin_var(g1), plugin_var(g2)
    var = 0.0
    for c in range(1, n):
        w = math.comb(n, c) * pi**c * (1 - pi) ** (n - c) / (1 - q)
        var += float(w) * (v1 / c + v2 / (n - c))
    mean = math.fsum(g1) / n1 - math.fsum(g2) / n2
    return mean, var, float(q)


def check_redraws(count: int, n_replicates: int, q: float, what: str) -> list[str]:
    """Total redraws: each replicate needs Geometric extra attempts, mean q/(1-q)."""
    expect = n_replicates * q / (1 - q)
    sd = math.sqrt(n_replicates * q) / (1 - q)
    if abs(count - expect) > Z * sd + 1e-9:
        return [f"{what}: {count} redraws, expected {expect:.1f} +- {sd:.1f}"]
    return []


def shuffle_moments(values, n1: int) -> tuple[float, float]:
    """Mean 0 and variance sigma^2 n/(n-1) (1/n1 + 1/n2) of re-dealt differences."""
    n = len(values)
    return 0.0, plugin_var(values) * n / (n - 1) * (1 / n1 + 1 / (n - n1))


def poll_moments(p: float, k: int, population: int, replace: bool) -> tuple[float, float]:
    var = p * (1 - p) / k
    if not replace:
        var *= (population - k) / (population - 1)
    return p, var


def bernoulli_probability(trials: int, p: Fraction, event: str, count: int) -> Fraction:
    keep = {
        "exactly": lambda k: k == count,
        "at-least": lambda k: k >= count,
        "at-most": lambda k: k <= count,
    }[event]
    return sum(
        (math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1) if keep(k)),
        Fraction(0),
    )


def exact_shuffle_p(values, n1: int, observed_sum1: Fraction) -> Fraction:
    """Exact two-sided shuffle p by a subset-sum DP over the exact values.

    Stored doubles are dyadic rationals, so scaling by the largest denominator
    turns them into integers; the DP counts, for each first-group sum, the
    subsets of size n1 that reach it.
    """
    fracs = [Fraction(v) for v in values]
    scale = max(f.denominator for f in fracs)
    ints = [int(f * scale) for f in fracs]
    n = len(ints)
    n2 = n - n1
    by_size = [Counter() for _ in range(n1 + 1)]
    by_size[0][0] = 1
    for i, v in enumerate(ints):
        for k in range(min(i + 1, n1), 0, -1):
            for s, c in by_size[k - 1].items():
                by_size[k][s + v] += c
    total = sum(ints)

    def diff(s1) -> Fraction:
        return Fraction(s1, n1) - Fraction(total - s1, n2)

    obs = abs(diff(observed_sum1 * scale))
    hits = sum(c for s, c in by_size[n1].items() if abs(diff(s)) >= obs)
    return Fraction(hits, math.comb(n, n1))


def bootstrap_mean_tail(int_values, threshold: float) -> Fraction:
    """Exact P(bootstrap mean >= threshold) for integer data (sum DP)."""
    n = len(int_values)
    dist = Counter({0: 1})
    for _ in range(n):
        nxt = Counter()
        for s, c in dist.items():
            for v in int_values:
                nxt[s + v] += c
        dist = nxt
    hits = sum(c for s, c in dist.items() if Fraction(s, n) >= Fraction(threshold))
    return Fraction(hits, n**n)
