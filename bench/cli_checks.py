"""Checks of CLI reports against numbers the benchmark computes itself.

The paper's numbers come from Fractions here (veg6 exact p 3/10, posteriors
3/53 and 50/53 on a 200-world grid, P(4 of 8) = 35/128); Monte Carlo figures
are held to the exact answer within ``oracle.Z`` standard errors.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from statistics import NormalDist

import oracle

# The paper's datasets, as printed in the paper (not read from the program).
VEG9 = (74, 65, 57, 78, 54, 47, 38, 34, 93)
VEG6 = ((74, "V"), (65, "V"), (69, "O"), (37, "O"), (57, "V"), (26, "O"))
_NUMBER = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?|nan|inf)"


def _numbers(text: str, pattern: str) -> list[float]:
    """The numbers standing at each ``#`` of ``pattern`` in the report."""
    m = re.search(_NUMBER.join(re.escape(part) for part in pattern.split("#")), text)
    if not m:
        raise LookupError(f"no {pattern!r} in the report")
    return [float(g) for g in m.groups()]


def _close(got: float, want: float, what: str) -> list[str]:
    # Reports print 6 significant digits.
    if abs(got - want) > 1e-5 * max(abs(want), 1e-12):
        return [f"{what}: report says {got}, expected {want:.8g}"]
    return []


def _checked(fn):
    """Exit 0, an empty stderr, and then ``fn(text, result)``."""

    def check(res):
        problems = []
        if res.returncode != 0:
            problems.append(f"exit code {res.returncode}")
        if res.stderr:
            problems.append(f"stderr: {res.stderr.decode('utf-8', 'replace').strip()[:120]}")
        try:
            problems += fn(res.stdout.decode("utf-8"), res)
        except LookupError as exc:
            problems.append(str(exc))
        return problems

    return check


def veg6_exact_p() -> Fraction:
    sum1 = sum(Fraction(v) for v, g in VEG6 if g == "V")
    return oracle.exact_shuffle_p([v for v, _ in VEG6], 3, sum1)


@_checked
def exact_veg6(text, _res):
    p = veg6_exact_p()
    problems = [] if f"= {p}\n" in text else [f"exact p {p} not in the report"]
    if f"{p * 20} of all 20 group assignments" not in text:
        problems.append("split count missing")
    return problems


def mc_veg6(n):
    @_checked
    def check(text, _res):
        (p,) = _numbers(text, "baseline hypothesis): #\n")
        return oracle.check_proportion(p, float(veg6_exact_p()), n, "veg6 Monte Carlo p")

    return check


def _interval_holds(text, observed) -> list[str]:
    lo, hi = _numbers(text, "percentile interval: # to #\n")
    return [] if lo <= observed <= hi else [f"interval {lo} to {hi} misses {observed}"]


def bootstrap_veg9(n):
    @_checked
    def check(text, _res):
        problems = _close(_numbers(text, "observed mean: #\n")[0], 60, "observed mean")
        problems += _interval_holds(text, 60)
        (tail,) = _numbers(text, ">= 50: #\n")
        return problems + oracle.check_proportion(tail, float(oracle.bootstrap_mean_tail(VEG9, 50)), n, "veg9 tail")

    return check


def bootstrap_file(values, n):
    mean = math.fsum(values) / len(values)

    @_checked
    def check(text, res):
        (observed,) = _numbers(text, "observed mean: #\n")
        problems = _close(observed, mean, "observed mean") + _interval_holds(text, observed)
        rows = res.outfile.decode("utf-8").splitlines()
        if rows[0] != "bin_center,count" or sum(int(r.split(",")[1]) for r in rows[1:]) != n:
            problems.append("histogram file does not hold every replicate")
        if "histogram (bin width" in text:
            problems.append("histogram printed although --out was given")
        return problems

    return check


@_checked
def clip_ci(text, _res):
    normal = NormalDist()
    se = (72 - 49) / (2 * normal.inv_cdf(0.975))
    (got,) = _numbers(text, "theta gt 50: #\n")
    return _close(got, 1 - normal.cdf((50 - 60.5) / se), "P(theta > 50)")


@_checked
def clip_p(text, _res):
    # A two-sided p of 0.04 puts the baseline 1 at the 98th percentile.
    return _close(_numbers(text, "theta lt 1: #\n")[0], 0.98, "P(theta < 1)")


@_checked
def clip_two_by_two(text, _res):
    (odds,) = _numbers(text, "odds ratio: #\n")
    (risk,) = _numbers(text, "risk ratio: #\n")
    return _close(odds, float(Fraction(4, 6) / Fraction(8, 2)), "odds ratio") + _close(
        risk, float(Fraction(4, 10) / Fraction(8, 10)), "risk ratio"
    )


def _posterior(priors: dict, likelihoods: dict) -> dict:
    weights = {k: priors[k] * likelihoods[k] for k in priors}
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


@_checked
def bayes(text, _res):
    priors = {"guessing": Fraction(3, 4), "telepathy": Fraction(1, 4)}
    liks = {"guessing": Fraction(1, 50), "telepathy": Fraction(1)}
    post = _posterior(priors, liks)
    again = _posterior(post, liks)
    worlds = math.lcm(*(f.denominator for k in priors for f in (priors[k], priors[k] * liks[k])))
    problems = [] if f"{worlds} equally likely worlds" in text else [f"{worlds} worlds missing"]
    first, _, second = text.partition("after evidence round 1")
    for k in post:
        if f"{k}: {post[k]} =" not in first:
            problems.append(f"posterior {k} {post[k]} missing")
        if f"{k}: {again[k]} =" not in second:
            problems.append(f"second-round posterior {k} {again[k]} missing")
    return problems


def montecarlo(n):
    @_checked
    def check(text, _res):
        exact = Fraction(math.comb(8, 4), 2**8)
        problems = [] if f"exact probability: {exact} =" in text else [f"exact {exact} missing"]
        (estimate,) = _numbers(text, f"over {n} runs (seed #): #\n")[1:]
        return problems + oracle.check_proportion(estimate, float(exact), n, "P(4 of 8)")

    return check


@_checked
def poll(text, _res):
    problems = _close(_numbers(text, "(true proportion #)")[0], 0.6, "true proportion")
    lo, hi = _numbers(text, "proportions range: # to #\n")
    a, b = _numbers(text, "polls fell between # and # ")
    if not 0 <= lo <= a <= 0.6 <= b <= hi <= 1:
        problems.append(f"poll range {lo}-{hi} or interval {a}-{b} inconsistent with 0.6")
    return problems


@_checked
def fixtures(text, _res):
    return [f"fixture {name} missing" for name in ("veg9", "skewed9", "veg6", "poll500") if f"  {name}:" not in text]
