"""Turn a published confidence interval or p-value into probability queries.

A reported result is modeled as a normal (or Student-t) location/scale
distribution for the unknown quantity:

* from an interval (low, high) at confidence ``level``: center is the
  midpoint, scale is (high - low) / (2 q) with q the (1+level)/2 quantile of
  the chosen family;
* from a two-sided p-value plus point estimate: center is the estimate,
  scale is |estimate - null_value| / q with q the 1 - p/2 quantile.

Queries (P(theta > x) and friends) then read off the family CDF.  These are
tentative probabilities: they assume the underlying sampling distribution is
roughly symmetric, so a warning note is attached when a supplied point
estimate sits far from the interval midpoint.

Ratios (odds/risk ratios) are calibrated on the raw scale by default, which
is what published intervals describe; ``log_scale=True`` works on ln(theta)
instead, which is statistically preferable for ratios but changes the
answers slightly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dists import normal_cdf, normal_quantile, t_cdf, t_quantile
from .spec import check_finite

FAMILIES = ("normal", "t")

# Warn when |interval midpoint - point estimate| exceeds this many scale
# units: the symmetry assumption behind the calibration looks shaky.
ASYMMETRY_WARN_RATIO = 0.25


@dataclass(frozen=True)
class CalibratedDistribution:
    """Location/scale normal or t model for a reported quantity."""

    center: float
    se: float
    family: str = "normal"
    df: int | None = None
    log_scale: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "t" and (self.df is None or self.df < 1):
            raise ValueError("t family needs df >= 1")
        if not self.se > 0:
            raise ValueError(f"scale must be positive, got {self.se}")

    def _standardize(self, x: float) -> float:
        if self.log_scale:
            if x <= 0:
                return -math.inf
            x = math.log(x)
        return (x - self.center) / self.se

    def _lower_tail(self, z: float) -> float:
        if z == -math.inf:
            return 0.0
        if self.family == "normal":
            return normal_cdf(z)
        return t_cdf(z, self.df)

    def cdf(self, x: float) -> float:
        return self._lower_tail(self._standardize(x))

    def prob_less(self, x: float) -> float:
        return self.cdf(x)

    def prob_greater(self, x: float) -> float:
        # Both families are symmetric; 1 - cdf(x) would cancel in the tail.
        return self._lower_tail(-self._standardize(x))

    def prob_between(self, low: float, high: float) -> float:
        if not low < high:
            raise ValueError(f"need low < high, got ({low}, {high})")
        if self._standardize(low) >= 0:
            # Both ends in the upper tail: cdf(high) - cdf(low) would cancel.
            return self.prob_greater(low) - self.prob_greater(high)
        return self.cdf(high) - self.cdf(low)

    def prob_outside(self, low: float, high: float) -> float:
        if not low < high:
            raise ValueError(f"need low < high, got ({low}, {high})")
        return self.cdf(low) + self.prob_greater(high)


def _family_quantile(p: float, family: str, df: int | None) -> float:
    if family == "normal":
        return normal_quantile(p)
    if family == "t":
        if df is None or df < 1:
            raise ValueError("t family needs df >= 1")
        return t_quantile(p, df)
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def calibrate_from_interval(
    low: float,
    high: float,
    level: float = 0.95,
    family: str = "normal",
    df: int | None = None,
    estimate: float | None = None,
    log_scale: bool = False,
) -> CalibratedDistribution:
    """Model a quantity from its reported ``level`` confidence interval.

    ``estimate`` is optional and only used to warn when the interval is
    visibly asymmetric around it.
    """
    check_finite(estimate=estimate)
    if not low < high:
        raise ValueError(f"need low < high, got ({low}, {high})")
    if not 0 < level < 1:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    if log_scale:
        if low <= 0:
            raise ValueError("log-scale calibration needs positive bounds")
        if estimate is not None and estimate <= 0:
            raise ValueError(f"estimate {estimate:g} must be positive on the log scale")
        lo, hi = math.log(low), math.log(high)
    else:
        lo, hi = float(low), float(high)
    if (1 + level) / 2 == 1:
        raise ValueError(f"confidence level {level!r} is too close to 1 to calibrate from")
    q = _family_quantile((1 + level) / 2, family, df)
    if q <= 0:  # (1 + level) / 2 rounded to 0.5
        raise ValueError(f"confidence level {level:g} is too small to calibrate from")
    center = (lo + hi) / 2
    se = (hi - lo) / (2 * q)
    notes = []
    if estimate is not None:
        est = math.log(estimate) if log_scale else float(estimate)
        if abs(center - est) > ASYMMETRY_WARN_RATIO * se:
            notes.append(
                f"interval midpoint {center:g} is far from the point estimate "
                f"{est:g} (gap {abs(center - est) / se:.2f} scale units): the "
                "symmetric model behind these probabilities looks doubtful"
            )
    return CalibratedDistribution(
        center=center, se=se, family=family, df=df, log_scale=log_scale, notes=tuple(notes),
    )


def calibrate_from_p(
    estimate: float,
    p: float,
    null_value: float,
    family: str = "normal",
    df: int | None = None,
    log_scale: bool = False,
) -> CalibratedDistribution:
    """Model a quantity from its point estimate and two-sided p-value.

    ``null_value`` is the baseline the p-value was computed against
    (0 for differences, 1 for ratios).
    """
    check_finite(estimate=estimate, null_value=null_value)
    if not 0 < p < 1:
        raise ValueError(f"p-value must be in (0, 1), got {p}")
    if 1 - p / 2 == 1:
        raise ValueError(f"p-value {p:g} is too small to calibrate from")
    if estimate == null_value:
        raise ValueError("estimate equals the baseline value: scale is undefined")
    if log_scale:
        if estimate <= 0 or null_value <= 0:
            raise ValueError("log-scale calibration needs positive values")
        est, null = math.log(estimate), math.log(null_value)
    else:
        est, null = float(estimate), float(null_value)
    q = _family_quantile(1 - p / 2, family, df)
    se = abs(est - null) / q
    return CalibratedDistribution(center=est, se=se, family=family, df=df, log_scale=log_scale)


def finite_number(text: str) -> float:
    """``float(text)`` for numbers typed by a user; nan and infinities raise
    ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def probability_query(dist: CalibratedDistribution, query: str) -> float:
    """Evaluate a textual event query against a calibrated distribution.

    Forms: ``"gt X"``, ``"lt X"``, ``"between X1,X2"``, ``"outside X1,X2"``.
    """
    parts = query.strip().split(None, 1)
    if len(parts) != 2:
        raise ValueError(f"cannot parse query {query!r}")
    op, rest = parts[0].lower(), parts[1]
    try:
        args = [finite_number(tok) for tok in rest.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"query arguments in {query!r} must be finite numbers") from None
    if op == "gt" and len(args) == 1:
        return dist.prob_greater(args[0])
    if op == "lt" and len(args) == 1:
        return dist.prob_less(args[0])
    if op == "between" and len(args) == 2:
        return dist.prob_between(args[0], args[1])
    if op == "outside" and len(args) == 2:
        return dist.prob_outside(args[0], args[1])
    raise ValueError(
        f"cannot parse query {query!r}; expected 'gt X', 'lt X', "
        "'between X1,X2' or 'outside X1,X2'"
    )


@dataclass(frozen=True)
class TwoByTwo:
    """Event/non-event counts for two groups.

    group1: ``events1`` events out of ``events1 + nonevents1`` subjects;
    group2 likewise.
    """

    events1: int
    nonevents1: int
    events2: int
    nonevents2: int

    def __post_init__(self):
        for name in ("events1", "nonevents1", "events2", "nonevents2"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a nonnegative count, got {v!r}")
        if self.events1 + self.nonevents1 == 0:
            raise ValueError("group 1 has no subjects")
        if self.events2 + self.nonevents2 == 0:
            raise ValueError("group 2 has no subjects")


def odds_ratio(table: TwoByTwo) -> float:
    """(events1/nonevents1) / (events2/nonevents2)."""
    if table.nonevents1 == 0:
        raise ValueError("odds ratio undefined: group 1 has no non-events")
    if table.events2 == 0:
        raise ValueError("odds ratio undefined: group 2 has no events")
    return (table.events1 / table.nonevents1) / (table.events2 / table.nonevents2)


def risk_ratio(table: TwoByTwo) -> float:
    """(events1/group1 size) / (events2/group2 size)."""
    if table.events2 == 0:
        raise ValueError("risk ratio undefined: group 2 has no events")
    risk1 = table.events1 / (table.events1 + table.nonevents1)
    risk2 = table.events2 / (table.events2 + table.nonevents2)
    return risk1 / risk2
