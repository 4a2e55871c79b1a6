"""Bayes' theorem over discrete hypotheses with exact rational arithmetic.

Priors and likelihoods are ``fractions.Fraction`` values, so posteriors are
exact and the whole calculation can be rendered as an integer grid of
equally likely worlds: each hypothesis owns ``prior * total`` worlds, of
which ``prior * likelihood * total`` survive the observed data; posteriors
are survivor shares.  The minimal grid uses the least common multiple of the
prior and prior*likelihood denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Grids beyond this many worlds are refused; the posterior itself has no
# size limit because it never materializes worlds.
MAX_WORLDS = 10**9
# A rendered grid prints one symbol per world only up to this many worlds,
# this many symbols a line.
SYMBOL_LIMIT = 2000
SYMBOLS_PER_LINE = 25

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_probability(text: str) -> Fraction:
    """Parse '3/4', '0.75' or '75%' as an exact rational in [0, 1]."""
    s = str(text).strip()
    try:
        value = Fraction(s[:-1].strip()) / 100 if s.endswith("%") else Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"probability {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"probability {text!r} is not a number; write it as 1/4, 0.25 or 25%") from None
    if not ZERO <= value <= ONE:
        raise ValueError(f"probability {text!r} is outside [0, 1]")
    return value


def _check_probability(value, what: str) -> Fraction:
    if isinstance(value, str):
        return parse_probability(value)
    try:
        value = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be a number in [0, 1], got {value!r}") from None
    if not ZERO <= value <= ONE:
        raise ValueError(f"{what} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class Hypothesis:
    name: str
    prior: Fraction
    likelihood: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prior", _check_probability(self.prior, "prior"))
        object.__setattr__(
            self, "likelihood", _check_probability(self.likelihood, "likelihood")
        )


@dataclass(frozen=True)
class HypothesisSet:
    """Mutually exclusive hypotheses: priors must sum to exactly 1."""

    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if not self.hypotheses:
            raise ValueError("need at least one hypothesis")
        names = [h.name for h in self.hypotheses]
        if len(set(names)) != len(names):
            raise ValueError(f"hypothesis names must be distinct, got {names}")
        total = sum((h.prior for h in self.hypotheses), ZERO)
        if total != 1:
            raise ValueError(f"priors must sum to exactly 1, got {total}")

    @classmethod
    def from_triples(cls, triples) -> "HypothesisSet":
        """Build from (name, prior, likelihood) with str/Fraction probabilities."""
        return cls(
            tuple(
                Hypothesis(
                    str(name),
                    prior if isinstance(prior, Fraction) else parse_probability(prior),
                    lik if isinstance(lik, Fraction) else parse_probability(lik),
                )
                for name, prior, lik in triples
            )
        )


def posterior(hset: HypothesisSet) -> list[tuple[str, Fraction]]:
    """Exact posteriors: prior*likelihood renormalized; they sum to 1."""
    weights = [h.prior * h.likelihood for h in hset.hypotheses]
    total = sum(weights, ZERO)
    if total == 0:
        raise ValueError(
            "the observed data is impossible under every hypothesis "
            "(all prior*likelihood products are zero)"
        )
    return [(h.name, w / total) for h, w in zip(hset.hypotheses, weights)]


@dataclass(frozen=True)
class WorldRow:
    name: str
    world_count: int
    surviving_count: int


@dataclass(frozen=True)
class WorldTableau:
    total_worlds: int
    rows: tuple[WorldRow, ...]

    @property
    def surviving_total(self) -> int:
        return sum(r.surviving_count for r in self.rows)

    def posterior(self) -> list[tuple[str, Fraction]]:
        total = self.surviving_total
        return [(r.name, Fraction(r.surviving_count, total)) for r in self.rows]

    def render(self) -> str:
        """Text grid: one marked symbol per world, tick = consistent with data."""
        lines = [f"{self.total_worlds} equally likely worlds:"]
        for row in self.rows:
            letter = (row.name[:1] or "?").upper()
            lines.append(
                f"  {row.name}: {row.world_count} worlds, "
                f"{row.surviving_count} consistent with the data"
            )
            if self.total_worlds <= SYMBOL_LIMIT:
                marks = [f"{letter}✓"] * row.surviving_count + [
                    f"{letter}×"
                ] * (row.world_count - row.surviving_count)
                for i in range(0, len(marks), SYMBOLS_PER_LINE):
                    lines.append("    " + " ".join(marks[i : i + SYMBOLS_PER_LINE]))
        survivors = self.surviving_total
        lines.append(
            f"  after deleting worlds inconsistent with the data, {survivors} remain"
        )
        for name, post in self.posterior():
            lines.append(f"    {name}: {post} = {float(post):.4g}")
        return "\n".join(lines)


def render_worlds(hset: HypothesisSet) -> WorldTableau:
    """Integer world counts reproducing the posterior exactly, on the
    smallest grid: the least common multiple of all prior and
    prior*likelihood denominators, at most ``MAX_WORLDS`` worlds."""
    posterior(hset)  # validates that some world survives
    denoms = []
    for h in hset.hypotheses:
        denoms.append(h.prior.denominator)
        denoms.append((h.prior * h.likelihood).denominator)
    total = math.lcm(*denoms)
    if total > MAX_WORLDS:
        raise ValueError(
            f"tableau too large: needs {total} worlds, limit is {MAX_WORLDS}"
        )
    rows = []
    for h in hset.hypotheses:
        worlds = int(h.prior * total)
        surviving = int(h.prior * h.likelihood * total)
        rows.append(WorldRow(h.name, worlds, surviving))
    return WorldTableau(total_worlds=total, rows=tuple(rows))


def sequential_update(hset: HypothesisSet, new_likelihoods) -> HypothesisSet:
    """Posteriors become priors for the next round of evidence."""
    new_likelihoods = list(new_likelihoods)
    if len(new_likelihoods) != len(hset.hypotheses):
        raise ValueError(
            f"{len(new_likelihoods)} likelihoods for {len(hset.hypotheses)} hypotheses"
        )
    post = posterior(hset)
    return HypothesisSet(
        tuple(
            Hypothesis(name, prob, _check_probability(lik, "likelihood"))
            for (name, prob), lik in zip(post, new_likelihoods)
        )
    )


@dataclass(frozen=True)
class TwoStageOutcomes:
    """Exact joint probabilities of two yes/no events in sequence."""

    both: Fraction
    first_only: Fraction
    second_only: Fraction
    neither: Fraction

    @property
    def first(self) -> Fraction:
        return self.both + self.first_only

    @property
    def second(self) -> Fraction:
        return self.both + self.second_only


def two_stage_grid(
    p_first, p_second_given_first, p_second_given_not_first
) -> TwoStageOutcomes:
    """Joint outcome probabilities from a marginal and two conditionals.

    Independence is the special case where the two conditionals are equal.
    """
    p1 = _check_probability(p_first, "first-stage probability")
    p21 = _check_probability(p_second_given_first, "conditional probability")
    p20 = _check_probability(p_second_given_not_first, "conditional probability")
    return TwoStageOutcomes(
        both=p1 * p21,
        first_only=p1 * (1 - p21),
        second_only=(1 - p1) * p20,
        neither=(1 - p1) * (1 - p20),
    )
