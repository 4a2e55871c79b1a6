"""Forward probability simulation with exact small-case arithmetic.

Bernoulli trials are sampled exactly: a trial at success probability num/den
succeeds when ``below(den)`` is below num, so the simulated probability is
exactly the requested rational.  Run r of any experiment draws from
``substream(seed, r)``; the draw plans and the chunked engine that runs each
kernel are specified in ``rng``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .data import PopulationVector
from .resampling import eq_by_fields, percentile_interval, read_only
from .spec import EVENTS, check_count, check_poll, check_run


def exact_binomial(n: int, k: int, p) -> Fraction:
    """P(exactly k successes in n trials), as an exact rational."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"success probability must be in [0, 1], got {p}")
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


@dataclass(frozen=True)
class BernoulliExperiment:
    """Repeated runs of n trials, scored by an event on the success count."""

    trials_per_run: int
    success_probability: Fraction
    event: str  # "exactly" | "at-least" | "at-most"
    event_count: int
    runs: int

    def __post_init__(self):
        check_count("trials_per_run", self.trials_per_run)
        check_count("runs", self.runs)
        object.__setattr__(
            self, "success_probability", Fraction(self.success_probability)
        )
        if not 0 <= self.success_probability <= 1:
            raise ValueError(
                f"success probability must be in [0, 1], got {self.success_probability}"
            )
        if self.success_probability.denominator >= 1 << 63:
            raise ValueError(
                "success probability needs a denominator below 2**63 to be sampled exactly"
            )
        if self.event not in EVENTS:
            raise ValueError(f"event must be one of {EVENTS}, got {self.event!r}")
        if not 0 <= self.event_count <= self.trials_per_run:
            raise ValueError(
                f"event count must be in [0, {self.trials_per_run}], "
                f"got {self.event_count}"
            )

    def matches(self, successes):
        """Whether a success count satisfies the event; elementwise on arrays."""
        if self.event == "exactly":
            return successes == self.event_count
        if self.event == "at-least":
            return successes >= self.event_count
        return successes <= self.event_count

    def exact_probability(self) -> Fraction:
        """The event probability by exact enumeration over success counts."""
        return sum(
            (
                exact_binomial(self.trials_per_run, k, self.success_probability)
                for k in range(self.trials_per_run + 1)
                if self.matches(k)
            ),
            Fraction(0),
        )


def simulate_bernoulli(experiment: BernoulliExperiment, seed: int = 0) -> float:
    """Fraction of runs whose success count satisfies the event."""
    num = experiment.success_probability.numerator
    den = experiment.success_probability.denominator
    n = experiment.trials_per_run
    runs = experiment.runs
    check_run(runs, n)
    counts, _ = rng.run_chunks(seed, runs, n, functools.partial(rng.summed, den, n, lambda d: d < num))
    return float(np.count_nonzero(experiment.matches(counts)) / runs)


@dataclass(frozen=True, eq=False)
class PollResult:
    """Sample proportions from repeated polls of a 0/1 population.

    ``array`` is the one stored copy, a read-only float64 array;
    ``proportions`` is the same as a tuple, built when first read.
    """

    array: np.ndarray
    sample_size: int
    mode: str
    n_polls: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "array", read_only(self.array))

    __eq__ = eq_by_fields

    @functools.cached_property
    def proportions(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def interval(self, level: float = 0.95) -> tuple[float, float]:
        return percentile_interval(self.array, level)

    @property
    def minimum(self) -> float:
        return float(self.array.min())

    @property
    def maximum(self) -> float:
        return float(self.array.max())


def simulate_poll(
    population: PopulationVector,
    sample_size: int,
    mode: str = "without-replacement",
    n_polls: int = 1000,
    seed: int = 0,
) -> PollResult:
    """Poll the population N times and record each poll's sample proportion."""
    check_poll(population, sample_size, mode, n_polls)
    n = population.n
    entries = np.asarray(population.entries, dtype=float)
    if mode == "with-replacement":
        kernel = functools.partial(rng.summed, n, sample_size, entries.__getitem__)
        sums, _ = rng.run_chunks(seed, n_polls, sample_size, kernel)
        props = sums / sample_size
    else:
        kernel = functools.partial(
            rng.shuffled, rng.positions(n), sample_size,
            lambda block: rng.lane_sums(entries, block[:sample_size]) / sample_size,
        )
        props, _ = rng.run_chunks(seed, n_polls, n, kernel)
    return PollResult(props, sample_size, mode, n_polls, seed)
