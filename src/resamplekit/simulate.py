"""Forward probability simulation: Bernoulli runs and polls, drawn only.

An experiment comes here checked: ``spec.BernoulliExperiment`` runs its
checks as it is built, beside its exact probability (``spec.exact_binomial``),
and ``spec.check_poll`` is a poll's.  Bernoulli trials are sampled exactly: a
trial at success probability num/den succeeds when ``below(den)`` is below
num, so the simulated probability is exactly the requested rational.  Run r
of any experiment draws from ``substream(seed, r)``; the draw plans and the
chunked engine that runs each kernel are specified in ``rng``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
from .data import PopulationVector
from .resampling import eq_by_fields, percentile_interval, read_only
from .spec import BernoulliExperiment, check_poll


def simulate_bernoulli(experiment: BernoulliExperiment, seed: int = 0) -> float:
    """Fraction of runs whose success count satisfies the event."""
    num = experiment.success_probability.numerator
    counts, _ = rng.run(experiment.plan, seed, lambda d: d < num)
    return float(np.count_nonzero(experiment.matches(counts)) / experiment.runs)


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
    plan = check_poll(population, sample_size, mode, n_polls)
    entries = np.asarray(population.entries, dtype=float)
    if plan.kind == "summed":
        sums, _ = rng.run(plan, seed, entries.__getitem__)
    else:
        sums, _ = rng.run(plan, seed, lambda block: rng.lane_sums(entries, block[:sample_size]))
    sums /= sample_size
    return PollResult(sums, sample_size, mode, n_polls, seed)
