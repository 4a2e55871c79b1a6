"""Forward probability simulation with exact small-case arithmetic.

Bernoulli trials use exact rational sampling: a trial with success
probability num/den draws ``below(den)`` and succeeds when the draw is
below ``num``, so the simulated probability is exactly the requested
rational.  Run r of any experiment takes its randomness from
``substream(seed, r)``.

Poll sampling without replacement takes the first k positions of a partial
Fisher-Yates shuffle of the population; with replacement it draws k
independent indices.

Each draw plan is one kernel run by ``rng.run_chunks``, which steps numpy
lanes in lockstep, in bounded chunks.  The tests run the same kernels on
``rng.ScalarLanes``, unchunked, one Python-int generator per run, as an
oracle for the numpy engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .data import PopulationVector
from .resampling import _eq_by_fields, _prefix_shuffle_matrix, _read_only, percentile_interval

EVENTS = ("exactly", "at-least", "at-most")
POLL_MODES = ("with-replacement", "without-replacement")


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
        if self.trials_per_run < 1:
            raise ValueError("need at least one trial per run")
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
        if self.runs < 1:
            raise ValueError("need at least one run")

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

    def successes(blk) -> np.ndarray:
        counts = np.zeros(blk.count, dtype=np.int64)
        for _ in range(n):
            counts += blk.below(den) < num
        return counts

    counts = rng.run_chunks(seed, runs, n, successes)
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
        object.__setattr__(self, "array", _read_only(self.array))

    __eq__ = _eq_by_fields

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
    if mode not in POLL_MODES:
        raise ValueError(f"mode must be one of {POLL_MODES}, got {mode!r}")
    if sample_size < 1:
        raise ValueError("sample size must be >= 1")
    if n_polls < 1:
        raise ValueError("need at least one poll")
    n = population.n
    if mode == "without-replacement" and sample_size > n:
        raise ValueError(
            f"cannot poll {sample_size} of {n} electors without replacement"
        )
    entries = np.asarray(population.entries, dtype=float)
    if mode == "with-replacement":

        def sums(blk) -> np.ndarray:
            total = np.zeros(blk.count)
            for _ in range(sample_size):
                total += entries[blk.below(n)]
            return total

        props = rng.run_chunks(seed, n_polls, sample_size, sums) / sample_size
    else:
        props = _prefix_shuffle_matrix(
            entries, n_polls, seed, sample_size, lambda mat: mat[:, :sample_size].mean(axis=1)
        )
    return PollResult(
        props,
        sample_size=sample_size,
        mode=mode,
        n_polls=n_polls,
        seed=seed,
    )
