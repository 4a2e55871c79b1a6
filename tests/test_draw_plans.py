"""Draw plans: every kernel, run on numpy lanes across chunks, follows the
documented per-replicate plan of ``substream(seed, r)``.

The scalar oracle runs the same kernels, so the engine-equivalence tests
cannot see a fault in a draw plan.  Here the reference for lane r is built from
``SeededGenerator``'s own methods (``draw_with_replacement``,
``sample_without_replacement``, ``shuffle``, ``below``) on
``substream(seed, r)``, one lane at a time, and every lane of a run that
spans many chunks (including the first and the last) is compared.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from resamplekit import rng
from resamplekit.data import GroupedSample, PairedSample, PopulationVector, get_fixture
from resamplekit.resampling import (
    _prefix_shuffle_matrix,
    bootstrap,
    shuffle_test,
    shuffle_test_paired,
)
from resamplekit.rng import substream
from resamplekit.simulate import BernoulliExperiment, simulate_bernoulli, simulate_poll

VEG6 = get_fixture("veg6").payload
VEG9 = get_fixture("veg9").payload
POLL500 = get_fixture("poll500").payload
TINY = GroupedSample.from_rows([(10, "a"), (20, "b")])
PAIRED = PairedSample(
    xs=(1.0, 2.0, 3.0, 4.0, 5.0, 6.5), ys=(2.0, 1.5, 4.0, 3.0, 6.0, 5.0)
)

N = 257  # many patched chunks, the last one partial


def approx(x):
    return pytest.approx(x, rel=1e-12, abs=1e-12)


def test_runs_span_several_chunks(small_chunks):
    # Row widths below: 2 (TINY), 6, 7, 8, 9 and 20 values; 500 for polls
    # without replacement from POLL500.
    assert all(rng.chunk_lanes(w) * 3 < N for w in (2, 6, 7, 8, 9, 20, 500))


def test_bootstrap_rows_follow_draw_with_replacement(small_chunks):
    arr = np.asarray(VEG9.values)
    n = arr.size
    got = bootstrap(VEG9, n_resamples=N, seed=3).values
    for r in range(N):
        idx = substream(3, r).draw_with_replacement(range(n), n)
        assert got[r] == approx(sum(arr[idx]) / n)


@pytest.mark.parametrize("data, seed", [(VEG6, 0), (TINY, 2)])
def test_grouped_bootstrap_redraws_until_both_groups(small_chunks, data, seed):
    g1, _ = data.group_names
    in_g1 = [g == g1 for g in data.groups]
    n = data.n
    dist = bootstrap(data, n_resamples=N, seed=seed)
    redraws = 0
    for r in range(N):
        gen = substream(seed, r)
        idx = gen.draw_with_replacement(range(n), n)
        while len({in_g1[i] for i in idx}) < 2:
            redraws += 1
            idx = gen.draw_with_replacement(range(n), n)
        first = [data.values[i] for i in idx if in_g1[i]]
        second = [data.values[i] for i in idx if not in_g1[i]]
        want = sum(first) / len(first) - sum(second) / len(second)
        assert dist.values[r] == approx(want)
    assert dist.redraw_count == redraws > 0


def test_shuffle_test_first_group_follows_sample_without_replacement(small_chunks):
    g1, _ = VEG6.group_names
    n1 = VEG6.group_count(g1)
    values = list(VEG6.values)
    rows = _prefix_shuffle_matrix(values, N, 5, n1)
    diffs = shuffle_test(VEG6, n_resamples=N, seed=5).distribution.values
    for r in range(N):
        first = substream(5, r).sample_without_replacement(values, n1)
        assert rows[r, :n1].tolist() == first
        assert Counter(rows[r].tolist()) == Counter(values)
        rest = rows[r, n1:].tolist()
        assert diffs[r] == approx(sum(first) / n1 - sum(rest) / len(rest))


def test_paired_shuffle_follows_shuffle(small_chunks):
    ys = list(PAIRED.ys)
    rows = _prefix_shuffle_matrix(ys, N, 6, len(ys) - 1)
    rs = shuffle_test_paired(PAIRED, n_resamples=N, seed=6).distribution.values
    for r in range(N):
        shuffled = substream(6, r).shuffle(ys)
        assert rows[r].tolist() == shuffled
        assert rs[r] == approx(np.corrcoef(PAIRED.xs, shuffled)[0, 1])


@pytest.mark.parametrize(
    "population, k",
    [(POLL500, 20), (PopulationVector((1, 0, 0, 1, 1, 0, 1)), 6)],
)
def test_poll_without_replacement_follows_sample_without_replacement(
    small_chunks, population, k
):
    entries = list(population.entries)
    got = simulate_poll(population, k, "without-replacement", N, seed=8).proportions
    for r in range(N):
        picked = substream(8, r).sample_without_replacement(entries, k)
        assert got[r] == sum(picked) / k


@pytest.mark.parametrize(
    "population, k",
    [(POLL500, 20), (PopulationVector((1, 0, 0, 1, 1, 0, 1)), 6)],
)
def test_poll_with_replacement_follows_draw_with_replacement(small_chunks, population, k):
    entries = list(population.entries)
    got = simulate_poll(population, k, "with-replacement", N, seed=9).proportions
    for r in range(N):
        picked = substream(9, r).draw_with_replacement(entries, k)
        assert got[r] == sum(picked) / k


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1 << 61, (1 << 62) + 1)])
def test_bernoulli_trials_succeed_when_below_den_is_below_num(small_chunks, p):
    # simulate_bernoulli reports one fraction per event, so the success
    # count of every run is pinned through the 'exactly k' event for each k.
    trials = 8
    counts = Counter(
        sum(gen.below(p.denominator) < p.numerator for _ in range(trials))
        for gen in (substream(7, r) for r in range(N))
    )
    for k in range(trials + 1):
        experiment = BernoulliExperiment(trials, p, "exactly", k, N)
        assert simulate_bernoulli(experiment, seed=7) == counts[k] / N
