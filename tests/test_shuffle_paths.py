"""``rng.shuffled``'s two paths give the same bits.

A block whose draws allow no more distinct sequences than it has lanes
reduces every sequence once and hands each lane its sequence's value; any
other block shuffles and reduces each lane.  Each test forces one path, then
the other, by patching ``rng._sequence_count``, the selection, and compares
the arrays byte for byte.  Forcing the per-sequence path on a block with
fewer lanes than sequences is still correct, only more work, so every case
below runs both ways.
"""

import math
import random

import numpy as np
import pytest

from resamplekit import rng, spec
from resamplekit.data import GroupedSample, PairedSample, PopulationVector
from resamplekit.resampling import shuffle_test
from resamplekit.simulate import simulate_poll

N = 300


def _per_sequence(ns, cap):
    return math.prod(ns)


def _per_lane(ns, cap):
    return None


def _both_paths(monkeypatch, run):
    """The bytes of ``run()`` with every block on the per-sequence path, and
    with every block on the swap path."""
    out = []
    for selection in (_per_sequence, _per_lane):
        with monkeypatch.context() as patched:
            patched.setattr(rng, "_sequence_count", selection)
            out.append(np.asarray(run()).tobytes())
    return out


def _two_group(n, n1):
    rand = random.Random(f"{n}/{n1}")
    values = [rand.randint(0, 90) / 10 for _ in range(n)]
    groups = ["a"] * n1 + ["b"] * (n - n1)
    rand.shuffle(groups)
    return GroupedSample(values, groups)


def _paired(n):
    rand = random.Random(n)
    xs = [float(i) for i in range(n)]
    return PairedSample(xs, [rand.randint(0, 90) / 10 + i for i in range(n)])


def _replicates(data, count=N, seed=7):
    return lambda: shuffle_test(data, n_resamples=count, seed=seed).distribution.array


def _proportions(population, k, count=N, seed=7):
    return lambda: simulate_poll(population, k, "without-replacement", count, seed=seed).array


TWO_GROUP = [(n, n1) for n in range(2, 9) for n1 in range(1, n)]
POLLS = [(n, k) for n in range(1, 9) for k in range(1, n + 1)]


@pytest.mark.parametrize("n, n1", TWO_GROUP)
def test_two_group_shuffles_are_the_same_on_both_paths(monkeypatch, n, n1):
    per_sequence, per_lane = _both_paths(monkeypatch, _replicates(_two_group(n, n1)))
    assert per_sequence == per_lane


@pytest.mark.parametrize("n", range(3, 8))
def test_paired_shuffles_are_the_same_on_both_paths(monkeypatch, n):
    per_sequence, per_lane = _both_paths(monkeypatch, _replicates(_paired(n)))
    assert per_sequence == per_lane


@pytest.mark.parametrize("n, k", POLLS)
def test_polls_without_replacement_are_the_same_on_both_paths(monkeypatch, n, k):
    # n = 1 is the one-elector poll: zero steps, one draw sequence.
    population = PopulationVector([i % 2 for i in range(n)])
    per_sequence, per_lane = _both_paths(monkeypatch, _proportions(population, k))
    assert per_sequence == per_lane


def test_a_poll_of_every_voter_of_one_takes_the_one_sequence_of_no_steps():
    assert rng._sequence_count(spec.shuffle_steps(1, 1), 1) == 1
    got = simulate_poll(PopulationVector([1]), 1, "without-replacement", 5, seed=3).array
    assert got.tolist() == [1.0] * 5


@pytest.mark.parametrize(
    "width, sequences, make",
    [
        (3, 6, lambda count: _replicates(_paired(3), count)),
        (4, 12, lambda count: _replicates(_two_group(4, 2), count)),
        (4, 12, lambda count: _proportions(PopulationVector([1, 0, 0, 1]), 2, count)),
    ],
    ids=["paired", "two-group", "poll"],
)
def test_a_partial_last_block_with_fewer_lanes_than_sequences_takes_the_swap_path(
    small_chunks, monkeypatch, width, sequences, make
):
    lanes = rng.block_lanes(width)
    count = 3 * lanes + sequences // 2  # three whole blocks, then a partial one
    assert lanes >= sequences > count - 3 * lanes
    real, chosen = rng._sequence_count, []

    def spy(ns, cap):
        chosen.append(real(ns, cap))
        return chosen[-1]

    with monkeypatch.context() as patched:
        patched.setattr(rng, "_sequence_count", spy)
        got = np.asarray(make(count)()).tobytes()
    assert chosen == [sequences] * 3 + [None]
    assert [got] * 2 == _both_paths(monkeypatch, make(count))


@pytest.mark.parametrize(
    "run",
    [
        _replicates(_two_group(6, 3), 150),
        _replicates(_two_group(5, 1), 150),
        _replicates(_paired(4), 150),
        _proportions(PopulationVector([1, 0, 1, 1, 0]), 3, 150),
        _proportions(PopulationVector([1]), 1, 150),
    ],
    ids=["veg6-like", "one-row-group", "paired", "poll", "one-elector-poll"],
)
def test_both_paths_match_the_scalar_oracle(monkeypatch, scalar_oracle, run):
    per_sequence, per_lane = _both_paths(monkeypatch, lambda: scalar_oracle(run))
    assert per_sequence == per_lane == np.asarray(run()).tobytes()


def test_the_sequence_count_stops_once_it_passes_the_lanes():
    assert rng._sequence_count(spec.shuffle_steps(6, 3), 120) == 120
    assert rng._sequence_count(spec.shuffle_steps(6, 3), 119) is None
    assert rng._sequence_count(spec.shuffle_steps(5, 1), 5) == 5

    def steps():
        yield 5000
        raise AssertionError("read a step past the cap")

    assert rng._sequence_count(steps(), 4096) is None
