"""Chunked lockstep engine: chunk boundaries never change a value.

The chunk constants are patched small, so every run below spans many chunks
and ends with a partial one; each chunked result must equal the unchunked
scalar oracle (``scalar_oracle`` in conftest.py) and the run with the
default (single) chunk.
"""

import numpy as np
import pytest

from resamplekit import rng
from resamplekit.data import GroupedSample, PairedSample, PopulationVector, get_fixture
from resamplekit.resampling import bootstrap, shuffle_test, shuffle_test_paired
from resamplekit.rng import SubstreamBlock, run_chunks, substream
from resamplekit.simulate import BernoulliExperiment, simulate_bernoulli, simulate_poll

VEG6 = get_fixture("veg6").payload
VEG9 = get_fixture("veg9").payload
POLL500 = get_fixture("poll500").payload
TINY = GroupedSample.from_rows([(10, "a"), (20, "b")])

N = 257  # not a multiple of any patched chunk size below


def both_engines(scalar_oracle, fn):
    """fn() with small chunks, and fn() on the unchunked scalar oracle."""
    return fn(), scalar_oracle(fn)


def test_patched_chunks_really_split_the_runs(small_chunks):
    assert rng.chunk_lanes(6) == 10
    assert rng.chunk_lanes(9) == 7
    assert rng.chunk_lanes(1000) == 7
    sizes = []
    run_chunks(0, N, 6, lambda blk: sizes.append(blk.count) or np.zeros(blk.count))
    assert sum(sizes) == N and sizes[-1] == N % 10 and len(sizes) == 26


def test_chunk_size_does_not_change_values(monkeypatch):
    whole = shuffle_test(VEG6, n_resamples=N, seed=4)
    monkeypatch.setattr(rng, "CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(rng, "CHUNK_FLOOR", 7)
    assert shuffle_test(VEG6, n_resamples=N, seed=4) == whole


def test_plain_bootstrap_across_chunks(small_chunks, scalar_oracle):
    a, b = both_engines(scalar_oracle, lambda: bootstrap(VEG9, n_resamples=N, seed=3))
    assert a == b


def test_grouped_bootstrap_redraws_across_chunks(small_chunks, scalar_oracle):
    a, b = both_engines(scalar_oracle, lambda: bootstrap(VEG6, n_resamples=N, seed=0))
    assert a == b and a.redraw_count > 0


def test_multi_round_redraws_in_later_chunks(small_chunks, scalar_oracle):
    # One row per group: half of all attempts lose a group, so lanes of every
    # chunk need several redraw rounds.
    a, b = both_engines(scalar_oracle, lambda: bootstrap(TINY, n_resamples=N, seed=2))
    assert a == b
    assert a.redraw_count > N // 2


def test_shuffle_tests_across_chunks(small_chunks, scalar_oracle):
    a, b = both_engines(scalar_oracle, lambda: shuffle_test(VEG6, n_resamples=N, seed=5))
    assert a == b
    paired = PairedSample(
        xs=(1.0, 2.0, 3.0, 4.0, 5.0, 6.5), ys=(2.0, 1.5, 4.0, 3.0, 6.0, 5.0)
    )
    a, b = both_engines(
        scalar_oracle, lambda: shuffle_test_paired(paired, n_resamples=N, seed=6)
    )
    assert a == b


def test_bernoulli_across_chunks(small_chunks, scalar_oracle):
    experiment = BernoulliExperiment(8, "1/3", "at-least", 3, N)
    a, b = both_engines(scalar_oracle, lambda: simulate_bernoulli(experiment, seed=7))
    assert a == b


@pytest.mark.parametrize("mode", ["with-replacement", "without-replacement"])
def test_polls_across_chunks(small_chunks, scalar_oracle, mode):
    a, b = both_engines(scalar_oracle, lambda: simulate_poll(POLL500, 20, mode, N, seed=8))
    assert a == b
    ones = PopulationVector((1, 0, 0, 1, 1))
    a, b = both_engines(scalar_oracle, lambda: simulate_poll(ones, 5, mode, N, seed=9))
    assert a == b


def test_rejection_path_across_chunks(small_chunks):
    # 2**62 + 1 rejects about a quarter of raw draws, so lanes of every chunk
    # retry, some more than once.
    n = (1 << 62) + 1
    got = run_chunks(3, 45, 5, lambda blk: np.stack([blk.below(n) for _ in range(5)], axis=1))
    for lane in range(45):
        gen = substream(3, lane)
        assert [int(v) for v in got[lane]] == [gen.below(n) for _ in range(5)]


def test_keep_continues_each_kept_lanes_stream():
    block = SubstreamBlock(12, 9, start=40)
    first = block.below(7)
    block.keep([1, 4, 8])
    assert block.count == 3
    after = [block.below(7) for _ in range(3)]
    block.keep([2])
    last = block.next_uint64()
    for pos, lane in enumerate((1, 4, 8)):
        gen = substream(12, 40 + lane)
        assert int(first[lane]) == gen.below(7)
        assert [int(a[pos]) for a in after] == [gen.below(7) for _ in range(3)]
        if lane == 8:
            assert int(last[0]) == gen.next_uint64()


def test_keep_then_rejected_draws():
    n = (1 << 62) + 1
    block = SubstreamBlock(5, 6)
    block.keep([0, 2, 3, 5])
    after = [block.below(n) for _ in range(3)]
    for pos, lane in enumerate((0, 2, 3, 5)):
        gen = substream(5, lane)
        assert [int(a[pos]) for a in after] == [gen.below(n) for _ in range(3)]


def test_keep_needs_a_lane():
    with pytest.raises(ValueError):
        SubstreamBlock(0, 3).keep([])


def test_scalar_engine_runs_unchunked(small_chunks, scalar_oracle, monkeypatch):
    # The scalar oracle must see all lanes at once, or the comparisons above
    # would set one chunked run against another; and every library call must
    # reach it, or they would set the numpy engine against itself.
    sizes = []
    got = scalar_oracle(
        lambda: rng.run_chunks(0, N, 6, lambda lanes: sizes.append(lanes.count) or lanes.below(7))
    )
    assert sizes == [N]
    assert np.array_equal(got, run_chunks(0, N, 6, lambda blk: blk.below(7)))

    class CountedLanes(rng.ScalarLanes):
        def __init__(self, seed, count):
            sizes.append(count)
            super().__init__(seed, count)

    monkeypatch.setattr(rng, "ScalarLanes", CountedLanes)
    paired = PairedSample(xs=(1.0, 2.0, 3.0, 4.0), ys=(2.0, 1.5, 4.0, 3.0))
    calls = [
        lambda: bootstrap(VEG9, n_resamples=N),
        lambda: bootstrap(VEG6, n_resamples=N),
        lambda: shuffle_test(VEG6, n_resamples=N),
        lambda: shuffle_test_paired(paired, n_resamples=N),
        lambda: simulate_bernoulli(BernoulliExperiment(8, "1/3", "at-least", 3, N)),
        lambda: simulate_poll(POLL500, 20, "with-replacement", N),
        lambda: simulate_poll(POLL500, 20, "without-replacement", N),
    ]
    for call in calls:
        sizes.clear()
        scalar_oracle(call)
        assert sizes == [N]
