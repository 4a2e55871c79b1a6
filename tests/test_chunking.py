"""Chunked lockstep engine: chunk boundaries never change a value.

The chunk constants are patched small, so every run below spans many chunks
and ends with a partial one; each chunked result must equal the unchunked
scalar oracle (``scalar_oracle`` in conftest.py) and the run with the
default (single) chunk.
"""

import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import test_golden
from resamplekit import rng, spec
from resamplekit.data import GroupedSample, PairedSample, PopulationVector, Sample, get_fixture
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


def replayed_redraws(data: GroupedSample, seed: int, count: int) -> int:
    """The redraws of a grouped bootstrap, replayed on the generator alone:
    for each replicate r, the attempts of ``substream(seed, r)
    .draw_with_replacement(range(n), n)`` until both groups appear, less one."""
    in_g1 = [g == data.group_names[0] for g in data.groups]
    redraws = 0
    for r in range(count):
        gen = substream(seed, r)
        while len({in_g1[i] for i in gen.draw_with_replacement(range(data.n), data.n)}) < 2:
            redraws += 1
    return redraws


def test_patched_chunks_really_split_the_runs(small_chunks):
    assert spec.chunk_lanes(6) == 10
    assert spec.chunk_lanes(9) == 7
    assert spec.chunk_lanes(1000) == 7
    sizes, redraws = [], []

    def kernel(blk):
        sizes.append(blk.count)
        redraws.append(len(sizes) ** 2)  # a different count for every block
        return np.full(blk.count, len(sizes)), redraws[-1]

    values, total = run_chunks(0, N, 6, kernel)
    assert sum(sizes) == N and sizes[-1] == N % 10 and len(sizes) == 26
    assert total == sum(redraws)
    assert values.tolist() == [block + 1 for block, size in enumerate(sizes) for _ in range(size)]


def test_chunk_size_does_not_change_values(monkeypatch):
    whole = shuffle_test(VEG6, n_resamples=N, seed=4)
    monkeypatch.setattr(spec, "CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(spec, "CHUNK_FLOOR", 7)
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
    assert a.redraw_count == replayed_redraws(TINY, 2, N) > N // 2


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
    got, _ = run_chunks(3, 45, 5, lambda blk: (np.stack([blk.below(n) for _ in range(5)], axis=1), 0))
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
    got, _ = scalar_oracle(
        lambda: rng.run_chunks(0, N, 6, lambda lanes: (sizes.append(lanes.count) or lanes.below(7), 0))
    )
    assert sizes == [N]
    assert np.array_equal(got, run_chunks(0, N, 6, lambda blk: (blk.below(7), 0))[0])

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


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Chunk constants small enough that block and sub-block boundaries fall
    inside each pinned run below: 6- to 10-row data gets blocks of 20 lanes
    and sub-blocks of 5."""
    monkeypatch.setattr(spec, "CHUNK_ELEMENTS", 24)
    monkeypatch.setattr(spec, "CHUNK_FLOOR", 5)


def test_wide_blocks_draw_four_times_the_floor_lanes():
    assert spec.block_lanes(2000) == spec.block_lanes(10**4) == 4 * spec.CHUNK_FLOOR == 4096
    assert spec.chunk_lanes(2000) == spec.CHUNK_FLOOR
    assert spec.block_lanes(40_000) == 2 * spec.CHUNK_FLOOR  # int32 positions
    assert spec.block_lanes(255) == spec.chunk_lanes(255) == spec.CHUNK_ELEMENTS // 255
    # Past SUB_BLOCK_ELEMENTS // CHUNK_FLOOR rows, a sub-block is bounded by
    # its positions, down to one lane.
    assert spec.chunk_lanes(10**4) == spec.SUB_BLOCK_ELEMENTS // 10**4 == 419
    assert spec.chunk_lanes(spec.SUB_BLOCK_ELEMENTS + 1) == 1


def lane_sums_calls(block) -> int:
    """The function calls, numpy's among them, that ``rng.lane_sums`` makes
    as it sums ``block``, whose sums are checked."""
    values = np.arange(block.max() + 1.0)
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(event) if event in ("call", "c_call") else None)
    try:
        sums = rng.lane_sums(values, block)
    finally:
        sys.setprofile(None)
    assert sums.tolist() == block.sum(axis=0).tolist()
    return len(calls)


def test_tiny_blocks_put_every_boundary_inside_a_block(tiny_blocks):
    for width in (6, 9, 10, 500):
        assert (spec.block_lanes(width), spec.chunk_lanes(width)) == (20, 5)
    # lane_sums reads whole position rows, one or eight at a time, so it
    # makes as many calls for 2300 lanes as for 23: left to right under 8
    # positions, in running sums from 8 on, and in halves past 128.
    rand = np.random.default_rng(23)
    for k in (7, 9, 2000):
        block = rand.integers(0, k, (k, 2300)).astype(np.int16)
        assert lane_sums_calls(block[:, :23]) == lane_sums_calls(block)


@pytest.mark.parametrize("name", list(test_golden.ARRAYS))
def test_pinned_arrays_across_block_and_sub_block_boundaries(tiny_blocks, scalar_oracle, name):
    make, pin = test_golden.ARRAYS[name]
    arr = make()
    assert np.array_equal(arr, scalar_oracle(make))
    assert test_golden.sha256(arr.astype("<f8").tobytes()) == pin


# One row, position 0, is the first group: a third of the 9-row attempts
# lose a group, so several lanes of every block redraw.
ONE_IN_NINE = GroupedSample.from_rows([(i, "a" if i < 1 else "b") for i in range(9)])


def lost_lanes(data: GroupedSample, seed: int, count: int) -> list[int]:
    """The replicates whose first attempt of the grouped bootstrap lacks a
    group, replayed on the generator alone."""
    in_g1 = [g == data.group_names[0] for g in data.groups]
    n = data.n
    return [
        r for r in range(count)
        if len({in_g1[i] for i in substream(seed, r).draw_with_replacement(range(n), n)}) < 2
    ]


def test_grouped_bootstrap_redraws_within_one_block(tiny_blocks, scalar_oracle):
    # The pinned grouped bootstrap (veg6, seed 2) redraws several lanes of
    # one block, which lane_sums adds up one position row at a time; 9-row
    # data redraws more lanes of one block, whose redraw tables lane_sums
    # reads in running sums.  Both count their redraws as a replay on the
    # generator alone does.
    for data, seed, count, more_than in ((VEG6, 2, 3000, 1), (ONE_IN_NINE, 2, 300, 2)):
        lost = lost_lanes(data, seed, count)
        assert max(Counter(r // spec.block_lanes(data.n) for r in lost).values()) > more_than
        dist = bootstrap(data, n_resamples=count, seed=seed)
        assert dist == scalar_oracle(lambda: bootstrap(data, n_resamples=count, seed=seed))
        assert dist.redraw_count == replayed_redraws(data, seed, count) >= len(lost)


@pytest.mark.parametrize("kernel", ["shuffled", "drawn", "drawn-grouped", "summed", "drawn-redraws"])
def test_shuffled_and_drawn_hand_reduce_row_blocks_in_lane_order(tiny_blocks, kernel):
    # 23 lanes of 9-row data: sub-blocks of 5 lanes, the last partial.  A
    # reducer gets a whole position-major block (drawn) or sub-block
    # (shuffled), a row per position or draw and a column per lane, and
    # returns the picks of each lane as one code (its decimal digits), summed
    # through lane_sums, so every value names its lane's draws.  drawn-grouped also stacks a
    # second row, the count of picks below 4; drawn-redraws stacks the count
    # of picks of ONE_IN_NINE's first group and redraws the lanes that lost
    # a group.  summed adds each draw's digit of the code as it draws.
    n, k, seed, count = 9, 4, 11, 23
    width = n if kernel.startswith("drawn") else k
    seen = []

    def reduce(block):
        seen.append(block.shape)
        codes = rng.lane_sums(np.arange(n, dtype=float), block[:width], 10.0 ** np.arange(width))
        if kernel == "drawn-grouped":
            return np.stack([codes, (block < 4).sum(axis=0)])
        return np.stack([codes, (block < 1).sum(axis=0)]) if kernel == "drawn-redraws" else codes

    def run(lanes):
        if kernel == "shuffled":
            return rng.shuffled(rng.positions(n), k, reduce, lanes)
        if kernel == "summed":
            digits = iter(10 ** np.arange(k, dtype=np.int64))
            return rng.summed(n, k, lambda d: d * next(digits), lanes)
        return rng.drawn(n, reduce, kernel == "drawn-redraws", lanes)

    values, redraws = run(SubstreamBlock(seed, count))
    attempts = [0] * count  # each lane's attempts, replayed below
    if kernel == "drawn-redraws":
        assert redraws == replayed_redraws(ONE_IN_NINE, seed, count) > 0
    else:
        assert redraws == 0
    assert values.shape == ((2, count) if kernel == "drawn-grouped" else (count,))
    for r, value in enumerate(values.T):
        gen = substream(seed, r)
        if kernel == "shuffled":
            picks = gen.sample_without_replacement(range(n), k)
        elif kernel == "summed":
            picks = gen.draw_with_replacement(range(n), k)
        else:
            picks = gen.draw_with_replacement(range(n), n)
            attempts[r] = 1
            while kernel == "drawn-redraws" and sum(p < 1 for p in picks) in (0, n):
                picks = gen.draw_with_replacement(range(n), n)
                attempts[r] += 1
        want = sum(p * 10**i for i, p in enumerate(picks))
        assert value.tolist() == ([want, sum(p < 4 for p in picks)] if kernel == "drawn-grouped" else want)
    if kernel == "shuffled":
        assert seen == [(n, 5)] * 4 + [(n, 3)]
    elif kernel != "summed":
        # One whole block, then the lanes still drawing, round by round.
        rounds = [sum(a > i for a in attempts) for i in range(max(attempts))]
        assert seen == [(n, lanes) for lanes in rounds]
    assert np.array_equal(values, run(rng.ScalarLanes(seed, count))[0])


@pytest.mark.parametrize("sidedness", ["two-sided", "greater", "less"])
def test_grouped_shuffle_p_values_across_boundaries(tiny_blocks, scalar_oracle, sidedness):
    a = shuffle_test(VEG6, n_resamples=3000, seed=3, sidedness=sidedness)
    assert a == scalar_oracle(lambda: shuffle_test(VEG6, n_resamples=3000, seed=3, sidedness=sidedness))
    assert np.array_equal(a.distribution.array, test_golden.ARRAYS["shuffle-veg6"][0]())


def _wide_data():
    """2000 one-decimal rows (one-sample, two-group and paired) and 10^4 0/1 voters."""
    rand = random.Random(2000)
    values = [round(rand.gauss(50, 12), 1) for _ in range(2000)]
    groups = [rand.choice("ab") for _ in values]
    ys = [round(v / 2 + rand.gauss(0, 10), 1) for v in values]
    voters = [int(rand.random() < 0.55) for _ in range(10**4)]
    return Sample(values), GroupedSample(values, groups), PairedSample(values, ys), PopulationVector(voters)


SAMPLE, GROUPED, PAIRED, VOTERS = _wide_data()


@pytest.mark.parametrize(
    "call, limit_mb",
    [
        (lambda: simulate_poll(VOTERS, 200, "without-replacement", 1024), 16),
        (lambda: bootstrap(SAMPLE, n_resamples=1024), 24),
        (lambda: shuffle_test_paired(PAIRED, n_resamples=1024), 24),
        (lambda: shuffle_test(GROUPED, n_resamples=1024), 15),
        (lambda: bootstrap(GROUPED, n_resamples=1024), 40),
        (lambda: simulate_poll(VOTERS, 200, "without-replacement", 4096), 16),
        (lambda: bootstrap(SAMPLE, n_resamples=4096), 24),
        (lambda: shuffle_test_paired(PAIRED, n_resamples=4096), 24),
        (lambda: shuffle_test(GROUPED, n_resamples=4096), 15),
        (lambda: bootstrap(GROUPED, n_resamples=4096), 40),
    ],
    ids=[
        "poll-without", "bootstrap", "paired-shuffle", "grouped-shuffle", "grouped-bootstrap",
        "poll-without-block", "bootstrap-block", "paired-shuffle-block", "grouped-shuffle-block",
        "grouped-bootstrap-block",
    ],
)
def test_a_wide_chunk_holds_row_positions_or_one_value_matrix(call, limit_mb):
    # 1024 lanes (CHUNK_FLOOR) or one full block of 4096 over 2000 rows or
    # 10^4 voters.  A float64 matrix of every row per lane is 16 MB for 2000
    # rows and 82 MB for the voters at 1024 lanes.  A block's int16 draw
    # table takes those 16 MB for 2000 rows at 4096 lanes; the permuting
    # kernels hold int16 positions for 1024 lanes of 2000 rows (4 MB) or 419
    # lanes of 10^4 (8 MB) at a time, and lane_sums gathers values only 8
    # position rows at a time.
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 10**6



@pytest.mark.parametrize(
    "call, work",
    [
        (lambda: simulate_bernoulli(BernoulliExperiment(10**4, "1/2", "at-least", 1, 10**6 + 1)),
         "1000001 replicates x 10000 values each is 10000010000"),
        (lambda: simulate_poll(POLL500, 101, "with-replacement", 10**8), "100000000 replicates x 101 values"),
        (lambda: bootstrap(Sample([float(i) for i in range(101)]), n_resamples=10**8),
         "100000000 replicates x 101 values"),
    ],
    ids=["bernoulli", "poll-with", "bootstrap"],
)
def test_a_run_just_over_the_work_cap_builds_no_block(monkeypatch, call, work):
    def no_block(*args):
        raise AssertionError("a block was built for a run over the work cap")

    monkeypatch.setattr(rng, "SubstreamBlock", no_block)
    with pytest.raises(ValueError, match=f"^a run of {work} .* above the cap of {spec.MAX_WORK}$"):
        call()


def test_a_table_of_more_draws_than_the_cap_is_refused(monkeypatch):
    # 100 bytes hold a table of 10 lanes x 5 int16 draws.
    monkeypatch.setattr(spec, "MAX_TABLE_BYTES", 100)
    message = "^a draw table of 10 lanes x 6 draws is 120 bytes, above the cap of 100 bytes$"
    for call in (
        lambda: bootstrap(Sample([float(i) for i in range(6)]), n_resamples=10),
        lambda: shuffle_test_paired(PairedSample(range(7), range(7)), n_resamples=10),
        lambda: simulate_poll(POLL500, 6, "without-replacement", 10),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    simulate_poll(POLL500, 6, "with-replacement", 10)  # no table
    bootstrap(Sample([float(i) for i in range(5)]), n_resamples=10)
    simulate_poll(POLL500, 5, "without-replacement", 10)


def test_the_work_cap_itself_is_accepted():
    spec.check_run(spec.MAX_WORK, 1)
    spec.check_run(10**8, 100)
    with pytest.raises(ValueError):
        spec.check_run(spec.MAX_WORK + 1, 1)


@pytest.mark.parametrize(
    "call, values_bytes",
    [
        (lambda: simulate_bernoulli(BernoulliExperiment(8, "1/3", "at-least", 3, 10**6)), 8 * 10**6),
        (lambda: bootstrap(VEG9, n_resamples=4 * 10**6), 32 * 10**6),
    ],
    ids=["bernoulli", "bootstrap"],
)
def test_a_run_holds_its_values_once(call, values_bytes):
    # run_chunks writes each block into one output array, so the peak stays
    # near the values' own bytes; keeping every block and concatenating them
    # held the values twice (2.0x and 2.2x).
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values_bytes
