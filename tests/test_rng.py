"""The generator contract: documented algorithms, determinism, substreams."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resamplekit.rng import (
    ScalarLanes,
    SeededGenerator,
    SubstreamBlock,
    lane_sums,
    mix64,
    positions,
    substream,
    substream_key,
)

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def test_mix64_matches_published_splitmix64_outputs():
    # splitmix64 seeded with 1234567 famously emits these first two values;
    # our mix64(state + k*GOLDEN) formulation must reproduce them.
    assert mix64((1234567 + GOLDEN) & MASK64) == 6457827717110365317
    assert mix64((1234567 + 2 * GOLDEN) & MASK64) == 3203168211198807973


def test_core_recurrence_from_reference_state():
    # From state {1, 2, 3, 4} the star-star scrambler gives rotl(2*5,7)*9
    # = 11520, then rotl(0,7)*9 = 0, then 1509978240 (hand-checkable).
    gen = SeededGenerator(0)
    gen._s = [1, 2, 3, 4]
    assert [gen.next_uint64() for _ in range(3)] == [11520, 0, 1509978240]


def test_same_seed_same_sequence():
    a = [SeededGenerator(42).next_uint64() for _ in range(8)]
    b = [SeededGenerator(42).next_uint64() for _ in range(8)]
    assert a == b


def test_golden_sequences_pin_the_algorithm():
    # Any reimplementation (other language, refactor) must hit these exactly.
    gen = SeededGenerator(0)
    assert [gen.next_uint64() for _ in range(3)] == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
    ]
    gen = SeededGenerator(42)
    assert [gen.next_uint64() for _ in range(3)] == [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
    ]
    sub = substream(0, 1)
    assert [sub.next_uint64() for _ in range(3)] == [
        18190625494401499486,
        2296151096374941873,
        136374298692109470,
    ]


def test_substream_deterministic_and_distinct():
    first = [substream(7, 3).next_uint64() for _ in range(4)]
    second = [substream(7, 3).next_uint64() for _ in range(4)]
    assert first == second
    other = [substream(7, 4).next_uint64() for _ in range(4)]
    assert all(x != y for x, y in zip(first, other))


def test_substream_keys_injective_in_index():
    keys = {substream_key(123, i) for i in range(10_000)}
    assert len(keys) == 10_000


def test_substream_independent_of_other_streams():
    # Consuming unrelated streams must not shift this one.
    fresh = [substream(5, 2).next_uint64() for _ in range(4)]
    noisy_src = substream(5, 0)
    for _ in range(100):
        noisy_src.next_uint64()
    again = [substream(5, 2).next_uint64() for _ in range(4)]
    assert fresh == again


def test_substream_index_validation():
    with pytest.raises(ValueError):
        substream(0, -1)


def test_below_bounds_and_validation():
    gen = SeededGenerator(1)
    assert all(0 <= gen.below(7) < 7 for _ in range(200))
    with pytest.raises(ValueError):
        gen.below(0)
    with pytest.raises(ValueError):
        gen.below(1 << 63)


def test_below_rejection_path_still_uniform_range():
    # 2**62 + 1 rejects roughly a quarter of raw draws, so the retry loop
    # actually runs; results must stay in range.
    gen = SeededGenerator(3)
    n = (1 << 62) + 1
    assert all(0 <= gen.below(n) < n for _ in range(200))


def test_shuffle_edge_cases():
    gen = SeededGenerator(0)
    assert gen.shuffle([]) == []
    assert gen.shuffle([5]) == [5]


@given(st.lists(st.integers(), max_size=30), st.integers(min_value=0, max_value=2**32))
def test_shuffle_preserves_multiset(items, seed):
    assert sorted(SeededGenerator(seed).shuffle(items)) == sorted(items)


def test_shuffle_uniform_over_six_orders():
    # 20 000 shuffles of three items, pinned seed: each of the 6 orders
    # within 1/6 +- 0.02.
    gen = SeededGenerator(0)
    counts = Counter(tuple(gen.shuffle([1, 2, 3])) for _ in range(20_000))
    assert len(counts) == 6
    for count in counts.values():
        assert abs(count / 20_000 - 1 / 6) < 0.02


def test_draw_with_replacement_basics():
    gen = SeededGenerator(0)
    assert gen.draw_with_replacement(["a"], 5) == ["a"] * 5
    with pytest.raises(ValueError):
        gen.draw_with_replacement([], 3)
    with pytest.raises(ValueError):
        gen.draw_with_replacement([1], 0)


def test_draw_with_replacement_uniform():
    # 90 000 single draws from 9 items, pinned seed: each within 1/9 +- 0.01.
    gen = SeededGenerator(0)
    counts = Counter(gen.draw_with_replacement(list(range(9)), 90_000))
    for i in range(9):
        assert abs(counts[i] / 90_000 - 1 / 9) < 0.01


def test_sample_without_replacement():
    gen = SeededGenerator(4)
    picked = gen.sample_without_replacement(list(range(10)), 4)
    assert len(picked) == len(set(picked)) == 4
    assert set(picked) <= set(range(10))
    assert gen.sample_without_replacement([1, 2], 0) == []
    with pytest.raises(ValueError):
        gen.sample_without_replacement([1, 2], 3)


def test_block_matches_scalar_substreams():
    seed = 99
    block = SubstreamBlock(seed, 6)
    raw = [block.next_uint64() for _ in range(5)]
    draws = [block.below(7) for _ in range(4)]
    for lane in range(6):
        gen = substream(seed, lane)
        for step in range(5):
            assert int(raw[step][lane]) == gen.next_uint64()
        for step in range(4):
            assert int(draws[step][lane]) == gen.below(7)


def test_block_with_start_offset():
    block = SubstreamBlock(11, 3, start=100)
    vals = block.next_uint64()
    for lane in range(3):
        assert int(vals[lane]) == substream(11, 100 + lane).next_uint64()


def test_block_rejection_path_matches_scalar():
    n = (1 << 62) + 1
    block = SubstreamBlock(3, 8)
    vec = [block.below(n) for _ in range(6)]
    for lane in range(8):
        gen = substream(3, lane)
        for step in range(6):
            assert int(vec[step][lane]) == gen.below(n)


def test_block_validation():
    with pytest.raises(ValueError):
        SubstreamBlock(0, 0)
    with pytest.raises(ValueError):
        SubstreamBlock(0, 2).below(0)


def test_scalar_lanes_match_the_block():
    n = (1 << 62) + 1  # rejects about a quarter of raw draws
    block, lanes = SubstreamBlock(21, 9), ScalarLanes(21, 9)
    assert lanes.count == block.count == 9
    for step in range(6):
        if step == 2:
            block.keep([0, 3, 4, 8])
            lanes.keep([0, 3, 4, 8])
            assert lanes.count == block.count == 4
        bound = n if step % 2 else 7
        want = block.below(bound)
        got = lanes.below(bound)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_positions_take_the_narrowest_signed_type():
    assert positions(6).tolist() == [0, 1, 2, 3, 4, 5]
    assert positions(1 << 15).dtype == np.int16
    wide = positions((1 << 15) + 1)
    assert wide.dtype == np.int32 and wide[-1] == 1 << 15


# Values whose sums depend on the order of the adds and on the +0.0 start:
# signed zeros, subnormals, 1e16 beside 1 and 0.1 (absorbed or not), and
# infinities and 1.7e308 (overflow and nan).
SUM_POOL = np.array(
    [0.0, -0.0, 1e-320, -1e-320, 2.0**-1074, 1e16, -1e16, 1.0, 0.1,
     np.inf, -np.inf, 1.7e308, -1.7e308]
)


# Widths for every branch of the pairwise rule: left to right under 8, eight
# running sums with and without a rest up to 128, and halves past 128 whose
# own halves are split again (136, 255-257, 1000, 2000, 8193).
@pytest.mark.parametrize("width", [*range(1, 21), 127, 128, 129, 136, 255, 256, 257, 1000, 2000, 8193])
def test_lane_sums_are_numpys_row_sums_bit_for_bit(width):
    # A block is position-major, and the kernels hand over column slices of
    # wider blocks; each lane's sum, written out in the spec's pairwise order,
    # must equal numpy's sum of the same row gathered as C-contiguous float
    # rows, down to the sign of a zero, also for each row of a stacked values
    # table and for weighted terms.
    rand = np.random.default_rng(width)
    values = SUM_POOL[rand.permutation(SUM_POOL.size)]
    for pool in (values, values[:2], values[:5]):  # all-zero rows too
        wide = rand.integers(0, pool.size, (width, 300)).astype(positions(width).dtype)
        block = wide[:, 7:250]
        rows = np.ascontiguousarray(block.T, dtype=np.intp)
        table = np.stack([pool, pool[::-1], -pool])
        weights = rand.choice([1.0, -1.0, 0.5, 3.0, 1e-300, 1e300], width)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            want = [v[rows].sum(axis=1) for v in table]
            assert lane_sums(pool, block).tobytes() == want[0].tobytes()
            stacked = lane_sums(table, block)
            weighted = lane_sums(pool, block, weights)
            assert weighted.tobytes() == (pool[rows] * weights).sum(axis=1).tobytes()
        assert stacked.shape == (3, block.shape[1])
        assert [row.tobytes() for row in stacked] == [w.tobytes() for w in want]


def test_short_lane_sums_start_from_positive_zero():
    block = np.zeros((3, 4), dtype=np.int16)
    sums = lane_sums(np.array([-0.0]), block)
    assert not np.signbit(sums).any() and not np.signbit(np.full((4, 3), -0.0).sum(axis=1)).any()
