"""Deterministic, seedable randomness with independent per-replicate substreams.

Everything downstream of a seed is reproducible bit for bit, on any platform,
in any language willing to reimplement two public-domain recurrences (all
arithmetic modulo 2**64).

splitmix64 mixing function ``mix64`` (Steele/Lea/Flood, via Vigna's
``splitmix64.c``)::

    x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27;  x *= 0x94D049BB133111EB
    x ^= x >> 31

xoshiro256** step (Blackman & Vigna)::

    out = rotl64(s1 * 5, 7) * 9
    t  = s1 << 17
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3;  s2 ^= t
    s3 = rotl64(s3, 45)

A generator's four state words are derived from a 64-bit key as
``s[i] = mix64(key + (i + 1) * 0x9E3779B97F4A7C15)`` for i = 0..3.
``SeededGenerator(seed)`` uses the seed itself as the key;
``substream(seed, index)`` uses ``mix64(mix64(seed) + index)``, which is
injective in ``index`` for a fixed seed, so distinct replicate indices get
pairwise-distinct streams.

Derived draws:

* ``below(n)`` -- rejection sampling: draw ``r`` until
  ``r < 2**64 - (2**64 mod n)``, then return ``r mod n``.  No modulo bias;
  every call consumes at least one draw.
* ``sample_without_replacement(items, k)`` -- for i = 0..min(k, n-1)-1 swap
  position i with position ``i + below(n - i)`` (forward Fisher-Yates over
  the n items), then take the first k positions.  ``shuffle`` is k = n.
* ``draw_with_replacement(items, k)`` -- k picks ``items[below(n)]``.

Replicated experiments take replicate r's randomness from
``substream(seed, r)`` so results never depend on execution order or thread
scheduling.  The draw plans of the procedures, for replicate r:

* bootstrap of n rows: the rows ``draw_with_replacement(range(n), n)``;
  the mean is the lane's ``lane_sums`` of the values / n.
* grouped bootstrap: a replicate whose rows lack one of the two groups draws
  n fresh rows from the same substream, again until both groups are
  present; each attempt counts as one redraw.  A lane that holds one group
  is redrawn before any value is kept.  The value is s1/c1 - (T - s1)/(n -
  c1), where T, s1 and c1 come from one ``lane_sums`` of three value rows:
  the values, the group-1 values (zero in group 2) and the group-1 flags
  (1.0 or 0.0).
* two-group shuffle test with n1 rows in the first group:
  ``sample_without_replacement(values, n1)`` over the values in row order
  is the first group; the other n - n1 positions, in their order after
  those steps, are the second.  The value is s1/n1 - s2/(n - n1), where s1
  and s2 are two separate ``lane_sums`` of the values, over the first n1
  and the other n - n1 position rows.
* paired shuffle test: ``shuffle(ys)``; the x column stays fixed.
* poll of k electors: ``sample_without_replacement(entries, k)``, or with
  replacement ``draw_with_replacement(entries, k)``.  The proportion is the
  lane's count of ones (from ``summed`` with replacement, from
  ``lane_sums`` over the first k position rows without) divided by k,
  rounded once.
* Bernoulli run of t trials at success probability num/den (lowest
  terms): t draws of ``below(den)``, a success when the draw is below num.
* ``summed`` adds picks of 0 or 1 in every plan (a success, or an elector's
  entry), so each lane's sum is an exact integer and the order of its adds
  is not part of the spec.

The lanes forms of the plans sit here, and only here, beside the
``SeededGenerator`` methods they must match.  ``draw_table(lanes, ns)`` makes
every draw of a set of lanes in one lockstep pass: a draw-major table whose
row d is ``lanes.below(ns[d])``, in ``position_dtype`` (int16, int32 past
2^15 rows).  Column j of a table of n draws of ``below(n)`` is lane j's
``draw_with_replacement`` of the positions, as it stands.
``shuffle_block(items, table)`` applies a table of ``spec.shuffle_steps(n, k)``
and is ``sample_without_replacement``; its block is position-major too: row
i holds slot i of every lane.  Three kernels run every plan.  ``shuffled``
(both shuffle tests, and the poll without replacement, which reads the first
k rows) and ``drawn`` (both bootstraps; grouped, it also applies the redraw
rule) hand a procedure's reducer such blocks, one row per position or draw
and one column per lane, and the reducer reads values at those positions
through ``lane_sums``.  ``summed`` (Bernoulli trials and polls with
replacement) sums a pick of each draw as it draws, with no table.

``shuffled`` reduces a block by one of two paths, and the path is not part
of the spec, because no lane's value depends on it.  Every reducer works lane
by lane, so a lane's value is the reducer's value on that lane's positions
alone.  Where the block's steps ``s_i = n - i`` allow no more distinct draw
sequences than it has lanes (their product, which ``_sequence_count`` stops
multiplying once it passes the lane count), it lists every sequence once, in
mixed-radix order (the last step varies fastest, the factorial number
system), reduces that table, and gives each lane the value at its draws'
index ((t_0 s_1 + t_1) s_2 + t_2) ..., built as the steps are drawn, in
the same order, with no draw table; veg6 has 120 sequences for 43,690
lanes.  Elsewhere it draws the block's table of steps, and shuffles and
reduces every lane.

``lane_sums(values, block)`` is, for every lane, +0.0 plus the pairwise sum
of ``values`` at the lane's positions over the k position rows of the block
(numpy's ``pairwise_sum``, so also numpy's sum of those values as one float
row): under 8 rows left to right from +0.0; up to 128 in eight running sums,
sum j of rows j, j + 8, ... up to the last multiple of 8, added as ((0 + 1)
+ (2 + 3)) + ((4 + 5) + (6 + 7)), then the last k % 8 rows one by one; past
128 the sum of the first (k // 2) // 8 * 8 rows plus the sum of the rest,
each by this rule.  Values of shape (m, n) are m value rows summed through
the same indices, and ``weights`` scale the values position row by position
row (the terms of a correlation).  These sums decide a replicate's last bits.

Lanes have a ``count``, ``below(n)`` (one draw per lane, an int64 array) and
``keep(lanes)`` (narrow to some lanes, each continuing its own stream).
A kernel is a function of (inputs, lanes) that returns ``(values,
redraws)``: a value per lane and the redraws it took (only the grouped
bootstrap redraws).  ``run_chunks`` runs the kernel on blocks,
``SubstreamBlock``s that step the lanes in numpy uint64 lockstep, writes
their values in lane order into one output array and sums the redraws.  ``ScalarLanes`` steps one Python-int
``substream(seed, r)`` per lane; the tests run a kernel once, unchunked, on
``ScalarLanes(seed, N)`` as the oracle for the uint64 lockstep, rejection,
``keep`` and chunking.  The plans themselves are checked against
``SeededGenerator``'s own methods in the tests, and against
``bench/refgen.py`` outside the program.

Memory is bounded at two levels, for rows of n values, and each is split by
one function of ``spec``, where the sizing is integer arithmetic.
``run_chunks`` splits the run into blocks of ``block_lanes(n)`` lanes, and a
kernel that draws a table draws it for the whole block at once, so numpy's
per-call cost of ``below`` is spread over many lanes; past CHUNK_ELEMENTS //
CHUNK_FLOOR rows that is 8 // ``position_bytes(n)`` times CHUNK_FLOOR lanes
(4096 for int16), so a table takes the bytes of a float64 row matrix of
CHUNK_FLOOR lanes.  ``shuffled`` splits a block into sub-blocks of
``chunk_lanes(n)`` lanes of row state (a shuffle's positions), each built,
reduced and released before the next is built.  Reducers get a
whole block (``drawn``) or sub-block (``shuffled``), and ``lane_sums`` reads
it 8 position rows of every lane at a time.  Nothing here refuses a run:
each procedure passes its check in ``spec`` before the first block.

Chunking invariant: ``run_chunks`` covers replicates 0..N-1 with blocks of
at most ``block_lanes(width)`` lanes, and lane r of every block is always
``substream(seed, r)``.  Each lane's draws, its table and block columns and
each sum over its positions depend on that lane alone, so block and
sub-block boundaries bound memory but never change a value:
any sizes give the same results as one block of N lanes and as N scalar
substreams.
"""

from __future__ import annotations

import numpy as np

from .spec import PAIRWISE_BLOCK, block_lanes, chunk_lanes, position_bytes, shuffle_steps

_MASK64 = (1 << 64) - 1
_SPAN = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

# below() accepts 1 <= n < 2**63 so results always fit a signed 64-bit int.
_MAX_BELOW = 1 << 63

# Redraw rounds of a grouped ``drawn`` before it gives up.
_MAX_REDRAW_ROUNDS = 10_000


def mix64(x: int) -> int:
    """splitmix64 finalizer: a 64-bit avalanche bijection."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_C1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_C2) & _MASK64
    x ^= x >> 31
    return x


def _state_words(key: int) -> list[int]:
    return [mix64((key + i * _GOLDEN) & _MASK64) for i in range(1, 5)]


class SeededGenerator:
    """xoshiro256** generator; identical seed means identical sequence."""

    def __init__(self, seed: int = 0):
        self._s = _state_words(seed & _MASK64)

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl64((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl64(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def below(self, n: int) -> int:
        """Uniform integer on [0, n) by rejection sampling (no modulo bias)."""
        if not 1 <= n < _MAX_BELOW:
            raise ValueError(f"below() needs 1 <= n < 2**63, got {n}")
        limit = _SPAN - _SPAN % n
        while True:
            r = self.next_uint64()
            if r < limit:
                return r % n

    def shuffle(self, items) -> list:
        """Return a new uniformly shuffled list (forward Fisher-Yates)."""
        items = list(items)
        return self.sample_without_replacement(items, len(items))

    def sample_without_replacement(self, items, k: int) -> list:
        """First k positions of a partial forward Fisher-Yates shuffle."""
        out = list(items)
        n = len(out)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n} items without replacement")
        for i in range(min(k, n - 1)):
            j = i + self.below(n - i)
            out[i], out[j] = out[j], out[i]
        return out[:k]

    def draw_with_replacement(self, items, k: int) -> list:
        """k independent uniform picks from items (repeats possible)."""
        pool = list(items)
        if not pool:
            raise ValueError("cannot draw from an empty item list")
        if k < 1:
            raise ValueError(f"draw count must be >= 1, got {k}")
        n = len(pool)
        return [pool[self.below(n)] for _ in range(k)]


def position_dtype(n: int) -> type:
    """The signed integer type of ``spec.position_bytes(n)``: int16 up to
    2**15 rows, int32 above (int64 past 2**31)."""
    return np.dtype(f"i{position_bytes(n)}").type


def positions(n: int) -> np.ndarray:
    """The positions 0..n-1 in ``position_dtype(n)``."""
    return np.arange(n, dtype=position_dtype(n))


def draw_table(lanes, ns) -> np.ndarray:
    """The draw-major table of lanes: row d holds ``lanes.below(ns[d])``, one
    draw per lane, in ``position_dtype(max(ns))``."""
    table = np.empty((len(ns), lanes.count), dtype=position_dtype(max(ns, default=1)))
    for row, n in zip(table, ns):
        row[:] = lanes.below(n)
    return table


def shuffle_block(items: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``sample_without_replacement`` on lanes, position-major: column j is
    items after the forward Fisher-Yates steps of column j of ``table`` (step
    i swaps positions i and i + table[i, j]), a ``draw_table`` of
    ``shuffle_steps``, and row i is slot i of every lane.  Step i reads and
    writes row i whole and gathers and scatters only the cells at i + t."""
    count = table.shape[1]
    block = np.repeat(items[:, None], count, axis=1)
    flat = block.reshape(-1)
    cells = np.arange(count)  # the flat indices of row i
    for i, step in enumerate(table):
        far = np.multiply(step, count, dtype=np.intp)
        far += cells
        picked = flat[far]
        flat[far] = block[i]  # cells of rows past i, or row i's own when t = 0
        block[i] = picked
        cells += count
    return block


def lane_sums(values: np.ndarray, block: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """For every lane (column) of a position-major block, +0.0 plus the
    pairwise sum (module docstring) of ``values`` at its positions, times
    ``weights[i]`` at position row i if given; values of shape (m, n) give m
    rows.  Its numpy calls do not depend on the lane count."""
    table = values.reshape(-1, values.shape[-1])
    sums = _pairwise(table, block, weights, 0, len(block))
    sums += 0.0  # a lane of -0.0s sums to +0.0
    return sums.reshape(values.shape[:-1] + (block.shape[1],))


def _pairwise(table: np.ndarray, block: np.ndarray, weights, lo: int, hi: int) -> np.ndarray:
    """The pairwise sum over position rows lo..hi-1, per value row and lane."""
    k = hi - lo
    if k > PAIRWISE_BLOCK:
        mid = lo + k // 2 // 8 * 8
        return _pairwise(table, block, weights, lo, mid) + _pairwise(table, block, weights, mid, hi)
    if k < 8:
        end, total = lo, np.zeros((len(table), block.shape[1]))
    else:
        end = hi - k % 8
        acc = _terms(table, block, weights, slice(lo, lo + 8))  # acc[:, j]: running sum j
        for i in range(lo + 8, end, 8):
            acc += _terms(table, block, weights, slice(i, i + 8))
        r0, r1, r2, r3, r4, r5, r6, r7 = acc.transpose(1, 0, 2)
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, hi):
        total += _terms(table, block, weights, i)
    return total


def _terms(table: np.ndarray, block: np.ndarray, weights, rows) -> np.ndarray:
    """``table`` at the positions ``block[rows]``, times ``weights[rows]``."""
    terms = np.take(table, block[rows], axis=1)
    if weights is not None:
        terms *= weights[rows, None]
    return terms


def shuffled(pos: np.ndarray, k: int, reduce, lanes) -> tuple[np.ndarray, int]:
    """The kernel that permutes: ``reduce(block)`` for every lane, where the
    block is ``shuffle_block(pos, ...)`` after the lanes' min(k, n - 1)
    steps, and no redraws.  Where the steps allow no more distinct sequences
    than lanes, each sequence is reduced once and each lane's index is built
    from its draws one step at a time, with no draw table (module
    docstring).  Blocks are built and reduced for sub-blocks of
    ``chunk_lanes(n)`` columns, each released before the next is built."""
    ns = shuffle_steps(pos.size, k)
    count = _sequence_count(ns, lanes.count)
    if count is None:
        return _reduced(pos, draw_table(lanes, ns), reduce), 0
    every = np.empty((len(ns), count), dtype=position_dtype(pos.size))  # column c: sequence c
    stride, index = count, np.zeros(lanes.count, dtype=np.intp)
    for n, row in zip(ns, every):
        stride //= n
        row[:] = np.arange(count) // stride % n
        index *= n
        index += lanes.below(n)
    return np.take(_reduced(pos, every, reduce), index, axis=-1), 0


def _sequence_count(ns, cap: int) -> int | None:
    """How many draw sequences the ranges ``ns`` allow, their product, or
    None as soon as it passes ``cap``."""
    count = 1
    for n in ns:
        count *= n
        if count > cap:
            return None
    return count


def _reduced(pos: np.ndarray, table: np.ndarray, reduce) -> np.ndarray:
    """``reduce(shuffle_block(pos, table))``, a sub-block of
    ``chunk_lanes(pos.size)`` columns of ``table`` at a time."""
    size = chunk_lanes(pos.size)
    starts = range(0, table.shape[1], size)
    return np.concatenate([reduce(shuffle_block(pos, table[:, s : s + size])) for s in starts], axis=-1)


def drawn(n: int, reduce, grouped: bool, lanes) -> tuple[np.ndarray, int]:
    """The kernel that draws with replacement: ``reduce(block)`` for every
    lane, where the block is the lanes' draw table of n draws of
    ``below(n)``.  ``grouped``, ``reduce`` stacks each lane's value over its
    first-group count, and only the lanes whose count is 0 or n draw again
    (``keep``), each attempt a redraw; otherwise there are none."""

    def attempt():
        return reduce(draw_table(lanes, [n] * n))

    if not grouped:
        return attempt(), 0
    values, c1 = attempt()
    todo = np.arange(lanes.count)  # where the lanes still drawing write
    redraws = 0
    for _ in range(_MAX_REDRAW_ROUNDS + 1):
        lost = (c1 == 0) | (c1 == n)
        if not lost.any():
            return values, redraws
        lanes.keep(np.flatnonzero(lost))
        todo = todo[lost]
        redraws += lanes.count
        values[todo], c1 = attempt()
    raise RuntimeError("grouped bootstrap kept drawing one-group resamples")


def summed(n: int, k: int, pick, lanes) -> tuple[np.ndarray, int]:
    """The kernel that sums as it draws: each lane's float64 sum of
    ``pick(d)`` over its k draws d of ``below(n)``, and no redraws."""
    totals = np.zeros(lanes.count)
    for _ in range(k):
        totals += pick(lanes.below(n))
    return totals, 0


def _rotl64(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def substream_key(seed: int, index: int) -> int:
    """64-bit key for replicate ``index`` of ``seed``; injective per seed."""
    return mix64((mix64(seed) + index) & _MASK64)


def substream(seed: int, index: int) -> SeededGenerator:
    """Independent generator for replicate ``index`` of ``seed``.

    A pure function of (seed, index): unaffected by how many other
    substreams exist or how far they have been consumed.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    return SeededGenerator(substream_key(seed, index))


class SubstreamBlock:
    """Lockstep numpy engine over substreams seed/start .. seed/start+count-1.

    Lane ``i`` of the block produces exactly the sequence of
    ``substream(seed, start + i)``, including rejection redraws, so a block
    and one-replicate-at-a-time execution give identical results.
    The four state words of all lanes live in one ``(4, count)`` array that
    every step updates in place.
    """

    def __init__(self, seed: int, count: int, start: int = 0):
        if count < 1:
            raise ValueError(f"block needs at least one lane, got {count}")
        keys = np.uint64(mix64(seed)) + np.arange(start, start + count, dtype=np.uint64)
        _mix64_inplace(keys)
        self._s = np.empty((4, count), dtype=np.uint64)
        for i, words in enumerate(self._s, start=1):
            np.add(keys, np.uint64((i * _GOLDEN) & _MASK64), out=words)
            _mix64_inplace(words)
        self._t = np.empty(count, dtype=np.uint64)
        self.count = count

    def _step(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """Advance every lane, or only the lanes at positions ``lanes``, once.

        Returns a fresh array of the outputs of the lanes stepped.  Lanes not
        stepped keep their state: a lane's stream position depends only on
        its own draw history.
        """
        if lanes is None:
            return _xoshiro_step(self._s, self._t)
        s = self._s[:, lanes]
        out = _xoshiro_step(s, np.empty(lanes.size, dtype=np.uint64))
        self._s[:, lanes] = s
        return out

    def next_uint64(self) -> np.ndarray:
        """Advance every lane once; returns a uint64 array."""
        return self._step()

    def below(self, n: int) -> np.ndarray:
        """Per-lane uniform integer on [0, n), as an int64 array."""
        if not 1 <= n < _MAX_BELOW:
            raise ValueError(f"below() needs 1 <= n < 2**63, got {n}")
        draws = self._step()
        rem = _SPAN % n
        if rem:
            limit = np.uint64(_SPAN - rem)
            if draws.max() >= limit:
                # Only the rejected lanes draw again, each from its own stream.
                retry = np.flatnonzero(draws >= limit)
                rounds = 0
                while retry.size:
                    rounds += 1
                    if rounds > 128:  # pragma: no cover - P(reject) <= n/2**64 per round
                        raise RuntimeError("rejection sampling failed to terminate")
                    out = self._step(retry)
                    draws[retry] = out
                    retry = retry[out >= limit]
        # draws - (draws // n) * n is draws % n exactly; numpy divides by a
        # scalar about twice as fast as it takes a remainder.
        quotient = np.floor_divide(draws, np.uint64(n), out=self._t)
        quotient *= np.uint64(n)
        draws -= quotient
        # Every value is below n < 2**63, so the int64 view is exact.
        return draws.view(np.int64)

    def keep(self, lanes) -> None:
        """Narrow the block to the lanes at positions ``lanes`` (ascending).

        Lane ``i`` afterwards is the former lane ``lanes[i]`` and continues
        its own stream from where it stood; the other lanes are dropped.
        """
        lanes = np.asarray(lanes, dtype=np.intp)
        if lanes.size < 1:
            raise ValueError("block needs at least one lane, got 0")
        self._s = self._s[:, lanes]
        self._t = self._t[: lanes.size]
        self.count = int(lanes.size)


class ScalarLanes:
    """``SubstreamBlock``'s ``below`` and ``keep`` in pure Python ints: lane
    ``i`` is the generator ``substream(seed, i)``.  The program never runs
    it; the tests run kernels on it as the oracle for ``SubstreamBlock``."""

    def __init__(self, seed: int, count: int):
        self._gens = [substream(seed, i) for i in range(count)]
        self.count = count

    def below(self, n: int) -> np.ndarray:
        return np.array([gen.below(n) for gen in self._gens], dtype=np.int64)

    def keep(self, lanes) -> None:
        self._gens = [self._gens[i] for i in lanes]
        self.count = len(self._gens)


def run_chunks(seed: int, count: int, width: int, kernel) -> tuple[np.ndarray, int]:
    """``kernel(lanes)`` over consecutive blocks of lanes 0..count-1: the
    values written in lane order into one array, and the redraws summed.

    ``width`` is how many values a kernel holds per lane (the row width of
    its matrices).  Each block has ``block_lanes(width)`` lanes, the last
    one fewer, and the output takes the first block's dtype and trailing
    shape.  Lane r always comes from ``substream(seed, r)``, so the block
    size bounds memory but never changes a value.
    """
    size = block_lanes(width)
    redraws = 0
    for start in range(0, count, size):
        values, more = kernel(SubstreamBlock(seed, min(size, count - start), start))
        if not start:
            out = np.empty((count, *values.shape[1:]), dtype=values.dtype)
        out[start : start + len(values)] = values
        redraws += more
    return out, redraws


_U5, _U7, _U9, _U57 = (np.uint64(k) for k in (5, 7, 9, 57))
_U17, _U19, _U45 = (np.uint64(k) for k in (17, 19, 45))


def _xoshiro_step(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One xoshiro256** step of every column of the (4, lanes) state ``s``,
    in place; ``t`` is scratch of one row.  Returns the outputs."""
    s0, s1, s2, s3 = s
    out = np.multiply(s1, _U5)
    np.left_shift(out, _U7, out=t)
    out >>= _U57
    out |= t
    out *= _U9
    np.left_shift(s1, _U17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, _U45, out=t)
    s3 >>= _U19
    s3 |= t
    return out


def _mix64_inplace(x: np.ndarray) -> None:
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_C1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_C2)
    x ^= x >> np.uint64(31)
