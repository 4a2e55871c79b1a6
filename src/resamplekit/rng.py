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

* ``random()`` -- ``(next_uint64() >> 11) * 2**-53``, uniform on [0, 1).
* ``below(n)`` -- rejection sampling: draw ``r`` until
  ``r < 2**64 - (2**64 mod n)``, then return ``r mod n``.  No modulo bias;
  every call consumes at least one draw.
* ``shuffle`` -- forward Fisher-Yates: for i = 0..len-2 swap position i with
  position ``i + below(len - i)``.
* sampling without replacement -- the first k positions after k forward
  Fisher-Yates steps.

Replicated experiments take replicate r's randomness from
``substream(seed, r)`` so results never depend on execution order or thread
scheduling.  Each draw kernel is written once, against lanes with a
``count``, ``below(n)`` (one draw per lane, an int64 array) and
``keep(lanes)`` (narrow to some lanes, each continuing its own stream).
``run_chunks`` runs a kernel on ``SubstreamBlock``s, which step the lanes in
numpy uint64 lockstep, in bounded chunks.  ``ScalarLanes`` steps one
Python-int ``substream(seed, r)`` per lane; the tests run a kernel once,
unchunked, on ``ScalarLanes(seed, N)`` as the oracle for the uint64
lockstep, rejection, ``keep`` and chunking.  The draw plans themselves are
checked against ``SeededGenerator``'s own methods in the tests, and against
``bench/refgen.py`` outside the program.

Chunking invariant: ``run_chunks`` covers replicates 0..N-1 with blocks of
at most ``chunk_lanes(width)`` lanes, and lane r of every chunk is always
``substream(seed, r)``.  Chunk boundaries therefore bound memory but never
change a value: any chunk size gives the same results as one block of N
lanes and as N scalar substreams.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_SPAN = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

# below() accepts 1 <= n < 2**63 so results always fit a signed 64-bit int.
_MAX_BELOW = 1 << 63

# Chunk size of run_chunks (see chunk_lanes): about CHUNK_ELEMENTS values per
# chunk, so a kernel's matrices stay in cache and memory stays bounded by the
# chunk rather than by replicates x row width.
CHUNK_ELEMENTS = 1 << 18
CHUNK_FLOOR = 1 << 10


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
        self.seed = seed
        self.stream_index: int | None = None
        self._s = _state_words(seed & _MASK64)

    @classmethod
    def _from_key(cls, key: int, seed: int, index: int) -> "SeededGenerator":
        gen = cls.__new__(cls)
        gen.seed = seed
        gen.stream_index = index
        gen._s = _state_words(key)
        return gen

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

    def random(self) -> float:
        """Uniform float on [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

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
        out = list(items)
        n = len(out)
        for i in range(n - 1):
            j = i + self.below(n - i)
            out[i], out[j] = out[j], out[i]
        return out

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
    return SeededGenerator._from_key(substream_key(seed, index), seed, index)


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


def run_chunks(seed: int, count: int, width: int, kernel) -> np.ndarray:
    """``kernel(lanes)`` over consecutive blocks of lanes 0..count-1, concatenated.

    ``width`` is how many values a kernel holds per lane (the row width of
    its matrices); each block has ``chunk_lanes(width)`` lanes, the last one
    fewer.  Lane r of the result always comes from ``substream(seed, r)``, so
    the chunk size bounds memory but never changes a value.
    """
    lanes = chunk_lanes(width)
    return np.concatenate(
        [
            kernel(SubstreamBlock(seed, min(lanes, count - start), start))
            for start in range(0, count, lanes)
        ]
    )


def chunk_lanes(width: int) -> int:
    """Lanes per chunk for rows of ``width`` values: CHUNK_ELEMENTS // width,
    but at least CHUNK_FLOOR so numpy's per-call cost is spread over enough
    lanes."""
    return max(CHUNK_FLOOR, CHUNK_ELEMENTS // max(width, 1))


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
