"""Reference generator: the documented recurrences and draw plans in plain ints.

This module re-derives replicate values from (seed, replicate index) without
importing any code of the program, following only what is written in the
docstrings of ``resamplekit.rng``, ``resamplekit.resampling`` and
``resamplekit.simulate``:

* splitmix64 finalizer ``mix64`` and the xoshiro256** step;
* state words ``s[i] = mix64(key + (i + 1) * golden)`` with the substream key
  ``mix64(mix64(seed) + index)``;
* ``below(n)`` by rejection: draw r until r < 2**64 - (2**64 mod n), return
  r mod n;
* draw plans: prefix forward Fisher-Yates (shuffle tests, polls without
  replacement), n index draws per bootstrap replicate, whole-replicate redraws
  from the same substream while a grouped resample misses a group, k index
  draws per poll with replacement, and ``below(den) < num`` per Bernoulli
  trial.

Everything here is slow (about a microsecond per draw) and only ever runs on
a handful of replicates per operation.
"""

from __future__ import annotations

import math

MASK = (1 << 64) - 1
SPAN = 1 << 64
GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    x &= MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK


class Stream:
    """xoshiro256** on the substream of replicate ``index`` of ``seed``."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int, index: int):
        key = mix64((mix64(seed) + index) & MASK)
        self.s0, self.s1, self.s2, self.s3 = (
            mix64((key + i * GOLDEN) & MASK) for i in (1, 2, 3, 4)
        )

    def next(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        out = (_rotl((s1 * 5) & MASK, 7) * 9) & MASK
        t = (s1 << 17) & MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, _rotl(s3, 45)
        return out

    def below(self, n: int) -> int:
        limit = SPAN - SPAN % n
        while True:
            r = self.next()
            if r < limit:
                return r % n


def prefix_shuffle(values, k: int, stream: Stream) -> list:
    """The value list after min(k, n - 1) forward Fisher-Yates steps."""
    row = list(values)
    n = len(row)
    for i in range(min(k, n - 1)):
        j = i + stream.below(n - i)
        row[i], row[j] = row[j], row[i]
    return row


def mean_diff(row, n1: int) -> float:
    return math.fsum(row[:n1]) / n1 - math.fsum(row[n1:]) / (len(row) - n1)


def pearson(xs, ys) -> float:
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def shuffle_replicate(values, n1: int, seed: int, r: int) -> float:
    """Replicate r of a two-group shuffle test (first n1 positions = group 1)."""
    return mean_diff(prefix_shuffle(values, n1, Stream(seed, r)), n1)


def paired_replicate(xs, ys, seed: int, r: int) -> float:
    """Replicate r of the paired shuffle test: y fully shuffled against x."""
    return pearson(xs, prefix_shuffle(ys, len(ys) - 1, Stream(seed, r)))


def bootstrap_replicate(values, seed: int, r: int) -> float:
    """Replicate r of the bootstrap mean: n draws of below(n)."""
    st = Stream(seed, r)
    n = len(values)
    return math.fsum(values[st.below(n)] for _ in range(n)) / n


def grouped_bootstrap_replicate(values, in_g1, seed: int, r: int) -> float:
    """Replicate r of the grouped bootstrap, redrawn until both groups appear."""
    st = Stream(seed, r)
    n = len(values)
    while True:
        idx = [st.below(n) for _ in range(n)]
        g1 = [values[i] for i in idx if in_g1[i]]
        if 0 < len(g1) < n:
            g2 = [values[i] for i in idx if not in_g1[i]]
            return math.fsum(g1) / len(g1) - math.fsum(g2) / len(g2)


def poll_replicate(entries, k: int, replace: bool, seed: int, r: int) -> float:
    """Sample proportion of poll r (k picks, with or without replacement)."""
    st = Stream(seed, r)
    if replace:
        n = len(entries)
        return sum(entries[st.below(n)] for _ in range(k)) / k
    return sum(prefix_shuffle(entries, k, st)[:k]) / k


def bernoulli_successes(trials: int, num: int, den: int, seed: int, r: int) -> int:
    st = Stream(seed, r)
    return sum(st.below(den) < num for _ in range(trials))


def sample_indices(n_replicates: int, rng, spread: int = 4) -> list[int]:
    """First, last and ``spread`` seeded replicate indices across [0, N)."""
    picks = {0, n_replicates - 1}
    picks.update(rng.randrange(n_replicates) for _ in range(spread))
    return sorted(picks)
