"""The trial generators of the sampler, seeded as SeedSequence([seed, i])
seeds them, with the states of many trials computed in one array pass.

numpy's SeedSequence (O'Neill's entropy-pool seeding for PCG) hashes its
entropy words into a pool of four, mixes each pool word into the other
three, hashes in the words past the fourth and then hashes the pool, twice
round, into eight output words.  Its hash constants do not depend on the
entropy, only on how many words it has, so `seed_states` runs each step as
one uint32 array operation over a range of trial indices; the arrays wrap as
the C code's uint32 arithmetic does.  `TrialSeed` hands one row to PCG64 in
place of the SeedSequence.  The sampler imports this module, and with it
numpy, only once its letter guard has passed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants as Python ints below 2**32, so that only the
# arrays wrap: (initial value, multiplier) of the hash of the entropy into
# the pool and of the pool into the state, and the two factors of its mix
HASH_A = (0x43B0D7E5, 0x931E8875)
HASH_B = (0x8B51F9DD, 0x58F38DED)
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
M32 = 0xFFFF_FFFF


def uint32_words(value: int) -> list[int]:
    """value's 32-bit words, lowest first, as SeedSequence splits an entropy
    integer (one word for 0)."""
    words = [value & M32]
    while value := value >> 32:
        words.append(value & M32)
    return words


def constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` hash constants init * mult**k, as a column."""
    h = [init]
    for _ in range(count - 1):
        h.append(h[-1] * mult & M32)
    return np.array(h, dtype=np.uint32)[:, None]


def hashmix(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One hash per row of h[:-1], x broadcast against it."""
    x = (x ^ h[:-1]) * h[1:]
    return x ^ (x >> 16)


def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * MIX_L - y * MIX_R
    return x ^ (x >> 16)


def seed_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """Row i - lo is SeedSequence([seed, i]).generate_state(4, np.uint64),
    for lo <= i < hi <= 2**64, all rows computed together.  Where i passes
    2**32 it takes a second entropy word, so the range is split there."""
    head = uint32_words(int(seed))
    parts = []
    while lo < hi:
        width = len(uint32_words(lo))  # words of i, the same up to `top`
        top = min(hi, 2 ** (32 * width))
        size = len(head) + width
        entropy = np.zeros((max(size, 4), top - lo), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        i = np.arange(lo, top, dtype=np.uint64)
        for k in range(width):
            entropy[len(head) + k] = i >> (32 * k)  # the cast keeps the low word
        h = constants(*HASH_A, 17 + 4 * max(size - 4, 0))
        pool = hashmix(entropy[:4], h[:5])
        c = 4
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            pool[dst] = mix(pool[dst], hashmix(pool[src], h[c : c + 4]))
            c += 3
        for word in entropy[4:size]:
            pool = mix(pool, hashmix(word, h[c : c + 5]))
            c += 4
        state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], constants(*HASH_B, 9))
        # pairs of words as little-endian uint64, as generate_state reads them
        parts.append(state.T.astype("<u4", order="C").view("<u8").astype(np.uint64))
        lo = top
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class TrialSeed:
    """Seeds one trial's PCG64 with a row of `seed_states`: the state
    SeedSequence([seed, i]) would give it.  Any other request than PCG64's
    generate_state(4, np.uint64) is refused, so that a numpy which seeded
    PCG64 differently fails instead of changing every stream."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=None):
        if n_words != 4 or self.state.dtype != dtype:
            raise NotImplementedError(
                "a trial seed gives generate_state(4, numpy.uint64) only, "
                f"not generate_state({n_words!r}, {dtype!r})")
        return self.state


ISeedSequence.register(TrialSeed)  # so that PCG64 takes it as a seed sequence


def generators(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The generators of trials lo..hi-1.  The states are computed for 1024
    trials at a time, also where the sampler's batches are smaller, as the
    pass costs about as much for one trial as for a few hundred."""
    for a in range(lo, hi, 1024):
        for state in seed_states(seed, a, min(a + 1024, hi)):
            yield np.random.Generator(np.random.PCG64(TrialSeed(state)))
