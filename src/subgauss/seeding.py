"""Deterministic seed derivation for independent Monte Carlo trials.

Trial t of a run with master seed m draws from
``np.random.default_rng(mix_seed(m, t))``.  `trial_rngs` builds those
Generators for a whole range of trials at once: it evaluates splitmix64
and numpy's SeedSequence hashing over arrays and hands each resulting PCG64
state to numpy, so the streams are the same ones, bit for bit.
`chunk_bounds` fixes which trials are seeded and drawn together.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["mix_seed", "trial_rngs"]

# Floats generated per chunk of trials (2 MB); fixed so the chunk layout (and
# therefore every aggregate over chunks) is independent of thread count.
_CHUNK_TARGET = 1 << 18
_MAX_CHUNK_TRIALS = 4096

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy.random.SeedSequence constants (pool of 4 uint32 words).
_MASK32 = (1 << 32) - 1
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def mix_seed(master: int, index: int) -> int:
    """Derive the seed of trial `index` from a 64-bit master seed.

    Applies the splitmix64 finalizer to ``master + (index + 1) * golden``
    (golden = 2^64/phi rounded to odd).  For each fixed index the map is a
    bijection on 64-bit integers, so distinct trials get distinct,
    well-scrambled streams, and the value depends only on (master, index),
    never on execution order or thread count.
    """
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_seeds(master: int, start: int, stop: int) -> np.ndarray:
    """mix_seed(master, t) for t in range(start, stop), as uint64."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(master & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _hash_consts(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) pairs of SeedSequence's evolving hash constant.

    The constant advances by a fixed multiplication at every use, whatever
    the data, so its sequence is the same for every seed.
    """
    out = []
    for _ in range(count):
        nxt = (init * mult) & _MASK32
        out.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return out


# mix_entropy uses the A constant 4 times to load the pool and
# 4 * 3 times to cross-mix it; generate_state(4, uint64) uses 8 B constants.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_SHIFT = np.uint32(16)


def _hashmix(value: np.ndarray, const: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = value ^ const[0]
    value *= const[1]
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x
    out -= np.uint32(_MIX_MULT_R) * y
    out ^= out >> _SHIFT
    return out


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s.

    SeedSequence splits an integer seed into little-endian uint32 words and
    pads the pool with zeros, so a seed below 2^32 (one word) hashes exactly
    like the two-word form with a zero high word.
    """
    hash_a = iter(_HASH_A)
    words = [
        (seeds & np.uint64(_MASK32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
    ]
    words += [np.zeros_like(words[0])] * (_POOL - len(words))
    pool = [_hashmix(w, next(hash_a)) for w in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hash_a)))
    state = np.empty((seeds.size, 2 * _POOL), dtype=np.uint32)
    for i, const in enumerate(_HASH_B):
        state[:, i] = _hashmix(pool[i % _POOL], const)
    # Consecutive uint32 words pair into uint64 words, low word first.
    return (state[:, 1::2].astype(np.uint64) << np.uint64(32)) | state[:, 0::2]


class _FixedState(ISeedSequence):
    """Hands PCG64 one precomputed generate_state(4, np.uint64) result."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self._words.size or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed state serves PCG64 seeding only")
        return self._words


def trial_rngs(master: int, start: int, stop: int):
    """Yield, lazily, the Generator of each trial t in range(start, stop).

    Each stream equals ``np.random.default_rng(mix_seed(master, t))``; the
    seeds and PCG64 states of the whole range are computed as arrays, and
    numpy's own PCG64 takes each state.  master is reduced mod 2^64 like
    mix_seed does.
    """
    states = _pcg64_states(_mix_seeds(master, start, stop))
    for words in states:
        yield np.random.Generator(np.random.PCG64(_FixedState(words)))


def chunk_bounds(trials: int, n: int) -> list[tuple[int, int]]:
    """(first, stop) trial ranges of the chunks of about _CHUNK_TARGET values.

    Each chunk holds at most max(n, _CHUNK_TARGET) values and
    _MAX_CHUNK_TRIALS rows.  This is the one working-set policy of the
    bulk draws: a chunk plus one scratch of its size fits one core's L2;
    kernels allocate scratch the size of their input.
    """
    step = max(1, min(_MAX_CHUNK_TRIALS, _CHUNK_TARGET // n))
    return [(t0, min(t0 + step, trials)) for t0 in range(0, trials, step)]
