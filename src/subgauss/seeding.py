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
_UINT64 = np.dtype(np.uint64)  # native byte order
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
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


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


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """Xor words (row 0) and multipliers (row 1), as uint32, of SeedSequence's
    hash constant at its first `count` uses.  It advances by a fixed product
    at every use, whatever the data, so the sequence is the same for every seed."""
    seq = [init]
    for _ in range(count):
        seq.append((seq[-1] * mult) & _MASK32)
    return np.array([seq[:-1], seq[1:]], dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on a fresh array; consts[0] and consts[1] broadcast."""
    value = value ^ consts[0]
    value *= consts[1]
    value ^= value >> _SHIFT
    return value


# mix_entropy uses A 4 times to load the pool and 4 * 3 times to cross-mix it
# (as columns); generate_state(4, uint64) uses B 8 times, as [word j][low, high].
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))[:, :, None]
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL).reshape(2, _POOL, 2)
# Loading hashes the seed's two words with A_0 and A_1, and the zero padding
# with A_2 and A_3, so pool words 2 and 3 start as constants.
_PAD = _hashmix(np.zeros((2, 1), dtype=np.uint32), _HASH_A[:, 2:4])
# Round src hashes word src with the next A constant for each other word in
# turn; it updates all four words and restores word src (a filler constant).
_ROUNDS = [np.insert(_HASH_A[:, 4 + 3 * src : 7 + 3 * src], src, 0, axis=1) for src in range(_POOL)]


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s.

    Each hashing step is one operation on the (4, T) uint32 pool; the result
    is C-contiguous (T, 4).  SeedSequence pads its pool with zeros, so a seed
    below 2^32 (one uint32 word) hashes like two words with a zero high word.
    """
    t = seeds.size
    pool = np.empty((_POOL, t), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool[:2] = _hashmix(pool[:2], _HASH_A[:, :2])
    pool[2:] = _PAD
    for src, consts in enumerate(_ROUNDS):
        # mix(pool[dst], hashmix(pool[src])) for every dst != src at once
        hashed = _hashmix(pool[src], consts)
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    # uint32 word i hashes pool word i % 4 with B_i; as [t][j][low, high]
    # the pool words are (0, 1), (2, 3), (0, 1), (2, 3).
    words = _hashmix(np.tile(pool.T.reshape(t, 2, 2), (1, 2, 1)), _HASH_B)
    states = np.empty((t, _POOL), dtype=np.uint64)
    states[...] = words[..., 1]
    states <<= np.uint64(32)
    states |= words[..., 0]
    return states


class _FixedState(ISeedSequence):
    """Hands PCG64 one precomputed generate_state(4, np.uint64) result."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        words = self._words
        # PCG64 passes the type np.uint64: test it by identity before building a dtype.
        if n_words != words.size or (dtype is not np.uint64 and np.dtype(dtype) != _UINT64):
            raise ValueError("a precomputed state serves PCG64 seeding only")
        # PCG64 reads the words by raw pointer: a strided view seeds another stream.
        if words.dtype != _UINT64 or not words.flags.c_contiguous:
            raise ValueError("a precomputed state must be C-contiguous native uint64 words")
        return words


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

    Each chunk holds at most max(n, _CHUNK_TARGET) values (2 MiB of float64
    when n <= 2^18) and _MAX_CHUNK_TRIALS rows.  This is the one working-set
    policy of the bulk draws: the harness, `adversarial.infvar_stress` and
    `distributions.regularity_probe` (a chunk of j-sums) walk these ranges.
    A kernel's scratch holds at most the larger of its input and
    _CHUNK_TARGET values, so a chunk and a scratch take 4 MiB.
    """
    step = max(1, min(_MAX_CHUNK_TRIALS, _CHUNK_TARGET // n))
    return [(t0, min(t0 + step, trials)) for t0 in range(0, trials, step)]
