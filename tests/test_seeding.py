import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import mix_seed
from subgauss import seeding
from subgauss.seeding import _FixedState, _mix_seeds, _pcg64_states, chunk_bounds, trial_rngs


def test_known_values_frozen():
    # regression guard: these outputs must never change, or every stored
    # benchmark report becomes irreproducible
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(0, 1) == 7960286522194355700
    assert mix_seed(12345, 7) == 7959005890829367068


def test_pcg64_state_words_frozen():
    # The PCG64 state numpy's SeedSequence derives from a seed, for a
    # two-word and a one-word seed.  If numpy changes this hashing, every
    # trial stream changes and the bulk seeding must be revisited.
    frozen = {
        16294208416658607535: (
            0x2E53425A983968D9, 0xDD45014D6EE0EAB8, 0x468023E987B89EA8, 0x88F011A813216CA9
        ),
        7: (0xEAD0F7017C326E58, 0x0879C4F0F97E037A, 0x623A8C4B6745675F, 0xB3443FAD60386CAC),
    }
    for seed, words in frozen.items():
        assert tuple(np.random.SeedSequence(seed).generate_state(4, np.uint64)) == words
        bulk = _pcg64_states(np.array([seed], dtype=np.uint64))
        assert tuple(int(w) for w in bulk[0]) == words


@settings(deadline=None, max_examples=60)
@given(
    master=st.integers(-(2**64), 2**70),
    start=st.one_of(st.integers(0, 2**12), st.integers(2**32 - 8, 2**32 + 8)),
    count=st.integers(0, 12),
)
def test_trial_rngs_match_default_rng(master, start, count):
    stop = start + count
    seeds = _mix_seeds(master, start, stop)
    assert [int(s) for s in seeds] == [mix_seed(master, t) for t in range(start, stop)]
    got = list(trial_rngs(master, start, stop))
    assert len(got) == count
    for t, rng in zip(range(start, stop), got):
        ref = np.random.default_rng(mix_seed(master, t))
        assert np.array_equal(rng.random(3), ref.random(3))
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
        assert np.array_equal(rng.integers(0, 2**63, 2), ref.integers(0, 2**63, 2))


def seed_sequence_states(seeds) -> np.ndarray:
    """The (T, 4) uint64 PCG64 states numpy's own SeedSequence derives."""
    rows = [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), 4)


def assert_states_match(seeds):
    got = _pcg64_states(seeds)
    assert got.shape == (seeds.size, 4) and got.dtype == np.uint64
    assert got.flags.c_contiguous  # each row goes to PCG64 by raw pointer
    assert np.array_equal(got, seed_sequence_states(seeds))


@pytest.mark.parametrize("count", [0, 1, 2, 20, 4097])
def test_pcg64_states_match_seed_sequence(count):
    # 20 is one stress-test call, 4097 one past the largest chunk.
    assert_states_match(_mix_seeds(2024, 5, 5 + count))


def test_pcg64_states_at_word_boundaries():
    # One-word and two-word seeds, and the extremes of each word.
    edges = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    assert_states_match(np.array(edges, dtype=np.uint64))
    assert_states_match(np.array(edges[::-1] * 3, dtype=np.uint64))


def test_empty_trial_range_yields_nothing():
    for master, t in ((0, 0), (7, 12), (2**64 - 1, 2**32)):
        assert list(trial_rngs(master, t, t)) == []


def test_fixed_state_rejects_strided_words():
    # PCG64 reads the state through its raw data pointer: a strided view of
    # the right four words would seed another stream without any error.
    states = _pcg64_states(_mix_seeds(11, 0, 3))
    ref = np.random.default_rng(mix_seed(11, 0)).random(4)
    views = [np.asfortranarray(states)[0], np.repeat(states[0], 2)[::2], states.T.copy().T[0]]
    for words in views:
        assert np.array_equal(words, states[0]) and not words.flags.c_contiguous
        try:
            rng = np.random.Generator(np.random.PCG64(_FixedState(words)))
        except ValueError as exc:
            assert "C-contiguous" in str(exc)
        else:
            assert np.array_equal(rng.random(4), ref)
    swapped = states[0].astype(states.dtype.newbyteorder())
    with pytest.raises(ValueError, match="C-contiguous"):
        np.random.PCG64(_FixedState(swapped))
    contiguous = np.random.Generator(np.random.PCG64(_FixedState(states[0])))
    assert np.array_equal(contiguous.random(4), ref)


def test_trial_rngs_is_lazy():
    rngs = trial_rngs(3, 0, 4096)
    assert iter(rngs) is rngs
    first = next(rngs)
    assert np.array_equal(first.random(4), np.random.default_rng(mix_seed(3, 0)).random(4))


def test_output_is_64_bit():
    for master in (0, 1, 2**63, 2**64 - 1):
        for idx in (0, 1, 999, 2**32):
            v = mix_seed(master, idx)
            assert isinstance(v, int)
            assert 0 <= v < 2**64


def test_master_wraps_modulo_2_64():
    assert mix_seed(2**64 - 1, 3) == mix_seed(2 * 2**64 - 1, 3)


def test_distinct_indices_give_distinct_streams():
    seeds = [mix_seed(42, i) for i in range(10_000)]
    assert len(set(seeds)) == len(seeds)


def test_distinct_masters_give_distinct_seeds():
    seeds = [mix_seed(m, 0) for m in range(10_000)]
    assert len(set(seeds)) == len(seeds)


def test_no_hidden_state():
    a = mix_seed(7, 3)
    mix_seed(7, 4)
    mix_seed(123, 456)
    assert mix_seed(7, 3) == a


def test_low_bit_balance():
    # splitmix64 finalizer should leave no obvious bias in the low bit
    bits = np.array([mix_seed(99, i) & 1 for i in range(4096)])
    assert 0.45 < bits.mean() < 0.55


@pytest.mark.parametrize("n", [1, 17, 256, 16384, 2**19])
def test_chunk_bounds_cover_every_trial_once(n):
    cap = seeding._MAX_CHUNK_TRIALS
    for trials in (1, 5, cap - 1, cap, cap + 1, 3 * cap + 7):
        bounds = chunk_bounds(trials, n)
        assert bounds[0][0] == 0 and bounds[-1][1] == trials
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start  # contiguous, each trial once
        for t0, t1 in bounds:
            assert 0 < t1 - t0 <= cap
            assert (t1 - t0) * n <= max(n, seeding._CHUNK_TARGET)
