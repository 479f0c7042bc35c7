import warnings

import numpy as np
import pytest

from blockpivot import InvalidInputError
from blockpivot.rng import Xoshiro256pp, derive_seed, splitmix64_stream

MASK = (1 << 64) - 1


def _naive_splitmix(seed):
    """Independent transcription of the seed-stream step."""
    state = seed & MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        yield z ^ (z >> 31)


def _naive_xoshiro(seed):
    """Independent transcription of the output scrambler and step."""
    sm = _naive_splitmix(seed)
    s = [next(sm) for _ in range(4)]
    if all(w == 0 for w in s):
        s[0] = 1

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    while True:
        result = (rotl((s[0] + s[3]) & MASK, 23) + s[0]) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        yield result


@pytest.mark.parametrize("seed", [0, 1, 42, 123456789, (1 << 64) - 1])
def test_next_uint64_matches_naive_oracle(seed):
    rng = Xoshiro256pp(seed)
    oracle = _naive_xoshiro(seed)
    for _ in range(200):
        assert rng.next_uint64() == next(oracle)


def test_splitmix_stream_matches_naive_oracle():
    oracle = _naive_splitmix(987654321)
    stream = splitmix64_stream(987654321, 50)
    assert list(stream) == [next(oracle) for _ in range(50)]
    # a numpy-integer seed is the same seed, mixed in Python integers, not
    # in uint64 arithmetic that wraps with overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert splitmix64_stream(np.uint64(987654321), 50) == stream


def test_derive_seed_indexes_the_stream():
    stream = splitmix64_stream(13, 6)
    for i in range(6):
        assert derive_seed(13, i) == stream[i]


def test_uniform_draw_discipline_matches_raw_stream():
    # value = lo + (r >> 11) * 2^-53 * (hi - lo), one raw draw per value
    rng = Xoshiro256pp(5)
    oracle = _naive_xoshiro(5)
    raw = [next(oracle) for _ in range(32)]
    got = Xoshiro256pp(5).uniform(32, -3.0, 5.0)
    expected = [-3.0 + ((r >> 11) * 2.0**-53) * 8.0 for r in raw]
    assert np.array_equal(got, np.array(expected))
    assert rng.uniform(32, -3.0, 5.0).tolist() == got.tolist()


def test_bulk_and_single_draws_share_one_stream():
    a = Xoshiro256pp(90210)
    b = Xoshiro256pp(90210)
    chunks = np.concatenate([a.uniform(7), a.uniform(5), a.uniform(4)])
    whole = b.uniform(16)
    assert np.array_equal(chunks, whole)
    assert a.state == b.state


def test_uniform_ranges_and_validation():
    rng = Xoshiro256pp(11)
    vals = rng.uniform(1000, 2.0, 3.0)
    assert np.all(vals >= 2.0) and np.all(vals < 3.0)
    sym = rng.uniform_sym(1000, 0.5)
    assert np.all(np.abs(sym) <= 0.5)
    with pytest.raises(InvalidInputError):
        rng.uniform(-1)
    with pytest.raises(InvalidInputError):
        Xoshiro256pp(-1)
    with pytest.raises(InvalidInputError):
        Xoshiro256pp(1 << 64)
    with pytest.raises(InvalidInputError):
        Xoshiro256pp(1.5)


def test_randint():
    rng = Xoshiro256pp(21)
    draws = [rng.randint(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7  # all residues show up over 500 draws
    assert Xoshiro256pp(21).randint(1) == 0
    with pytest.raises(InvalidInputError):
        rng.randint(0)


def test_determinism_and_state_round_trip():
    a = Xoshiro256pp(314159)
    b = Xoshiro256pp(314159)
    assert a.state == b.state
    assert np.array_equal(a.uniform(64), b.uniform(64))
    assert a.state == b.state
    assert all(isinstance(w, int) for w in a.state)


def test_splitmix_stream_validation():
    with pytest.raises(InvalidInputError):
        splitmix64_stream(1, -1)
    assert splitmix64_stream(1, 0) == []


def test_raw_integer_and_uniform_draws_interleave_on_one_stream():
    rng = Xoshiro256pp(2718281828)
    oracle = _naive_xoshiro(2718281828)
    for k in range(90):
        if k % 3 == 0:
            assert rng.next_uint64() == next(oracle)
        elif k % 3 == 1:
            assert rng.randint(1 + k) == next(oracle) % (1 + k)
        else:
            count = k % 5
            raw = [next(oracle) for _ in range(count)]
            expected = [-1.5 + ((r >> 11) * 2.0**-53) * 4.0 for r in raw]
            assert rng.uniform(count, -1.5, 2.5).tolist() == expected
