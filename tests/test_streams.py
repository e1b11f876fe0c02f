"""Each input's sampling stream and draw against numpy's reference ones.

A run draws input x's count from the generator default_rng((seed, x))
makes, built by `harness._input_streams` with numpy's seed hash
vectorized over the inputs, and stops the multinomial after outcome x.
Both shortcuts rest on numpy internals (SeedSequence's output hash and
the multinomial's outcome-by-outcome draw), so these tests pin them
against the public calls a numpy release could change them under. The
hashed words are cached per (seed, count); every call still builds fresh
generators from them, which the last tests check.
"""

import numpy as np
import pytest

from pbrsim.harness import _count_of, _input_streams, _stream_words

NAMED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 7, 10**30)
_rng = np.random.default_rng(2024)
# 0 to 128 bits: one to four entropy words before x.
RANDOM_SEEDS = tuple(
    int.from_bytes(_rng.bytes(16), "little") >> int(_rng.integers(0, 128)) for _ in range(50)
)


def assert_streams_equal_default_rng(seed, count):
    for x, fast in enumerate(_input_streams(seed, count)):
        ref = np.random.default_rng((seed, x))
        assert fast.bit_generator.state == ref.bit_generator.state, (seed, count, x)
        assert np.array_equal(fast.bit_generator.random_raw(3), ref.bit_generator.random_raw(3))


@pytest.mark.parametrize("seeds", [NAMED_SEEDS, RANDOM_SEEDS], ids=["named", "random"])
def test_input_streams_equal_default_rng(seeds):
    # Every x < 2^12 (n up to the simulation cap) for each seed: the state
    # PCG64 was seeded with and its first draws.
    for seed in seeds:
        assert_streams_equal_default_rng(seed, 2**12)


@pytest.mark.parametrize("n", range(2, 9))
def test_count_drawn_up_to_x_equals_the_full_draw(n):
    # Seeded tables with zero entries, a zero first column and a last row
    # with one nonzero entry; the last input's draw is the whole row.
    rng = np.random.default_rng(300 + n)
    table = rng.dirichlet(np.full(2**n, 0.3), size=2**n)
    table[rng.random(table.shape) < 0.25] = 0.0
    table[:, 0] = 0.0
    table[-1, :-1] = 0.0
    table[:, -1] += 0.01
    table /= table.sum(axis=1, keepdims=True)
    for shots in (1, 2000, 10**12, 2**63 - 1):
        seed = int(rng.integers(0, 2**63))
        for x, p in enumerate(table):
            full = np.random.default_rng((seed, x)).multinomial(shots, p)
            assert _count_of(x, np.random.default_rng((seed, x)), shots, p) == full[x], (shots, x)


def test_stream_words_are_cached_per_seed_and_count():
    # 60 distinct (seed, count) keys against a 16-entry cache, called in
    # order, in reverse and interleaved: hits, misses and evictions each give
    # default_rng's streams, and the cache stays at its bound.
    keys = [(seed, count) for seed in (*NAMED_SEEDS, *RANDOM_SEEDS[:13]) for count in (1, 4, 32)]
    _stream_words.cache_clear()
    for seed, count in keys + keys[::-1] + keys[::3] + keys[1::3]:
        assert_streams_equal_default_rng(seed, count)
        assert _stream_words.cache_info().currsize <= 16
    # The same seed at two counts: two entries, each its own streams.
    _stream_words.cache_clear()
    for count in (4, 8, 4, 8):
        assert_streams_equal_default_rng(5, count)
    info = _stream_words.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (2, 2, 16)


def test_cached_stream_words_are_read_only_and_bounded():
    words = _stream_words(7, 4)
    assert words.shape == (4, 4) and words.dtype == np.uint64
    with pytest.raises(ValueError):
        words[0, 0] = 1
    assert _stream_words(7, 4) is words
    # The largest entry, 2^12 inputs (n at the simulation cap), is 128 KB.
    assert _stream_words(7, 2**12).nbytes == 128 * 1024


def test_drawing_leaves_the_next_calls_streams_untouched():
    first = list(_input_streams(2**40 + 3, 8))
    for rng in first:
        rng.random(1000)
        rng.multinomial(10**6, [0.2, 0.3, 0.5])
        rng.bit_generator.advance(12345)
    assert_streams_equal_default_rng(2**40 + 3, 8)
    # Each call's generators are new objects, not the first call's.
    again = list(_input_streams(2**40 + 3, 8))
    assert all(a is not b for a, b in zip(first, again))
