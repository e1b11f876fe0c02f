"""Each input's sampling stream and draw against numpy's reference ones.

A run draws input x's count as default_rng((seed, x)).multinomial(shots,
p)[x] gives it, stopping the multinomial after outcome x. The PCG64
state words of every input's stream come from `harness._stream_words`,
which runs numpy's SeedSequence pool mixing and output hash over all
inputs at once. A run of at most 4 inputs and fewer than 2^31 shots then
draws in pure Python (`harness._pure_count`: numpy's PCG64, binomial and
multinomial samplers, copied); a larger one builds numpy's Generator from
the words (`harness._input_streams`). All of this rests on numpy
internals, so these tests pin it against the public calls a numpy
release could change it under. The hashed words are cached per (seed,
count); every call still builds fresh generators from them, which the
stream-cache tests check.
"""

import math

import numpy as np
import pytest

import pbrsim.harness
from pbrsim.config import PURE_DRAW_MAX_INPUTS, PURE_DRAW_NUMPY, PURE_DRAW_SHOT_LIMIT
from pbrsim.harness import (
    _PCG_MULT,
    _PURE_DRAW,
    _binomial,
    _count_of,
    _counts,
    _input_streams,
    _pure_count,
    _pure_draw_checked,
    _PurePCG64,
    _seed_pools,
    _stream_words,
)

NAMED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 7, 10**30)
# The pure samplers match numpy from the release they were checked against
# on; under an older numpy no run draws with them, so there is nothing of
# theirs to hold against it.
pure_draw_only = pytest.mark.skipif(
    not _PURE_DRAW, reason=f"numpy {np.__version__} predates {PURE_DRAW_NUMPY}; runs use its Generator"
)
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


def test_seed_pools_equal_seedsequence_pools():
    # Entropy of 1 to 7 words: short of the 4-word pool, filling it, and
    # past it, where each extra word mixes into the whole pool.
    rng = np.random.default_rng(1938)
    for length in range(1, 8):
        entropy = rng.integers(0, 2**32, size=(64, length), dtype=np.uint32)
        entropy[0] = 0
        entropy[1] = 2**32 - 1
        pools = _seed_pools(entropy)
        for e, pool in zip(entropy, pools):
            assert np.array_equal(pool, np.random.SeedSequence(e).pool), (length, e)


def _words(seed, x):
    return np.random.SeedSequence((seed, x)).generate_state(4, np.uint64).tolist()


def test_pure_pcg64_doubles_equal_generator_random():
    for seed in (*NAMED_SEEDS, *RANDOM_SEEDS[:5]):
        for x in range(4):
            ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, x))))
            rng = _PurePCG64(_words(seed, x))
            assert [rng.next_double() for _ in range(1000)] == ref.random(1000).tolist(), (seed, x)


def _reaches_ratio_above_one(row, x):
    # The draw's own running ratio p_j / remaining, up to the outcome it
    # stops after or the first ratio of at least 1, which takes every shot.
    remaining = 1.0
    for p in row[: min(x + 2, len(row)) - 1]:
        if p / remaining >= 1.0:
            return p / remaining > 1.0
        remaining -= p
    return False


@pure_draw_only
def test_pure_count_equals_numpy_multinomial():
    # 20,480 seeded 4-outcome draws: rows with zeros and 1e-17 entries,
    # seeds up to 2^130, shots from 1 to the limit, spread log-uniformly
    # so inversion (mean up to 30) and BTPE both run.
    rng = np.random.default_rng(2038)
    above_one = btpe = 0
    for case in range(20_480):
        row = rng.dirichlet(np.full(4, (0.1, 0.5, 2.0)[case % 3]))
        u = rng.random(4)
        row[u < 0.2] = 0.0
        row[(u >= 0.2) & (u < 0.35)] = 1e-17
        row[0] += row.sum() == 0
        row /= row.sum()
        seed = int.from_bytes(rng.bytes(17), "little") >> int(rng.integers(0, 137))
        shots = min(int(math.exp(rng.uniform(0.0, math.log(PURE_DRAW_SHOT_LIMIT)))), 2**31 - 1)
        x = case % 4
        ref = np.random.default_rng((seed, x)).multinomial(shots, row[: x + 2])[x]
        p = row.tolist()
        assert _pure_count(x, _words(seed, x), shots, p) == ref, (seed, x, shots, p)
        above_one += _reaches_ratio_above_one(p, x)
        btpe += min(p[0], 1.0 - p[0]) * shots > 30.0
    # Both samplers and the roundoff case ran many times.
    assert above_one > 100 and 5000 < btpe < 15000


def _streams_drawing(u53, inc):
    # A pure stream and numpy's PCG64 whose next double is u53 / 2^53: the
    # stepped state's halves xor to the output rotated back by its top 6
    # bits, and the state before the step follows from the LCG's inverse.
    high = 0x9E3779B97F4A7C15
    rot = high >> 58
    out = u53 << 11
    low = ((out << rot) | (out >> (64 - rot))) & (2**64 - 1) ^ high
    state = (((high << 64) | low) - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
    pure = _PurePCG64([0, 0, 0, 0])
    pure.state, pure.inc = state, inc
    bits = np.random.PCG64()
    bits.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return pure, np.random.Generator(bits)


@pure_draw_only
@pytest.mark.parametrize("n, p", [
    (2**31 - 1, 3.3e-9), (10**9, 1.7e-8), (123_456_789, 4.1e-8), (2**31 - 1, 1 - 5e-9), (40, 0.3),
])
def test_binomial_inversion_threshold_is_numpys_to_the_last_bit(n, p):
    # Uniforms a few ulps either side of exp(n log1p(-p)), where the
    # inversion first stops: the mean is at most 30, so it is numpy's
    # inversion. A threshold off in its last bits, as exp(n log(1 - p))
    # is here by about 1e-7, draws differently from numpy on one side.
    r = min(p, 1.0 - p)
    edge = math.floor(math.exp(n * math.log1p(-r)) * 2**53)
    inc = 2 * 0x5851F42D4C957F2D + 1
    for u53 in range(edge - 3, edge + 4):
        pure, ref = _streams_drawing(u53, inc)
        assert _binomial(pure, n, p) == ref.binomial(n, p), (n, p, u53 - edge)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counts_take_the_pure_path_below_both_cuts_only(n, monkeypatch):
    # Either side of the input and the shot cut: the counts equal numpy's
    # full draws, and the pure path runs exactly below both cuts.
    count = 2**n
    rng = np.random.default_rng(77 + n)
    table = rng.dirichlet(np.full(count, 0.5), size=count)
    calls = []
    pure = pbrsim.harness._pure_count
    monkeypatch.setattr(pbrsim.harness, "_pure_count", lambda *a: calls.append(a) or pure(*a))
    for shots in (1, 2000, PURE_DRAW_SHOT_LIMIT - 1, PURE_DRAW_SHOT_LIMIT, 2**63 - 1):
        for seed in (0, 2**32, 10**30):
            calls.clear()
            counts = _counts(seed, shots, table)
            for x, k in enumerate(counts):
                assert k == np.random.default_rng((seed, x)).multinomial(shots, table[x])[x]
            below = _PURE_DRAW and count <= PURE_DRAW_MAX_INPUTS and shots < PURE_DRAW_SHOT_LIMIT
            assert len(calls) == (count if below else 0), (n, shots)


@pytest.mark.parametrize("version, pure", [
    ("1.24.0", False), ("2.3.5", False), ("2.4.5", False), ("2.4.6rc1", False),
    ("2.4.6", True), ("2.4.7", True), ("2.5.0.dev0+git20260101.abcdef0", True), ("3.0.0", True),
])
def test_pure_draw_needs_the_checked_numpy_release(version, pure):
    assert _pure_draw_checked(version) is pure


def test_counts_under_an_older_numpy_draw_with_its_generator(monkeypatch):
    # The pure path off, as under a numpy older than PURE_DRAW_NUMPY: a
    # pair run's counts come from numpy's Generator and are still the
    # full draws'.
    monkeypatch.setattr(pbrsim.harness, "_PURE_DRAW", False)
    monkeypatch.setattr(pbrsim.harness, "_pure_count", None)
    table = np.random.default_rng(78).dirichlet(np.full(4, 0.5), size=4)
    for shots in (1, 2000, PURE_DRAW_SHOT_LIMIT - 1):
        for seed in (0, 2**32, 10**30):
            for x, k in enumerate(_counts(seed, shots, table)):
                assert k == np.random.default_rng((seed, x)).multinomial(shots, table[x])[x]
