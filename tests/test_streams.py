"""Each input's sampling stream and draw against numpy's reference ones.

A run draws input x's count from the generator default_rng((seed, x))
makes, built by `harness._input_streams` with numpy's seed hash
vectorized over the inputs, and stops the multinomial after outcome x.
Both shortcuts rest on numpy internals (SeedSequence's output hash and
the multinomial's outcome-by-outcome draw), so these tests pin them
against the public calls a numpy release could change them under.
"""

import numpy as np
import pytest

from pbrsim.harness import _count_of, _input_streams

NAMED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 7, 10**30)
_rng = np.random.default_rng(2024)
# 0 to 128 bits: one to four entropy words before x.
RANDOM_SEEDS = tuple(
    int.from_bytes(_rng.bytes(16), "little") >> int(_rng.integers(0, 128)) for _ in range(50)
)


@pytest.mark.parametrize("seeds", [NAMED_SEEDS, RANDOM_SEEDS], ids=["named", "random"])
def test_input_streams_equal_default_rng(seeds):
    # Every x < 2^12 (n up to the simulation cap) for each seed: the state
    # PCG64 was seeded with and its first draws.
    for seed in seeds:
        for x, fast in enumerate(_input_streams(seed, 2**12)):
            ref = np.random.default_rng((seed, x))
            assert fast.bit_generator.state == ref.bit_generator.state, (seed, x)
            assert np.array_equal(fast.bit_generator.random_raw(3), ref.bit_generator.random_raw(3))


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
