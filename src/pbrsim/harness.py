"""End-to-end experiment orchestration and shot statistics.

`run_experiment` and `analytic_report` take the same config, placed or
not, and share one prologue: the angles, input 0's circuit lowered onto
the device when placed (`routing.lower`), and gate counts. Both then
walk both tolerance reports (`bounds.tolerance_reports`), and `_judged`
picks the active threshold.
A run then attaches noise and reads the readout matrices, and only then
checks the forbidden outcomes (`protocol.check_forbidden_outcomes`, which
simulates the ideal circuit once per (n, theta) per process): every
calibration lookup comes before the first simulation. Input x's forbidden
outcome is x itself, so each row reads its own index. Input x is input 0
with a Z after the preparation of each qubit whose bit is set, so one
evolution plan of the noisy circuit (`simulate._plan`), the preparation
qubits as its frames, gives every input's distribution (`simulate._table`);
the plan folds each measured qubit's readout confusion matrix into that
qubit's read map once. The (2^n, 2^m) table comes clipped; its diagonal
gives the exact forbidden probabilities, and it is normalized in one
pass. Shot counts (up to 2^63 - 1, the multinomial sampler's int64
limit) are sampled from a per-input random stream, the one
default_rng((seed, x)) makes for input x. `_stream_words` runs numpy's
seed mixing and hash over all inputs at once, without numpy.random, and
keeps the PCG64 state words per (seed, 2^n) (16 entries), so both models
of one configuration and every span of a sweep hash them once. Each draw
stops after outcome x, since the multinomial draws outcome by outcome:
x's count is the one `sample_counts(row, shots, (seed, x))` gives, its
reference. A run of at most 4 inputs (n <= 2) and fewer than 2^31 shots
draws it with `_pure_count`, a pure-Python copy of numpy's PCG64 and its
binomial and multinomial samplers, so a pair run never imports
numpy.random (about 6 MB and 7-18 ms of a fresh process); a larger run
builds fresh numpy generators from the words (`_input_streams`). Both
cuts are constants in `config`, with the numpy release the copy was
checked against: under an older numpy every run takes numpy's
generators, whose counts the copy does not match there.

A configuration judged again, under a new seed, shot count or
confidence, repeats the same objects: the angles and input 0's circuit
(kept per (n, theta)) and the calibration, with the same model and
frames. Its exact probabilities depend on those alone, so what a run
builds from them, the tolerance pair, the normalized table, the exact
forbidden probabilities and their mean, is kept for the last few
configurations in one memo keyed on the objects' identity
(`memo.IdentityMemo`): a configuration walks, attaches noise, plans and
evolves once, and a repeat only draws, judges and renders; `bounds` and
`simulate` keep nothing. The plan is dropped once its table is read. A
table is kept only up to the bytes of one evolution chunk (16 *
CHUNK_ENTRIES, 128 KiB: n <= 7), so the memo holds at most 512 KiB. Past
n = 7 each call builds its configuration again: a table's evolution
costs far more than the rest of its rebuild, and a kept table of the
other model would add its whole size to a wide run's peak memory (at n =
12 it holds 128 MB). A new object, even a value-equal calibration,
builds afresh, and a build that raises (a calibration that misses a
coupler, a row that sums to zero) is not kept and raises again on the
next call. A placed run lowers afresh, so its new circuit misses; a
one-shot `pbrsim run` gains nothing.

`sweep_distance` builds one homogenized line config per span; by the
sweep's own rule, a span whose line has more physical qubits than the
cap gets an analytic report, whose gate counts and closed-form error
prediction stand in for per-input statistics (a placed run of that span
is exact: its peak live width is three qubits). One rule judges both
kinds: each bound (a per-input Wilson upper bound, or the one
prediction) passes only strictly below the active threshold; `passed`
says all pass, `pass_fraction` how many.
The Wilson bounds take their normal quantile from CPython's C AS241
(`_statistics`), the routine `statistics.NormalDist.inv_cdf` calls, so a
run never imports `statistics` unless the interpreter lacks it; `routing`
and `csv` are imported only by the placed runs, sweeps and CSV output
that use them.

Reports render to a structured JSON document (sorted keys, so identical
configurations are byte-identical) and to a flat CSV, one row per input.
`_report_text` writes a `pbr-experiment` report straight from its fields
into %-templates that json.dumps writes once, at import, from skeletons
of the report's fixed shape (`_template`): each input row is one
template with its floats by repr, and the active tolerance, which every
row carries, is formatted once. Its bytes are those of
json.dumps(report_to_dict(r), indent=2, sort_keys=True), which json.dumps
would write with its pure-Python encoder before Python 3.13; a sweep
indents each report two levels deeper. `report_to_dict` is the report's
dict form, and it and the CSV take their input rows from one helper. The
CLI's other documents and the saved calibration and coupling-map files
are cold, written once per command: `render_doc` is json.dumps itself.
"""

from __future__ import annotations

import functools
import io
import json
import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .bounds import ToleranceReport, epsilon_dep, tolerance_reports
from .circuits import Circuit, _is_integer, as_integer, check_span, gate_counts
from .config import (
    DEFAULT_CONFIDENCE,
    DEFAULT_SHOTS,
    DEFAULT_TWO_QUBIT_GATE_S,
    PURE_DRAW_MAX_INPUTS,
    PURE_DRAW_NUMPY,
    PURE_DRAW_SHOT_LIMIT,
    SIMULATION_QUBIT_CAP,
)
from .errors import RangeError, ValidationError
from .memo import IdentityMemo
from .noise import (
    CalibrationSnapshot,
    DEPOLARIZING,
    _check_model,
    attach_noise,
    calibration_mean,
    readout_matrix,
    uniform_calibration,
)
from .protocol import PBRParams, check_forbidden_outcomes, solved
from .records import Record, record
from .simulate import CHUNK_ENTRIES, _plan, _table

if TYPE_CHECKING:
    from .routing import CouplingMap

BIT_ORDER_NOTE = "qubit 0 is the most significant bit of every outcome index"
# The multinomial sampler draws counts as int64.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


@record
class ExperimentConfig(Record):
    """What a run simulates: size, angle, noise model, device, shots, seed, placement."""

    n: int
    theta: float
    model: str
    calibration: CalibrationSnapshot
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    coupling: CouplingMap | None = None
    placement: tuple[int, int] | None = None
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        for name in ("n", "shots", "seed"):
            # numpy integers render and split into seed words as ints.
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        for name in ("theta", "confidence"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name}={value!r} must be a real number")
            # Python ints and floats are kept as given; other reals, numpy
            # scalars among them, render as the Python number they equal.
            if type(value) not in (int, float):
                object.__setattr__(self, name, int(value) if _is_integer(value) else float(value))
        _check_model(self.model)
        if self.shots < 1:
            raise ValidationError(f"shots={self.shots} must be >= 1")
        if self.shots > _MAX_SHOTS:
            raise ValidationError(f"shots={self.shots} must be <= {_MAX_SHOTS}")
        if self.seed < 0:
            raise ValidationError(f"seed={self.seed} must be >= 0")
        if self.n > SIMULATION_QUBIT_CAP:
            raise ValidationError(
                f"n={self.n} exceeds the simulation cap of {SIMULATION_QUBIT_CAP}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError(f"confidence={self.confidence!r} outside (0, 1)")
        if self.placement is not None:
            pair = self.placement
            two = isinstance(pair, (tuple, list)) and len(pair) == 2
            if not (two and all(map(_is_integer, pair))):
                raise ValidationError(f"placement={pair!r} must be two integers")
            # Stored as Python ints, so the memo hashes it and the report renders it.
            object.__setattr__(self, "placement", tuple(map(int, pair)))
        if self.coupling is not None:
            from .routing import CouplingMap  # routing loads only for placed runs

            if not isinstance(self.coupling, CouplingMap):
                raise ValidationError(
                    f"coupling must be a CouplingMap, not {type(self.coupling).__name__}"
                )
        if (self.coupling is None) != (self.placement is None):
            raise ValidationError("coupling map and placement go together")
        if self.placement is not None and self.n != 2:
            raise ValidationError("routing applies to the two-qubit test only")


@record
class InputResult(Record):
    """One input's exact forbidden probability, sampled count, Wilson bounds and verdict."""

    input_index: int
    exact_probability: float
    count: int
    estimate: float
    ci_low: float
    ci_high: float
    tolerance: float
    passed: bool

    def __init__(
        self, input_index, exact_probability, count, estimate, ci_low, ci_high, tolerance, passed
    ):
        # A run builds 2^n of these: one update of the instance dict costs
        # less than the generic record __init__.
        self.__dict__.update(
            input_index=input_index,
            exact_probability=exact_probability,
            count=count,
            estimate=estimate,
            ci_low=ci_low,
            ci_high=ci_high,
            tolerance=tolerance,
            passed=passed,
        )


@record
class ExperimentReport(Record):
    """One configuration's verdict, angles, gate counts, thresholds and per-input rows."""

    n: int
    theta: float
    alpha: float
    beta: float
    model: str
    shots: int
    seed: int
    confidence: float
    analytic_only: bool
    g1: int
    g2: int
    span: int | None
    placement: tuple[int, int] | None
    swap_count: int
    tol_dep: ToleranceReport
    tol_thermo: ToleranceReport
    active_tolerance: float
    inputs: tuple[InputResult, ...]
    mean_forbidden_exact: float | None
    predicted_error: float | None
    pass_fraction: float
    passed: bool


def _normalized(p: np.ndarray) -> np.ndarray:
    """Scale each row (last axis) of clipped probabilities to sum 1.

    A row that sums to zero raises RangeError.
    """
    total = p.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise RangeError("distribution sums to zero")
    return p / total


def sample_counts(probs, shots: int, seed) -> np.ndarray:
    """Multinomial draw over outcomes; deterministic for a given seed."""
    if shots < 0:
        raise RangeError(f"shots={shots} must be >= 0")
    # Tiny negative roundoff clips to zero.
    p = _normalized(np.asarray(probs, dtype=float).clip(0.0, 1.0))
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p)


# numpy's SeedSequence.generate_state makes output word i from pool word
# w = pool[i % 4] as v = (w ^ h_i) * h_(i+1), then v ^ (v >> 16), all mod
# 2^32, with h_0 = 0x8B51F9DD and h_(i+1) = h_i * 0x58F38DED: the constants
# depend on the word position only. Eight words (4 uint64) cycle the pool
# twice: as a (2, 4) array, h_0..h_7 and h_1..h_8.
_HASH = np.cumprod(np.array([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32), dtype=np.uint32)
# Read-only, and so are its views: every call's hash reads them.
_HASH.setflags(write=False)
_HASH_XOR, _HASH_MUL = _HASH[:-1].reshape(2, 4), _HASH[1:].reshape(2, 4)


def _seed_pools(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).pool for each row e of a (count, L) uint32 array.

    numpy's mix_entropy, run over every row at once. Its k-th hashmix call
    maps v to (v ^ h_k) * h_(k+1), then v ^ (v >> 16), with h_0 =
    0x43B0D7E5 and h_(k+1) = h_k * 0x931E8875; mix(a, b) is
    0xCA01F9DD * a - 0x4973F715 * b, then the same shift. All rows share
    a length, so the k-th call has the same constants in every row. The
    pool takes the first four words (zeros past L), hashed; then each
    pool word, hashed, mixes into the other three in order, and each word
    past the fourth, hashed, into all four. Arithmetic is mod 2^32.
    """
    count, length = entropy.shape
    h = np.cumprod(
        np.array([0x43B0D7E5] + [0x931E8875] * (16 + 4 * max(0, length - 4)), dtype=np.uint32),
        dtype=np.uint32,
    )

    def hashmix(v, k, width):
        v = v ^ h[k : k + width]
        v *= h[k + 1 : k + 1 + width]
        v ^= v >> 16
        return v

    def mix(a, b):
        a = a * np.uint32(0xCA01F9DD) - b * np.uint32(0x4973F715)
        a ^= a >> 16
        return a

    pool = np.zeros((count, 4), dtype=np.uint32)
    pool[:, : min(length, 4)] = entropy[:, :4]
    pool = hashmix(pool, 0, 4)
    k = 4
    for src in range(4):
        # The other three words in order, each with its own constants; the
        # source word itself does not change in this pass.
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src : src + 1], k, 3))
        k += 3
    for src in range(4, length):
        pool = mix(pool, hashmix(entropy[:, src : src + 1], k, 4))
        k += 4
    return pool


class _HashedState:
    """A seed sequence whose generate_state returns PCG64's four words, hashed."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=None) -> np.ndarray:
        return self.words


@functools.lru_cache(maxsize=16)
def _stream_words(seed: int, count: int) -> np.ndarray:
    """PCG64's four state words for default_rng((seed, x)), x in range(count).

    That one seeds PCG64 with SeedSequence((seed, x)).generate_state(4,
    uint64). The tuple's entropy words are the little-endian 32-bit words
    of the seed, then x (x < 2^32). `_seed_pools` mixes them into every
    input's pool at once, and the output hash runs over every pool at
    once, so neither imports numpy.random. Returns a read-only (count, 4)
    uint64 array, built once per (seed, count) per process: 16 entries of
    at most 128 KB (2^12 inputs). Both draw paths read it.
    """
    words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"), "<u4")
    entropy = np.empty((count, len(words) + 1), dtype=np.uint32)
    entropy[:, :-1] = words
    entropy[:, -1] = np.arange(count)
    # The output hash reads the four-word pool twice over.
    state = _seed_pools(entropy)[:, None, :] ^ _HASH_XOR
    state *= _HASH_MUL
    state ^= state >> 16
    # Pairs of 32-bit words read as little-endian 64-bit ones, as numpy does.
    state = state.reshape(count, 8).astype("<u4", copy=False).view("<u8")
    state = state.astype(np.uint64, copy=False)
    state.setflags(write=False)
    return state


def _input_streams(seed: int, count: int) -> Iterator:
    """The generators default_rng((seed, x)) makes, for x in range(count).

    Each is a fresh PCG64 seeded from its row of `_stream_words`, so
    drawing from one leaves the cached words, and every later call's
    streams, as they were.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_HashedState)
    for row in _stream_words(seed, count):
        yield Generator(PCG64(_HashedState(row)))


def _count_of(x: int, rng, shots: int, p: np.ndarray) -> int:
    """Outcome x's count in rng.multinomial(shots, p), drawn only up to x.

    The multinomial draws outcome by outcome, each a binomial of the shots
    left, so outcomes 0..x with the rest lumped as one outcome give x the
    count the whole row's draw gives it. For the last outcome that is the
    whole row.
    """
    return int(rng.multinomial(shots, p[: x + 2])[x])


# numpy's PCG64: a 128-bit LCG with this multiplier, and XSL-RR output.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


class _PurePCG64:
    """numpy's PCG64 seeded by four state words, drawing doubles as its Generator does."""

    __slots__ = ("state", "inc")

    def __init__(self, words):
        # pcg64_set_seed: the first two words are the initial state, the
        # last two the stream; srandom steps once before adding the state
        # and once after.
        w0, w1, w2, w3 = words
        self.inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        self.state = ((self.inc + ((w0 << 64) | w1)) * _PCG_MULT + self.inc) & _MASK128

    def next_double(self) -> float:
        """Step, rotate the xor of the state's halves right by its top 6 bits, keep 53 bits."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        v, rot = ((s >> 64) ^ s) & _MASK64, s >> 122
        return ((((v >> rot) | (v << (64 - rot))) & _MASK64) >> 11) * (1.0 / 9007199254740992.0)


def _binomial_inversion(rng: _PurePCG64, n: int, p: float) -> int:
    """numpy's random_binomial_inversion, for n * p <= 30."""
    if p < 0.0:
        # A roundoff ratio p_j / remaining above 1 arrives as 1 - ratio < 0.
        # numpy's exp(n log1p(-p)) > 1 then exceeds every uniform, so it
        # draws one and returns 0 without reading its bound, which is NaN
        # there and would raise in math.sqrt here.
        rng.next_double()
        return 0
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px, u = 0, qn, rng.next_double()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, rng.next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _binomial_btpe(rng: _PurePCG64, n: int, p: float) -> int:
    """numpy's random_binomial_btpe (Kachitvichyanukul & Schmeiser), for 0 < p <= 1/2.

    Its labels name the branches: step 10 draws, steps 20-40 pick the
    triangle, parallelogram or either exponential tail, step 50 accepts by
    recursion near the mode and step 52 by Stirling's bounds.
    """
    # numpy's r = min(p, 1 - p) is p here, and its final flip for p > 1/2
    # never runs.
    q = 1.0 - p
    fm = n * p + p
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * p * q
    while True:
        # Step 10.
        u = rng.next_double() * p4
        v = rng.next_double()
        if u <= p1:
            return math.floor(xm - p1 * v + u)
        if u <= p2:
            # Step 20.
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:
            # Step 30. C takes log(0) = -inf and rejects v == 0 after.
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:
            # Step 40.
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        # Step 50.
        k = abs(y - m)
        if not (k > 20 and k < nrq / 2.0 - 1):
            s = p / q
            a = s * (n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v > f:
                continue
            return y
        # Step 52.
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
        t = -k * k / (2 * nrq)
        # C's log reads 0 as -inf, and a roundoff-negative v from step 20 as
        # NaN; either accepts below, where math.log would raise.
        big_a = math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
        x2, f2, z2, w2 = x1 * x1, f1 * f1, z * z, w * w
        if big_a > (
            xm * math.log(f1 / x1)
            + (n - m + 0.5) * math.log(z / w)
            + (y - m) * math.log(w * p / (x1 * q))
            + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
            + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
            + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
            + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
        ):
            continue
        return y


def _binomial(rng: _PurePCG64, n: int, p: float) -> int:
    """numpy's random_binomial: inversion up to a mean of 30, else BTPE, on min(p, 1 - p)."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _binomial_inversion(rng, n, p) if p * n <= 30.0 else _binomial_btpe(rng, n, p)
    q = 1.0 - p
    return n - (_binomial_inversion(rng, n, q) if q * n <= 30.0 else _binomial_btpe(rng, n, q))


def _pure_count(x: int, words, shots: int, p) -> int:
    """`_count_of` in pure Python, for the PCG64 that state `words` seed.

    numpy's random_multinomial over p[:x+2]: outcome j takes a binomial of
    the shots left at p_j over the probability left, and the last outcome
    takes what remains. Bit for bit for shots < 2^31 (`config`).
    """
    rng = _PurePCG64(words)
    d = min(x + 2, len(p))
    left, remaining = shots, 1.0
    for j in range(d - 1):
        k = _binomial(rng, left, p[j] / remaining)
        if j == x:
            return k
        left -= k
        if left <= 0:
            return 0
        remaining -= p[j]
    return left


def _pure_draw_checked(version: str) -> bool:
    """Whether numpy `version` is at least PURE_DRAW_NUMPY, the release the pure draw matches."""
    return np.lib.NumpyVersion(version) >= PURE_DRAW_NUMPY


# np.__version__ is read without importing numpy.random.
_PURE_DRAW = _pure_draw_checked(np.__version__)


def _counts(seed: int, shots: int, p: np.ndarray) -> list[int]:
    """Input x's count in default_rng((seed, x)).multinomial(shots, p[x]), for every x.

    Under numpy PURE_DRAW_NUMPY or later, a run of at most
    PURE_DRAW_MAX_INPUTS inputs and fewer than PURE_DRAW_SHOT_LIMIT shots
    draws in pure Python, so it never imports numpy.random; any other run
    draws with numpy's Generator.
    """
    count = len(p)
    if _PURE_DRAW and count <= PURE_DRAW_MAX_INPUTS and shots < PURE_DRAW_SHOT_LIMIT:
        words = _stream_words(seed, count).tolist()
        return [_pure_count(x, w, shots, row) for x, (w, row) in enumerate(zip(words, p.tolist()))]
    return [_count_of(x, rng, shots, p[x]) for x, rng in enumerate(_input_streams(seed, count))]


def _wilson_z(confidence: float) -> float:
    """Two-sided standard normal quantile for a confidence level.

    CPython's C AS241, the routine `statistics.NormalDist.inv_cdf` calls,
    so a run never imports `statistics`; an interpreter without
    `_statistics` takes that public method, whose bits are the same.
    """
    p = 0.5 + confidence / 2
    if not 0.0 < p < 1.0:
        # statistics' own message: a confidence so close to 1 that p rounds
        # to 1 still exits 2 with the same error line.
        raise ValueError("p must be in the range 0.0 < p < 1.0")
    try:
        from _statistics import _normal_dist_inv_cdf
    except ImportError:
        from statistics import NormalDist

        return NormalDist().inv_cdf(p)
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def _wilson(k: int, m: int, z: float) -> tuple[float, float]:
    # The Wilson bounds for k of m at quantile z, unchecked: the run loop
    # checks its shots and confidence once, not per input.
    denom = m + z * z
    center = (k + z * z / 2) / denom
    half = z * math.sqrt(k * (m - k) / m + z * z / 4) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_interval(k: int, m: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for k successes in m trials."""
    if m < 1:
        raise RangeError(f"m={m} must be >= 1")
    if not 0 <= k <= m:
        raise RangeError(f"k={k} outside [0, {m}]")
    if not 0.0 < confidence < 1.0:
        raise RangeError(f"confidence={confidence!r} outside (0, 1)")
    lo, hi = _wilson(k, m, _wilson_z(confidence))
    return float(lo), float(hi)


def _prologue(cfg: ExperimentConfig) -> tuple[PBRParams, Circuit, dict]:
    """Angles, input 0's circuit as it runs on the device, and shared fields.

    The angles and input 0's logical circuit are built once per (n, theta)
    per process (`protocol.solved`). A placed config lowers it onto the
    coupling map (`routing.lower`), which gives the span and swap count;
    gate counts are read off the circuit that runs.
    """
    params = solved(cfg.n, cfg.theta)
    circuit = params.test_circuit
    span, swap_count = None, 0
    if cfg.placement is not None:
        from .routing import lower  # routing loads only for placed runs

        circuit, span, swap_count = lower(circuit, cfg.coupling, cfg.placement)
    g1, g2 = gate_counts(circuit)
    fields = dict(
        n=cfg.n,
        theta=cfg.theta,
        alpha=params.alpha,
        beta=params.beta,
        model=cfg.model,
        shots=cfg.shots,
        seed=cfg.seed,
        confidence=cfg.confidence,
        g1=g1,
        g2=g2,
        span=span,
        placement=cfg.placement,
        swap_count=swap_count,
    )
    return params, circuit, fields


def _judged(fields: dict, pair, bounds, rows=(), **kind) -> ExperimentReport:
    """Finish a report by the one verdict rule, for both report kinds.

    The active threshold is the model's noisy tolerance from `pair`, and a
    bound passes only strictly below it. An exact report gives one bound
    per input row, each row InputResult's fields up to `ci_high`; an
    analytic one, one bound and no rows.
    """
    tol_dep, tol_thermo = pair
    active = (tol_dep if fields["model"] == DEPOLARIZING else tol_thermo).eps_tol_noisy
    checks = [bool(b < active) for b in bounds]
    return ExperimentReport(
        **fields,
        **kind,
        tol_dep=tol_dep,
        tol_thermo=tol_thermo,
        active_tolerance=active,
        inputs=tuple([InputResult(*row, active, ok) for row, ok in zip(rows, checks)]),
        pass_fraction=sum(checks) / len(checks),
        passed=all(checks),
    )


def _configuration(
    params: PBRParams, circuit: Circuit, cal: CalibrationSnapshot, model: str, frames: tuple
) -> tuple:
    """The tolerance pair and the exact numbers a run samples from.

    Built in the order their errors surface: every calibration lookup
    (the tolerance walk, the noise and the readout), then the
    forbidden-outcome check, then the plan and its table, whose rows must
    not sum to zero. The plan folds each measured qubit's readout
    confusion matrix into its read map, and is dropped once the table is
    read. Returns the pair, the normalized table, each input's exact
    forbidden probability (the clipped table's diagonal) and their mean.
    """
    pair = tolerance_reports(params, cal, circuit)
    noisy = attach_noise(circuit, cal, model)
    mats = tuple(readout_matrix(cal.qubit(q)) for q in noisy.measured_qubits)
    check_forbidden_outcomes(params)
    table = _table(_plan(noisy, frames, mats))
    exact = tuple(table.diagonal().tolist())
    # The table comes clipped to [0, 1]: sample_counts' normalization, once
    # for the table.
    return pair, _normalized(table), exact, float(np.mean(exact))


# What the last few configurations need: both models of one that runs
# again. A placed run routes afresh, so its new circuit object misses. A
# table larger than one evolution chunk's bytes (past n = 7) is not kept:
# its evolution costs far more than its rebuild's other steps, and a kept
# table of the other model would stay alive beside the next run's.
_CONFIGURATIONS = IdentityMemo(4, max_bytes=16 * CHUNK_ENTRIES)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Simulate all 2^n inputs under the configured noise and sample shots."""
    params, circuit, fields = _prologue(cfg)
    # Input x flips the preparation of the qubits of its set bits: logical
    # qubit j is prepared on placement[j] when the config is placed.
    frames = cfg.placement or tuple(range(cfg.n))
    pair, p, exact, mean = _CONFIGURATIONS.get(
        _configuration, (params, circuit, cfg.calibration), (cfg.model, frames)
    )
    # ExperimentConfig has checked shots >= 1 and the confidence level.
    shots, z = cfg.shots, _wilson_z(cfg.confidence)
    rows = [
        (x, exact[x], k, k / shots, *_wilson(k, shots, z))
        for x, k in enumerate(_counts(cfg.seed, shots, p))
    ]
    return _judged(
        fields,
        pair,
        [row[-1] for row in rows],
        rows,
        analytic_only=False,
        mean_forbidden_exact=mean,
        predicted_error=None,
    )


def analytic_report(cfg: ExperimentConfig) -> ExperimentReport:
    """Closed-form stand-in for configurations too large to simulate.

    Counts gates and busy times on the circuit IR (routed when placed),
    predicts the observable error from the model (synthesized depolarizing
    error, or the cumulative damping estimate) and judges that prediction.
    """
    params, circuit, fields = _prologue(cfg)
    cal = cfg.calibration
    pair = tolerance_reports(params, cal, circuit)
    check_forbidden_outcomes(params)
    if cfg.model == DEPOLARIZING:
        p1 = calibration_mean(q.p1 for q in cal.qubits)
        p2 = calibration_mean(c.p2 for c in cal.couplers) if cal.couplers else 0.0
        predicted = epsilon_dep(p1, p2, fields["g1"], fields["g2"])
    else:
        predicted = pair[1].eps_dec_cumulative
    return _judged(
        fields,
        pair,
        [predicted],
        analytic_only=True,
        mean_forbidden_exact=None,
        predicted_error=float(predicted),
    )


def _line_calibration(cal: CalibrationSnapshot, n_phys: int) -> CalibrationSnapshot:
    """Homogenized line device from the snapshot's mean parameters."""
    q = cal.qubits
    p2, two = 0.0, DEFAULT_TWO_QUBIT_GATE_S
    if cal.couplers:
        p2 = calibration_mean(c.p2 for c in cal.couplers)
        two = calibration_mean(c.duration for c in cal.couplers)
    return uniform_calibration(
        n_phys,
        t1=calibration_mean(x.t1 for x in q),
        t2=calibration_mean(x.t2 for x in q),
        p1=calibration_mean(x.p1 for x in q),
        p2=p2,
        p01=calibration_mean(x.readout_p01 for x in q),
        p10=calibration_mean(x.readout_p10 for x in q),
        single=calibration_mean(x.single_gate_duration for x in q),
        two=two,
        readout=cal.readout_duration,
        edges=tuple((i, i + 1) for i in range(n_phys - 1)),
    )


def sweep_distance(cfg: ExperimentConfig, spans) -> list[ExperimentReport]:
    """One report per span on a homogenized line device.

    Every span must lie in 1..MAX_SPAN; all are checked before the first
    runs. A span whose line has more physical qubits than
    SIMULATION_QUBIT_CAP comes back as an analytic-only report. That is
    this sweep's rule, not a limit of the simulator: a placed
    `run_experiment` holds at most three live qubits at any span and is
    exact up to MAX_SPAN, so past span 11 the two differ (at span 154 on
    the demo calibration's line, thermodynamical, theta = pi/4: a
    predicted 0.0105 passes, an exact mean of 0.0612 fails).
    """
    if cfg.n != 2:
        raise ValidationError("distance sweeps run the two-qubit test")
    from .routing import line_map

    spans = [check_span(s) for s in spans]
    reports = []
    for s in spans:
        line = replace(
            cfg,
            calibration=_line_calibration(cfg.calibration, s + 1),
            coupling=line_map(s + 1),
            placement=(0, s),
        )
        exact = s + 1 <= SIMULATION_QUBIT_CAP
        reports.append((run_experiment if exact else analytic_report)(line))
    return reports


@functools.lru_cache(maxsize=16)
def _bit_labels(n: int) -> tuple[str, ...]:
    """Every n-bit outcome label, qubit 0 leftmost, by index."""
    return tuple(format(x, f"0{n}b") for x in range(2**n))


def tolerance_to_dict(t: ToleranceReport) -> dict:
    """The scalar threshold fields every tolerance document carries."""
    return {
        "model": t.model,
        "d_quantum": t.d_quantum,
        "d_noisy": t.d_noisy,
        "eps_tol_ideal": t.eps_tol_ideal,
        "eps_tol_noisy": t.eps_tol_noisy,
        "eps_tol_noisy_spread": t.eps_tol_noisy_spread,
        "eps_dep": t.eps_dep,
        "eps_dec": t.eps_dec,
        "eps_dec_cumulative": t.eps_dec_cumulative,
    }


def _input_rows(r: ExperimentReport) -> list[dict]:
    """One dict per sampled input: the JSON `inputs` entries and the CSV rows."""
    labels = _bit_labels(r.n)
    return [
        {
            "ci_high": row.ci_high,
            "ci_low": row.ci_low,
            "count": row.count,
            "estimate": row.estimate,
            "exact_probability": row.exact_probability,
            "forbidden": labels[row.input_index],
            "input": labels[row.input_index],
            "pass": row.passed,
            "tolerance": row.tolerance,
        }
        for row in r.inputs
    ]


def report_to_dict(r: ExperimentReport) -> dict:
    labels = _bit_labels(r.n)
    routing = None
    if r.span is not None:
        from .routing import routed_gate_overhead

        extra_g1, extra_g2 = routed_gate_overhead(r.span)
        routing = {
            "placement": list(r.placement),
            "span": r.span,
            "swap_count": r.swap_count,
            "extra_g1": extra_g1,
            "extra_g2": extra_g2,
        }
    return {
        "kind": "pbr-experiment",
        "bit_order": BIT_ORDER_NOTE,
        "n": r.n,
        "theta": r.theta,
        "alpha": r.alpha,
        "beta": r.beta,
        "model": r.model,
        "shots": r.shots,
        "seed": r.seed,
        "confidence": r.confidence,
        "analytic_only": r.analytic_only,
        "forbidden_map": dict(zip(labels, labels)),
        "gate_counts": {"g1": r.g1, "g2": r.g2},
        "routing": routing,
        "tolerances": {
            "depolarizing": tolerance_to_dict(r.tol_dep),
            "thermodynamical": tolerance_to_dict(r.tol_thermo),
            "active": r.active_tolerance,
        },
        "inputs": _input_rows(r),
        "mean_forbidden_exact": r.mean_forbidden_exact,
        "predicted_error": r.predicted_error,
        "pass_fraction": r.pass_fraction,
        "passed": r.passed,
    }


def render_doc(doc) -> str:
    """Serialize a report document: sorted keys, two-space indent, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _template(skeleton: dict, level: int) -> str:
    """json.dumps(skeleton, indent=2, sort_keys=True) at nesting `level`, as a %-template.

    Values "%r" and "%s" come out unquoted, to take a number or a value's
    JSON text; "%%s" comes out as "%s", to take a string needing no escapes.
    """
    text = json.dumps(skeleton, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)
    return text.replace('"%r"', "%r").replace('"%s"', "%s").replace("%%s", "%s")


# A `pbr-experiment` report's text, filled in its keys' sorted order.
# Numbers go in by repr, which is how json writes an int or a finite float.
_TOLERANCE_FIELDS = (
    "d_noisy", "d_quantum", "eps_dec", "eps_dec_cumulative", "eps_dep", "eps_tol_ideal",
    "eps_tol_noisy", "eps_tol_noisy_spread",
)
_TOLERANCE = _template({**dict.fromkeys(_TOLERANCE_FIELDS, "%r"), "model": "%s"}, 2)
_INPUT = _template(
    {
        **dict.fromkeys(("ci_high", "ci_low", "count", "estimate", "exact_probability"), "%r"),
        **dict.fromkeys(("forbidden", "input"), "%%s"),
        **dict.fromkeys(("pass", "tolerance"), "%s"),
    },
    2,
)
_ROUTING = _template(
    dict.fromkeys(("extra_g1", "extra_g2", "span", "swap_count"), "%r") | {"placement": ["%r"] * 2},
    1,
)
_REPORT = _template(
    {
        "alpha": "%r", "analytic_only": "%s", "beta": "%r", "bit_order": BIT_ORDER_NOTE,
        "confidence": "%r", "forbidden_map": "%s", "gate_counts": {"g1": "%r", "g2": "%r"},
        "inputs": "%s", "kind": "pbr-experiment", "mean_forbidden_exact": "%s", "model": "%s",
        "n": "%r", "pass_fraction": "%r", "passed": "%s", "predicted_error": "%s",
        "routing": "%s", "seed": "%r", "shots": "%r", "theta": "%r",
        "tolerances": {"active": "%s", "depolarizing": "%s", "thermodynamical": "%s"},
    },
    0,
)
_tolerance_numbers = operator.attrgetter(*_TOLERANCE_FIELDS)
_JSON_BOOL = ("false", "true")


def _report_text(r: ExperimentReport) -> str:
    """`r` as json.dumps(report_to_dict(r), indent=2, sort_keys=True) writes it.

    The active tolerance, which every input row carries, is formatted once.
    """
    labels = _bit_labels(r.n)
    active = r.active_tolerance
    tol = repr(active)
    rows = [
        _INPUT % (
            row.ci_high, row.ci_low, row.count, row.estimate, row.exact_probability,
            labels[row.input_index], labels[row.input_index], _JSON_BOOL[row.passed],
            tol if row.tolerance is active else repr(row.tolerance),
        )
        for row in r.inputs
    ]
    routing = "null"
    if r.span is not None:
        from .routing import routed_gate_overhead

        routing = _ROUTING % (*routed_gate_overhead(r.span), *r.placement, r.span, r.swap_count)
    tolerances = [
        _TOLERANCE % (*_tolerance_numbers(t), encode_basestring_ascii(t.model))
        for t in (r.tol_dep, r.tol_thermo)
    ]
    return _REPORT % (
        r.alpha, _JSON_BOOL[r.analytic_only], r.beta, r.confidence,
        "{\n    " + ",\n    ".join([f'"{b}": "{b}"' for b in labels]) + "\n  }",
        r.g1, r.g2,
        "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]",
        "null" if r.mean_forbidden_exact is None else repr(r.mean_forbidden_exact),
        encode_basestring_ascii(r.model), r.n, r.pass_fraction, _JSON_BOOL[r.passed],
        "null" if r.predicted_error is None else repr(r.predicted_error),
        routing, r.seed, r.shots, r.theta, tol, *tolerances,
    )


def render_json(r: ExperimentReport) -> str:
    return _report_text(r) + "\n"


def render_sweep_json(reports) -> str:
    texts = [_report_text(r).replace("\n", "\n    ") for r in reports]
    body = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    return '{\n  "kind": "pbr-distance-sweep",\n  "reports": ' + body + "\n}\n"


_CSV_FIELDS = (
    "span",
    "input",
    "forbidden",
    "exact_probability",
    "count",
    "estimate",
    "ci_low",
    "ci_high",
    "tolerance",
    "predicted_error",
    "pass",
)


def render_csv(reports) -> str:
    """Flat per-input table; analytic reports contribute one summary row."""
    import csv  # only CSV output needs it

    if isinstance(reports, ExperimentReport):
        reports = [reports]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, restval="", lineterminator="\n")
    writer.writeheader()
    for r in reports:
        span = "" if r.span is None else r.span
        if r.analytic_only:
            writer.writerow(
                {
                    "span": span,
                    "tolerance": r.active_tolerance,
                    "predicted_error": r.predicted_error,
                    "pass": r.passed,
                }
            )
        for row in _input_rows(r):
            writer.writerow({"span": span, **row})
    return buf.getvalue()
