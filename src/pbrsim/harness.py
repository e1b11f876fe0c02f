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
default_rng((seed, x)) makes for input x. `_input_streams` builds every
input's stream from PCG64 state words hashed for all inputs in one
vectorized pass of numpy's seed hash, and keeps those words per
(seed, 2^n) (16 entries), so both models of one configuration and every
span of a sweep hash them once; each call still builds fresh generators.
Each draw stops after outcome x, since the multinomial draws outcome by
outcome: x's count is the one `sample_counts(row, shots, (seed, x))`
gives, its reference.

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

`sweep_distance` builds one homogenized line config per span; spans
needing more physical qubits than the cap get analytic reports, whose
gate counts and closed-form error prediction stand in for per-input
statistics. One rule judges both kinds: each bound (a per-input Wilson
upper bound, or the one prediction) passes only strictly below the
active threshold; `passed` says all pass, `pass_fraction` how many.
The Wilson bounds take their normal quantile from a copy of AS241, the
algorithm `statistics.NormalDist.inv_cdf` runs, bit for bit, so a run
never imports `statistics`; `routing` and `csv` are imported only by
the placed runs, sweeps and CSV output that use them.

Reports render to a structured JSON document (sorted keys, so identical
configurations are byte-identical) and to a flat CSV, one row per input;
both take their input rows from one helper. `render_doc` is the one JSON
serializer: the CLI's other documents and the saved calibration and
coupling-map files use it too. Its bytes are
json.dumps(doc, indent=2, sort_keys=True) plus a newline, but json.dumps
writes indented text with its pure-Python encoder before Python 3.13, so
`render_doc` hands every flat container (one whose values are scalars or
empty containers, and a list of such dicts) to the C encoder in one call,
with the newline and indent as its item separator, and walks only the
containers above them.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import numbers
from collections.abc import Iterator
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .bounds import ToleranceReport, epsilon_dep, tolerance_reports
from .circuits import Circuit, gate_counts
from .config import (
    DEFAULT_CONFIDENCE,
    DEFAULT_SHOTS,
    DEFAULT_TWO_QUBIT_GATE_S,
    MAX_SPAN,
    SIMULATION_QUBIT_CAP,
)
from .errors import RangeError, ValidationError
from .memo import IdentityMemo
from .noise import (
    CalibrationSnapshot,
    DEPOLARIZING,
    NOISE_MODELS,
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


def _is_integer(value) -> bool:
    # A Python or numpy integer, and not a bool.
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


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
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValidationError(f"{name}={value!r} must be an integer")
            # numpy integers render and split into seed words as ints.
            object.__setattr__(self, name, int(value))
        for name in ("theta", "confidence"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name}={value!r} must be a real number")
            # Python ints and floats are kept as given; other reals, numpy
            # scalars among them, render as the Python number they equal.
            if type(value) not in (int, float):
                value = int(value) if isinstance(value, (int, np.integer)) else float(value)
                object.__setattr__(self, name, value)
        if self.model not in NOISE_MODELS:
            raise ValidationError(f"unknown noise model {self.model!r}")
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
    of the seed, then x (x < 2^32). numpy's SeedSequence mixes the same
    words, passed as a uint32 array, into each input's pool; the output
    hash then runs over every pool at once. Returns a read-only (count, 4)
    uint64 array, built once per (seed, count) per process: 16 entries of
    at most 128 KB (2^12 inputs).
    """
    from numpy.random import SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_HashedState)
    words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"), "<u4")
    entropy = np.empty((count, len(words) + 1), dtype=np.uint32)
    entropy[:, :-1] = words
    entropy[:, -1] = np.arange(count)
    state = np.empty((count, 2, 4), dtype=np.uint32)
    for x, e in enumerate(entropy):
        state[x] = SeedSequence(e).pool
    state ^= _HASH_XOR
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


# Wichura's AS241 rational approximations (Applied Statistics 37(3), 1988),
# highest power first: numerator and denominator for |p - 1/2| <= 0.425,
# then for the tails with r = sqrt(-log(min(p, 1 - p))) up to 5 and beyond.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _horner(coeffs, r: float) -> float:
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * r + c
    return acc


def _normal_quantile(p: float) -> float:
    """Standard normal quantile by AS241: statistics.NormalDist().inv_cdf(p), bit for bit."""
    if not 0.0 < p < 1.0:
        # statistics' own message: a confidence so close to 1 that 0.5 + c/2
        # rounds to 1 still exits 2 with the same error line.
        raise ValueError("p must be in the range 0.0 < p < 1.0")
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241_CENTRAL
        return _horner(num, r) * q / _horner(den, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        (num, den), r = _AS241_NEAR, r - 1.6
    else:
        (num, den), r = _AS241_FAR, r - 5.0
    x = _horner(num, r) / _horner(den, r)
    return -x if q < 0.0 else x


def _wilson_z(confidence: float) -> float:
    """Two-sided standard normal quantile for a confidence level."""
    return _normal_quantile(0.5 + confidence / 2)


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
    forbidden-outcome check, then the plan, whose CapError a wide placed
    span can reach, and its table, whose rows must not sum to zero. The
    plan folds each measured qubit's readout confusion matrix into its
    read map, and is dropped once the table is read. Returns the pair,
    the normalized table, each input's exact forbidden probability (the
    clipped table's diagonal) and their mean.
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
    rows = []
    for x, rng in enumerate(_input_streams(cfg.seed, len(p))):
        k = _count_of(x, rng, shots, p[x])
        rows.append((x, exact[x], k, k / shots, *_wilson(k, shots, z)))
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
        p1 = float(np.mean([q.p1 for q in cal.qubits]))
        p2 = float(np.mean([c.p2 for c in cal.couplers])) if cal.couplers else 0.0
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


def check_span(s) -> int:
    """A sweep span as a Python int; RangeError unless it is an integer in 1..MAX_SPAN.

    numpy integers are accepted; bools, floats and other values are not.
    """
    if not _is_integer(s):
        raise RangeError(f"span {s!r} must be an integer")
    if not 1 <= s <= MAX_SPAN:
        raise RangeError(f"span {s} is outside 1..{MAX_SPAN}")
    return int(s)


def sweep_distance(cfg: ExperimentConfig, spans) -> list[ExperimentReport]:
    """One report per span on a homogenized line device.

    Every span must lie in 1..MAX_SPAN; all are checked before the first
    runs. Spans needing more physical qubits than the cap come back as
    analytic-only reports instead of failing.
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
    """One dict per sampled input: the JSON `inputs` entries and the CSV rows.

    Keys are listed in sorted order, so the encoder's sort finds them in place.
    """
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


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=32)
def _encoder(level: int) -> json.JSONEncoder:
    # The C encoder (no indent), its item separator a newline and the indent
    # of `level`: a flat container's items come out as the indented encoder
    # writes them.
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * level, ": "))


def _flat(o) -> bool:
    # A non-empty container whose values are all scalars or empty containers
    # (the type test first, as it runs in C).
    if not isinstance(o, _CONTAINERS) or not o:
        return False
    values = o.values() if isinstance(o, dict) else o
    return _SCALARS.issuperset(map(type, values)) or not any(
        isinstance(v, _CONTAINERS) and v for v in values
    )


def _flat_dicts(o) -> bool:
    # A list of flat dicts (a report's inputs). The common case, non-empty
    # dicts of scalars only, is one pass over every value in C.
    scalar_rows = set(map(type, o)) == {dict} and all(o) and _SCALARS.issuperset(
        map(type, itertools.chain.from_iterable(map(dict.values, o)))
    )
    return scalar_rows or all(isinstance(v, dict) and _flat(v) for v in o)


def _key(k) -> str:
    # A dict key as json writes it: a string, or the text of a scalar.
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = _encoder(0).encode(k)
    return _encoder(0).encode(k)


def _render(o, level: int) -> str:
    # `o` as json.dumps(o, indent=2, sort_keys=True) writes it at nesting
    # `level`. Scalars, empty containers and flat containers are one C
    # encoder call each; so is a list of flat dicts (a report's inputs),
    # whose dict boundaries are then indented. The encoder escapes every
    # newline inside a string, so a raw newline comes only from a separator.
    # Only containers that hold non-empty containers are walked here.
    if not isinstance(o, _CONTAINERS) or not o:
        return _encoder(0).encode(o)
    outer, inner = _INDENT * level, _INDENT * (level + 1)
    brackets = "{}" if isinstance(o, dict) else "[]"
    if _flat(o):
        body = _encoder(level + 1).encode(o)[1:-1]
    elif isinstance(o, dict):
        # Its scalar items come from one C encoder call, split at the item
        # separator (the one raw newline, as above).
        scalars = {k: v for k, v in o.items() if type(v) in _SCALARS}
        items = _encoder(level + 1).encode(scalars)[1:-1].split(",\n" + inner) if scalars else ()
        text = dict(zip(sorted(scalars), items))
        body = (",\n" + inner).join(
            text[k] if k in text else _key(k) + ": " + _render(v, level + 1)
            for k, v in sorted(o.items())
        )
    elif _flat_dicts(o):
        deeper = _INDENT * (level + 2)
        text = _encoder(level + 2).encode(o)[2:-2]
        text = text.replace("},\n" + deeper + "{", "\n" + inner + "},\n" + inner + "{\n" + deeper)
        body = "{\n" + deeper + text + "\n" + inner + "}"
    else:
        body = (",\n" + inner).join(_render(v, level + 1) for v in o)
    return brackets[0] + "\n" + inner + body + "\n" + outer + brackets[1]


def render_doc(doc) -> str:
    """Serialize a report document: sorted keys, two-space indent, newline.

    The bytes are those of json.dumps(doc, indent=2, sort_keys=True) + "\n",
    written mostly by the C encoder, which json.dumps skips when indenting
    before Python 3.13.
    """
    return _render(doc, 0) + "\n"


def render_json(r: ExperimentReport) -> str:
    return render_doc(report_to_dict(r))


def render_sweep_json(reports) -> str:
    return render_doc(
        {"kind": "pbr-distance-sweep", "reports": [report_to_dict(r) for r in reports]}
    )


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
