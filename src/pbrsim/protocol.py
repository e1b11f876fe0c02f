"""Antidistinguishability protocol circuits and angle solving.

Preparation encodes a bitstring x as a product of two fixed single-qubit
states, RY(+theta)|0> for bit 0 and RY(-theta)|0> for bit 1. The joint
measurement applies PHASE(beta) to every qubit, a phase alpha to the
all-zeros state, and a final Hadamard on every qubit before measuring.
The outcome amplitude for input x at outcome z depends only on the
Hamming distance between x and z, and the angle equation

    exp(i*alpha) + (1 + exp(i*beta) * tan(theta/2))**n - 1 = 0

makes the distance-zero amplitude vanish, so the forbidden outcome for
every input is the input itself. `check_forbidden_outcomes` evaluates the
n+1 distance probabilities in closed form and simulates every input to
check that the simulator places its zero where the protocol does: any
relabeling bug or angle regression shows up as a misplaced zero. The check
depends only on the angles, so each (n, theta) is checked once per process;
`solved` likewise solves the angles and builds input 0's circuit once.

At theta = pi/2 the solver can land on the degenerate root beta = pi,
alpha = 0, where the entangler disappears and the measurement factorizes
into independent qubit flips with many zero-probability outcomes per
input. That happens for n = 2 and n = 3; the check raises ProtocolError
there. Everywhere on [theta_min(n), pi/2) a genuine solution exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuits import (
    CPHASE_OPEN,
    Circuit,
    Gate,
    H,
    MCPHASE_OPEN,
    MEASURE,
    PHASE,
    RY,
    X,
)
from .config import ATOL_ALGEBRAIC, FORBIDDEN_PROB_THRESHOLD
from .errors import NoSolutionError, ProtocolError, RangeError, ValidationError
from .simulate import outcome_distributions


def theta_min(n: int) -> float:
    """Smallest opening angle with an antidistinguishing measurement."""
    if n < 1:
        raise RangeError(f"n={n} must be >= 1")
    return float(2.0 * np.arctan(2.0 ** (1.0 / n) - 1.0))


def _angle_residual(n: int, theta: float, alpha: float, beta: float) -> float:
    t = np.tan(theta / 2)
    return abs(np.exp(1j * alpha) + (1 + t * np.exp(1j * beta)) ** n - 1)


def _bisect(g, lo: float, hi: float) -> float:
    """Bisect g(lo) > 0 >= g(hi); see solve_angles for the stopping rules."""
    if g(hi) == 0.0:
        return hi
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if g_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


# For large n the power in the angle equation overflows where the modulus
# is far above 1: there the condition reads +inf, with no warning.
@np.errstate(over="ignore", invalid="ignore")
def solve_angles(n: int, theta: float) -> tuple[float, float]:
    """Solve e^{i alpha} + (1 + e^{i beta} tan(theta/2))^n = 1 for (alpha, beta).

    Reduced to one dimension: find beta in [0, pi] where
    |1 - (1 + tan(theta/2) e^{i beta})^n| = 1, then read alpha off the
    argument. The mirrored root at -beta is the conjugate solution.

    The first sign change on a 4097-point grid brackets the root, and
    bisection narrows the bracket to width 1e-15 (or until the midpoint
    equals an endpoint), returning its upper end. Exact-zero rule: any
    evaluated point where the modulus condition holds to exactly 0.0 is
    returned at once, the bracket's upper end checked first. At
    theta = pi/2 with n = 2 or 3 the condition is numerically zero on a
    plateau below pi, and this rule returns the grid point pi itself.
    """
    if n < 1:
        raise RangeError(f"n={n} must be >= 1")
    if not 0.0 <= theta <= np.pi / 2 + 1e-12:
        raise RangeError(f"theta={theta!r} outside [0, pi/2]")
    t = np.tan(theta / 2)

    def g(beta: float) -> float:
        m = abs(1 - (1 + t * np.exp(1j * beta)) ** n)
        return m - 1.0 if m < np.inf else np.inf

    g0 = g(0.0)
    if g0 < -1e-12:
        # (1+t)^n < 2: modulus never reaches 1, theta below threshold.
        raise NoSolutionError(
            f"theta={theta!r} below theta_min({n})={float(theta_min(n))!r}"
        )
    if abs(g0) <= 1e-12:
        beta = 0.0
    else:
        # First sign change from g(0) > 0; scan so later crossings of a
        # non-monotone modulus cannot steal the bracket.
        grid = np.linspace(0.0, np.pi, 4097)
        beta = None
        for lo, hi in zip(grid[:-1], grid[1:]):
            if g(hi) <= 0.0:
                beta = _bisect(g, float(lo), float(hi))
                break
        if beta is None:
            raise NoSolutionError(f"no root of the angle equation for n={n}, theta={theta!r}")
    w = 1 - (1 + t * np.exp(1j * beta)) ** n
    alpha = float(np.angle(w)) if abs(w) > 0 else 0.0
    alpha %= 2 * np.pi
    resid = _angle_residual(n, theta, alpha, beta)
    if resid > ATOL_ALGEBRAIC:
        raise NoSolutionError(f"residual {resid:.3e} after solving n={n}, theta={theta!r}")
    return alpha, beta


@dataclass(frozen=True)
class PBRParams:
    """The test size, preparation angle theta and the measurement angles solved for it."""

    n: int
    theta: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"n={self.n} must be >= 2")
        if not theta_min(self.n) - 1e-12 <= self.theta <= np.pi / 2 + 1e-12:
            raise ValidationError(
                f"theta={self.theta!r} outside [theta_min({self.n}), pi/2]"
            )
        resid = _angle_residual(self.n, self.theta, self.alpha, self.beta)
        if resid > ATOL_ALGEBRAIC:
            raise ValidationError(f"angle equation residual {resid:.3e} exceeds 1e-10")

    @classmethod
    def solve(cls, n: int, theta: float) -> "PBRParams":
        alpha, beta = solve_angles(n, theta)
        return cls(n, theta, alpha, beta)

    @functools.cached_property
    def test_circuit(self) -> Circuit:
        """Input 0's test circuit, built on first use and kept with the angles."""
        return build_test_circuit(0, self)


# Bounded so a long-lived process running many angles stays small. Typed,
# so theta = 1 and theta = 1.0 keep their own entries and types.
@functools.lru_cache(maxsize=64, typed=True)
def solved(n: int, theta: float) -> PBRParams:
    """PBRParams.solve(n, theta), once per (n, theta) per process.

    Every run at the same angles shares the one PBRParams, and with it
    input 0's test circuit (`PBRParams.test_circuit`), which the
    forbidden-outcome check reads too: the angles are solved and the
    circuit is built once per (n, theta). A failing solve is not cached.
    """
    return PBRParams.solve(n, theta)


def build_preparation(x, theta: float) -> Circuit:
    """RY(+theta) on qubit j for bit 0, RY(-theta) for bit 1."""
    bits = _as_bits(x)
    gates = tuple(
        Gate(RY, (j,), angle=theta if b == 0 else -theta) for j, b in enumerate(bits)
    )
    return Circuit(len(bits), gates)


def build_entangling_measurement(n: int, alpha: float, beta: float) -> Circuit:
    """Phase layer, phase on the all-zeros state, H layer, MEASURE.

    PHASE(beta) on each qubit, then alpha applied to |0...0> (the
    open-controlled phase gate pins the phase to index 1, so it is
    conjugated by X on the last qubit to move it to index 0), then H on
    each qubit and a full measurement. A zero beta elides the phase
    layer, so the ideal two-qubit circuit at the minimal angle is one
    X-conjugated open-controlled pi followed by Hadamards.
    """
    gates: list[Gate] = []
    if abs(beta) > 1e-12:
        gates.extend(Gate(PHASE, (q,), angle=beta) for q in range(n))
    kind = CPHASE_OPEN if n == 2 else MCPHASE_OPEN
    gates.append(Gate(X, (n - 1,)))
    gates.append(Gate(kind, tuple(range(n)), angle=alpha))
    gates.append(Gate(X, (n - 1,)))
    gates.extend(Gate(H, (q,)) for q in range(n))
    gates.append(Gate(MEASURE, tuple(range(n))))
    return Circuit(n, tuple(gates))


def build_test_circuit(x, params: PBRParams) -> Circuit:
    """Preparation for input x (index or bits) followed by the measurement."""
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < 2**params.n:
            raise RangeError(f"input index {x} outside [0, {2**params.n})")
        x = bits_of(int(x), params.n)
    prep = build_preparation(x, params.theta)
    if prep.n_qubits != params.n:
        raise ValidationError(f"input {x!r} has {prep.n_qubits} bits, expected {params.n}")
    meas = build_entangling_measurement(params.n, params.alpha, params.beta)
    return Circuit(params.n, prep.gates + meas.gates)


# Bounded so a long-lived process running many angles stays small.
@functools.lru_cache(maxsize=64)
def check_forbidden_outcomes(params: PBRParams) -> np.ndarray:
    """Check that outcome x is input x's one forbidden outcome; return P[h].

    The outcome probability depends on the input only through the Hamming
    distance h to the outcome, P[h] = |cos(theta/2)^n 2^(-n/2)
    ((1+w)^(n-h) (1-w)^h + e^{i alpha} - 1)|^2 with w = tan(theta/2) e^{i beta},
    so input 0...0 speaks for every input. Exactly one distance, h = 0,
    must have P[h] below the forbidden threshold. The ideal circuit is
    then simulated once for all 2^n inputs, with a Z frame on each
    preparation qubit, and each input must have its smallest
    probability at its own index: a bit-order, sign or frame fault in the
    simulator shows up as a misplaced zero, named by its first input.

    The result depends only on the angles, so it is cached: the ideal
    circuit is simulated once per (n, theta) per process. A failing check
    is not cached and raises on every call. Returns the n+1
    probabilities P[0..n], read-only since every caller shares them.
    """
    n = params.n
    w = np.tan(params.theta / 2) * np.exp(1j * params.beta)
    h = np.arange(n + 1)
    amp = (1 + w) ** (n - h) * (1 - w) ** h + np.exp(1j * params.alpha) - 1
    probs = np.abs(np.cos(params.theta / 2) ** n / np.sqrt(2.0**n) * amp) ** 2
    zeros = "0" * n
    if probs[0] >= FORBIDDEN_PROB_THRESHOLD:
        raise ProtocolError(
            f"input {zeros}: smallest outcome probability {probs[0]:.3e} "
            "is not a forbidden outcome"
        )
    runner_up = probs[1:].min()
    if runner_up < FORBIDDEN_PROB_THRESHOLD:
        raise ProtocolError(
            f"input {zeros}: second outcome probability {runner_up:.3e} "
            "below the forbidden threshold; zero outcome is ambiguous"
        )
    dists = outcome_distributions(params.test_circuit, range(n))
    zs = np.argmin(dists, axis=1)
    misplaced = np.flatnonzero(zs != np.arange(len(zs)))
    if misplaced.size:
        x = int(misplaced[0])
        raise ProtocolError(
            f"input {x:0{n}b}: simulated zero at outcome {int(zs[x]):0{n}b}; "
            "the simulator's conventions disagree with the protocol"
        )
    probs.flags.writeable = False
    return probs


def _as_bits(x) -> tuple[int, ...]:
    if isinstance(x, str):
        if not x or set(x) - {"0", "1"}:
            raise ValidationError(f"bitstring {x!r} must be over 0/1")
        return tuple(int(ch) for ch in x)
    bits = tuple(int(b) for b in x)
    if set(bits) - {0, 1}:
        raise ValidationError(f"bits {x!r} must be 0/1")
    return bits


def bits_of(index: int, n: int) -> tuple[int, ...]:
    """Index -> bit tuple under the qubit-0-is-MSB convention."""
    return tuple((index >> (n - 1 - j)) & 1 for j in range(n))
