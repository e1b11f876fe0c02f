"""Randomized property checks across the whole stack.

Each test draws a fixed number of seeded instances; the counts below sum
to 1000 and the acceptance gate times the full batch.
"""

import numpy as np
import pytest

import pbrsim.simulate
from dense_reference import conjugate
from helpers import purity, random_density
from pbrsim.circuits import (
    CPHASE_OPEN,
    CZ,
    Circuit,
    Gate,
    H,
    MCPHASE_OPEN,
    MEASURE,
    NOISE,
    PHASE,
    RY,
    RZ,
    SX,
    X,
    decompose_swap,
    gate_unitary,
)
from pbrsim.errors import NoSolutionError
from pbrsim.harness import wilson_interval
from pbrsim.noise import (
    NOISE_MODELS,
    amplitude_damping,
    attach_noise,
    dephasing,
    depolarizing_channel,
    uniform_calibration,
)
from pbrsim.protocol import (
    PBRParams,
    build_test_circuit,
    solve_angles,
    theta_min,
)
from pbrsim.routing import line_map, lower
from pbrsim.simulate import _apply, _operators, _plan, _table, outcome_distribution
from readout_reference import apply_readout
from simulated_reference import evolve

N_CIRCUIT = 200
N_UNITARY = 150
N_CHANNEL = 150
N_SOLVER = 150
N_NO_SOLUTION = 50
N_AMPLITUDE = 150
N_WILSON = 100
N_READOUT = 50

INSTANCE_COUNTS = (
    N_CIRCUIT,
    N_UNITARY,
    N_CHANNEL,
    N_SOLVER,
    N_NO_SOLUTION,
    N_AMPLITUDE,
    N_WILSON,
    N_READOUT,
)


def random_circuit(rng, n, depth):
    one_q = (H, X, SX, RY, RZ, PHASE)
    gates = []
    for _ in range(depth):
        pick = rng.random()
        if n == 1 or pick < 0.55:
            kind = one_q[int(rng.integers(len(one_q)))]
            q = int(rng.integers(n))
            angle = float(rng.uniform(-np.pi, np.pi)) if kind in (RY, RZ, PHASE) else None
            gates.append(Gate(kind, (q,), angle=angle))
        elif pick < 0.8 or n == 2:
            kind = (CZ, "swap", CPHASE_OPEN)[int(rng.integers(3))]
            a, b = rng.permutation(n)[:2]
            angle = float(rng.uniform(-np.pi, np.pi)) if kind == CPHASE_OPEN else None
            if kind == "swap":
                gates.extend(decompose_swap(int(a), int(b)))
            else:
                gates.append(Gate(kind, (int(a), int(b)), angle=angle))
        else:
            k = int(rng.integers(2, n + 1))
            qs = tuple(int(q) for q in rng.permutation(n)[:k])
            gates.append(Gate(MCPHASE_OPEN, qs, angle=float(rng.uniform(-np.pi, np.pi))))
        if rng.random() < 0.2:
            q = int(rng.integers(n))
            gates.append(
                Gate(NOISE, (q,), channel=depolarizing_channel(float(rng.uniform(0, 0.3)), 1))
            )
    gates.append(Gate(MEASURE, tuple(range(n))))
    return Circuit(n, tuple(gates))


def test_random_circuits_produce_distributions():
    rng = np.random.default_rng(101)
    for _ in range(N_CIRCUIT):
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, n, int(rng.integers(2, 11)))
        probs = outcome_distribution(c)
        assert probs.shape == (2**n,)
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) < 1e-9
        final = next(evolve(c, tuple(range(n))))[0]
        assert abs(np.trace(final).real - 1.0) < 1e-9
        assert purity(final) <= 1.0 + 1e-9


def test_schedule_peak_is_the_widest_evolved_state(monkeypatch):
    # The peak live width the schedule reads off the walk, before any
    # operator is built, is the widest state the evolution holds: over the
    # random circuits above, each measuring a random subset, and over
    # routed pairs at every span up to 154, where the line is far wider.
    widths = []
    join = pbrsim.simulate._join

    def recorded(mats, sigma):
        out = join(mats, sigma)
        widths.append(out.shape[1].bit_length() - 1)
        return out

    monkeypatch.setattr(pbrsim.simulate, "_join", recorded)

    def assert_peak(c, frames):
        plan = _plan(c, frames)
        widths.clear()
        _table(plan)
        assert plan[3][1] == max(widths)

    rng = np.random.default_rng(101)
    for _ in range(N_CIRCUIT):
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, n, int(rng.integers(2, 11)))
        measured = tuple(int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))])
        assert_peak(Circuit(n, c.gates[:-1] + (Gate(MEASURE, measured),)), ())
    params = PBRParams.solve(2, np.pi / 4)
    for span in range(1, 155):
        line = line_map(span + 1)
        cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
        routed = lower(build_test_circuit(0, params), line, (0, span))[0]
        assert_peak(attach_noise(routed, cal, NOISE_MODELS[span % 2]), (0, span))


def test_random_unitaries_preserve_state_structure():
    rng = np.random.default_rng(103)
    for _ in range(N_UNITARY):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, n)
        kind = (H, X, SX, RY, RZ, PHASE)[int(rng.integers(6))]
        angle = float(rng.uniform(-np.pi, np.pi)) if kind in (RY, RZ, PHASE) else None
        g = Gate(kind, (int(rng.integers(n)),), angle=angle)
        # The kernel's own operator: U (x) conj(U), or the phase vector of RZ/PHASE.
        op = _operators(Circuit(n, (g,)))[0]
        out = _apply(rho[None], op, g.qubits, n)[0]
        assert np.abs(out - conjugate(rho, gate_unitary(g), g.qubits)).max() < 1e-10
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert abs(purity(out) - purity(rho)) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10


def test_random_channels_are_physical():
    rng = np.random.default_rng(107)
    for _ in range(N_CHANNEL):
        n = int(rng.integers(1, 3))
        rho = random_density(rng, n)
        p = float(rng.uniform(0, 1))
        choice = int(rng.integers(3)) if n == 1 else int(rng.integers(4))
        if choice == 0:
            ch, targets = depolarizing_channel(p, 1), (int(rng.integers(n)),)
        elif choice == 1:
            ch, targets = amplitude_damping(p), (int(rng.integers(n)),)
        elif choice == 2:
            ch, targets = dephasing(p), (int(rng.integers(n)),)
        else:
            ch, targets = depolarizing_channel(p, 2), (0, 1)
        out = _apply(rho[None], ch.superoperator[None], targets, n)[0]
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-9
        probs = np.diagonal(out).real
        assert probs.min() > -1e-9
        assert abs(probs.sum() - 1.0) < 1e-9


def test_solver_satisfies_angle_equation():
    rng = np.random.default_rng(109)
    for _ in range(N_SOLVER):
        n = int(rng.integers(2, 6))
        lo = theta_min(n)
        theta = float(rng.uniform(lo, 0.95 * np.pi / 2))
        alpha, beta = solve_angles(n, theta)
        t = np.tan(theta / 2)
        resid = abs(np.exp(1j * alpha) + (1 + t * np.exp(1j * beta)) ** n - 1)
        assert resid < 1e-10
        assert 0.0 <= alpha < 2 * np.pi
        assert 0.0 <= beta <= np.pi


def test_solver_rejects_below_threshold():
    rng = np.random.default_rng(113)
    for _ in range(N_NO_SOLUTION):
        n = int(rng.integers(2, 6))
        theta = float(rng.uniform(0.2, 0.98)) * theta_min(n)
        with pytest.raises(NoSolutionError):
            solve_angles(n, theta)


def test_amplitude_law_matches_simulation():
    # closed form: the outcome amplitude depends on the input only through
    # the Hamming distance h, via (1+w)^(n-h) (1-w)^h + e^{i alpha} - 1
    rng = np.random.default_rng(127)
    for _ in range(N_AMPLITUDE):
        n = int(rng.integers(2, 4))
        theta = float(rng.uniform(theta_min(n), 0.94 * np.pi / 2))
        params = PBRParams.solve(n, theta)
        x = int(rng.integers(2**n))
        probs = outcome_distribution(build_test_circuit(x, params))
        w = np.tan(theta / 2) * np.exp(1j * params.beta)
        scale = np.cos(theta / 2) ** n / np.sqrt(2.0**n)
        for z in range(2**n):
            h = bin(x ^ z).count("1")
            amp = scale * ((1 + w) ** (n - h) * (1 - w) ** h + np.exp(1j * params.alpha) - 1)
            assert abs(probs[z] - abs(amp) ** 2) < 1e-11


def test_wilson_interval_brackets_estimate():
    rng = np.random.default_rng(131)
    for _ in range(N_WILSON):
        m = int(rng.integers(1, 100000))
        k = int(rng.integers(0, m + 1))
        conf = float(rng.uniform(0.5, 0.999))
        lo, hi = wilson_interval(k, m, conf)
        assert 0.0 <= lo <= k / m <= hi <= 1.0
        if 0 < k < m:
            assert lo < k / m < hi


def test_readout_mixing_preserves_total_probability():
    rng = np.random.default_rng(137)
    for _ in range(N_READOUT):
        n = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(2**n))
        mats = []
        for _ in range(n):
            p01 = float(rng.uniform(0, 0.2))
            p10 = float(rng.uniform(0, 0.2))
            mats.append(np.array([[1 - p10, p01], [p10, 1 - p01]]))
        out = apply_readout(probs, mats)
        assert out.min() >= -1e-12
        assert abs(out.sum() - 1.0) < 1e-10
