"""Gate IR: validation, unitaries, counts, durations."""

import numpy as np
import pytest

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
    SWAP,
    SX,
    X,
    circuit_duration,
    decompose_swap,
    gate_counts,
    gate_unitary,
)
from pbrsim.errors import KindError
from pbrsim.noise import depolarizing_channel, uniform_calibration
from dense_reference import conjugate, pure_matrix


def test_gate_validation():
    with pytest.raises(KindError):
        Gate("CNOT", (0, 1))
    with pytest.raises(ValueError):
        Gate(H, (0, 1))
    with pytest.raises(ValueError):
        Gate(CZ, (0,))
    with pytest.raises(ValueError):
        Gate(CZ, (1, 1))
    with pytest.raises(ValueError):
        Gate(RY, (0,))  # angle required
    with pytest.raises(ValueError):
        Gate(RY, (0,), angle=float("nan"))
    with pytest.raises(ValueError):
        Gate(H, (0,), angle=0.5)  # angle forbidden
    with pytest.raises(ValueError):
        Gate(MCPHASE_OPEN, (0,), angle=0.1)  # needs a control
    with pytest.raises(ValueError):
        Gate(NOISE, (0,))  # channel required
    with pytest.raises(ValueError):
        Gate(NOISE, (0, 1), channel=depolarizing_channel(0.1, 1))
    with pytest.raises(ValueError):
        Gate(H, (0,), channel=depolarizing_channel(0.1, 1))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(1, (Gate(H, (1,)),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate(MEASURE, (0,)), Gate(H, (1,))))
    c = Circuit(2, (Gate(H, (0,)), Gate(MEASURE, (1, 0))))
    assert c.measured_qubits == (1, 0)


def test_circuit_rejects_qubit_measured_twice():
    with pytest.raises(ValueError, match="qubit 0 is measured twice"):
        Circuit(2, (Gate(H, (0,)), Gate(MEASURE, (0,)), Gate(MEASURE, (0, 1))))
    split = Circuit(2, (Gate(MEASURE, (1,)), Gate(MEASURE, (0,))))
    assert split.measured_qubits == (1, 0)


def test_single_qubit_unitaries():
    h = gate_unitary(Gate(H, (0,)))
    assert np.abs(h - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-15
    x = gate_unitary(Gate(X, (0,)))
    assert np.abs(x - np.array([[0, 1], [1, 0]])).max() < 1e-15
    sx = gate_unitary(Gate(SX, (0,)))
    assert np.abs(sx @ sx - x).max() < 1e-15
    theta = 0.7
    ry = gate_unitary(Gate(RY, (0,), angle=theta))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    assert np.abs(ry - np.array([[c, -s], [s, c]])).max() < 1e-15
    ph = gate_unitary(Gate(PHASE, (0,), angle=theta))
    assert np.abs(ph - np.diag([1, np.exp(1j * theta)])).max() < 1e-15
    rz = gate_unitary(Gate(RZ, (0,), angle=theta))
    assert np.abs(rz - np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])).max() < 1e-15


def test_open_controlled_phase_unitaries():
    # phase fires when the control reads 0 and the target reads 1
    cp = gate_unitary(Gate(CPHASE_OPEN, (0, 1), angle=np.pi))
    assert np.abs(cp - np.diag([1.0, -1.0, 1.0, 1.0])).max() < 1e-15
    mcp = gate_unitary(Gate(MCPHASE_OPEN, (0, 1, 2), angle=0.4))
    expected = np.ones(8, dtype=complex)
    expected[1] = np.exp(0.4j)
    assert np.abs(mcp - np.diag(expected)).max() < 1e-15


def test_all_unitaries_are_unitary():
    rng = np.random.default_rng(2)
    for _ in range(30):
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        for g in (
            Gate(H, (0,)),
            Gate(X, (0,)),
            Gate(SX, (0,)),
            Gate(RY, (0,), angle=angle),
            Gate(RZ, (0,), angle=angle),
            Gate(PHASE, (0,), angle=angle),
            Gate(CZ, (0, 1)),
            Gate(SWAP, (0, 1)),
            Gate(CPHASE_OPEN, (0, 1), angle=angle),
            Gate(MCPHASE_OPEN, (0, 1, 2), angle=angle),
        ):
            u = gate_unitary(g)
            assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-12


def test_gate_unitary_rejects_nonunitary_kinds():
    with pytest.raises(KindError):
        gate_unitary(Gate(MEASURE, (0,)))


def test_decompose_swap_matches_swap():
    rng = np.random.default_rng(9)
    swap = gate_unitary(Gate(SWAP, (0, 1)))
    for _ in range(5):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        rho = pure_matrix(amps)
        direct = conjugate(rho, swap, (0, 1))
        stepped = rho
        for g in decompose_swap(0, 1):
            stepped = conjugate(stepped, gate_unitary(g), g.qubits)
        assert np.abs(direct - stepped).max() < 1e-12


def test_gate_counts():
    c = Circuit(
        3,
        (
            Gate(H, (0,)),
            Gate(RY, (1,), angle=0.3),
            Gate(CZ, (0, 1)),
            Gate(CPHASE_OPEN, (1, 2), angle=0.2),
            Gate(MCPHASE_OPEN, (0, 1, 2), angle=0.1),
            Gate(NOISE, (0,), channel=depolarizing_channel(0.01, 1)),
            Gate(MEASURE, (0, 1, 2)),
        ),
    )
    # two controls cost 2*2 - 1 = 3 CZ equivalents
    assert gate_counts(c) == (2, 5)


def test_swap_decomposition_counts():
    c = Circuit(2, tuple(decompose_swap(0, 1)))
    assert gate_counts(c) == (6, 3)


def test_circuit_duration():
    cal = uniform_calibration(2, single=30e-9, two=80e-9, readout=500e-9)
    c = Circuit(
        2,
        (
            Gate(H, (0,)),
            Gate(H, (1,)),
            Gate(CZ, (0, 1)),
            Gate(MEASURE, (0, 1)),
        ),
    )
    busy = circuit_duration(c, cal)
    assert np.abs(busy - np.array([30e-9 + 80e-9 + 500e-9] * 2)).max() < 1e-18
