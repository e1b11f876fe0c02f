"""Gate IR: validation, unitaries, counts, durations."""

import dataclasses
import inspect
import re

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
    SX,
    X,
    _busy_times,
    decompose_swap,
    gate_counts,
    gate_diagonal,
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


NAN = float("nan")
INF = float("inf")

# (kind, qubits, angle, channel arity or None, exception type, exact message).
# Each row breaks one rule, or two where the check order decides which is named.
GATE_REJECTIONS = [
    # Every kind with a wrong qubit count (NOISE's count is its channel's arity).
    (H, (0, 1), None, None, ValueError, "H acts on exactly 1 qubit, got 2"),
    (X, (), None, None, ValueError, "X acts on exactly 1 qubit, got 0"),
    (SX, (0, 1), None, None, ValueError, "SX acts on exactly 1 qubit, got 2"),
    (RY, (0, 1), 0.1, None, ValueError, "RY acts on exactly 1 qubit, got 2"),
    (RZ, (), 0.1, None, ValueError, "RZ acts on exactly 1 qubit, got 0"),
    (PHASE, (0, 1, 2), 0.1, None, ValueError, "PHASE acts on exactly 1 qubit, got 3"),
    (CZ, (0,), None, None, ValueError, "CZ acts on exactly 2 qubits, got 1"),
    (CPHASE_OPEN, (0, 1, 2), 0.1, None, ValueError, "CPHASE_OPEN acts on exactly 2 qubits, got 3"),
    (MCPHASE_OPEN, (0,), 0.1, None, ValueError,
     "MCPHASE_OPEN needs at least one control and a target"),
    (MCPHASE_OPEN, (), 0.1, None, ValueError,
     "MCPHASE_OPEN needs at least one control and a target"),
    (MEASURE, (), None, None, ValueError, "MEASURE needs at least one qubit"),
    (NOISE, (0, 1), None, 1, ValueError, "channel arity 1 does not match 2 qubits"),
    # Duplicate qubits, checked before the count.
    (CZ, (1, 1), None, None, ValueError, "CZ lists duplicate qubits (1, 1)"),
    (H, (0, 0), None, None, ValueError, "H lists duplicate qubits (0, 0)"),
    (MEASURE, (0, 1, 0), None, None, ValueError, "MEASURE lists duplicate qubits (0, 1, 0)"),
    # A missing, non-finite or extra angle, checked after the count.
    (RY, (0,), None, None, ValueError, "RY needs a finite angle, got None"),
    (RZ, (0,), NAN, None, ValueError, "RZ needs a finite angle, got nan"),
    (CPHASE_OPEN, (0, 1), INF, None, ValueError, "CPHASE_OPEN needs a finite angle, got inf"),
    (MCPHASE_OPEN, (0, 1, 2), -INF, None, ValueError,
     "MCPHASE_OPEN needs a finite angle, got -inf"),
    (H, (0,), 0.5, None, ValueError, "H takes no angle"),
    (MEASURE, (0,), 0.5, None, ValueError, "MEASURE takes no angle"),
    (NOISE, (0,), 0.5, 1, ValueError, "NOISE takes no angle"),
    (H, (0, 1), 0.5, None, ValueError, "H acts on exactly 1 qubit, got 2"),
    # A missing, extra or arity-mismatched channel, checked last.
    (NOISE, (0,), None, None, ValueError, "NOISE needs a channel"),
    (H, (0,), None, 1, ValueError, "H takes no channel"),
    (CZ, (0, 1), None, 2, ValueError, "CZ takes no channel"),
    (NOISE, (0,), None, 2, ValueError, "channel arity 2 does not match 1 qubits"),
    (H, (0,), 0.5, 1, ValueError, "H takes no angle"),
    # An unknown kind, checked before everything but the qubit indices.
    ("CNOT", (0, 1), None, None, KindError, "unknown gate kind 'CNOT'"),
    ("h", (0,), None, None, KindError, "unknown gate kind 'h'"),
    ("CNOT", (0, 0, 0), 0.5, 1, KindError, "unknown gate kind 'CNOT'"),
    # Qubit indices must be integers: no rounding, no parsing.
    (H, (1.5,), None, None, ValueError, "H qubits (1.5,) must be integers"),
    (H, ("1",), None, None, ValueError, "H qubits ('1',) must be integers"),
    (CZ, (0.2, 0.7), None, None, ValueError, "CZ qubits (0.2, 0.7) must be integers"),
    (CZ, (0, np.float64(1.0)), None, None, ValueError,
     f"CZ qubits {(0, np.float64(1.0))!r} must be integers"),
    # Bools are not integers here, as for sizes, spans and placements: True
    # used to run as qubit 1.
    (X, (True,), None, None, ValueError, "X qubits (True,) must be integers"),
    (CZ, (0, False), None, None, ValueError, "CZ qubits (0, False) must be integers"),
    (H, (np.bool_(True),), None, None, ValueError,
     f"H qubits {(np.bool_(True),)!r} must be integers"),
]


@pytest.mark.parametrize(
    "kind, qubits, angle, arity, error, message",
    GATE_REJECTIONS,
    ids=[f"{i}-{row[0]}" for i, row in enumerate(GATE_REJECTIONS)],
)
def test_gate_rejects_each_broken_rule(kind, qubits, angle, arity, error, message):
    channel = None if arity is None else depolarizing_channel(0.1, arity)
    with pytest.raises(ValueError) as exc:
        Gate(kind, qubits, angle, channel)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_gate_is_a_frozen_dataclass_of_its_fields():
    names = [f.name for f in dataclasses.fields(Gate)]
    assert names == ["kind", "qubits", "angle", "channel"]
    assert list(inspect.signature(Gate).parameters) == names
    g = Gate(kind=RY, qubits=[np.int64(2)], angle=0.5)
    assert g == Gate(RY, (2,), 0.5)
    assert g.qubits == (2,) and type(g.qubits[0]) is int
    mixed = Gate(CZ, [0, np.int64(1)])
    assert mixed.qubits == (0, 1) and all(type(q) is int for q in mixed.qubits)
    assert repr(Gate(H, (0,))) == "Gate(kind='H', qubits=(0,), angle=None, channel=None)"
    assert dataclasses.replace(g, qubits=(3,)) == Gate(RY, (3,), 0.5)
    with pytest.raises(ValueError, match=r"^RY acts on exactly 1 qubit, got 2$"):
        dataclasses.replace(g, qubits=(0, 1))
    with pytest.raises(ValueError, match=r"^RY needs a finite angle, got None$"):
        dataclasses.replace(g, angle=None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.angle = 0.6
    with pytest.raises(dataclasses.FrozenInstanceError):
        del g.kind
    assert g != Gate(RY, (2,), 0.6) and g != Gate(RZ, (2,), 0.5)
    # Equality and hash ignore the channel.
    a = Gate(NOISE, (0,), channel=depolarizing_channel(0.1, 1))
    b = Gate(NOISE, (0,), channel=depolarizing_channel(0.2, 1))
    assert a.channel is not b.channel
    assert a == b and hash(a) == hash(b)
    assert hash(g) == hash(Gate(RY, (2,), 0.5))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(1, (Gate(H, (1,)),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate(MEASURE, (0,)), Gate(H, (1,))))
    # A negative index would be dropped or misread by the simulator.
    with pytest.raises(ValueError, match=r"^gate X uses qubit -1 < 0$"):
        Circuit(2, (Gate(X, (-1,)), Gate(MEASURE, (0, 1))))
    with pytest.raises(ValueError, match=r"^gate MEASURE uses qubit -1 < 0$"):
        Circuit(2, (Gate(X, (0,)), Gate(MEASURE, (-1, 0))))
    c = Circuit(2, (Gate(H, (0,)), Gate(MEASURE, (1, 0))))
    assert c.measured_qubits == (1, 0)


def test_circuit_size_must_be_an_integer():
    # A float size was kept and failed later in the simulator as a bare
    # TypeError; True ran as one qubit.
    for size in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match=f"^n_qubits={re.escape(repr(size))} must be an integer$"):
            Circuit(size, (Gate(H, (0,)),))
    with pytest.raises(ValueError, match="at least one qubit"):
        Circuit(-2, ())
    # numpy integers run as the Python int they equal.
    c = Circuit(np.int64(2), (Gate(H, (0,)), Gate(MEASURE, (0, 1))))
    assert type(c.n_qubits) is int and c == Circuit(2, c.gates)


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
            Gate(CPHASE_OPEN, (0, 1), angle=angle),
            Gate(MCPHASE_OPEN, (0, 1, 2), angle=angle),
        ):
            u = gate_unitary(g)
            assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-12


def test_gate_unitary_rejects_nonunitary_kinds():
    with pytest.raises(KindError):
        gate_unitary(Gate(MEASURE, (0,)))
    for g in (Gate(H, (0,)), Gate(RY, (0,), angle=0.3), Gate(MEASURE, (0,))):
        with pytest.raises(KindError, match=f"^{g.kind} is not a diagonal gate$"):
            gate_diagonal(g)


def test_decompose_swap_matches_swap():
    rng = np.random.default_rng(9)
    swap = np.eye(4)[[0, 2, 1, 3]]
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


def test_decompose_swap_shares_three_gates_equal_to_fresh_ones():
    gates = decompose_swap(3, 5)
    fresh = [Gate(*spec) for spec in [
        (H, (5,)), (CZ, (3, 5)), (H, (5,)),
        (H, (3,)), (CZ, (3, 5)), (H, (3,)),
        (H, (5,)), (CZ, (3, 5)), (H, (5,)),
    ]]
    assert gates == fresh
    assert len({id(g) for g in gates}) == 3


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
    busy = _busy_times(c, cal, range(c.n_qubits))
    assert np.abs(np.array(busy) - np.array([30e-9 + 80e-9 + 500e-9] * 2)).max() < 1e-18
