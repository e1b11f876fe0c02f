"""Evolve circuits on density matrices and extract outcome distributions.

`outcome_distribution` is the one path from a circuit to its outcome
probabilities; the simulation cap applies to the qubits it keeps live.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate, MEASURE, NOISE, gate_unitary
from .config import SIMULATION_QUBIT_CAP
from .errors import CapError
from .states import DensityMatrix, apply_channel, apply_unitary, ground_state, measurement_probs


def simulate_circuit(c: Circuit) -> tuple[DensityMatrix, tuple[int, ...]]:
    """Run a circuit from |0...0>.

    Returns the final state and the measured qubits in listed order.
    """
    if c.n_qubits > SIMULATION_QUBIT_CAP:
        raise CapError(
            f"{c.n_qubits} qubits exceeds the simulation cap of {SIMULATION_QUBIT_CAP}"
        )
    rho = ground_state(c.n_qubits)
    for g in c.gates:
        if g.kind == NOISE:
            rho = apply_channel(rho, g.channel, g.qubits)
        elif g.kind != MEASURE:
            rho = apply_unitary(rho, gate_unitary(g), g.qubits)
    return rho, c.measured_qubits


def marginal_distribution(
    probs: np.ndarray, n_qubits: int, keep: tuple[int, ...]
) -> np.ndarray:
    """Marginalize a basis distribution onto the listed qubits, in that order."""
    t = np.asarray(probs).reshape((2,) * n_qubits)
    t = np.moveaxis(t, keep, range(len(keep)))
    return t.reshape(2 ** len(keep), -1).sum(axis=1)


def outcome_distribution(c: Circuit) -> np.ndarray:
    """Distribution over the circuit's measured qubits (all qubits if none).

    Qubits no gate touches stay in |0>, so they are left out of the
    simulation. The first measured qubit is the most significant bit.
    """
    keep = c.measured_qubits or tuple(range(c.n_qubits))
    live = sorted({q for g in c.gates for q in g.qubits}.union(keep))
    if live != list(range(c.n_qubits)):
        index = {q: i for i, q in enumerate(live)}
        gates = tuple(
            Gate(g.kind, tuple(index[q] for q in g.qubits), g.angle, g.duration, g.channel)
            for g in c.gates
        )
        c = Circuit(len(live), gates)
        keep = tuple(index[q] for q in keep)
    final, _ = simulate_circuit(c)
    probs = measurement_probs(final)
    if keep == tuple(range(c.n_qubits)):
        return probs
    return marginal_distribution(probs, c.n_qubits, keep)
