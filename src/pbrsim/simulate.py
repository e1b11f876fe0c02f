"""Evolve circuits on density matrices and extract outcome distributions.

`outcome_distribution` is the one path from a circuit to its outcome
probabilities. Evolution holds each qubit only between its first and
last gate: a qubit joins the state as |0> at its first gate and is traced
out right after its last one unless it is kept (measured). No channel
touches an idle qubit, so this is exact, and a routed pair holds at most
three live qubits whatever its span. The simulation cap counts touched
plus measured qubits.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, MEASURE, NOISE, gate_unitary
from .config import SIMULATION_QUBIT_CAP
from .errors import CapError
from .states import DensityMatrix, apply_channel, apply_unitary, measurement_probs


def _add_qubit(rho: DensityMatrix) -> DensityMatrix:
    # rho -> rho (x) |0><0|, the new qubit as the least significant bit.
    dim = rho.dim
    out = np.zeros((dim, 2, dim, 2), dtype=complex)
    out[:, 0, :, 0] = rho.matrix
    return DensityMatrix(out.reshape(2 * dim, 2 * dim), check=False)


def _trace_out(rho: DensityMatrix, axis: int) -> DensityMatrix:
    # Partial trace over the qubit on one state axis.
    hi, lo = 2**axis, 2 ** (rho.n_qubits - axis - 1)
    t = rho.matrix.reshape(hi, 2, lo, hi, 2, lo)
    out = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
    return DensityMatrix(out.reshape(hi * lo, hi * lo), check=False)


def _evolve(c: Circuit, keep: tuple[int, ...]) -> DensityMatrix:
    """Final state on the `keep` qubits, in that order, from |0...0>.

    Every other qubit is traced out after its last gate; qubits in `keep`
    that no gate touches join as |0> at the end.
    """
    ops = [g for g in c.gates if g.kind != MEASURE]
    last = {q: i for i, g in enumerate(ops) for q in g.qubits}
    width = len(set(last).union(keep))
    if width > SIMULATION_QUBIT_CAP:
        raise CapError(f"{width} qubits exceeds the simulation cap of {SIMULATION_QUBIT_CAP}")
    live: list[int] = []  # circuit qubit on each state axis
    rho = DensityMatrix(np.ones((1, 1)), check=False)
    for i, g in enumerate(ops):
        for q in g.qubits:
            if q not in live:
                live.append(q)
                rho = _add_qubit(rho)
        axes = tuple(live.index(q) for q in g.qubits)
        if g.kind == NOISE:
            rho = apply_channel(rho, g.channel, axes)
        else:
            rho = apply_unitary(rho, gate_unitary(g), axes)
        for q in g.qubits:
            if last[q] == i and q not in keep:
                rho = _trace_out(rho, live.index(q))
                live.remove(q)
    for q in keep:
        if q not in live:
            live.append(q)
            rho = _add_qubit(rho)
    n = len(live)
    perm = [live.index(q) for q in keep]
    t = rho.matrix.reshape((2,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return DensityMatrix(t.reshape(2**n, 2**n), check=False)


def simulate_circuit(c: Circuit) -> tuple[DensityMatrix, tuple[int, ...]]:
    """Run a circuit from |0...0>.

    Returns the full n-qubit final state and the measured qubits in
    listed order.
    """
    return _evolve(c, tuple(range(c.n_qubits))), c.measured_qubits


def marginal_distribution(
    probs: np.ndarray, n_qubits: int, keep: tuple[int, ...]
) -> np.ndarray:
    """Marginalize a basis distribution onto the listed qubits, in that order."""
    t = np.asarray(probs).reshape((2,) * n_qubits)
    t = np.moveaxis(t, keep, range(len(keep)))
    return t.reshape(2 ** len(keep), -1).sum(axis=1)


def outcome_distribution(c: Circuit) -> np.ndarray:
    """Distribution over the circuit's measured qubits (all qubits if none).

    The first measured qubit is the most significant bit.
    """
    keep = c.measured_qubits or tuple(range(c.n_qubits))
    return measurement_probs(_evolve(c, keep))
