"""Full-register Kraus-sum reference that the simulator is checked against.

Every qubit of a circuit is held from the start and every gate is applied
in order to the whole 2^n x 2^n density matrix, as Nielsen & Chuang ch. 8
write it: rho -> U rho U^dagger for a unitary, rho -> sum_K K rho K^dagger
for a channel. Operators are embedded with `np.tensordot` on plain
matrices. Nothing here comes from `pbrsim.simulate` or `pbrsim.states`, so
a fault in the simulator's contraction kernel cannot hide in its reference.

Qubit 0 is the most significant bit of a basis index, and the first listed
target is the most significant bit of an operator's own basis.
"""

import numpy as np

from pbrsim.circuits import MEASURE, NOISE, gate_unitary


def ground_matrix(n):
    """|0...0><0...0| on n qubits."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def pure_matrix(amplitudes):
    """|psi><psi| from a normalized amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def conjugate(rho, op, targets):
    """op rho op^dagger, with the (d, d) operator `op` on the listed qubits of rho."""
    n = rho.shape[0].bit_length() - 1
    k = len(targets)
    rows = list(targets)
    cols = [n + q for q in targets]
    o = np.asarray(op, dtype=complex).reshape((2,) * (2 * k))
    op_in = list(range(k, 2 * k))
    t = rho.reshape((2,) * (2 * n))
    # op's output axes come first; put them where the target rows were.
    t = np.moveaxis(np.tensordot(o, t, axes=(op_in, rows)), range(k), rows)
    # conj(op)'s output axes come last; put them where the target columns were.
    t = np.moveaxis(np.tensordot(t, o.conj(), axes=(cols, op_in)), range(2 * n - k, 2 * n), cols)
    return t.reshape(rho.shape)


def kraus_apply(rho, operators, targets):
    """sum_K K rho K^dagger on the listed qubits of rho."""
    return sum(conjugate(rho, k, targets) for k in operators)


def dense_state(c):
    """Final n-qubit density matrix of a circuit run from |0...0>."""
    rho = ground_matrix(c.n_qubits)
    for g in c.gates:
        if g.kind == NOISE:
            rho = kraus_apply(rho, g.channel.operators, g.qubits)
        elif g.kind != MEASURE:
            rho = conjugate(rho, gate_unitary(g), g.qubits)
    return rho


def dense_distribution(c):
    """Distribution over the measured qubits (all if none), first measured most significant."""
    n = c.n_qubits
    keep = list(c.measured_qubits or range(n))
    probs = np.clip(np.diagonal(dense_state(c)).real, 0.0, 1.0).reshape((2,) * n)
    return np.moveaxis(probs, keep, range(len(keep))).reshape(2 ** len(keep), -1).sum(axis=1)
