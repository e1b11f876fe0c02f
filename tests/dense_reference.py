"""Full-register Kraus-sum reference that the simulator is checked against.

Every qubit of a circuit is held from the start and every gate is applied
in order to the whole 2^n x 2^n density matrix, as Nielsen & Chuang ch. 8
write it: rho -> U rho U^dagger for a unitary, rho -> sum_K K rho K^dagger
for a channel. Operators are embedded with `np.tensordot` on plain
matrices. Nothing here comes from `pbrsim.simulate` or `pbrsim.states`, so
a fault in the simulator's contraction kernel cannot hide in its reference.

Qubit 0 is the most significant bit of a basis index, and the first listed
target is the most significant bit of an operator's own basis.

`lifetime_distribution` is the same sum on fewer qubits at a time: a
qubit joins as |0><0| at its first gate and, unless it is measured, is
traced out right after its last, so a routed pair can be checked at spans
whose full register would not fit in memory.
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


def lifetime_distribution(c):
    """`dense_distribution(c)`, holding each qubit only from its first gate to its last.

    A measured qubit (every qubit when none is) is held from its first gate
    to the end, and joins there as |0><0| if no gate touches it. Each gate
    acts on the live qubits alone, by the same Kraus sums as `dense_state`.
    """
    gates = [g for g in c.gates if g.kind != MEASURE]
    keep = list(c.measured_qubits or range(c.n_qubits))
    last = {q: i for i, g in enumerate(gates) for q in g.qubits}
    live = []  # the qubit on each axis of rho, the first most significant
    rho = np.ones((1, 1), dtype=complex)

    def join(q):
        nonlocal rho
        live.append(q)
        rho = np.kron(rho, ground_matrix(1))

    for i, g in enumerate(gates):
        for q in g.qubits:
            if q not in live:
                join(q)
        targets = [live.index(q) for q in g.qubits]
        if g.kind == NOISE:
            rho = kraus_apply(rho, g.channel.operators, targets)
        else:
            rho = conjugate(rho, gate_unitary(g), targets)
        for q in g.qubits:
            if last[q] == i and q not in keep:
                m = len(live)
                t = rho.reshape((2,) * (2 * m))
                axis = live.index(q)
                rho = np.trace(t, axis1=axis, axis2=m + axis).reshape(2 ** (m - 1), -1)
                live.remove(q)
    for q in keep:
        if q not in live:
            join(q)
    probs = np.clip(np.diagonal(rho).real, 0.0, 1.0).reshape((2,) * len(live))
    return np.moveaxis(probs, [live.index(q) for q in keep], range(len(keep))).reshape(-1)
