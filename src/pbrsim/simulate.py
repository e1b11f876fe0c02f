"""Evolve circuits on density matrices and extract outcome distributions.

This module is the package's one state engine. `outcome_distributions`
is the one path from circuits to their outcome probabilities;
`outcome_distribution` is its one-circuit case. Evolution holds each
qubit only between its first and last gate: a qubit joins the state as
|0> at its first gate and is traced out right after its last one unless
it is kept (measured). No channel touches an idle qubit, so this is
exact, and a routed pair holds at most three live qubits whatever its span.
The simulation cap counts touched plus measured qubits.

Circuits that share one gate structure (the 2^n inputs of a run differ
only in their preparation angles) evolve together as one (B, 2^w, 2^w)
stack: a gate that is the same in every circuit is applied once to the
stack, a gate whose angle differs is applied as a (B, d, d) stack of
unitaries. Each state's floats do not depend on the batch it is in. The
stack is split into chunks of at most CHUNK_ENTRIES complex entries at the
peak live width w, which bounds the memory a batch adds.

A stack of b states on w live qubits is a (b, 2^w, 2^w) array; viewed as
(b,) + (2,) * 2w, live qubit i is row axis 1 + i and column axis 1 + w + i.
Operators act on it by tensor contraction over their target axes, never
as full 2^w x 2^w matrices.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .circuits import Circuit, MEASURE, NOISE, gate_unitary
from .config import SIMULATION_QUBIT_CAP
from .errors import CapError
from .states import KrausChannel, check_unitary

# B * 4^w complex entries evolved at once, w the peak live width: 8 inputs at w=5.
CHUNK_ENTRIES = 2**13

_ADD = "add"  # schedule step: a qubit joins as |0>


@functools.lru_cache(maxsize=256)
def _contract_axes(targets: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    # The three transposes `_contract` makes of a (B,) + (2,) * 2n stack:
    # target row axes to the front; from there to the original order with
    # the target column axes moved last; from there back to the original.
    rows = [1 + q for q in targets]
    cols = [1 + n + q for q in targets]
    first = [0] + rows + [a for a in range(1, 2 * n + 1) if a not in rows]
    second = [a for a in range(2 * n + 1) if a not in cols] + cols
    back = np.argsort(first)
    return tuple(first), tuple(back[second]), tuple(np.argsort(second))


def _contract(mats: np.ndarray, op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    # Each rho of a (B, 2^n, 2^n) stack -> (op x I) rho (op x I)^dagger on the
    # target axes. `op` is one (d, d) operator for every state or a (B, d, d)
    # stack, one per state. Every slice is one (d x d) @ (d x rest) product and
    # one (rest x d) @ (d x d) product, whatever B is.
    first, middle, last = _contract_axes(targets, n)
    b, d = mats.shape[0], 2 ** len(targets)
    t = mats.reshape((b,) + (2,) * (2 * n)).transpose(first)
    t = np.matmul(op, t.reshape(b, d, -1)).reshape(t.shape).transpose(middle)
    t = np.matmul(t.reshape(b, -1, d), op.conj().swapaxes(-1, -2)).reshape(t.shape)
    return t.transpose(last).reshape(mats.shape)


def _kraus_sum(mats: np.ndarray, ch: KrausChannel, targets: tuple[int, ...], n: int) -> np.ndarray:
    # sum_K K rho K^dagger on the target axes, for each rho of a (B, 2^n, 2^n) stack.
    out = np.zeros_like(mats)
    for k in ch.operators:
        out += _contract(mats, k, targets, n)
    return out


def _add_qubit(mats: np.ndarray) -> np.ndarray:
    # rho -> rho (x) |0><0| for each state, the new qubit as the least significant bit.
    b, dim, _ = mats.shape
    out = np.zeros((b, dim, 2, dim, 2), dtype=complex)
    out[:, :, 0, :, 0] = mats
    return out.reshape(b, 2 * dim, 2 * dim)


def _trace_out(mats: np.ndarray, axis: int) -> np.ndarray:
    # Partial trace over the qubit on one state axis, for each state.
    b, dim, _ = mats.shape
    hi, lo = 2**axis, dim // 2 ** (axis + 1)
    t = mats.reshape(b, hi, 2, lo, hi, 2, lo)
    out = t[:, :, 0, :, :, 0, :] + t[:, :, 1, :, :, 1, :]
    return out.reshape(b, hi * lo, hi * lo)


def _shared_operators(circuits: list[Circuit]) -> list:
    """The operator at each non-MEASURE gate position of a batch.

    A NOISE position gives its KrausChannel; a unitary position gives one
    (d, d) matrix when every circuit has the same gate there, else a
    (B, d, d) stack. Raises ValueError unless the circuits share one gate
    structure: the same kinds on the same qubits, the same channel objects
    and the same measured qubits; only the angles of unitary gates may
    differ.
    """
    first = circuits[0]
    for c in circuits[1:]:
        if c.n_qubits != first.n_qubits or len(c.gates) != len(first.gates):
            raise ValueError("circuits in a batch must share one gate structure")
    ops: list = []
    for column in zip(*(c.gates for c in circuits)):
        g = column[0]
        for h in column[1:]:
            if (h.kind, h.qubits) != (g.kind, g.qubits) or h.channel is not g.channel:
                raise ValueError(
                    f"circuits in a batch differ in their {g.kind} gate on qubits {g.qubits}"
                )
        if g.kind == NOISE:
            ops.append(g.channel)
        elif g.kind != MEASURE:
            same = all(h == g for h in column)  # Gate equality compares the angle
            u = gate_unitary(g) if same else np.stack([gate_unitary(h) for h in column])
            check_unitary(u)
            ops.append(u)
    return ops


def _evolve(circuits: list[Circuit], keep: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Final states on the `keep` qubits, in that order, from |0...0>.

    Yields them chunk by chunk in circuit order, each chunk a (b, 2^m, 2^m)
    stack; the circuits must share one gate structure. Every other qubit is
    traced out after its last gate; qubits in `keep` that no gate touches
    join as |0> at the end.
    """
    ops = _shared_operators(circuits)
    gates = [g for g in circuits[0].gates if g.kind != MEASURE]
    last = {q: i for i, g in enumerate(gates) for q in g.qubits}
    width = len(set(last).union(keep))
    if width > SIMULATION_QUBIT_CAP:
        raise CapError(f"{width} qubits exceeds the simulation cap of {SIMULATION_QUBIT_CAP}")
    # One lifetime schedule serves the whole batch: _ADD, (operator, axes),
    # or the state axis of a qubit to trace out.
    steps: list = []
    live: list[int] = []  # circuit qubit on each state axis
    peak = 0
    for i, (g, op) in enumerate(zip(gates, ops)):
        for q in g.qubits:
            if q not in live:
                live.append(q)
                steps.append(_ADD)
        peak = max(peak, len(live))
        steps.append((op, tuple(live.index(q) for q in g.qubits)))
        for q in g.qubits:
            if last[q] == i and q not in keep:
                steps.append(live.index(q))
                live.remove(q)
    for q in keep:
        if q not in live:
            live.append(q)
            steps.append(_ADD)
    peak = max(peak, len(live))
    n = len(live)
    perm = [live.index(q) for q in keep]
    axes = [0] + [1 + p for p in perm] + [1 + n + p for p in perm]

    total = len(circuits)
    chunk = max(1, CHUNK_ENTRIES // 4**peak)
    for start in range(0, total, chunk):
        stop = min(total, start + chunk)
        rho = np.ones((stop - start, 1, 1), dtype=complex)
        for step in steps:
            if step is _ADD:
                rho = _add_qubit(rho)
            elif isinstance(step, int):
                rho = _trace_out(rho, step)
            else:
                op, targets = step
                w = rho.shape[1].bit_length() - 1
                if isinstance(op, KrausChannel):
                    rho = _kraus_sum(rho, op, targets, w)
                else:
                    rho = _contract(rho, op if op.ndim == 2 else op[start:stop], targets, w)
        t = rho.reshape((stop - start,) + (2,) * (2 * n)).transpose(axes)
        yield t.reshape(stop - start, 2**n, 2**n)


def outcome_distributions(circuits) -> np.ndarray:
    """Distributions over the measured qubits (all qubits if none), one row per circuit.

    The circuits must share one gate structure (see `_shared_operators`);
    returns a (B, 2^m) array. The first measured qubit is the most
    significant bit.
    """
    circuits = list(circuits)
    if not circuits:
        raise ValueError("outcome_distributions needs at least one circuit")
    c = circuits[0]
    chunks = _evolve(circuits, c.measured_qubits or tuple(range(c.n_qubits)))
    return np.concatenate(
        [np.clip(np.diagonal(rhos, axis1=1, axis2=2).real, 0.0, 1.0) for rhos in chunks]
    )


def outcome_distribution(c: Circuit) -> np.ndarray:
    """Distribution over the circuit's measured qubits (all qubits if none).

    The first measured qubit is the most significant bit.
    """
    return outcome_distributions([c])[0]
