"""Evolve circuits on density matrices and extract outcome distributions.

This module is the package's one state engine. `outcome_distributions`
is the one path from a circuit to its outcome probabilities;
`outcome_distribution` is its case of one input. Evolution holds each
qubit only between its first and last gate: a qubit joins the state as
|0> at its first gate and is traced out right after its last one unless
it is kept (measured). No channel touches an idle qubit, so this is
exact, and a routed pair holds at most three live qubits whatever its span.
The simulation cap counts touched plus measured qubits.

One circuit evolves B inputs that differ only in their angles (the 2^n
inputs of a run) as one (B, 2^w, 2^w) stack, row b of a (B, k) table
giving input b's angles for the circuit's k angled gates. An operator
that is the same for every row is applied once to the stack, one whose
angle differs as B operators, built once per distinct angle. Each state's
floats do not depend on the other rows. Chunks of at most CHUNK_ENTRIES
complex entries at the peak live width w bound the memory a table adds.

A stack of b states on w live qubits is a (b, 2^w, 2^w) array; viewed as
(b,) + (2,) * 2w, live qubit i is row axis 1 + i and column axis 1 + w + i.
Every operator acts in Liouville form (Wood, Biamonte & Cory,
arXiv:1111.6950) on the row-major flattening of its k target qubits'
row and column axes, d = 2^k: a channel as its (d^2, d^2) superoperator
sum_K K (x) conj(K), a unitary as U (x) conj(U), and a diagonal unitary
as its d^2 phase vector diag(U) (x) conj(diag(U)). The one kernel,
`_apply`, moves the target row and column axes to the front, applies one
matrix product (one elementwise product for a diagonal) and moves the
axes back. When the schedule is built, consecutive operators on the same
live axes are multiplied into one, and two diagonals stay a diagonal.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .circuits import DIAGONAL_KINDS, Circuit, Gate, MEASURE, NOISE, gate_diagonal, gate_unitary
from .config import SIMULATION_QUBIT_CAP
from .errors import CapError
from .states import check_phases, check_unitary

# B * 4^w complex entries evolved at once, w the peak live width: 8 inputs at w=5.
CHUNK_ENTRIES = 2**13

_ADD = "add"  # schedule step: a qubit joins as |0>


@functools.lru_cache(maxsize=256)
def _kernel_axes(targets: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The transposes `_apply` makes of a (B,) + (2,) * 2n stack: target row
    # axes, then target column axes, to the front; and back again.
    rows = [1 + q for q in targets]
    cols = [1 + n + q for q in targets]
    front = [0] + rows + cols + [a for a in range(1, 2 * n + 1) if a not in rows + cols]
    return tuple(front), tuple(int(a) for a in np.argsort(front))


def _apply(mats: np.ndarray, op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    # One Liouville operator on the target axes of each rho of a (B, 2^n, 2^n)
    # stack. `op` is a (k, d^2, d^2) superoperator or a (k, d^2) diagonal,
    # k = 1 for every state alike or k = B, one per state. Each state is one
    # (d^2 x d^2) @ (d^2 x rest) product, or one elementwise multiply.
    front, back = _kernel_axes(targets, n)
    b = mats.shape[0]
    t = mats.reshape((b,) + (2,) * (2 * n)).transpose(front)
    shape = t.shape
    t = t.reshape(b, op.shape[-1], -1)
    t = t * op[:, :, None] if op.ndim == 2 else np.matmul(op, t)
    return t.reshape(shape).transpose(back).reshape(mats.shape)


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    # The Liouville operator of `earlier` then `later`; two diagonals stay diagonal.
    if later.ndim == 2:
        return later * earlier if earlier.ndim == 2 else later[:, :, None] * earlier
    return later * earlier[:, None, :] if earlier.ndim == 2 else np.matmul(later, earlier)


def _liouville(u: np.ndarray) -> np.ndarray:
    # (k, d, d) unitaries -> (k, d^2, d^2) superoperators U (x) conj(U).
    k, d = u.shape[:2]
    return (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(k, d * d, d * d)


def _phases(diag: np.ndarray) -> np.ndarray:
    # (k, d) unitary diagonals -> (k, d^2) superoperator diagonals diag (x) conj(diag).
    return (diag[:, :, None] * diag.conj()[:, None, :]).reshape(len(diag), -1)


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


def _operators(c: Circuit, angles: np.ndarray) -> list[np.ndarray]:
    """The Liouville operator at each non-MEASURE gate of `c`.

    A NOISE gate gives its channel's superoperator; a unitary gives
    U (x) conj(U), or for a diagonal gate its d^2 phase vector
    diag(U) (x) conj(diag(U)). The j-th angled gate takes its angles from
    column j of the (B, k) `angles` table, one operator per distinct angle.
    Each operator's leading axis is 1 when every row agrees, else B.
    """
    ops: list[np.ndarray] = []
    columns = iter(angles.T)
    for g in c.gates:
        if g.kind == NOISE:
            ops.append(g.channel.superoperator[None])
        elif g.kind != MEASURE:
            variants, index = [g], None
            if g.angle is not None:
                values, index = np.unique(next(columns), return_inverse=True)
                variants = [Gate(g.kind, g.qubits, angle=float(a)) for a in values]
            if g.kind in DIAGONAL_KINDS:
                diag = np.stack([gate_diagonal(h) for h in variants])
                check_phases(diag)
                op = _phases(diag)
            else:
                u = np.stack([gate_unitary(h) for h in variants])
                check_unitary(u)
                op = _liouville(u)
            ops.append(op if len(variants) == 1 else op[index])
    return ops


def _evolve(c: Circuit, keep: tuple[int, ...], angles=None) -> Iterator[np.ndarray]:
    """Final states on the `keep` qubits, in that order, from |0...0>.

    State b takes its angles from row b of `angles` (see
    `outcome_distributions`). Yields the states chunk by chunk in row order,
    each chunk a (b, 2^m, 2^m) stack. Every other qubit is traced out after
    its last gate; qubits in `keep` that no gate touches join as |0> at the end.
    """
    own = [g.angle for g in c.gates if g.angle is not None]
    table = np.asarray([own] if angles is None else angles, dtype=float)
    if table.shape[1:] != (len(own),) or not len(table) or not np.isfinite(table).all():
        raise ValueError(f"angle table {table.shape} is not B>=1 rows of {len(own)} finite angles")
    ops = _operators(c, table)
    gates = [g for g in c.gates if g.kind != MEASURE]
    last = {q: i for i, g in enumerate(gates) for q in g.qubits}
    width = len(set(last).union(keep))
    if width > SIMULATION_QUBIT_CAP:
        raise CapError(f"{width} qubits exceeds the simulation cap of {SIMULATION_QUBIT_CAP}")
    # One lifetime schedule serves every row: _ADD, [operator, axes],
    # or the state axis of a qubit to trace out. Consecutive operators on the
    # same axes are fused into one.
    steps: list = []
    live: list[int] = []  # circuit qubit on each state axis
    peak = 0
    for i, (g, op) in enumerate(zip(gates, ops)):
        for q in g.qubits:
            if q not in live:
                live.append(q)
                steps.append(_ADD)
        peak = max(peak, len(live))
        targets = tuple(live.index(q) for q in g.qubits)
        if steps and isinstance(steps[-1], list) and steps[-1][1] == targets:
            steps[-1][0] = _compose(op, steps[-1][0])
        else:
            steps.append([op, targets])
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

    total = len(table)
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
                rho = _apply(rho, op if len(op) == 1 else op[start:stop], targets, w)
        t = rho.reshape((stop - start,) + (2,) * (2 * n)).transpose(axes)
        yield t.reshape(stop - start, 2**n, 2**n)


def outcome_distributions(c: Circuit, angles=None) -> np.ndarray:
    """Distributions over the measured qubits (all qubits if none), one row per angle row.

    Row b of the (B, k) `angles` table gives the angles of the circuit's k
    angled gates, in circuit order; by default the circuit's own angles
    are the one row. Returns a (B, 2^m) array. The first measured qubit is
    the most significant bit.
    """
    chunks = _evolve(c, c.measured_qubits or tuple(range(c.n_qubits)), angles)
    return np.concatenate(
        [np.clip(np.diagonal(rhos, axis1=1, axis2=2).real, 0.0, 1.0) for rhos in chunks]
    )


def outcome_distribution(c: Circuit) -> np.ndarray:
    """Distribution over the circuit's measured qubits (all qubits if none).

    The first measured qubit is the most significant bit.
    """
    return outcome_distributions(c)[0]
