"""Evolve circuits on density matrices and extract outcome distributions.

This module is the package's one state engine. `outcome_distributions`
is the one path from a circuit to its outcome probabilities;
`outcome_distribution` is its case of one input. Evolution holds each
qubit only between its first and last multi-qubit operator. The
single-qubit operators before a qubit's first one are multiplied into
one and applied to |0><0| alone: the qubit joins the state in that
prefix state, as rho (x) sigma. Those after its last one form its suffix:
a discarded qubit is traced out right after its last multi-qubit
operator, its suffix dropped, as every channel is trace-preserving; a
kept (measured) qubit's suffix is multiplied into one map, and the
distribution reads only that map's two population rows, once per qubit,
where it would read the diagonal. A qubit that no multi-qubit operator
touches joins at the end if it is kept and never joins otherwise. No
channel touches an idle qubit, so this is exact, and a routed pair holds
at most three live qubits whatever its span. The simulation cap counts
touched plus measured qubits.

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
axes back. It runs only for multi-qubit operators and for single-qubit
ones that lie between two multi-qubit operators on their qubit. When the
schedule is built, consecutive operators on the same live axes are
multiplied into one, and two diagonals stay a diagonal. A gate without an
angle has one read-only operator per process, shared by every position.
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


def _joining_state(prefix: np.ndarray | None) -> np.ndarray:
    # (k, 2, 2) state of a qubit as it joins: its prefix operator applied to
    # |0><0|. vec(|0><0|) is e_0, so that is column 0 of a superoperator, or
    # D[0] |0><0| for a diagonal D; with no prefix it is |0><0| itself.
    ground = np.eye(1, 4, dtype=complex)
    if prefix is None:
        vec = ground
    elif prefix.ndim == 2:
        vec = prefix * ground
    else:
        vec = prefix[:, :, 0]
    return vec.reshape(-1, 2, 2)


def _join(mats: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    # rho -> sigma (x) rho for each state, the new qubit on state axis 0 (its
    # most significant bit), which keeps numpy's inner loop over a whole row of
    # rho; `sigma` is (1, 2, 2) for every state alike or (B, 2, 2), one per state.
    b, dim, _ = mats.shape
    return (sigma[:, :, None, :, None] * mats[:, None, :, None, :]).reshape(b, 2 * dim, 2 * dim)


def _trace_out(mats: np.ndarray, axis: int) -> np.ndarray:
    # Partial trace over the qubit on one state axis, for each state.
    b, dim, _ = mats.shape
    hi, lo = 2**axis, dim // 2 ** (axis + 1)
    t = mats.reshape(b, hi, 2, lo, hi, 2, lo)
    out = t[:, :, 0, :, :, 0, :] + t[:, :, 1, :, :, 1, :]
    return out.reshape(b, hi * lo, hi * lo)


def _gate_operator(variants: list[Gate]) -> np.ndarray:
    # (k, d^2) phase vectors of k diagonal gates, or (k, d^2, d^2) U (x) conj(U).
    if variants[0].kind in DIAGONAL_KINDS:
        diag = np.stack([gate_diagonal(h) for h in variants])
        check_phases(diag)
        return _phases(diag)
    u = np.stack([gate_unitary(h) for h in variants])
    check_unitary(u)
    return _liouville(u)


@functools.lru_cache(maxsize=None)
def _fixed_operator(kind: str, width: int) -> np.ndarray:
    # An unangled gate's operator, built and checked once per process and
    # read-only, since every position of every run shares it. One entry per
    # unangled kind (H, X, SX, CZ, SWAP), so the cache stays this small.
    op = _gate_operator([Gate(kind, tuple(range(width)))])
    op.setflags(write=False)
    return op


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
        elif g.angle is not None:
            values, index = np.unique(next(columns), return_inverse=True)
            op = _gate_operator([Gate(g.kind, g.qubits, angle=float(a)) for a in values])
            ops.append(op if len(values) == 1 else op[index])
        elif g.kind != MEASURE:
            ops.append(_fixed_operator(g.kind, len(g.qubits)))
    return ops


def _schedule(c: Circuit, keep: tuple[int, ...], table: np.ndarray) -> tuple[list, list, int, list]:
    # One lifetime schedule serves every row of the angle table. Returns the
    # steps, each kept qubit's suffix operator (None if it has none), the
    # peak live width and the transpose that puts the kept qubits in `keep`
    # order. A step is a (k, 2, 2) joining state, [operator, axes],
    # or the state axis of a qubit to trace out; consecutive operators on the
    # same axes are fused into one.
    ops = _operators(c, table)
    gates = [g for g in c.gates if g.kind != MEASURE]
    width = len({q for g in gates for q in g.qubits}.union(keep))
    if width > SIMULATION_QUBIT_CAP:
        raise CapError(f"{width} qubits exceeds the simulation cap of {SIMULATION_QUBIT_CAP}")
    first: dict[int, int] = {}  # each qubit's first and last multi-qubit gate
    last: dict[int, int] = {}
    for i, g in enumerate(gates):
        if len(g.qubits) > 1:
            for q in g.qubits:
                first.setdefault(q, i)
                last[q] = i
    prefix: dict[int, np.ndarray] = {}
    suffix: dict[int, np.ndarray] = {}
    steps: list = []
    live: list[int] = []  # circuit qubit on each state axis
    peak = 0
    for i, (g, op) in enumerate(zip(gates, ops)):
        q = g.qubits[0]
        if len(g.qubits) == 1 and i < first.get(q, len(gates)):
            prefix[q] = _compose(op, prefix[q]) if q in prefix else op
            continue
        if len(g.qubits) == 1 and i > last[q]:
            # A discarded qubit's trailing operators are trace-preserving: dropped.
            if q in keep:
                suffix[q] = _compose(op, suffix[q]) if q in suffix else op
            continue
        # Joining in front, in reverse, leaves a gate's new qubits in its order.
        for q in reversed(g.qubits):
            if q not in live:
                live.insert(0, q)
                steps.append(_joining_state(prefix.pop(q, None)))
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
    for q in reversed(keep):
        if q not in live:
            live.insert(0, q)
            steps.append(_joining_state(prefix.pop(q, None)))
    perm = [live.index(q) for q in keep]
    n = len(live)
    axes = [0] + [1 + p for p in perm] + [1 + n + p for p in perm]
    return steps, [suffix.get(q) for q in keep], max(peak, n), axes


def _chunks(c: Circuit, keep: tuple[int, ...], angles) -> Iterator[tuple[np.ndarray, list]]:
    # Evolves the angle table chunk by chunk in row order. Yields each chunk's
    # (b, 2^m, 2^m) states on the `keep` qubits before their suffixes, and the
    # suffix operators, each sliced to the chunk's rows (None where none).
    own = [g.angle for g in c.gates if g.angle is not None]
    table = np.asarray([own] if angles is None else angles, dtype=float)
    if table.shape[1:] != (len(own),) or not len(table) or not np.isfinite(table).all():
        raise ValueError(f"angle table {table.shape} is not B>=1 rows of {len(own)} finite angles")
    steps, suffix, peak, axes = _schedule(c, keep, table)
    m = len(keep)
    total = len(table)
    chunk = max(1, CHUNK_ENTRIES // 4**peak)
    for start in range(0, total, chunk):
        stop = min(total, start + chunk)

        def rows(a: np.ndarray) -> np.ndarray:
            return a if len(a) == 1 else a[start:stop]

        rho = np.ones((stop - start, 1, 1), dtype=complex)
        for step in steps:
            if isinstance(step, int):
                rho = _trace_out(rho, step)
            elif isinstance(step, list):
                op, targets = step
                rho = _apply(rho, rows(op), targets, rho.shape[1].bit_length() - 1)
            else:
                rho = _join(rho, rows(step))
        t = rho.reshape((stop - start,) + (2,) * (2 * m)).transpose(axes)
        yield t.reshape(stop - start, 2**m, 2**m), [None if s is None else rows(s) for s in suffix]


def _populations(mats: np.ndarray, suffix: list) -> np.ndarray:
    # Outcome probabilities of a (b, 2^m, 2^m) stack after each qubit's suffix,
    # the first qubit most significant. A suffix's populations read only rows
    # 0 and 3 of its superoperator, so each qubit's row and column axes (4
    # entries) map to its 2 populations: one (2 x 4) @ (4 x rest) product per
    # qubit. A diagonal suffix is a phase and leaves the populations alone.
    b, m = len(mats), len(suffix)
    t = mats.reshape((b,) + (2,) * (2 * m))
    t = t.transpose([0] + [a for i in range(m) for a in (1 + i, 1 + m + i)])
    for op in suffix:
        t = t.reshape(b, 4, -1)
        t = t[:, [0, 3]] if op is None or op.ndim == 2 else np.matmul(op[:, [0, 3]], t)
        t = t.transpose(0, 2, 1)
    return np.clip(t.reshape(b, -1).real, 0.0, 1.0)


def outcome_distributions(c: Circuit, angles=None) -> np.ndarray:
    """Distributions over the measured qubits (all qubits if none), one row per angle row.

    Row b of the (B, k) `angles` table gives the angles of the circuit's k
    angled gates, in circuit order; by default the circuit's own angles
    are the one row. Returns a (B, 2^m) array. The first measured qubit is
    the most significant bit.
    """
    keep = c.measured_qubits or tuple(range(c.n_qubits))
    return np.concatenate([_populations(rho, suffix) for rho, suffix in _chunks(c, keep, angles)])


def outcome_distribution(c: Circuit) -> np.ndarray:
    """Distribution over the circuit's measured qubits (all qubits if none).

    The first measured qubit is the most significant bit.
    """
    return outcome_distributions(c)[0]
