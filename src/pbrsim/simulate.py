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
at most three live qubits whatever its span. The simulation cap bounds
that peak live width, which the schedule reads off the walk before any
operator is built: a circuit of any size runs when at most
SIMULATION_QUBIT_CAP qubits are live at once.

One circuit serves 2^F inputs that differ from it only by a Z right
after the first gate on each of F frame qubits: the 2^n inputs of a run,
as RY(-theta)|0> = Z RY(theta)|0>. Conjugation by Z commutes with a
diagonal gate, an X and every channel whose superoperator commutes with
it (the depolarizing and thermal channels do), so a frame moves past
those (a Pauli frame: Knill, Nature 434, 39 (2005)). Each frame is read
or branched on its own. One that moves on to its qubit's trace-out
changes nothing; one that moves on to its kept qubit's suffix is read:
Z-conjugation negates a qubit's two coherences, so that qubit's
populations are read twice, once with its suffix map's coherence columns
negated. Any other frame branches the rows at the start, as a per-row
diagonal operator after its qubit's first gate: the 2^B rows of B
branched frames evolve as one (2^B, 2^w, 2^w) stack, in chunks of at
most CHUNK_ENTRIES complex entries at the peak live width w, which
bounds the memory they add, and each row's floats do not depend on the
other rows. One contraction over the kept qubits then gives every
input's distribution without building their states. An unplaced run
branches no frame and evolves one row; a routed pair's decomposed SWAP
meets the moved qubit's frame with an H, so it evolves two. Which row of
the read serves each input is skipped when it is the identity. A
measured qubit's readout confusion matrix, when given, is multiplied
into the (2 x 4) map that reads its populations.

`outcome_distributions` is two steps. `_plan` derives everything that
depends only on the circuit, its frames and its readout matrices: the
walk over the gates, the branched frames, the frame-row read, the
schedule (steps, peak width and final axis order) and each kept qubit's
read map (its suffix's population rows, then its confusion matrix, then
its frame's signs when its frame is read). `_table` only evolves a
plan's rows, contracts them with the read maps and orders the rows. This
module keeps neither: `harness.run_experiment` keeps the normalized table
of a configuration that runs again, up to one chunk's bytes, and drops
the plan once the table is read.

A stack of b states on w live qubits is a (b, 2^w, 2^w) array; viewed as
(b,) + (2,) * 2w, live qubit i is row axis 1 + i and column axis 1 + w + i.
Every operator acts in Liouville form (Wood, Biamonte & Cory,
arXiv:1111.6950) on the row-major flattening of its k target qubits'
row and column axes, d = 2^k: a channel as its (d^2, d^2) superoperator
sum_K K (x) conj(K), a unitary as U (x) conj(U), and a diagonal unitary
as its d^2 phase vector diag(U) (x) conj(diag(U)). The one kernel,
`_apply`, moves the target row and column axes to the front, applies one
np.matmul (one elementwise product for a diagonal) and moves the
axes back. It runs only for multi-qubit operators and for single-qubit
ones that lie between two multi-qubit operators on their qubit. When the
schedule is built, consecutive operators on the same live axes are
multiplied into one, and two diagonals stay a diagonal. A gate's
operator is built once per (kind, width, angle) and is read-only, shared
by every position of every run.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections.abc import Iterator

import numpy as np

from .circuits import (
    DIAGONAL_KINDS, Circuit, Gate, MEASURE, NOISE, X, as_integer, gate_diagonal, gate_unitary,
)
from .config import ATOL_ALGEBRAIC, SIMULATION_QUBIT_CAP
from .errors import CapError
from .states import KrausChannel, check_phases, check_unitary

# B * 4^w complex entries evolved at once, w the peak live width: 8 inputs at w=5.
CHUNK_ENTRIES = 2**13
# Rows 0 and 3 of the identity superoperator: a qubit's populations.
_POPULATION_ROWS = np.eye(4)[None, [0, 3]]
# A population read without and with a Z frame, which negates the coherences.
_FRAME_SIGNS = np.array([[[1.0, 1.0, 1.0, 1.0]], [[1.0, -1.0, -1.0, 1.0]]])
# vec(|0><0|): a qubit that joins with no prefix operator.
_GROUND = np.eye(1, 4, dtype=complex)
# Schedules and reads hold views of these, shared by every run.
_POPULATION_ROWS.setflags(write=False)
_FRAME_SIGNS.setflags(write=False)
_GROUND.setflags(write=False)


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
    if prefix is None:
        vec = _GROUND
    elif prefix.ndim == 2:
        vec = prefix * _GROUND
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


def _gate_operator(g: Gate) -> np.ndarray:
    # A gate's (1, d^2) phase vector diag(U) (x) conj(diag(U)) if it is
    # diagonal, else its (1, d^2, d^2) superoperator U (x) conj(U).
    if g.kind in DIAGONAL_KINDS:
        diag = gate_diagonal(g)
        check_phases(diag)
        return _phases(diag[None])
    u = gate_unitary(g)
    check_unitary(u)
    return _liouville(u[None])


@functools.lru_cache(maxsize=16)
def _operator(kind: str, width: int, angle: float | None) -> np.ndarray:
    # `_gate_operator` built and checked once per (kind, width, angle) and
    # read-only, since every position of every run with that gate shares it.
    # A run uses at most six entries, so runs with the same angles share
    # them. The bound is small because an n-qubit open-controlled phase
    # holds 4^n entries, as many as the state.
    op = _gate_operator(Gate(kind, tuple(range(width)), angle=angle))
    op.setflags(write=False)
    return op


def _operators(c: Circuit) -> list[np.ndarray]:
    """The Liouville operator at each non-MEASURE gate of `c`, leading axis 1.

    A NOISE gate gives its channel's superoperator; a unitary gives
    U (x) conj(U), or for a diagonal gate its d^2 phase vector
    diag(U) (x) conj(diag(U)).
    """
    return [
        g.channel.superoperator[None] if g.kind == NOISE else _operator(g.kind, len(g.qubits), g.angle)
        for g in c.gates
        if g.kind != MEASURE
    ]


@functools.lru_cache(maxsize=128)
def _z_covariant(channel: KrausChannel) -> tuple[bool, ...]:
    # For each target of a channel, whether its superoperator commutes with
    # conjugation by Z there. That conjugation negates the entries whose row
    # and column bits for the target differ, so the superoperator must couple
    # no such entry with one whose bits agree. Cached per channel object: the
    # noise builders hand the same object to every position.
    k = channel.arity
    rows, cols = np.divmod(np.arange(4**k), 2**k)
    flips = [((rows ^ cols) >> (k - 1 - t)) & 1 for t in range(k)]
    return tuple(not channel.superoperator[f[:, None] != f[None, :]].any() for f in flips)


def _keeps_frame(g: Gate, q: int) -> bool:
    # Whether conjugation by Z on qubit q commutes with gate g.
    if g.kind == NOISE:
        return _z_covariant(g.channel)[g.qubits.index(q)]
    return g.kind in DIAGONAL_KINDS or g.kind == X


def _walk(c: Circuit, frames: tuple[int, ...] = ()) -> tuple:
    # The one pass over the gates that the frame test and the schedule read:
    # the circuit, its non-MEASURE gates and, by position among them, each
    # qubit's first gate and its first and last multi-qubit gate. Frames
    # must name distinct qubits of the circuit that some gate acts on.
    if len(set(frames)) != len(frames):
        raise ValueError(f"frames {frames} name a qubit twice")
    gates = [g for g in c.gates if g.kind != MEASURE]
    start: dict[int, int] = {}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, g in enumerate(gates):
        for q in g.qubits:
            start.setdefault(q, i)
            if len(g.qubits) > 1:
                first.setdefault(q, i)
                last[q] = i
    for q in frames:
        if not 0 <= q < c.n_qubits:
            raise ValueError(f"frame qubit {q} is outside the circuit's {c.n_qubits} qubits")
        if q not in start:
            raise ValueError(f"frame qubit {q} has no gate")
    return c, gates, start, first, last


def _branched(w: tuple, keep: tuple[int, ...], frames: tuple[int, ...]) -> tuple[int, ...]:
    # The frames, in `frames` order, whose Z fails to commute with a later
    # operator on its qubit before the qubit's suffix, which starts after its
    # last multi-qubit gate (for a qubit no multi-qubit gate touches: at the
    # end if it is kept, and nowhere if not, as it never joins). The others
    # reach the suffix, or the qubit's trace-out. `w` is the circuit's `_walk`.
    _, gates, start, _, last = w
    ends = {q: last.get(q, len(gates) if q in keep else start[q]) for q in frames}
    return tuple(
        q for q in frames
        if not all(_keeps_frame(g, q) for g in gates[start[q] + 1 : ends[q] + 1] if q in g.qubits)
    )


def _frame_operator(j: int, count: int) -> np.ndarray:
    # Frame j as a (2^count, 4) per-row diagonal: Z-conjugation's phase vector,
    # which negates the two coherences, on the rows whose bit j is set
    # (frames[0] the most significant bit), the identity on the others.
    bit = (np.arange(2**count) >> (count - 1 - j)) & 1
    return np.where(bit[:, None] == 1, np.array([1, -1, -1, 1], dtype=complex), 1)


def _schedule(
    w: tuple, keep: tuple[int, ...], frames: tuple[int, ...]
) -> tuple[tuple, tuple]:
    # One lifetime schedule serves every row, each frame a per-row operator
    # right after the first gate on its qubit, at that gate's position.
    # Returns the schedule that `_chunks` evolves (the steps, the peak live
    # width and the transpose that puts the kept qubits in `keep` order, None
    # if they are in that order) and each kept qubit's suffix operator (None
    # if it has none). A step is a (k, 2, 2) joining state, [operator, axes],
    # or the state axis of a qubit to trace out; consecutive operators on the
    # same axes are fused into one. `w` is the circuit's `_walk`.
    c, gates, start, first, last = w
    kept = set(keep)
    # The peak live width, before any operator is built: the k-th join (by
    # position) makes k + 1 live, less the discarded qubits whose last
    # multi-qubit gate came before it; at the end every kept qubit is live.
    leaves = sorted(last[q] for q in last if q not in kept)
    joins = enumerate(sorted(first.values()))
    peak = max([len(kept)] + [k + 1 - bisect_left(leaves, i) for k, i in joins])
    if peak > SIMULATION_QUBIT_CAP:
        raise CapError(f"{peak} qubits exceeds the simulation cap of {SIMULATION_QUBIT_CAP}")
    items = [(i, g.qubits, op) for i, (g, op) in enumerate(zip(gates, _operators(c)))]
    # Frames at one gate follow it in `frames` order: inserting from the last
    # (position, j) back leaves each earlier insertion point in place.
    for j, q in sorted(enumerate(frames), key=lambda f: (start[f[1]], f[0]), reverse=True):
        items.insert(start[q] + 1, (start[q], (q,), _frame_operator(j, len(frames))))
    end = len(gates)
    prefix: dict[int, np.ndarray] = {}
    suffix: dict[int, np.ndarray] = {}
    steps: list = []
    live: list[int] = []  # circuit qubit on each state axis
    for i, qubits, op in items:
        if len(qubits) == 1:
            q = qubits[0]
            if i < first.get(q, end):
                held = prefix.get(q)
                prefix[q] = op if held is None else _compose(op, held)
                continue
            # A frame after a qubit's last multi-qubit gate shares its position.
            if i >= last[q]:
                # A discarded qubit's trailing operators are trace-preserving: dropped.
                if q in kept:
                    held = suffix.get(q)
                    suffix[q] = op if held is None else _compose(op, held)
                continue
        # Joining in front, in reverse, leaves a gate's new qubits in its order.
        for q in reversed(qubits):
            if q not in live:
                live.insert(0, q)
                steps.append(_joining_state(prefix.pop(q, None)))
        targets = tuple(map(live.index, qubits))
        if steps and isinstance(steps[-1], tuple) and steps[-1][1] == targets:
            steps[-1] = (_compose(op, steps[-1][0]), targets)
        else:
            steps.append((op, targets))
        for q in qubits:
            if last[q] == i and q not in kept:
                steps.append(live.index(q))
                live.remove(q)
    for q in reversed(keep):
        if q not in live:
            live.insert(0, q)
            steps.append(_joining_state(prefix.pop(q, None)))
    axes = None
    if live != list(keep):
        perm = [live.index(q) for q in keep]
        axes = [0] + [1 + p for p in perm] + [1 + len(keep) + p for p in perm]
    return (tuple(steps), peak, axes), tuple(suffix.get(q) for q in keep)


def _chunks(schedule: tuple, total: int) -> Iterator[np.ndarray]:
    # Evolves `total` rows of a `_schedule` schedule chunk by chunk in row
    # order. Yields each chunk's (b, 2^m, 2^m) states on the kept qubits,
    # in `keep` order, before their suffixes.
    steps, peak, axes = schedule
    chunk = max(1, CHUNK_ENTRIES // 4**peak)
    for start in range(0, total, chunk):
        stop = min(total, start + chunk)

        def rows(a: np.ndarray) -> np.ndarray:
            return a if len(a) == 1 else a[start:stop]

        rho = np.ones((stop - start, 1, 1), dtype=complex)
        for step in steps:
            if isinstance(step, int):
                rho = _trace_out(rho, step)
            elif isinstance(step, tuple):
                op, targets = step
                rho = _apply(rho, rows(op), targets, rho.shape[1].bit_length() - 1)
            else:
                rho = _join(rho, rows(step))
        if axes is not None:
            m = rho.shape[1].bit_length() - 1
            t = rho.reshape((stop - start,) + (2,) * (2 * m)).transpose(axes)
            rho = t.reshape(stop - start, 2**m, 2**m)
        yield rho


def _reads(suffix: tuple, readout: list, framed: frozenset) -> tuple:
    # Each kept qubit's read map, from its row and column axes (4 entries)
    # to its outcomes. A suffix's populations read only rows 0 and 3 of its
    # superoperator: a (1, 2, 4) map, which a diagonal suffix (a phase)
    # leaves as the identity's rows. The qubit's confusion matrix, if any,
    # then mixes them. A qubit at a position in `framed` carries a Z frame
    # into its suffix and is read twice, the second time with the map's
    # coherence columns negated: one (4 x 4) map, the frame bit first.
    # Every suffix operator serves all rows alike: a branched frame meets a
    # later operator on its qubit, so it lies before the qubit's suffix.
    reads = []
    for i, op in enumerate(suffix):
        read = _POPULATION_ROWS if op is None or op.ndim == 2 else op[:, ::3].copy()
        if readout:
            read = np.matmul(readout[i][None], read)
        if i in framed:
            read = (read * _FRAME_SIGNS).reshape(4, 4)
        reads.append(read)
    return tuple(reads)


def _populations(mats: np.ndarray, reads: tuple) -> np.ndarray:
    # Outcome probabilities of a (b, 2^m, 2^m) stack through each qubit's
    # read map, the first qubit most significant, clipped to [0, 1]: one
    # (r x 4) @ (4 x rest) product per qubit. A (4 x 4) map's frame bit
    # goes after those of the row index.
    b, m = len(mats), len(reads)
    # Each qubit's row and column axes side by side, the first qubit's first.
    axes = (0,) + tuple(a for i in range(m) for a in (1 + i, 1 + m + i))
    t = mats.reshape((b,) + (2,) * (2 * m)).transpose(axes)
    for read in reads:
        # Rebound before the product, which then holds two live arrays, not three.
        t = t.reshape(len(t), 4, -1)
        t = np.matmul(read, t)
        if read.ndim == 2:
            t = t.reshape(-1, 2, t.shape[-1])
        t = t.transpose(0, 2, 1)
    # The real parts before the reshape's copy: it copies floats, not complex.
    return t.real.reshape(len(t), -1).clip(0.0, 1.0)


def _frame_rows(
    keep: tuple[int, ...], frames: tuple[int, ...], branched: tuple[int, ...]
) -> tuple[frozenset, np.ndarray | None]:
    # How the read of the rows branched on `branched` serves the 2^F framed
    # inputs: the positions in `keep` of the read frames (the unbranched ones
    # on kept qubits), which `_reads` reads twice, and the read's row
    # for each input. The read's rows count the branched frames in `frames`
    # order, then the read frames in `keep` order, the first most significant;
    # any other frame changes no row. The row index is None when it is the
    # identity (every unplaced run).
    read = [q for q in keep if q in frames and q not in branched]
    framed = frozenset(keep.index(q) for q in read)
    order = list(branched) + read
    if order == list(frames):
        return framed, None
    x = np.arange(2 ** len(frames))
    index = np.zeros_like(x)
    for q in order:
        index = 2 * index + ((x >> (len(frames) - 1 - frames.index(q))) & 1)
    return framed, index


def _plan(c: Circuit, frames: tuple[int, ...], readout=()) -> tuple:
    # Everything `_table` reads of the circuit, its frames and its readout,
    # built once: the branched frames, each kept qubit's read map
    # (`_reads`), the read's row for each input (`_frame_rows`) and the
    # schedule.
    keep = c.measured_qubits or tuple(range(c.n_qubits))
    w = _walk(c, frames)
    readout = [np.asarray(r, dtype=float) for r in readout]
    if readout and (len(readout) != len(keep) or any(r.shape != (2, 2) for r in readout)):
        raise ValueError(f"readout needs one (2, 2) matrix for each of {len(keep)} measured qubits")
    if readout:
        # Checked finite first, so the column sums never meet an inf - inf.
        mats = np.array(readout)
        if not (
            np.isfinite(mats).all()
            and (mats >= 0).all()
            and np.abs(mats.sum(axis=1) - 1).max() <= ATOL_ALGEBRAIC
        ):
            raise ValueError(
                "readout matrices must be column-stochastic: finite, non-negative, "
                "each column summing to 1"
            )
    branched = _branched(w, keep, frames)
    framed, index = _frame_rows(keep, frames, branched)
    schedule, suffix = _schedule(w, keep, branched)
    return branched, _reads(suffix, readout, framed), index, schedule


def _table(plan: tuple) -> np.ndarray:
    # A plan's (2^F, 2^m) table: its rows evolved and read, in input order.
    branched, reads, index, schedule = plan
    probs = [_populations(rho, reads) for rho in _chunks(schedule, 2 ** len(branched))]
    # One chunk (every unplaced run) is the table as it is, not copied.
    probs = probs[0] if len(probs) == 1 else np.concatenate(probs)
    return probs if index is None else probs[index]


def outcome_distributions(c: Circuit, frames=(), readout=()) -> np.ndarray:
    """Distributions over the measured qubits (all qubits if none), one row per input.

    Row x is the distribution of `c` with a Z right after the first gate
    on qubit frames[j], for each set bit j of x; frames[0] is the most
    significant bit. With no frames, the circuit itself is the one row.
    `readout` holds one column-stochastic (2, 2) confusion matrix per
    measured qubit, in measured order, or none: each is folded into that
    qubit's population read: the result is the unmixed table with each
    qubit's outcome axis multiplied by its matrix. Returns a (2^F, 2^m)
    array of probabilities clipped to [0, 1]; the first measured qubit is
    the most significant bit of an outcome. Frames must be integers (not
    bools) naming distinct qubits of the circuit that some gate acts on,
    and readout must give none or one matrix per measured qubit, each
    finite, non-negative and with columns summing to 1 within
    ATOL_ALGEBRAIC, or ValueError is raised.
    """
    return _table(_plan(c, tuple(as_integer(q, "frame qubit") for q in frames), readout))


def outcome_distribution(c: Circuit) -> np.ndarray:
    """Distribution over the circuit's measured qubits (all qubits if none).

    The first measured qubit is the most significant bit.
    """
    return outcome_distributions(c)[0]
