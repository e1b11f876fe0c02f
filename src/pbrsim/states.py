"""Dense density-matrix simulation primitives.

Convention used everywhere in this package: qubit 0 is the most
significant bit of a basis-state index, so |q0 q1 ... q_{n-1}> maps to
index q0*2^(n-1) + ... + q_{n-1}. Reshaping a 2^n vector to shape
(2,)*n therefore puts qubit q on axis q.

k-qubit operators are embedded into the n-qubit space by index
arithmetic (tensor contraction on the target axes), never by building
full 2^n x 2^n gate matrices.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import ATOL_ALGEBRAIC, ATOL_SPECTRAL
from .errors import ChannelError, NormalizationError, UnitarityError


class DensityMatrix:
    """n-qubit state as a 2^n x 2^n complex matrix.

    Construction checks hermiticity and unit trace; the (more expensive)
    positive-semidefiniteness check lives in :meth:`validate` so it stays
    off the evolution hot path.
    """

    __slots__ = ("matrix", "n_qubits")

    def __init__(self, matrix: np.ndarray, check: bool = True):
        mat = np.ascontiguousarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        n = int(mat.shape[0]).bit_length() - 1
        if 2**n != mat.shape[0]:
            raise ValueError(f"dimension {mat.shape[0]} is not a power of two")
        if check:
            if not np.all(np.isfinite(mat.view(float))):
                raise ValueError("density matrix has non-finite entries")
            if np.abs(mat - mat.conj().T).max() > ATOL_ALGEBRAIC:
                raise ValueError("density matrix is not Hermitian")
            tr = np.trace(mat).real
            if abs(tr - 1.0) > ATOL_ALGEBRAIC:
                raise NormalizationError(f"trace is {tr!r}, expected 1")
        self.matrix = mat
        self.n_qubits = n

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def validate(self) -> None:
        """Full physicality check including the smallest eigenvalue."""
        mat = self.matrix
        if np.abs(mat - mat.conj().T).max() > ATOL_ALGEBRAIC:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL_ALGEBRAIC:
            raise NormalizationError(f"trace is {tr!r}, expected 1")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -ATOL_SPECTRAL:
            raise ValueError(f"smallest eigenvalue {lo} below -{ATOL_SPECTRAL}")


def ground_state(n_qubits: int) -> DensityMatrix:
    """|0...0><0...0| on n qubits."""
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0
    return DensityMatrix(mat, check=False)


def pure_density(amplitudes: np.ndarray) -> DensityMatrix:
    """|psi><psi| from a normalized amplitude vector of power-of-two length."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size & (psi.size - 1) or psi.size == 0:
        raise ValueError(f"length {psi.size} is not a power of two")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > ATOL_ALGEBRAIC:
        raise NormalizationError(f"vector norm is {norm!r}, expected 1")
    return DensityMatrix(np.outer(psi, psi.conj()), check=False)


def _check_targets(n_qubits: int, targets: tuple[int, ...], dim: int) -> None:
    if len(set(targets)) != len(targets):
        raise IndexError(f"duplicate target qubits {targets}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range for {n_qubits} qubits")
    if dim != 2 ** len(targets):
        raise ValueError(f"operator dimension {dim} does not match {len(targets)} targets")


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


def check_unitary(u: np.ndarray) -> None:
    """Raise UnitarityError unless `u`, or every matrix of a stack, is unitary."""
    err = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max()
    if err > ATOL_ALGEBRAIC:
        raise UnitarityError(f"operator deviates from unitarity by {err:.3e}")


def apply_unitary(state: DensityMatrix, u: np.ndarray, targets) -> DensityMatrix:
    """Conjugate the state by a unitary embedded on the target qubits.

    Target order matters: the first listed qubit is the most significant
    bit of the operator's own basis.
    """
    u = np.asarray(u, dtype=complex)
    targets = tuple(int(q) for q in targets)
    _check_targets(state.n_qubits, targets, u.shape[0])
    check_unitary(u)
    out = _contract(state.matrix[None], u, targets, state.n_qubits)[0]
    return DensityMatrix(out, check=False)


class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    The operators are read-only copies, so a channel shared between
    circuits (the noise builders cache theirs) cannot be changed in place.
    """

    __slots__ = ("operators", "arity")

    def __init__(self, operators, check: bool = True):
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        if not ops:
            raise ChannelError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        arity = dim.bit_length() - 1
        if 2**arity != dim:
            raise ChannelError(f"Kraus dimension {dim} is not a power of two")
        for k in ops:
            if k.shape != (dim, dim):
                raise ChannelError("Kraus operators must share one square shape")
        if check:
            total = sum(k.conj().T @ k for k in ops)
            err = np.abs(total - np.eye(dim)).max()
            if err > ATOL_ALGEBRAIC:
                raise ChannelError(f"completeness violated by {err:.3e}")
        for k in ops:
            k.setflags(write=False)
        self.operators = ops
        self.arity = arity


def apply_channel(state: DensityMatrix, ch: KrausChannel, targets) -> DensityMatrix:
    """Apply sum_K K rho K^dagger on the target qubits."""
    targets = tuple(int(q) for q in targets)
    if len(targets) != ch.arity:
        raise ValueError(f"channel arity {ch.arity} but {len(targets)} targets given")
    _check_targets(state.n_qubits, targets, ch.operators[0].shape[0])
    out = _kraus_sum(state.matrix[None], ch, targets, state.n_qubits)[0]
    return DensityMatrix(out, check=False)


def _kraus_sum(mats: np.ndarray, ch: KrausChannel, targets: tuple[int, ...], n: int) -> np.ndarray:
    # sum_K K rho K^dagger on the target axes, for each rho of a (B, 2^n, 2^n) stack.
    out = np.zeros_like(mats)
    for k in ch.operators:
        out += _contract(mats, k, targets, n)
    return out


def measurement_probs(state: DensityMatrix) -> np.ndarray:
    """Computational-basis probabilities <k|rho|k>, clamped to [0, 1]."""
    return np.clip(np.diagonal(state.matrix).real, 0.0, 1.0)
