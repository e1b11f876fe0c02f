"""Operators the simulator applies: Kraus channels and the unitarity checks.

Convention used everywhere in this package: qubit 0 is the most
significant bit of a basis-state index, so |q0 q1 ... q_{n-1}> maps to
index q0*2^(n-1) + ... + q_{n-1}. A k-qubit operator's own basis follows
the same rule over its listed qubits: the first listed qubit is its most
significant bit.

Channels carry their Liouville form (Wood, Biamonte & Cory,
arXiv:1111.6950): with rho flattened row-major, vec(rho)[i*d + j] =
rho[i, j], the map rho -> K rho K^dagger is the (d^2, d^2) matrix
K (x) conj(K), and a channel is the sum of these over its Kraus operators.
Every channel is checked for completeness when it is built.
States and their evolution live in `pbrsim.simulate`.
"""

from __future__ import annotations

import numpy as np

from .config import ATOL_ALGEBRAIC
from .errors import ChannelError, UnitarityError

# Widest channel accepted: its superoperator holds 16^arity entries.
MAX_CHANNEL_ARITY = 2


def check_unitary(u: np.ndarray) -> None:
    """Raise UnitarityError unless `u`, or every matrix of a stack, is unitary."""
    err = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max()
    if err > ATOL_ALGEBRAIC:
        raise UnitarityError(f"operator deviates from unitarity by {err:.3e}")


def check_phases(diag: np.ndarray) -> None:
    """Raise UnitarityError unless every entry of a diagonal unitary has modulus 1."""
    err = np.abs(np.abs(diag) - 1.0).max()
    if err > ATOL_ALGEBRAIC:
        raise UnitarityError(f"operator deviates from unitarity by {err:.3e}")


class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Every channel is checked: its operators must satisfy
    sum K^dagger K = I to ATOL_ALGEBRAIC, or ChannelError is raised.
    `superoperator` is the channel's (d^2, d^2) Liouville matrix, the sum
    of K (x) conj(K), built once here. The operators and the superoperator
    are read-only copies, so a channel shared between circuits (the noise
    builders cache theirs) cannot be changed in place. Channels act on at
    most MAX_CHANNEL_ARITY qubits.
    """

    __slots__ = ("operators", "arity", "superoperator")

    def __init__(self, operators):
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        if not ops:
            raise ChannelError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        arity = dim.bit_length() - 1
        if 2**arity != dim:
            raise ChannelError(f"Kraus dimension {dim} is not a power of two")
        if arity > MAX_CHANNEL_ARITY:
            raise ChannelError(
                f"channel on {arity} qubits exceeds the limit of {MAX_CHANNEL_ARITY}"
            )
        for k in ops:
            if k.shape != (dim, dim):
                raise ChannelError("Kraus operators must share one square shape")
        total = sum(k.conj().T @ k for k in ops)
        err = np.abs(total - np.eye(dim)).max()
        if err > ATOL_ALGEBRAIC:
            raise ChannelError(f"completeness violated by {err:.3e}")
        superop = sum(np.kron(k, k.conj()) for k in ops)
        for a in ops + (superop,):
            a.setflags(write=False)
        self.operators = ops
        self.arity = arity
        self.superoperator = superop
