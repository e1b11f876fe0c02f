"""Circuit IR over a fixed native-gate vocabulary.

Gate durations come from the calibration snapshot when timing is
computed. NOISE entries reference a Kraus channel and are ignored by gate
counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TWO_QUBIT_GATE_S, mcphase_cz_equivalents
from .errors import KindError
from .states import KrausChannel

H = "H"
X = "X"
SX = "SX"
RY = "RY"
RZ = "RZ"
PHASE = "PHASE"
CZ = "CZ"
SWAP = "SWAP"
CPHASE_OPEN = "CPHASE_OPEN"
MCPHASE_OPEN = "MCPHASE_OPEN"
NOISE = "NOISE"
MEASURE = "MEASURE"

SINGLE_QUBIT_KINDS = frozenset({H, X, SX, RY, RZ, PHASE})
TWO_QUBIT_KINDS = frozenset({CZ, SWAP, CPHASE_OPEN})
ANGLED_KINDS = frozenset({RY, RZ, PHASE, CPHASE_OPEN, MCPHASE_OPEN})
DIAGONAL_KINDS = frozenset({RZ, PHASE, CZ, CPHASE_OPEN, MCPHASE_OPEN})
KINDS = SINGLE_QUBIT_KINDS | TWO_QUBIT_KINDS | {MCPHASE_OPEN, NOISE, MEASURE}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    channel: KrausChannel | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind not in KINDS:
            raise KindError(f"unknown gate kind {self.kind!r}")
        k = len(self.qubits)
        if len(set(self.qubits)) != k:
            raise ValueError(f"{self.kind} lists duplicate qubits {self.qubits}")
        if self.kind in SINGLE_QUBIT_KINDS and k != 1:
            raise ValueError(f"{self.kind} acts on exactly 1 qubit, got {k}")
        if self.kind in TWO_QUBIT_KINDS and k != 2:
            raise ValueError(f"{self.kind} acts on exactly 2 qubits, got {k}")
        if self.kind == MCPHASE_OPEN and k < 2:
            raise ValueError("MCPHASE_OPEN needs at least one control and a target")
        if self.kind == MEASURE and k < 1:
            raise ValueError("MEASURE needs at least one qubit")
        if self.kind in ANGLED_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle, got {self.angle!r}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if self.kind == NOISE:
            if self.channel is None:
                raise ValueError("NOISE needs a channel")
            if self.channel.arity != k:
                raise ValueError(
                    f"channel arity {self.channel.arity} does not match {k} qubits"
                )
        elif self.channel is not None:
            raise ValueError(f"{self.kind} takes no channel")

    @property
    def is_unitary(self) -> bool:
        return self.kind not in (NOISE, MEASURE)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        measured: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if q >= self.n_qubits:
                    raise ValueError(f"gate {g.kind} uses qubit {q} >= {self.n_qubits}")
            if measured and g.kind != MEASURE:
                raise ValueError("only MEASURE gates may follow a MEASURE")
            if g.kind == MEASURE:
                for q in g.qubits:
                    if q in measured:
                        raise ValueError(f"qubit {q} is measured twice")
                    measured.add(q)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        out: list[int] = []
        for g in self.gates:
            if g.kind == MEASURE:
                out.extend(g.qubits)
        return tuple(out)


_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def gate_diagonal(g: Gate) -> np.ndarray:
    """Diagonal of a DIAGONAL_KINDS gate's unitary, without the full matrix."""
    if g.kind == RZ:
        return np.array([np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle)])
    if g.kind == PHASE:
        return np.array([1.0, np.exp(1j * g.angle)])
    if g.kind == CZ:
        return np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)
    if g.kind in (CPHASE_OPEN, MCPHASE_OPEN):
        # Phase fires when every control reads 0 and the target reads 1;
        # controls are the leading qubits, so that is basis index 1.
        diag = np.ones(2 ** len(g.qubits), dtype=complex)
        diag[1] = np.exp(1j * g.angle)
        return diag
    raise KindError(f"{g.kind} is not a diagonal gate")


def gate_unitary(g: Gate) -> np.ndarray:
    """Unitary of a gate over its own qubits (first listed = most significant)."""
    if g.kind in DIAGONAL_KINDS:
        return np.diag(gate_diagonal(g))
    if g.kind == H:
        return _H.copy()
    if g.kind == X:
        return _X.copy()
    if g.kind == SX:
        return _SX.copy()
    if g.kind == RY:
        c, s = np.cos(g.angle / 2), np.sin(g.angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if g.kind == SWAP:
        return _SWAP.copy()
    raise KindError(f"{g.kind} has no unitary")


def decompose_swap(a: int = 0, b: int = 1) -> list[Gate]:
    """One SWAP as 3 CZ + 6 H (each CNOT is H-conjugated CZ)."""
    cz = Gate(CZ, (a, b))
    return [
        Gate(H, (b,)), cz, Gate(H, (b,)),
        Gate(H, (a,)), cz, Gate(H, (a,)),
        Gate(H, (b,)), cz, Gate(H, (b,)),
    ]


def gate_counts(c: Circuit) -> tuple[int, int]:
    """(single-qubit, two-qubit) unitary gate counts; NOISE/MEASURE excluded.

    Open-controlled phase gates are charged their configured CZ-equivalent
    cost, which is 1 for a single control.
    """
    g1 = g2 = 0
    for g in c.gates:
        if g.kind in SINGLE_QUBIT_KINDS:
            g1 += 1
        elif g.kind in TWO_QUBIT_KINDS:
            g2 += 1
        elif g.kind == MCPHASE_OPEN:
            g2 += mcphase_cz_equivalents(len(g.qubits) - 1)
    return g1, g2


def _gate_duration(g: Gate, cal) -> float:
    if g.kind in SINGLE_QUBIT_KINDS:
        return cal.qubit(g.qubits[0]).single_gate_duration
    if g.kind in TWO_QUBIT_KINDS:
        return cal.coupler(*g.qubits).duration
    if g.kind == MCPHASE_OPEN:
        return mcphase_cz_equivalents(len(g.qubits) - 1) * DEFAULT_TWO_QUBIT_GATE_S
    if g.kind == MEASURE:
        return cal.readout_duration
    return 0.0


def circuit_duration(c: Circuit, cal) -> np.ndarray:
    """Per-qubit busy time in seconds under a calibration snapshot."""
    busy = np.zeros(c.n_qubits)
    for g in c.gates:
        if g.kind == NOISE:
            continue
        dur = _gate_duration(g, cal)
        for q in g.qubits:
            busy[q] += dur
    return busy
