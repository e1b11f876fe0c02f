"""Circuit IR over a fixed native-gate vocabulary.

Gate durations come from the calibration snapshot when timing is
computed. NOISE entries reference a Kraus channel and are ignored by gate
counting.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from .config import DEFAULT_TWO_QUBIT_GATE_S, MAX_SPAN, mcphase_cz_equivalents
from .errors import KindError, RangeError, ValidationError
from .records import Record, record
from .states import KrausChannel

H = "H"
X = "X"
SX = "SX"
RY = "RY"
RZ = "RZ"
PHASE = "PHASE"
CZ = "CZ"
CPHASE_OPEN = "CPHASE_OPEN"
MCPHASE_OPEN = "MCPHASE_OPEN"
NOISE = "NOISE"
MEASURE = "MEASURE"

# Each kind's rule: the qubit count it acts on (None: checked below, or
# only against a NOISE channel's arity) and whether it takes an angle.
_RULES = {
    H: (1, False),
    X: (1, False),
    SX: (1, False),
    RY: (1, True),
    RZ: (1, True),
    PHASE: (1, True),
    CZ: (2, False),
    CPHASE_OPEN: (2, True),
    MCPHASE_OPEN: (None, True),
    NOISE: (None, False),
    MEASURE: (None, False),
}

SINGLE_QUBIT_KINDS = frozenset(k for k, (count, _) in _RULES.items() if count == 1)
TWO_QUBIT_KINDS = frozenset(k for k, (count, _) in _RULES.items() if count == 2)
ANGLED_KINDS = frozenset(k for k, (_, angled) in _RULES.items() if angled)
DIAGONAL_KINDS = frozenset({RZ, PHASE, CZ, CPHASE_OPEN, MCPHASE_OPEN})


def _is_integer(value) -> bool:
    """The package's one integer rule: a Python or numpy integer, never a bool."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


def as_integer(value, name: str) -> int:
    """`value` as a Python int; ValidationError unless `_is_integer(value)`."""
    if not _is_integer(value):
        raise ValidationError(f"{name}={value!r} must be an integer")
    return int(value)


def check_span(s) -> int:
    """A span as a Python int; RangeError unless `_is_integer(s)` and 1 <= s <= MAX_SPAN."""
    if not _is_integer(s):
        raise RangeError(f"span {s!r} must be an integer")
    if not 1 <= s <= MAX_SPAN:
        raise RangeError(f"span {s} is outside 1..{MAX_SPAN}")
    return int(s)


@record
class Gate(Record):
    """One operation: its kind, the qubits it acts on, and its angle or noise channel.

    Qubit indices must be integers (Python or numpy, not bools); each
    kind's qubit count and angle come from one rule table.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    channel: KrausChannel | None = field(default=None, compare=False)

    def __init__(self, kind, qubits, angle=None, channel=None):
        indices = tuple(qubits)
        if not all(map(_is_integer, indices)):
            raise ValueError(f"{kind} qubits {qubits!r} must be integers")
        qubits = tuple(map(int, indices))
        rule = _RULES.get(kind)
        if rule is None:
            raise KindError(f"unknown gate kind {kind!r}")
        k = len(qubits)
        if len(set(qubits)) != k:
            raise ValueError(f"{kind} lists duplicate qubits {qubits}")
        count, angled = rule
        if count is None:
            if kind == MCPHASE_OPEN and k < 2:
                raise ValueError("MCPHASE_OPEN needs at least one control and a target")
            if kind == MEASURE and k < 1:
                raise ValueError("MEASURE needs at least one qubit")
        elif k != count:
            raise ValueError(f"{kind} acts on exactly {count} qubit{'s' * (count > 1)}, got {k}")
        if angled:
            if angle is None or not math.isfinite(angle):
                raise ValueError(f"{kind} needs a finite angle, got {angle!r}")
        elif angle is not None:
            raise ValueError(f"{kind} takes no angle")
        if kind == NOISE:
            if channel is None:
                raise ValueError("NOISE needs a channel")
            if channel.arity != k:
                raise ValueError(f"channel arity {channel.arity} does not match {k} qubits")
        elif channel is not None:
            raise ValueError(f"{kind} takes no channel")
        # Routing builds thousands of gates; one update of the instance dict
        # costs less than one object.__setattr__ call per field.
        self.__dict__.update(kind=kind, qubits=qubits, angle=angle, channel=channel)

    @property
    def is_unitary(self) -> bool:
        return self.kind not in (NOISE, MEASURE)


@record
class Circuit(Record):
    """A register size and its gates in time order, measurements last.

    The size must be an integer (Python or numpy, not a bool) of at least 1.
    """

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        n_qubits = as_integer(self.n_qubits, "n_qubits")
        object.__setattr__(self, "n_qubits", n_qubits)
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        measured: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < n_qubits:
                    bound = "< 0" if q < 0 else f">= {n_qubits}"
                    raise ValueError(f"gate {g.kind} uses qubit {q} {bound}")
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
    raise KindError(f"{g.kind} has no unitary")


def decompose_swap(a: int = 0, b: int = 1) -> list[Gate]:
    """One SWAP as 3 CZ + 6 H (each CNOT is H-conjugated CZ).

    The nine positions hold three gates, each built once: H on a, H on b
    and CZ on (a, b). Gates are frozen and compare by value, so a shared
    gate is equal to one built afresh.
    """
    ha, hb, cz = Gate(H, (a,)), Gate(H, (b,)), Gate(CZ, (a, b))
    return [hb, cz, hb, ha, cz, ha, hb, cz, hb]


def cz_pairs(g: Gate) -> tuple[tuple[int, int], ...]:
    """The qubit pairs a gate is charged one CZ-equivalent on.

    A two-qubit gate is its own pair. An open-controlled phase on k qubits
    gets `mcphase_cz_equivalents(k - 1)` pairs over its adjacent listed
    pairs: each pair's count is the one dealing them round-robin gives
    (two each, one for the last), and each pair's charges come back to
    back, in listed order, so the noise they carry fuses into one channel
    per pair. Any other gate gets none. Gate counting, depolarizing noise
    and gate durations all read this one charge.
    """
    if g.kind in TWO_QUBIT_KINDS:
        return (g.qubits,)
    if g.kind != MCPHASE_OPEN:
        return ()
    pairs = tuple(zip(g.qubits, g.qubits[1:]))
    total = mcphase_cz_equivalents(len(pairs))
    # Pair j is charged once for each k < total with k % len(pairs) == j.
    return tuple(p for j, p in enumerate(pairs) for _ in range(j, total, len(pairs)))


def gate_counts(c: Circuit) -> tuple[int, int]:
    """(single-qubit, two-qubit) unitary gate counts; NOISE/MEASURE excluded.

    Two-qubit gates are counted in CZ-equivalents (`cz_pairs`).
    """
    g1 = g2 = 0
    for g in c.gates:
        if g.kind in SINGLE_QUBIT_KINDS:
            g1 += 1
        else:
            g2 += len(cz_pairs(g))
    return g1, g2


def _gate_duration(g: Gate, cal) -> float:
    if g.kind in SINGLE_QUBIT_KINDS:
        return cal.qubit(g.qubits[0]).single_gate_duration
    if g.kind in TWO_QUBIT_KINDS:
        return cal.coupler(*g.qubits).duration
    if g.kind == MCPHASE_OPEN:
        return len(cz_pairs(g)) * DEFAULT_TWO_QUBIT_GATE_S
    if g.kind == MEASURE:
        return cal.readout_duration
    return 0.0


def _busy_times(c: Circuit, cal, qubits) -> list[float]:
    # Busy time in seconds of each of the distinct `qubits`, in their order.
    # Every non-NOISE gate's duration is looked up in gate order, whichever
    # qubits it acts on, so a snapshot that misses one fails at that gate;
    # no memory is spent on the qubits left out.
    busy = dict.fromkeys(qubits, 0.0)
    for g in c.gates:
        if g.kind == NOISE:
            continue
        dur = _gate_duration(g, cal)
        for q in g.qubits:
            if q in busy:
                busy[q] += dur
    return list(busy.values())
