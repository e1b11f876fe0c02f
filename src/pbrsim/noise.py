"""Device calibration ingestion and noise-channel construction.

Calibration files are JSON documents with fixed units in the key names:

    {"qubits":   [{"id", "t1_us", "t2_us", "p1", "single_ns", "p01", "p10"}...],
     "couplers": [{"q0", "q1", "p2", "duration_ns"}...],
     "readout_us": 1.0}

Unknown keys are rejected. Only the duration keys may be omitted; they
fall back to 36 ns (single), 68 ns (two-qubit) and 1 us (readout). Ids
must be JSON integers and every other value a finite JSON number; booleans,
strings, NaN and infinities are rejected. Qubit ids are distinct, and a
pair has at most one coupler, in either orientation.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    MEASURE,
    NOISE,
    SINGLE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    _gate_duration,
)
from .config import (
    DEFAULT_READOUT_S,
    DEFAULT_SINGLE_GATE_S,
    DEFAULT_TWO_QUBIT_GATE_S,
    mcphase_cz_equivalents,
)
from .errors import CalibrationError, FormatError, RangeError, ValidationError
from .states import KrausChannel

DEPOLARIZING = "depolarizing"
THERMODYNAMICAL = "thermodynamical"
NOISE_MODELS = (DEPOLARIZING, THERMODYNAMICAL)


@dataclass(frozen=True)
class QubitCalibration:
    """One qubit's T1, T2, gate error and duration, and readout flip probabilities."""

    id: int
    t1: float
    t2: float
    p1: float
    single_gate_duration: float = DEFAULT_SINGLE_GATE_S
    readout_p01: float = 0.0
    readout_p10: float = 0.0

    def __post_init__(self):
        if not 0 < self.t1 < math.inf:
            raise ValidationError(f"qubit {self.id}: t1 must be finite and > 0")
        if not 0 < self.t2 < math.inf:
            raise ValidationError(f"qubit {self.id}: t2 must be finite and > 0")
        for name in ("p1", "readout_p01", "readout_p10"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"qubit {self.id}: {name}={v!r} outside [0, 1]")
        if not 0 <= self.single_gate_duration < math.inf:
            raise ValidationError(f"qubit {self.id}: gate duration not finite and >= 0")


@dataclass(frozen=True)
class CouplerCalibration:
    """One coupled pair's two-qubit gate error and duration."""

    q0: int
    q1: int
    p2: float
    duration: float = DEFAULT_TWO_QUBIT_GATE_S

    def __post_init__(self):
        if self.q0 == self.q1:
            raise ValidationError(f"coupler ({self.q0}, {self.q1}) is a self-loop")
        if not 0.0 <= self.p2 <= 1.0:
            raise ValidationError(f"coupler ({self.q0}, {self.q1}): p2 outside [0, 1]")
        if not 0 <= self.duration < math.inf:
            raise ValidationError(
                f"coupler ({self.q0}, {self.q1}): duration not finite and >= 0"
            )


@dataclass(frozen=True)
class CalibrationSnapshot:
    """A device's qubit and coupler calibrations and its readout window."""

    qubits: tuple[QubitCalibration, ...]
    couplers: tuple[CouplerCalibration, ...]
    readout_duration: float = DEFAULT_READOUT_S

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "couplers", tuple(self.couplers))
        if not self.qubits:
            raise ValidationError("qubit list is empty")
        ids = [q.id for q in self.qubits]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate qubit ids")
        known = set(ids)
        by_pair = {}
        for c in self.couplers:
            for q in (c.q0, c.q1):
                if q not in known:
                    raise ValidationError(f"coupler references unknown qubit {q}")
            # One coupler per pair, in either orientation: a second would
            # shadow the first in `coupler` but count in every average.
            pair = frozenset((c.q0, c.q1))
            if pair in by_pair:
                raise ValidationError(f"duplicate coupler ({c.q0}, {c.q1})")
            by_pair[pair] = c
        if not 0 <= self.readout_duration < math.inf:
            raise ValidationError("readout_us must be finite and >= 0")
        object.__setattr__(self, "_by_id", {q.id: q for q in self.qubits})
        object.__setattr__(self, "_by_pair", by_pair)

    def qubit(self, qid: int) -> QubitCalibration:
        try:
            return self._by_id[qid]
        except KeyError:
            raise CalibrationError(f"no calibration for qubit {qid}") from None

    def coupler(self, a: int, b: int) -> CouplerCalibration:
        try:
            return self._by_pair[frozenset((a, b))]
        except KeyError:
            raise CalibrationError(f"no calibration for coupler ({a}, {b})") from None


_QUBIT_KEYS = {"id", "t1_us", "t2_us", "p1", "single_ns", "p01", "p10"}
_COUPLER_KEYS = {"q0", "q1", "p2", "duration_ns"}


def _reject_unknown(entry: dict, allowed: set, where: str) -> None:
    extra = set(entry) - allowed
    if extra:
        raise FormatError(f"unknown keys {sorted(extra)} in {where}")


def _entries(doc: dict, section: str) -> list:
    """The list of objects under `section`; [] when absent."""
    entries = doc.get(section, [])
    if not isinstance(entries, list):
        raise FormatError(f"{section!r} must be a list of objects")
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError(f"{section!r} entry {entry!r} is not an object")
    return entries


def json_number(value, name: str, integer: bool = False):
    """Check a parsed JSON value: an int when `integer`, else a finite number.

    Booleans, strings, NaN, infinities and ints too large for a float raise
    FormatError. Numbers come back as floats.
    """
    kind = "an integer" if integer else "a finite number"
    if (
        isinstance(value, bool)
        or not isinstance(value, int if integer else (int, float))
        or not (integer or abs(value) <= sys.float_info.max)
    ):
        raise FormatError(f"{name}={value!r} must be {kind}")
    return value if integer else float(value)


def _field(entry: dict, key: str, where: str, default=None, integer: bool = False):
    """`entry[key]` checked by `json_number`; `default` when absent, if given."""
    if key not in entry:
        if default is None:
            raise ValidationError(f"{where} is missing required key {key!r}")
        return default
    return json_number(entry[key], f"{where}: {key}", integer)


def load_json_document(path, what: str):
    """Parse a JSON file; FormatError if it does not parse.

    Nesting too deep for the parser's recursion (such as 10^5 opening
    brackets) is a parse failure too.
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"{what} does not parse: {exc}") from exc


def load_calibration(path) -> CalibrationSnapshot:
    """Read a calibration snapshot from a JSON file (units in key names)."""
    doc = load_json_document(path, "calibration file")
    if not isinstance(doc, dict):
        raise FormatError("calibration document must be an object")
    _reject_unknown(doc, {"qubits", "couplers", "readout_us"}, "calibration document")
    qubits = []
    for entry in _entries(doc, "qubits"):
        _reject_unknown(entry, _QUBIT_KEYS, f"qubit entry {entry.get('id')}")
        where = f"qubit entry {entry.get('id')}"
        qubits.append(
            QubitCalibration(
                id=_field(entry, "id", where, integer=True),
                t1=_field(entry, "t1_us", where) * 1e-6,
                t2=_field(entry, "t2_us", where) * 1e-6,
                p1=_field(entry, "p1", where),
                single_gate_duration=(
                    _field(entry, "single_ns", where, DEFAULT_SINGLE_GATE_S * 1e9) * 1e-9
                ),
                readout_p01=_field(entry, "p01", where),
                readout_p10=_field(entry, "p10", where),
            )
        )
    couplers = []
    for entry in _entries(doc, "couplers"):
        where = f"coupler entry ({entry.get('q0')}, {entry.get('q1')})"
        _reject_unknown(entry, _COUPLER_KEYS, where)
        couplers.append(
            CouplerCalibration(
                q0=_field(entry, "q0", where, integer=True),
                q1=_field(entry, "q1", where, integer=True),
                p2=_field(entry, "p2", where),
                duration=_field(entry, "duration_ns", where, DEFAULT_TWO_QUBIT_GATE_S * 1e9) * 1e-9,
            )
        )
    readout = _field(doc, "readout_us", "calibration", DEFAULT_READOUT_S * 1e6) * 1e-6
    return CalibrationSnapshot(tuple(qubits), tuple(couplers), readout)


def save_calibration(cal: CalibrationSnapshot, path) -> None:
    doc = {
        "qubits": [
            {
                "id": q.id,
                "t1_us": q.t1 * 1e6,
                "t2_us": q.t2 * 1e6,
                "p1": q.p1,
                "single_ns": q.single_gate_duration * 1e9,
                "p01": q.readout_p01,
                "p10": q.readout_p10,
            }
            for q in cal.qubits
        ],
        "couplers": [
            {"q0": c.q0, "q1": c.q1, "p2": c.p2, "duration_ns": c.duration * 1e9}
            for c in cal.couplers
        ],
        "readout_us": cal.readout_duration * 1e6,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def calibration_mean(values) -> float:
    """Mean of calibration values; values that are all equal come back unchanged.

    np.mean of 155 copies of 0.01 is 0.009999999999999998, so a uniform
    device would not be its own average without the equality check.
    """
    vals = [float(v) for v in values]
    return vals[0] if len(set(vals)) == 1 else float(np.mean(vals))


def uniform_calibration(
    n_qubits: int,
    *,
    t1=150e-6,
    t2=120e-6,
    p1=0.0,
    p2=0.0,
    p01=0.0,
    p10=0.0,
    single=DEFAULT_SINGLE_GATE_S,
    two=DEFAULT_TWO_QUBIT_GATE_S,
    readout=DEFAULT_READOUT_S,
    edges=None,
) -> CalibrationSnapshot:
    """Homogeneous snapshot; couplers on `edges` (all pairs when omitted)."""
    qubits = tuple(
        QubitCalibration(i, t1, t2, p1, single, p01, p10) for i in range(n_qubits)
    )
    if edges is None:
        edges = itertools.combinations(range(n_qubits), 2)
    couplers = tuple(CouplerCalibration(a, b, p2, two) for a, b in edges)
    return CalibrationSnapshot(qubits, couplers, readout)


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# The channel builders are memoized on their arguments for speed: repeated
# gates share one read-only channel object, its superoperator built once per
# process, not once per gate. The bound keeps a long-lived process small.
_channel_cache = functools.lru_cache(maxsize=512)


def _check_probability(p: float, name: str = "p") -> float:
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"{name}={p!r} outside [0, 1]")
    return float(p)


@_channel_cache
def depolarizing_channel(p: float, arity: int = 1) -> KrausChannel:
    """Mix with the maximally mixed state: rho -> (1-p) rho + p I/2^arity.

    Pauli form: keep weight 1 - p(4^a - 1)/4^a on identity, p/4^a on every
    other Pauli string.
    """
    _check_probability(p)
    if arity not in (1, 2):
        raise RangeError(f"arity must be 1 or 2, got {arity}")
    dim4 = 4**arity
    ops = []
    strings = list(itertools.product(_PAULIS, repeat=arity))
    for i, factors in enumerate(strings):
        mat = factors[0]
        for f in factors[1:]:
            mat = np.kron(mat, f)
        weight = 1.0 - p * (dim4 - 1) / dim4 if i == 0 else p / dim4
        ops.append(np.sqrt(weight) * mat)
    return KrausChannel(ops, check=False)


def p_from_time(t: float, T: float) -> float:
    """Decay probability 1 - exp(-t/T) accumulated over a gate window."""
    if T <= 0:
        raise RangeError(f"T={T!r} must be > 0")
    if t < 0:
        raise RangeError(f"t={t!r} must be >= 0")
    return -math.expm1(-t / T)


def mean_p_from_time(durations, T: float) -> float:
    """Unweighted mean of p_from_time over a set of gate durations."""
    ps = [p_from_time(t, T) for t in durations]
    return sum(ps) / len(ps)


@_channel_cache
def amplitude_damping(p_ad: float) -> KrausChannel:
    """T1 relaxation: |1> population decays by (1 - p_ad)."""
    _check_probability(p_ad, "p_ad")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p_ad)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p_ad)], [0, 0]], dtype=complex)
    return KrausChannel((k0, k1), check=False)


@_channel_cache
def dephasing(p_phi: float) -> KrausChannel:
    """Pure dephasing: off-diagonal coherence shrinks by (1 - p_phi)."""
    _check_probability(p_phi, "p_phi")
    # Phase flip with probability p_phi/2 multiplies coherences by 1 - p_phi.
    k0 = np.sqrt(1 - p_phi / 2) * np.eye(2, dtype=complex)
    k1 = np.sqrt(p_phi / 2) * _PAULIS[3]
    return KrausChannel((k0, k1), check=False)


def readout_matrix(q: QubitCalibration) -> np.ndarray:
    """Column-stochastic confusion matrix [[1-p10, p01], [p10, 1-p01]]."""
    return np.array(
        [[1 - q.readout_p10, q.readout_p01], [q.readout_p10, 1 - q.readout_p01]]
    )


def _mcphase_pairs(qubits: tuple[int, ...]) -> list[tuple[int, int]]:
    # Round-robin over adjacent listed pairs: one arity-2 channel per
    # CZ-equivalent keeps inserted noise consistent with gate counting.
    n_controls = len(qubits) - 1
    reps = mcphase_cz_equivalents(n_controls)
    pairs = [(qubits[j], qubits[j + 1]) for j in range(len(qubits) - 1)]
    return [pairs[k % len(pairs)] for k in range(reps)]


# NOISE gates are frozen, so each (qubits, channel object) pair is built and
# validated once and shared, like the cached channels it holds. Bounded at
# twice the channel cache, so a long-lived process stays small.
@functools.lru_cache(maxsize=1024)
def _noise_gate(qubits: tuple[int, ...], channel: KrausChannel) -> Gate:
    return Gate(NOISE, qubits, channel=channel)


def _thermal_insertions(
    qubits, duration: float, cal: CalibrationSnapshot, built: dict
) -> list[Gate]:
    # A qubit's RY, X and H share one duration, so `built` keeps each
    # (qubit, duration)'s damping and dephasing gates for the rest of the call.
    out = []
    for q in qubits:
        pair = built.get((q, duration))
        if pair is None:
            qc = cal.qubit(q)
            pair = built[q, duration] = (
                _noise_gate((q,), amplitude_damping(p_from_time(duration, qc.t1))),
                _noise_gate((q,), dephasing(p_from_time(duration, qc.t2))),
            )
        out += pair
    return out


def attach_noise(c: Circuit, cal: CalibrationSnapshot, model: str) -> Circuit:
    """Insert NOISE gates after each unitary per the chosen model.

    Depolarizing: p1 after single-qubit gates, p2 after two-qubit gates
    (open-controlled multi-qubit phases get one arity-2 channel per
    CZ-equivalent). Thermodynamical: amplitude damping plus dephasing on
    every participating qubit, driven by the gate duration, and again
    over the readout window before MEASURE.
    """
    if model not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {model!r}")
    gates: list[Gate] = []
    built: dict = {}
    for g in c.gates:
        if g.kind == NOISE:
            gates.append(g)
            continue
        if g.kind == MEASURE:
            if model == THERMODYNAMICAL:
                gates.extend(_thermal_insertions(g.qubits, cal.readout_duration, cal, built))
            gates.append(g)
            continue
        gates.append(g)
        if model == DEPOLARIZING:
            if g.kind in SINGLE_QUBIT_KINDS:
                p = cal.qubit(g.qubits[0]).p1
                gates.append(_noise_gate(g.qubits, depolarizing_channel(p, 1)))
            elif g.kind in TWO_QUBIT_KINDS:
                p = cal.coupler(*g.qubits).p2
                gates.append(_noise_gate(g.qubits, depolarizing_channel(p, 2)))
            else:  # MCPHASE_OPEN
                for pair in _mcphase_pairs(g.qubits):
                    p = cal.coupler(*pair).p2
                    gates.append(_noise_gate(pair, depolarizing_channel(p, 2)))
        else:
            gates.extend(_thermal_insertions(g.qubits, _gate_duration(g, cal), cal, built))
    return Circuit(c.n_qubits, tuple(gates))
