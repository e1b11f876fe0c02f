"""Closed-form tolerance bounds and error-model estimates.

The pass/fail threshold for the test is epsilon_tol = (1 - D)^n / 2^n,
the largest forbidden-outcome probability a maximally psi-epistemic
model can explain at trace distance D. With noisy preparations the
overlap shrinks to (1 - eps) sin(theta), which raises the threshold; eps
is taken from the preparation gates only (one RY per qubit), while the
measurement-circuit noise enters the simulation rather than the bound.

`tolerance_reports` gives both models' reports from one walk and keeps
nothing: `harness.run_experiment` keeps the pair a configuration that
runs again needs.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, RY, _busy_times
from .config import DEFAULT_TWO_QUBIT_GATE_S
from .errors import RangeError
from .noise import (
    CalibrationSnapshot,
    NOISE_MODELS,
    _check_model,
    _check_probability,
    calibration_mean,
    mean_p_from_time,
    p_from_time,
)
from .protocol import PBRParams, _check_size, _check_theta
from .records import Record, record


def quantum_trace_distance(theta: float) -> float:
    """sin(theta) for the two pure preparations at opening angle theta."""
    _check_theta(theta)
    return math.sin(theta)


def epsilon_tol(d: float, n: int) -> float:
    """(1 - d)^n / 2^n, the psi-epistemic bound at trace distance d."""
    _check_probability(d, "d")
    _check_size(n)
    # Scaled by 2^-n in the exponent: 2**n overflows a float from n = 1024 on.
    return math.ldexp((1.0 - d) ** n, -n)


def epsilon_dep(p1: float, p2: float, g1: int, g2: int) -> float:
    """Synthesized depolarizing error 1 - (1-p1)^G1 (1-p2)^G2."""
    _check_probability(p1, "p1")
    _check_probability(p2, "p2")
    if g1 < 0 or g2 < 0:
        raise RangeError(f"gate counts ({g1}, {g2}) must be >= 0")
    return float(1.0 - (1.0 - p1) ** g1 * (1.0 - p2) ** g2)


def noisy_overlap(theta: float, eps_dep: float) -> float:
    """(1 - eps_dep) sin(theta): trace distance surviving noisy preparation."""
    _check_probability(eps_dep, "eps_dep")
    return float((1.0 - eps_dep) * quantum_trace_distance(theta))


def epsilon_dec(n: int, p_ad: float, p_phi: float) -> float:
    """Linearized decoherence estimate min(1, n (p_ad + p_phi))."""
    if n < 0:
        raise RangeError(f"n={n} must be >= 0")
    _check_probability(p_ad, "p_ad")
    _check_probability(p_phi, "p_phi")
    return float(min(1.0, n * (p_ad + p_phi)))


@record
class ToleranceReport(Record):
    """One model's thresholds for a circuit on a device: distances, tolerances, error terms."""

    model: str
    n: int
    d_quantum: float
    d_noisy: float
    eps_tol_ideal: float
    eps_tol_noisy: float
    eps_tol_noisy_spread: float
    eps_dep: float
    eps_dec: float
    eps_dec_cumulative: float
    qubit_ids: tuple[int, ...]
    eps_prep: tuple[float, ...]
    eps_tol_per_qubit: tuple[float, ...]


def _prep_qubits(circuit: Circuit) -> tuple[int, ...]:
    qubits = [g.qubits[0] for g in circuit.gates if g.kind == RY]
    if not qubits:
        qubits = list(range(circuit.n_qubits))
    seen: list[int] = []
    for q in qubits:
        if q not in seen:
            seen.append(q)
    return tuple(seen)


def tolerance_reports(
    params: PBRParams, cal: CalibrationSnapshot, circuit: Circuit
) -> tuple[ToleranceReport, ToleranceReport]:
    """Both models' tolerance reports, in NOISE_MODELS order, from one walk.

    The preparation error per qubit is p1 under the depolarizing model and
    the single-gate damping plus dephasing probability under the
    thermodynamical one; the reported threshold is the mean over the
    preparation qubits with its spread across them. eps_dec uses the
    duration-averaged damping rates; the cumulative variant integrates
    each qubit's busy time in the given circuit (readout window included).
    Only the preparation error depends on the model, so the preparation
    qubits, their calibrations and both decoherence estimates are read once.
    """
    n = params.n
    d_q = quantum_trace_distance(params.theta)
    ideal = epsilon_tol(d_q, n)
    qubits = _prep_qubits(circuit)
    cals = [cal.qubit(q) for q in qubits]
    two_durations = [c.duration for c in cal.couplers] or [DEFAULT_TWO_QUBIT_GATE_S]
    t_two = calibration_mean(two_durations)

    p_ad = [mean_p_from_time((qc.single_gate_duration, t_two), qc.t1) for qc in cals]
    p_phi = [mean_p_from_time((qc.single_gate_duration, t_two), qc.t2) for qc in cals]
    cumulative = 0.0
    for busy, qc in zip(_busy_times(circuit, cal, qubits), cals):
        cumulative += p_from_time(busy, qc.t1) + p_from_time(busy, qc.t2)
    cumulative = min(1.0, cumulative)

    # Per model, in NOISE_MODELS order: each preparation qubit's error, its
    # noisy overlap and its threshold.
    eps_prep = (
        [qc.p1 for qc in cals],
        [
            p_from_time(qc.single_gate_duration, qc.t1)
            + p_from_time(qc.single_gate_duration, qc.t2)
            for qc in cals
        ],
    )
    overlaps = [[noisy_overlap(params.theta, e) for e in eps] for eps in eps_prep]
    per_qubit_tol = [[epsilon_tol(d, n) for d in ds] for ds in overlaps]
    # Every mean over the preparation qubits is one row of a stacked array
    # reduced along axis 1, row by row the pairwise sum np.mean gives a list.
    means = np.array([p_ad, p_phi, *overlaps, *per_qubit_tol, *eps_prep]).mean(axis=1).tolist()
    spreads = np.array(per_qubit_tol).std(axis=1).tolist()
    eps_dec = epsilon_dec(n, means[0], means[1])
    return tuple(
        ToleranceReport(
            model=model,
            n=n,
            d_quantum=d_q,
            d_noisy=means[2 + i],
            eps_tol_ideal=ideal,
            eps_tol_noisy=means[4 + i],
            eps_tol_noisy_spread=spreads[i],
            eps_dep=means[6 + i],
            eps_dec=eps_dec,
            eps_dec_cumulative=cumulative,
            qubit_ids=qubits,
            eps_prep=tuple(eps_prep[i]),
            eps_tol_per_qubit=tuple(per_qubit_tol[i]),
        )
        for i, model in enumerate(NOISE_MODELS)
    )


def tolerance_report(
    params: PBRParams, cal: CalibrationSnapshot, circuit: Circuit, model: str
) -> ToleranceReport:
    """One model's report from `tolerance_reports`."""
    _check_model(model)
    return tolerance_reports(params, cal, circuit)[NOISE_MODELS.index(model)]
