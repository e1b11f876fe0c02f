"""One model's tolerance report, computed on its own.

`bounds.tolerance_reports` builds both models' reports from one walk over
the preparation qubits and the circuit's busy times; the tests hold it,
bit for bit, to this single-model computation, which sums each
preparation qubit's busy time itself.
"""

import numpy as np

from pbrsim.bounds import (
    ToleranceReport,
    _prep_qubits,
    epsilon_dec,
    epsilon_tol,
    noisy_overlap,
    quantum_trace_distance,
)
from pbrsim.circuits import (
    MCPHASE_OPEN,
    MEASURE,
    NOISE,
    SINGLE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    cz_pairs,
)
from pbrsim.noise import DEPOLARIZING, calibration_mean, mean_p_from_time, p_from_time


def busy_time(circuit, cal, q) -> float:
    """Seconds qubit q is busy: its gates' durations, summed in gate order."""
    busy = 0.0
    for g in circuit.gates:
        if q not in g.qubits or g.kind == NOISE:
            continue
        if g.kind in SINGLE_QUBIT_KINDS:
            busy += cal.qubit(q).single_gate_duration
        elif g.kind in TWO_QUBIT_KINDS:
            busy += cal.coupler(*g.qubits).duration
        elif g.kind == MCPHASE_OPEN:
            busy += len(cz_pairs(g)) * 68e-9
        elif g.kind == MEASURE:
            busy += cal.readout_duration
    return busy


def reference_tolerance_report(params, cal, circuit, model) -> ToleranceReport:
    n = params.n
    d_q = quantum_trace_distance(params.theta)
    ideal = epsilon_tol(d_q, n)
    qubits = _prep_qubits(circuit)
    cals = [cal.qubit(q) for q in qubits]
    two_durations = [c.duration for c in cal.couplers] or [68e-9]
    t_two = calibration_mean(two_durations)

    eps_prep = []
    for qc in cals:
        if model == DEPOLARIZING:
            eps_prep.append(qc.p1)
        else:
            eps_prep.append(
                min(
                    1.0,
                    p_from_time(qc.single_gate_duration, qc.t1)
                    + p_from_time(qc.single_gate_duration, qc.t2),
                )
            )
    per_qubit_tol = [epsilon_tol(noisy_overlap(params.theta, e), n) for e in eps_prep]

    p_ad_bar = float(
        np.mean([mean_p_from_time((qc.single_gate_duration, t_two), qc.t1) for qc in cals])
    )
    p_phi_bar = float(
        np.mean([mean_p_from_time((qc.single_gate_duration, t_two), qc.t2) for qc in cals])
    )
    cumulative = 0.0
    for q in qubits:
        qc, busy = cal.qubit(q), busy_time(circuit, cal, q)
        cumulative += p_from_time(busy, qc.t1) + p_from_time(busy, qc.t2)

    return ToleranceReport(
        model=model,
        n=n,
        d_quantum=d_q,
        d_noisy=float(np.mean([noisy_overlap(params.theta, e) for e in eps_prep])),
        eps_tol_ideal=ideal,
        eps_tol_noisy=float(np.mean(per_qubit_tol)),
        eps_tol_noisy_spread=float(np.std(per_qubit_tol)),
        eps_dep=float(np.mean(eps_prep)),
        eps_dec=epsilon_dec(n, p_ad_bar, p_phi_bar),
        eps_dec_cumulative=min(1.0, cumulative),
        qubit_ids=qubits,
        eps_prep=tuple(eps_prep),
        eps_tol_per_qubit=tuple(per_qubit_tol),
    )
