"""One model's tolerance report, computed on its own.

`bounds.tolerance_reports` builds both models' reports from one walk over
the preparation qubits and the circuit's busy times; the tests hold it,
bit for bit, to this single-model computation.
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
from pbrsim.circuits import circuit_duration
from pbrsim.noise import DEPOLARIZING, calibration_mean, mean_p_from_time, p_from_time


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
    busy = circuit_duration(circuit, cal).tolist()
    cumulative = 0.0
    for q in qubits:
        qc = cal.qubit(q)
        cumulative += p_from_time(busy[q], qc.t1) + p_from_time(busy[q], qc.t2)

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
