"""Tolerance thresholds and noise-budget estimates."""

import dataclasses

import numpy as np
import pytest

import pbrsim.bounds
import pbrsim.harness
from pbrsim.bounds import (
    epsilon_dec,
    epsilon_dep,
    epsilon_tol,
    noisy_overlap,
    quantum_trace_distance,
    tolerance_report,
    tolerance_reports,
)
from pbrsim.errors import CalibrationError, RangeError, ValidationError
from pbrsim.harness import ExperimentConfig, run_experiment
from pbrsim.noise import (
    CalibrationSnapshot,
    CouplerCalibration,
    DEPOLARIZING,
    QubitCalibration,
    THERMODYNAMICAL,
    mean_p_from_time,
    p_from_time,
    uniform_calibration,
)
from pbrsim.protocol import PBRParams, build_test_circuit, solved, theta_min
from pbrsim.routing import line_map, lower
from tolerance_reference import reference_tolerance_report


def test_quantum_trace_distance():
    assert abs(quantum_trace_distance(0.0)) < 1e-15
    assert abs(quantum_trace_distance(np.pi / 2) - 1.0) < 1e-12
    assert abs(quantum_trace_distance(np.pi / 4) - np.sin(np.pi / 4)) < 1e-15
    with pytest.raises(RangeError):
        quantum_trace_distance(-0.1)
    with pytest.raises(RangeError, match=r"^theta=2\.0 outside \[0, pi/2\]$"):
        quantum_trace_distance(2.0)


def test_epsilon_tol_values():
    # frozen: (1 - sin(pi/4))^2 / 4 and (1 - sin(theta_min(5)))^5 / 32
    assert abs(epsilon_tol(np.sin(np.pi / 4), 2) - 0.02144660940672625) < 1e-15
    assert abs(epsilon_tol(np.sin(theta_min(5)), 5) - 0.005600077148876709) < 1e-15
    assert epsilon_tol(1.0, 3) == 0.0
    assert abs(epsilon_tol(0.0, 1) - 0.5) < 1e-15
    with pytest.raises(RangeError, match=r"^d=1\.5 outside \[0, 1\]$"):
        epsilon_tol(1.5, 2)
    with pytest.raises(RangeError, match=r"^n=0 must be >= 1$"):
        epsilon_tol(0.5, 0)


def test_epsilon_tol_monotonicity():
    for n in (1, 2, 5):
        vals = [epsilon_tol(d, n) for d in np.linspace(0, 1, 11)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
    for d in (0.3, 0.7):
        vals = [epsilon_tol(d, n) for n in range(1, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_epsilon_dep():
    assert abs(epsilon_dep(1e-3, 1e-2, 10, 5) - 0.05847716996609209) < 1e-15
    assert epsilon_dep(0.0, 0.0, 100, 100) == 0.0
    assert abs(epsilon_dep(1e-4, 0.0, 1, 0) - 1e-4) < 1e-15
    with pytest.raises(RangeError, match=r"^p1=2\.0 outside \[0, 1\]$"):
        epsilon_dep(2.0, 0.0, 1, 1)
    with pytest.raises(RangeError, match=r"^p1=1\.5 outside \[0, 1\]$"):
        epsilon_dep(1.5, 0, 1, 1)
    with pytest.raises(RangeError, match=r"^p2=-0\.5 outside \[0, 1\]$"):
        epsilon_dep(0, -0.5, 1, 1)
    with pytest.raises(RangeError):
        epsilon_dep(0.1, 0.1, -1, 0)


def test_noisy_overlap():
    assert abs(noisy_overlap(np.pi / 4, 0.0) - np.sin(np.pi / 4)) < 1e-15
    assert abs(noisy_overlap(np.pi / 4, 0.1) - 0.9 * np.sin(np.pi / 4)) < 1e-15
    for theta in (np.pi / 4, 0.5):
        with pytest.raises(RangeError, match=r"^eps_dep=1\.5 outside \[0, 1\]$"):
            noisy_overlap(theta, 1.5)


def test_epsilon_dec():
    pad = mean_p_from_time((36e-9, 68e-9), 192e-6)
    pphi = mean_p_from_time((36e-9, 68e-9), 95e-6)
    assert 2.6e-4 <= pad <= 3.0e-4
    assert 5.2e-4 <= pphi <= 6.0e-4
    val = epsilon_dec(5, pad, pphi)
    assert abs(val - 0.004089988286191183) < 1e-15
    assert 4.0e-3 <= val <= 4.4e-3
    assert epsilon_dec(10, 0.5, 0.9) == 1.0
    with pytest.raises(RangeError):
        epsilon_dec(-1, 0.1, 0.1)
    with pytest.raises(RangeError, match=r"^p_ad=-0\.1 outside \[0, 1\]$"):
        epsilon_dec(5, -0.1, 0.1)
    with pytest.raises(RangeError, match=r"^p_ad=1\.5 outside \[0, 1\]$"):
        epsilon_dec(1, 1.5, 0)
    with pytest.raises(RangeError, match=r"^p_phi=1\.5 outside \[0, 1\]$"):
        epsilon_dec(5, 0.1, 1.5)


def adjacent_pair_calibration():
    return CalibrationSnapshot(
        (
            QubitCalibration(0, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01),
            QubitCalibration(1, 239e-6, 276e-6, 2.8e-4, 36e-9, 0.01, 0.01),
        ),
        (CouplerCalibration(0, 1, 2.4e-3, 68e-9),),
        readout_duration=600e-9,
    )


def test_tolerance_report_depolarizing():
    params = PBRParams.solve(2, np.pi / 4)
    circuit = build_test_circuit(0, params)
    rep = tolerance_report(params, adjacent_pair_calibration(), circuit, DEPOLARIZING)
    assert rep.model == DEPOLARIZING
    assert rep.n == 2
    assert rep.qubit_ids == (0, 1)
    assert abs(rep.d_quantum - np.sin(np.pi / 4)) < 1e-15
    assert abs(rep.eps_tol_ideal - 0.02144660940672625) < 1e-15
    # prep error per qubit is p1 under the depolarizing budget
    assert rep.eps_prep == (2.1e-4, 2.8e-4)
    assert abs(rep.eps_dep - 2.45e-4) < 1e-18
    assert abs(rep.eps_tol_noisy - 0.02147198764367157) < 1e-12
    assert rep.eps_tol_noisy > rep.eps_tol_ideal
    assert rep.eps_tol_noisy_spread < 1e-5
    assert abs(rep.eps_dec_cumulative - 0.0148908352587) < 1e-10


def test_tolerance_report_thermodynamical():
    params = PBRParams.solve(2, np.pi / 4)
    circuit = build_test_circuit(0, params)
    rep = tolerance_report(params, adjacent_pair_calibration(), circuit, THERMODYNAMICAL)
    assert rep.model == THERMODYNAMICAL
    # prep error per qubit is single-gate damping plus dephasing
    e0 = p_from_time(36e-9, 173e-6) + p_from_time(36e-9, 172e-6)
    e1 = p_from_time(36e-9, 239e-6) + p_from_time(36e-9, 276e-6)
    assert abs(rep.eps_prep[0] - e0) < 1e-18
    assert abs(rep.eps_prep[1] - e1) < 1e-18
    assert abs(rep.eps_tol_noisy - 0.021482785752996864) < 1e-12


def test_tolerance_report_readout_window_dominates_cumulative():
    # a multi-microsecond readout window pushes the cumulative decoherence
    # estimate into the percent range for the adjacent-pair device
    cal = CalibrationSnapshot(
        (
            QubitCalibration(0, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01),
            QubitCalibration(1, 239e-6, 276e-6, 2.8e-4, 36e-9, 0.01, 0.01),
        ),
        (CouplerCalibration(0, 1, 2.4e-3, 68e-9),),
        readout_duration=1.3e-6,
    )
    params = PBRParams.solve(2, np.pi / 4)
    circuit = build_test_circuit(0, params)
    rep = tolerance_report(params, cal, circuit, THERMODYNAMICAL)
    assert 0.02 < rep.eps_dec_cumulative < 0.035
    assert rep.eps_dec < rep.eps_dec_cumulative


def test_tolerance_report_rejects_unknown_model():
    params = PBRParams.solve(2, np.pi / 4)
    circuit = build_test_circuit(0, params)
    with pytest.raises(ValidationError, match=r"^unknown noise model 'white'$"):
        tolerance_report(params, adjacent_pair_calibration(), circuit, "white")


def varied_calibration(n, seed, edges=None):
    """A device whose qubits and couplers all differ (all pairs by default)."""
    rng = np.random.default_rng(seed)
    qubits = [
        QubitCalibration(
            q, float(rng.uniform(80e-6, 200e-6)), float(rng.uniform(50e-6, 150e-6)),
            float(rng.uniform(1e-4, 5e-4)), float(rng.uniform(30e-9, 40e-9)),
        )
        for q in range(n)
    ]
    if edges is None:
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    couplers = [
        CouplerCalibration(a, b, float(rng.uniform(1e-3, 5e-3)), float(rng.uniform(60e-9, 80e-9)))
        for a, b in edges
    ]
    return CalibrationSnapshot(qubits, couplers, float(rng.uniform(0.5e-6, 1.5e-6)))


def assert_pair_matches_reference(params, cal, circuit):
    # repr round-trips every float, so equal reprs mean equal bits.
    pair = tolerance_reports(params, cal, circuit)
    for model, rep in zip((DEPOLARIZING, THERMODYNAMICAL), pair):
        ref = reference_tolerance_report(params, cal, circuit, model)
        assert repr(rep) == repr(ref)
        assert repr(tolerance_report(params, cal, circuit, model)) == repr(ref)


@pytest.mark.parametrize("n", range(2, 9))
def test_tolerance_reports_match_single_model_reference_unplaced(n):
    cals = (
        uniform_calibration(n, p1=2.1e-4, p2=2.4e-3, readout=600e-9),
        varied_calibration(n, seed=31),
        varied_calibration(n, seed=32),
        # T1 = T2 = 20 ns: the thermodynamical preparation error reaches
        # its cap of 1.
        uniform_calibration(n, t1=20e-9, t2=20e-9, p1=2e-4, p2=2e-3),
    )
    for theta in (theta_min(n), 1.0, 1.2):
        params = PBRParams.solve(n, theta)
        circuit = build_test_circuit(0, params)
        for cal in cals:
            assert_pair_matches_reference(params, cal, circuit)


@pytest.mark.parametrize("span", [*range(1, 12), 154])
def test_tolerance_reports_match_single_model_reference_routed(span):
    line = line_map(span + 1)
    cal = varied_calibration(span + 1, seed=span, edges=line.edges)
    for theta in (theta_min(2), 1.2):
        params = PBRParams.solve(2, theta)
        routed = lower(build_test_circuit(0, params), line, (0, span))[0]
        assert_pair_matches_reference(params, cal, routed)


@pytest.fixture
def walks(monkeypatch):
    """Counts the tolerance walks: each reads the busy times once."""
    calls = []
    real = pbrsim.bounds._busy_times

    def counted(circuit, cal, qubits):
        calls.append(circuit)
        return real(circuit, cal, qubits)

    monkeypatch.setattr(pbrsim.bounds, "_busy_times", counted)
    return calls


def pair_config(cal, model=DEPOLARIZING):
    """A two-qubit run at pi/4 on `cal`."""
    return ExperimentConfig(n=2, theta=np.pi / 4, model=model, calibration=cal, shots=100)


def kept_pair(report):
    return report.tol_dep, report.tol_thermo


def test_tolerance_pair_is_kept_for_the_same_objects(walks):
    # A run keeps its pair with its configuration (harness._CONFIGURATIONS):
    # walked once per (angles, circuit, calibration) objects and model.
    params = solved(2, np.pi / 4)
    cal = adjacent_pair_calibration()
    pair = kept_pair(run_experiment(pair_config(cal)))
    assert kept_pair(run_experiment(dataclasses.replace(pair_config(cal), seed=5)))[0] is pair[0]
    assert repr(tolerance_report(params, cal, params.test_circuit, DEPOLARIZING)) == repr(pair[0])
    assert repr(tolerance_report(params, cal, params.test_circuit, THERMODYNAMICAL)) == repr(pair[1])
    assert len(walks) == 3
    thermo = kept_pair(run_experiment(pair_config(cal, THERMODYNAMICAL)))
    assert thermo is not pair and repr(thermo) == repr(pair)
    assert len(walks) == 4
    # A value-equal new calibration object is read afresh, to an equal pair.
    again = kept_pair(run_experiment(pair_config(adjacent_pair_calibration())))
    assert again[0] is not pair[0] and repr(again) == repr(pair)
    assert len(walks) == 5


def test_tolerance_pair_is_walked_afresh_for_changed_arguments(walks):
    params = PBRParams.solve(2, np.pi / 4)
    circuit = build_test_circuit(0, params)
    cal = adjacent_pair_calibration()
    dep, thermo = tolerance_reports(params, cal, circuit)
    q0, q1 = cal.qubits
    hotter = dataclasses.replace(cal, qubits=(dataclasses.replace(q0, p1=3e-4), q1))
    assert tolerance_reports(params, hotter, circuit)[0].eps_prep == (3e-4, 2.8e-4)
    shorter = dataclasses.replace(cal, qubits=(dataclasses.replace(q0, t1=50e-6), q1))
    assert tolerance_reports(params, shorter, circuit)[1].eps_prep[0] > thermo.eps_prep[0]
    assert len(walks) == 3
    # The routed circuit on a line, in place of the unplaced one.
    line_cal = uniform_calibration(3, p1=2.1e-4, p2=2.4e-3, readout=600e-9)
    routed = lower(circuit, line_map(3), (0, 2))[0]
    unplaced = tolerance_reports(params, line_cal, circuit)
    moved = tolerance_reports(params, line_cal, routed)
    assert walks[-2:] == [circuit, routed]
    assert moved[0].qubit_ids == (0, 2) and unplaced[0].qubit_ids == (0, 1)
    assert moved[1].eps_dec_cumulative != unplaced[1].eps_dec_cumulative
    # Every result still equals the single-model reference.
    for c, pair in ((circuit, unplaced), (routed, moved)):
        for model, rep in zip((DEPOLARIZING, THERMODYNAMICAL), pair):
            assert repr(rep) == repr(reference_tolerance_report(params, line_cal, c, model))


def test_failing_tolerance_walk_is_not_kept():
    missing = CalibrationSnapshot((QubitCalibration(0, 173e-6, 172e-6, 2.1e-4),), ())
    for _ in range(3):
        with pytest.raises(CalibrationError, match="no calibration for qubit 1"):
            run_experiment(pair_config(missing))
    kept = pbrsim.harness._CONFIGURATIONS.items()
    assert all(objects[2] is not missing for objects, _ in kept)


def test_tolerance_memo_holds_a_handful_of_entries():
    memo = pbrsim.harness._CONFIGURATIONS
    cals = [adjacent_pair_calibration() for _ in range(3 * memo.size)]
    pairs = [kept_pair(run_experiment(pair_config(cal))) for cal in cals]
    assert len(memo.items()) == memo.size <= 8
    # The newest entries are kept; an evicted configuration is walked again, equal.
    assert kept_pair(run_experiment(pair_config(cals[-1])))[0] is pairs[-1][0]
    assert kept_pair(run_experiment(pair_config(cals[0])))[0] is not pairs[0][0]
    assert repr(kept_pair(run_experiment(pair_config(cals[0])))) == repr(pairs[0])


def test_epsilon_tol_scales_by_a_power_of_two_past_the_float_range():
    # Bit for bit (1 - d)^n / 2^n while 2^n is a float; from n = 1024 on,
    # where 2**n no longer converts, a finite value (0.0 once it underflows).
    rng = np.random.default_rng(1024)
    for d, n in zip(rng.random(20000), rng.integers(1, 1024, 20000)):
        n = int(n)
        assert epsilon_tol(float(d), n) == (1.0 - float(d)) ** n / 2**n
    for n in (1023, 1024, 1074, 1075, 200000, 10**7):
        for d in (0.0, 1e-3, 0.5, 1.0):
            value = epsilon_tol(d, n)
            assert type(value) is float and 0.0 <= value < 2.0**-1022
    assert epsilon_tol(0.0, 1074) == 5e-324 and epsilon_tol(0.0, 1024) == 2.0**-1024
    assert epsilon_tol(0.0, 200000) == 0.0
