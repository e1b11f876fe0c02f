"""Noise channels, calibration snapshots, readout, channel insertion."""

import itertools
import json

import numpy as np
import pytest

from pbrsim.circuits import (
    CZ,
    Circuit,
    Gate,
    H,
    MCPHASE_OPEN,
    MEASURE,
    NOISE,
    RY,
    _gate_duration,
    gate_counts,
)
from pbrsim.config import DEFAULT_TWO_QUBIT_GATE_S, mcphase_cz_equivalents
from pbrsim.errors import (
    CalibrationError,
    FormatError,
    RangeError,
    ValidationError,
)
from pbrsim.noise import (
    CalibrationSnapshot,
    CouplerCalibration,
    DEPOLARIZING,
    QubitCalibration,
    THERMODYNAMICAL,
    amplitude_damping,
    attach_noise,
    dephasing,
    depolarizing_channel,
    load_calibration,
    mean_p_from_time,
    p_from_time,
    readout_matrix,
    save_calibration,
    uniform_calibration,
    _noise_gate,
)
from pbrsim.protocol import PBRParams, theta_min
from pbrsim.routing import CouplingMap, line_map, load_coupling_map, save_coupling_map
from pbrsim.simulate import outcome_distribution
from dense_reference import dense_distribution, ground_matrix, kraus_apply, pure_matrix
from readout_reference import apply_readout


def plus_state():
    return pure_matrix(np.array([1.0, 1.0]) / np.sqrt(2))


def test_p_from_time_values():
    assert abs(p_from_time(36e-9, 192e-6) - 0.00018748242297358128) < 1e-18
    assert abs(p_from_time(68e-9, 192e-6) - 0.00035410395705621415) < 1e-18
    assert abs(p_from_time(36e-9, 95e-6) - 0.0003788755769357205) < 1e-18
    assert abs(p_from_time(68e-9, 95e-6) - 0.000715533357510957) < 1e-18
    assert p_from_time(0.0, 1e-6) == 0.0
    with pytest.raises(RangeError):
        p_from_time(1e-9, 0.0)
    with pytest.raises(RangeError):
        p_from_time(-1e-9, 1e-6)


def test_mean_p_from_time():
    expected = (p_from_time(36e-9, 192e-6) + p_from_time(68e-9, 192e-6)) / 2
    assert abs(mean_p_from_time((36e-9, 68e-9), 192e-6) - expected) < 1e-18
    assert abs(expected - 0.0002707931900148977) < 1e-18


def test_depolarizing_channel_action():
    rng = np.random.default_rng(7)
    for p in (0.0, 0.2, 1.0):
        ch = depolarizing_channel(p, 1)
        rho = plus_state()
        out = kraus_apply(rho, ch.operators, (0,))
        expected = (1 - p) * rho + p * np.eye(2) / 2
        assert np.abs(out - expected).max() < 1e-12
    for p in (0.1, 0.9):
        ch = depolarizing_channel(p, 2)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        rho = pure_matrix(amps)
        out = kraus_apply(rho, ch.operators, (0, 1))
        expected = (1 - p) * rho + p * np.eye(4) / 4
        assert np.abs(out - expected).max() < 1e-12
    with pytest.raises(RangeError):
        depolarizing_channel(1.5, 1)
    with pytest.raises(RangeError):
        depolarizing_channel(0.1, 3)


def test_amplitude_damping_action():
    p = 0.23
    ch = amplitude_damping(p)
    one = pure_matrix(np.array([0.0, 1.0]))
    out = kraus_apply(one, ch.operators, (0,))
    assert abs(out[1, 1].real - (1 - p)) < 1e-12
    assert abs(out[0, 0].real - p) < 1e-12
    # ground state is a fixed point
    out0 = kraus_apply(ground_matrix(1), ch.operators, (0,))
    assert np.abs(out0 - ground_matrix(1)).max() < 1e-12


def test_dephasing_action():
    p = 0.31
    ch = dephasing(p)
    out = kraus_apply(plus_state(), ch.operators, (0,))
    assert abs(out[0, 1] - (1 - p) * 0.5) < 1e-12
    assert abs(out[0, 0].real - 0.5) < 1e-12


def test_qubit_calibration_validation():
    with pytest.raises(ValidationError):
        QubitCalibration(0, -1.0, 100e-6, 0.0)
    with pytest.raises(ValidationError):
        QubitCalibration(0, 100e-6, 0.0, 0.0)
    with pytest.raises(ValidationError):
        QubitCalibration(0, 100e-6, 100e-6, 1.5)
    with pytest.raises(ValidationError):
        QubitCalibration(0, 100e-6, 100e-6, 0.0, readout_p01=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            QubitCalibration(0, bad, 100e-6, 0.0)
        with pytest.raises(ValidationError):
            QubitCalibration(0, 100e-6, 100e-6, 0.0, single_gate_duration=bad)


def test_snapshot_validation_and_lookup():
    q0 = QubitCalibration(0, 150e-6, 120e-6, 1e-4)
    q1 = QubitCalibration(1, 150e-6, 120e-6, 1e-4)
    cpl = CouplerCalibration(0, 1, 1e-3, 68e-9)
    cal = CalibrationSnapshot((q0, q1), (cpl,))
    assert cal.qubit(1) is q1
    assert cal.coupler(1, 0) is cpl
    with pytest.raises(CalibrationError):
        cal.qubit(2)
    with pytest.raises(CalibrationError):
        cal.coupler(0, 2)
    with pytest.raises(ValidationError):
        CalibrationSnapshot((), ())
    with pytest.raises(ValidationError):
        CalibrationSnapshot((q0, q0), ())
    with pytest.raises(ValidationError):
        CalibrationSnapshot((q0,), (cpl,))  # coupler names unknown qubit
    with pytest.raises(ValidationError, match=r"^coupler \(1, 1\) is a self-loop$"):
        CouplerCalibration(1, 1, 1e-3, 68e-9)
    for p2 in (-1e-3, 1.5, float("nan")):
        with pytest.raises(ValidationError, match=r"^coupler \(0, 1\): p2 outside \[0, 1\]$"):
            CouplerCalibration(0, 1, p2, 68e-9)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            CouplerCalibration(0, 1, 1e-3, duration=bad)
        with pytest.raises(ValidationError):
            CalibrationSnapshot((q0, q1), (cpl,), readout_duration=bad)


@pytest.mark.parametrize("second", [(0, 1), (1, 0)])
def test_duplicate_coupler_is_rejected(second, tmp_path):
    # A second coupler on a pair, in either orientation, would shadow the
    # first in `coupler` but still count in every average over couplers.
    qubits = (QubitCalibration(0, 150e-6, 120e-6, 1e-4), QubitCalibration(1, 150e-6, 120e-6, 1e-4))
    couplers = (CouplerCalibration(0, 1, 0.01, 68e-9), CouplerCalibration(*second, 0.5, 68e-9))
    with pytest.raises(ValidationError, match=rf"duplicate coupler \({second[0]}, {second[1]}\)"):
        CalibrationSnapshot(qubits, couplers)
    path = tmp_path / "cal.json"
    save_calibration(CalibrationSnapshot(qubits, couplers[:1]), path)
    doc = json.loads(path.read_text())
    doc["couplers"].append({"q0": second[0], "q1": second[1], "p2": 0.5})
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="duplicate coupler"):
        load_calibration(path)


def test_readout_matrix_and_apply():
    q = QubitCalibration(0, 150e-6, 120e-6, 0.0, 36e-9, 0.02, 0.03)
    m = readout_matrix(q)
    assert np.abs(m - np.array([[0.97, 0.02], [0.03, 0.98]])).max() < 1e-15
    assert np.abs(m.sum(axis=0) - 1.0).max() < 1e-15

    out = apply_readout(np.array([1.0, 0.0, 0.0, 0.0]), [m, m])
    assert np.abs(out - np.array([0.9409, 0.0291, 0.0291, 0.0009])).max() < 1e-12
    assert abs(out.sum() - 1.0) < 1e-12

    # qubit 0 is the most significant bit: flip only its matrix
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    out = apply_readout(np.array([1.0, 0.0, 0.0, 0.0]), [flip, eye])
    assert np.abs(out - np.array([0.0, 0.0, 1.0, 0.0])).max() < 1e-15

    with pytest.raises(IndexError):
        apply_readout(np.ones(4) / 4, [m])


def test_readout_on_a_stack_equals_row_by_row():
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 5):
        mats = []
        for _ in range(m):
            p01, p10 = rng.uniform(0, 0.2, size=2)
            mats.append(np.array([[1 - p10, p01], [p10, 1 - p01]]))
        stack = rng.dirichlet(np.ones(2**m), size=8)
        out = apply_readout(stack, mats)
        assert out.shape == stack.shape
        full = mats[0]
        for mat in mats[1:]:
            full = np.kron(full, mat)
        for row, got in zip(stack, out):
            assert np.array_equal(apply_readout(row, mats), got)
            assert np.abs(got - full @ row).max() < 1e-15
        assert np.array_equal(apply_readout(stack.reshape(2, 4, -1), mats), out.reshape(2, 4, -1))
        for wrong in (mats[:-1], mats + mats[:1]):
            with pytest.raises(IndexError):
                apply_readout(stack, wrong)


def test_calibration_file_roundtrip(tmp_path):
    cal = CalibrationSnapshot(
        (
            QubitCalibration(0, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.012),
            QubitCalibration(1, 239e-6, 276e-6, 2.8e-4, 36e-9, 0.009, 0.011),
        ),
        (CouplerCalibration(0, 1, 2.4e-3, 68e-9),),
        readout_duration=3e-6,
    )
    path = tmp_path / "cal.json"
    save_calibration(cal, path)
    back = load_calibration(path)
    assert back.readout_duration == pytest.approx(3e-6, rel=1e-12)
    for a, b in zip(cal.qubits, back.qubits):
        assert a.id == b.id
        assert abs(a.t1 - b.t1) < 1e-18
        assert abs(a.t2 - b.t2) < 1e-18
        assert abs(a.p1 - b.p1) < 1e-18
        assert abs(a.readout_p01 - b.readout_p01) < 1e-15
    assert back.coupler(0, 1).p2 == pytest.approx(2.4e-3, rel=1e-12)


@pytest.mark.parametrize("edges", [None, ()])
def test_saved_files_are_the_json_dumps_bytes(edges, tmp_path):
    # Both writers go through harness.render_doc, which is json.dumps(doc,
    # indent=2, sort_keys=True) plus a newline; their bytes stay those.
    cal = uniform_calibration(3, p1=0.1 + 0.2, p2=1e-5, p01=1 / 3, edges=edges)
    cmap = line_map(4) if edges is None else CouplingMap(1, ())
    cal_path, map_path = tmp_path / "cal.json", tmp_path / "map.json"
    save_calibration(cal, cal_path)
    save_coupling_map(cmap, map_path)
    for path in (cal_path, map_path):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    back = load_calibration(cal_path)
    assert [(q.p1, q.readout_p01) for q in back.qubits] == [(0.1 + 0.2, 1 / 3)] * 3
    assert [(c.q0, c.q1, c.p2) for c in back.couplers] == [(c.q0, c.q1, 1e-5) for c in cal.couplers]
    assert load_coupling_map(map_path) == cmap


def test_calibration_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_calibration(path)
    path.write_text('{"qubits": [{"id": 0, "t1_us": 100, "t2_us": 100, "p1": 0, '
                    '"p01": 0, "p10": 0, "color": "red"}]}')
    with pytest.raises(FormatError):
        load_calibration(path)
    path.write_text('{"qubits": [{"id": 0, "t1_us": 100, "p1": 0, "p01": 0, "p10": 0}]}')
    with pytest.raises(ValidationError):
        load_calibration(path)
    path.write_text('{"unexpected": 1}')
    with pytest.raises(FormatError):
        load_calibration(path)


def test_attach_noise_depolarizing_counts():
    cal = uniform_calibration(3, p1=1e-4, p2=1e-3)
    c = Circuit(
        3,
        (
            Gate(RY, (0,), angle=0.3),
            Gate(H, (1,)),
            Gate(CZ, (0, 1)),
            Gate(MCPHASE_OPEN, (0, 1, 2), angle=0.2),
            Gate(MEASURE, (0, 1, 2)),
        ),
    )
    noisy = attach_noise(c, cal, DEPOLARIZING)
    inserted = [g for g in noisy.gates if g.kind == NOISE]
    # one channel per 1q/2q gate, 2*2-1 = 3 channels for the two-control phase
    assert len(inserted) == 1 + 1 + 1 + 3
    arities = [len(g.qubits) for g in inserted]
    assert arities == [1, 1, 2, 2, 2, 2]
    # unitaries and measure order are untouched
    assert [g.kind for g in noisy.gates if g.kind != NOISE] == [
        g.kind for g in c.gates
    ]


@pytest.mark.parametrize("k", range(2, 7))
def test_open_controlled_phase_is_charged_once(k):
    # Gate counting, depolarizing noise and the gate's duration read one
    # stand-in charge on adjacent listed pairs: as many on each as dealing
    # them round-robin gives, each pair's back to back in listed order. The
    # duration is the default CZ's, whatever the couplers say.
    cal = uniform_calibration(k, p2=1e-3, two=100e-9)
    qubits = tuple(int(q) for q in np.random.default_rng(k).permutation(k))
    gate = Gate(MCPHASE_OPEN, qubits, angle=0.7)
    c = Circuit(k, (gate,))
    noisy = attach_noise(c, cal, DEPOLARIZING).gates
    assert noisy[0] == gate
    pairs = [g.qubits for g in noisy[1:] if g.kind == NOISE and len(g.qubits) == 2]
    assert len(noisy) == 1 + len(pairs)
    adjacent = list(zip(qubits, qubits[1:]))
    dealt = [adjacent[j % len(adjacent)] for j in range(len(pairs))]
    assert pairs == sorted(dealt, key=adjacent.index)
    charge = mcphase_cz_equivalents(k - 1)
    assert gate_counts(c) == (0, charge)
    assert len(pairs) == charge
    assert _gate_duration(gate, cal) / DEFAULT_TWO_QUBIT_GATE_S == pytest.approx(charge, rel=1e-15)


def test_open_controlled_phase_charge_needs_a_control():
    assert [mcphase_cz_equivalents(m) for m in (1, 2, 3)] == [1, 3, 5]
    with pytest.raises(ValueError, match=r"^n_controls must be >= 1$"):
        mcphase_cz_equivalents(0)


def test_attach_noise_thermal_counts():
    cal = uniform_calibration(2, t1=100e-6, t2=80e-6, readout=1e-6)
    c = Circuit(
        2,
        (
            Gate(RY, (0,), angle=0.3),
            Gate(CZ, (0, 1)),
            Gate(MEASURE, (0, 1)),
        ),
    )
    noisy = attach_noise(c, cal, THERMODYNAMICAL)
    inserted = [g for g in noisy.gates if g.kind == NOISE]
    # damping+dephasing per touched qubit: 2 for RY, 4 for CZ, 4 for readout
    assert len(inserted) == 2 + 4 + 4
    # readout-window channels sit before the MEASURE gate
    kinds = [g.kind for g in noisy.gates]
    m = kinds.index(MEASURE)
    assert all(k == NOISE for k in kinds[m - 4 : m])


def test_attach_noise_rejects_unknown_model():
    cal = uniform_calibration(1)
    c = Circuit(1, (Gate(H, (0,)), Gate(MEASURE, (0,))))
    with pytest.raises(ValidationError, match=r"^unknown noise model 'gaussian'$"):
        attach_noise(c, cal, "gaussian")


def test_channel_builders_share_one_object_per_argument():
    assert depolarizing_channel(0.01, 2) is depolarizing_channel(0.01, 2)
    assert depolarizing_channel(0.01, 1) is not depolarizing_channel(0.01, 2)
    assert depolarizing_channel(0.01, 1) is not depolarizing_channel(0.02, 1)
    assert amplitude_damping(0.03) is amplitude_damping(0.03)
    assert amplitude_damping(0.03) is not amplitude_damping(0.04)
    assert dephasing(0.03) is dephasing(0.03)
    assert dephasing(0.03) is not dephasing(0.04)
    # A run attaches the same channel object at every repeated gate.
    cal = uniform_calibration(2, p1=1e-3, p2=5e-3)
    c = Circuit(2, (Gate(H, (0,)), Gate(H, (1,)), Gate(CZ, (0, 1)), Gate(CZ, (0, 1))))
    for model in (DEPOLARIZING, THERMODYNAMICAL):
        noisy = attach_noise(c, cal, model)
        again = attach_noise(c, cal, model)
        pairs = zip(noisy.gates, again.gates)
        assert all(g.channel is h.channel for g, h in pairs if g.kind == NOISE)


def test_attach_noise_shares_validated_noise_gates():
    # A NOISE gate is built once per (qubits, channel object): every call
    # hands out the same objects, each equal to a freshly validated gate.
    cal = uniform_calibration(3, t1=90e-6, t2=70e-6, p1=1e-3, p2=5e-3, readout=1e-6)
    c = Circuit(
        3,
        (
            Gate(RY, (0,), angle=0.3),
            Gate(H, (1,)),
            Gate(CZ, (0, 1)),
            Gate(MCPHASE_OPEN, (0, 1, 2), angle=0.2),
            Gate(MEASURE, (0, 1, 2)),
        ),
    )
    for model in (DEPOLARIZING, THERMODYNAMICAL):
        noisy = attach_noise(c, cal, model)
        again = attach_noise(c, cal, model)
        inserted = [(g, h) for g, h in zip(noisy.gates, again.gates) if g.kind == NOISE]
        assert inserted
        for g, h in inserted:
            assert g is h
            fresh = Gate(NOISE, g.qubits, channel=g.channel)
            assert g == fresh and g.channel is fresh.channel
            assert type(g.qubits) is tuple and all(type(q) is int for q in g.qubits)


def _thermal_reference(c, cal):
    # Damping and dephasing on each qubit of every gate, looked up per gate:
    # after unitaries, and over the readout window on every measured qubit,
    # in measured order, before the first MEASURE.
    def noise(qubits, dur):
        return [
            Gate(NOISE, (q,), channel=build(p_from_time(dur, T)))
            for q in qubits
            for build, T in ((amplitude_damping, cal.qubit(q).t1), (dephasing, cal.qubit(q).t2))
        ]

    gates = []
    for g in c.gates:
        if g.kind != MEASURE:
            gates += [g] + noise(g.qubits, _gate_duration(g, cal))
        elif gates[-1].kind != MEASURE:
            gates += noise(c.measured_qubits, cal.readout_duration) + [g]
        else:
            gates.append(g)
    return gates


def test_thermal_noise_matches_per_gate_reference():
    cal = CalibrationSnapshot(
        tuple(
            QubitCalibration(q, (80 + 13 * q) * 1e-6, (60 + 11 * q) * 1e-6, 1e-4,
                             single_gate_duration=(30 + q) * 1e-9)
            for q in range(5)
        ),
        tuple(CouplerCalibration(a, b, 1e-3, 60e-9) for a, b in itertools.combinations(range(5), 2)),
        readout_duration=1e-6,
    )
    c = PBRParams.solve(5, theta_min(5)).test_circuit
    ref = _thermal_reference(c, cal)
    noisy = attach_noise(c, cal, THERMODYNAMICAL)
    # Gate equality leaves the channel out: compare it by identity.
    assert list(noisy.gates) == ref
    assert all(g.channel is h.channel for g, h in zip(noisy.gates, ref))


@pytest.mark.parametrize("model", [DEPOLARIZING, THERMODYNAMICAL])
def test_split_measure_gates_take_noise_like_one_measure(model):
    cal = CalibrationSnapshot(
        tuple(QubitCalibration(q, (20 + 7 * q) * 1e-6, (15 + 5 * q) * 1e-6, 2e-3) for q in range(3)),
        (CouplerCalibration(0, 1, 1e-2, 60e-9), CouplerCalibration(1, 2, 2e-2, 80e-9)),
        readout_duration=2e-6,
    )
    body = (
        Gate(RY, (0,), angle=0.7), Gate(H, (1,)), Gate(CZ, (0, 1)), Gate(H, (2,)), Gate(CZ, (1, 2)),
    )
    ideal = Circuit(3, body + (Gate(MEASURE, (2,)), Gate(MEASURE, (0, 1))))
    split = attach_noise(ideal, cal, model)
    one = attach_noise(Circuit(3, body + (Gate(MEASURE, (2, 0, 1)),)), cal, model)
    assert split.measured_qubits == one.measured_qubits == (2, 0, 1)
    assert list(split.gates[: len(one.gates) - 1]) == list(one.gates[:-1])
    if model == THERMODYNAMICAL:
        assert list(split.gates) == _thermal_reference(ideal, cal)
    expected = dense_distribution(one)
    assert np.abs(dense_distribution(split) - expected).max() < 1e-14
    assert np.abs(outcome_distribution(split) - expected).max() < 1e-14


def test_noise_gate_cache_is_bounded():
    assert _noise_gate.cache_parameters()["maxsize"] == 1024


def test_shared_channel_operators_are_read_only():
    for ch in (depolarizing_channel(0.05, 2), amplitude_damping(0.05), dephasing(0.05)):
        for k in ch.operators:
            with pytest.raises(ValueError):
                k[0, 0] = 2.0
    assert depolarizing_channel(0.05, 2).operators[0][0, 0] == np.sqrt(1 - 0.05 * 15 / 16)
