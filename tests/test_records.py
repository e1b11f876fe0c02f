"""Every frozen record keeps the contract of a frozen dataclass of its fields.

Each record is checked against a `@dataclass(frozen=True)` twin declared
here with the fields the record must keep (`record_twins.check_twin`).
"""

import dataclasses
import math

import pytest

from pbrsim.bounds import ToleranceReport, tolerance_reports
from pbrsim.circuits import CZ, H, MEASURE, RY, Circuit, Gate
from pbrsim.config import (
    DEFAULT_CONFIDENCE,
    DEFAULT_READOUT_S,
    DEFAULT_SHOTS,
    DEFAULT_SINGLE_GATE_S,
    DEFAULT_TWO_QUBIT_GATE_S,
)
from pbrsim.harness import ExperimentConfig, ExperimentReport, InputResult, run_experiment
from pbrsim.noise import CalibrationSnapshot, CouplerCalibration, QubitCalibration
from pbrsim.protocol import PBRParams, solved
from pbrsim.routing import CouplingMap
from record_twins import check_twin, twin_of

Q0 = QubitCalibration(0, 120e-6, 90e-6, 2e-4, 36e-9, 0.01, 0.02)
Q1 = QubitCalibration(1, 110e-6, 80e-6, 3e-4, 40e-9, 0.015, 0.025)
COUPLER = CouplerCalibration(0, 1, 2.4e-3, 68e-9)
CAL = CalibrationSnapshot((Q0, Q1), (COUPLER,), 600e-9)
PARAMS = solved(2, math.pi / 4)
CONFIG = ExperimentConfig(n=2, theta=math.pi / 4, model="depolarizing", calibration=CAL, shots=1000)
REPORT = run_experiment(CONFIG)
TOLERANCE = tolerance_reports(PARAMS, CAL, PARAMS.test_circuit)[0]


def values_of(r) -> dict:
    return {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}


# Record, its twin's fields, valid field values, other valid values of
# some compared fields, and (where the record validates) a refused value.
RECORDS = [
    (
        Gate,
        ["kind", "qubits", ("angle", None), ("channel", None, False)],
        {"kind": RY, "qubits": (1,), "angle": 0.5, "channel": None},
        {"angle": 0.25},
        {"qubits": (0, 1)},
    ),
    (
        Circuit,
        ["n_qubits", "gates"],
        {"n_qubits": 2, "gates": (Gate(H, (0,)), Gate(CZ, (0, 1)), Gate(MEASURE, (0, 1)))},
        {"n_qubits": 3},
        {"n_qubits": 0},
    ),
    (
        QubitCalibration,
        [
            "id",
            "t1",
            "t2",
            "p1",
            ("single_gate_duration", DEFAULT_SINGLE_GATE_S),
            ("readout_p01", 0.0),
            ("readout_p10", 0.0),
        ],
        values_of(Q0),
        {"t1": 130e-6, "readout_p10": 0.0},
        {"t1": 0.0},
    ),
    (
        CouplerCalibration,
        ["q0", "q1", "p2", ("duration", DEFAULT_TWO_QUBIT_GATE_S)],
        values_of(COUPLER),
        {"q1": 2},
        {"q1": 0},
    ),
    (
        CalibrationSnapshot,
        ["qubits", "couplers", ("readout_duration", DEFAULT_READOUT_S)],
        values_of(CAL),
        {"couplers": ()},
        {"qubits": ()},
    ),
    (
        PBRParams,
        ["n", "theta", "alpha", "beta"],
        values_of(PARAMS),
        values_of(solved(2, 1.2)),
        {"n": 1},
    ),
    (
        ToleranceReport,
        [
            "model",
            "n",
            "d_quantum",
            "d_noisy",
            "eps_tol_ideal",
            "eps_tol_noisy",
            "eps_tol_noisy_spread",
            "eps_dep",
            "eps_dec",
            "eps_dec_cumulative",
            "qubit_ids",
            "eps_prep",
            "eps_tol_per_qubit",
        ],
        values_of(TOLERANCE),
        {"eps_dep": 0.5},
        None,
    ),
    (
        ExperimentConfig,
        [
            "n",
            "theta",
            "model",
            "calibration",
            ("shots", DEFAULT_SHOTS),
            ("seed", 0),
            ("coupling", None),
            ("placement", None),
            ("confidence", DEFAULT_CONFIDENCE),
        ],
        values_of(CONFIG),
        {"seed": 7, "model": "thermodynamical"},
        {"shots": 0},
    ),
    (
        InputResult,
        [
            "input_index",
            "exact_probability",
            "count",
            "estimate",
            "ci_low",
            "ci_high",
            "tolerance",
            "passed",
        ],
        values_of(REPORT.inputs[0]),
        {"count": REPORT.inputs[0].count + 1},
        None,
    ),
    (
        ExperimentReport,
        [
            "n",
            "theta",
            "alpha",
            "beta",
            "model",
            "shots",
            "seed",
            "confidence",
            "analytic_only",
            "g1",
            "g2",
            "span",
            "placement",
            "swap_count",
            "tol_dep",
            "tol_thermo",
            "active_tolerance",
            "inputs",
            "mean_forbidden_exact",
            "predicted_error",
            "pass_fraction",
            "passed",
        ],
        values_of(REPORT),
        {"seed": 9, "inputs": REPORT.inputs[:1]},
        None,
    ),
    (
        CouplingMap,
        ["n_qubits", "edges"],
        {"n_qubits": 3, "edges": ((0, 1), (1, 2))},
        {"edges": ((0, 2),)},
        {"edges": ((0, 0),)},
    ),
]


@pytest.mark.parametrize(
    "record_type, spec, values, other, broken", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_matches_its_frozen_dataclass_twin(record_type, spec, values, other, broken):
    check_twin(record_type, twin_of(record_type, spec), values, other, broken)


@pytest.mark.parametrize(
    "record_type, required",
    [
        (Gate, {"kind": H, "qubits": (0,)}),
        (QubitCalibration, {"id": 0, "t1": 120e-6, "t2": 90e-6, "p1": 2e-4}),
        (CouplerCalibration, {"q0": 0, "q1": 1, "p2": 2.4e-3}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_hand_written_init_takes_the_declared_defaults(record_type, required):
    # Every default omitted: the hand-written __init__ must fill in the
    # defaults the class body declares, which the twin takes from there.
    spec = next(row[1] for row in RECORDS if row[0] is record_type)
    twin = twin_of(record_type, spec)
    for r in (record_type(**required), record_type(*required.values())):
        assert values_of(r) == dataclasses.asdict(twin(**required))


def test_generic_records_match_their_frozen_dataclass_twins():
    # Imported here: the table above also runs on plain frozen dataclasses.
    import generic_records

    generic_records.check_all()


def test_record_refuses_fields_it_cannot_build():
    from pbrsim.records import Record, record

    class Listed(Record):
        items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match=r"Listed: record fields take plain defaults only$"):
        record(Listed)
