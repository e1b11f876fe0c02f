"""Golden CLI reports: the case list, the runner and the recorder.

`tests/test_golden.py` runs every case in `CASES` through `pbrsim.cli.main`
in-process and compares it with `tests/data/golden_reports.json`: exit
codes, stderr, JSON keys, counts and booleans exactly, floats at 1e-12
relative with a 1e-15 absolute floor. The calibrations are built here in
code, so the goldens depend on nothing but this file and the program.

Re-record only when a report change is deliberate:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from pbrsim.cli import main
from pbrsim.noise import (
    CalibrationSnapshot,
    CouplerCalibration,
    QubitCalibration,
    save_calibration,
)
from pbrsim.routing import line_map, save_coupling_map

REPO = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_reports.json"

# Each case is a CLI command line; {name} marks a path from `write_inputs`.
CASES = {
    "run_n2_dep_csv": "run --calib {calib5} --n 2 --model dep --csv {csv}",
    "run_n2_thermo": "run --calib {calib5} --n 2 --model thermo --seed 7",
    "run_n2_dep_scaled": "run --calib {calib5} --n 2 --model dep"
    " --theta-scale 1.2 --confidence 0.99",
    "run_n3_thermo_csv": "run --calib {calib5} --n 3 --model thermo --csv {csv}",
    "run_n5_dep_csv": "run --calib {calib5} --n 5 --model dep --csv {csv}",
    "run_n5_thermo_csv": "run --calib {calib5} --n 5 --model thermo --csv {csv}",
    "run_routed_dep_csv": "run --n 2 --model dep --calib {line10} --map {map10}"
    " --place 1,6 --csv {csv}",
    "run_routed_thermo": "run --n 2 --model thermo --calib {line10} --map {map10} --place 8,2",
    "sweep_dep_csv": "sweep-distance --model dep --spans 1,2,5,9,154 --calib {line10}"
    " --csv {csv}",
    "sweep_thermo_csv": "sweep-distance --model thermo --spans 1,2,5,9,154 --calib {line10}"
    " --csv {csv}",
    "tolerance_n2_dep": "tolerance --n 2 --calib {calib5} --model dep",
    "tolerance_n5_thermo": "tolerance --n 5 --calib {calib5} --model thermo",
    "solve_angles_n2": "solve-angles --n 2",
    "shots_beyond_int64": "run --calib {calib5} --n 2 --model dep --shots 100000000000000000000",
    "spans_from_zero": "sweep-distance --model dep --spans 0..3 --calib {line10}",
    "run_n12_pair_calibration": "run --n 12 --model dep --calib {pair}",
}


def five_qubit_calibration() -> CalibrationSnapshot:
    """All-pairs 5-qubit device on which no two values coincide."""
    qubits = tuple(
        QubitCalibration(
            i,
            t1=(151 + 17 * i) * 1e-6,
            t2=(133 + 23 * i) * 1e-6,
            p1=(1.9 + 0.31 * i) * 1e-4,
            single_gate_duration=(33 + 2 * i) * 1e-9,
            readout_p01=0.0081 + 0.0013 * i,
            readout_p10=0.0123 + 0.0017 * i,
        )
        for i in range(5)
    )
    couplers = tuple(
        CouplerCalibration(a, b, (2.1 + 0.13 * k) * 1e-3, (61 + 3 * k) * 1e-9)
        for k, (a, b) in enumerate(itertools.combinations(range(5), 2))
    )
    return CalibrationSnapshot(qubits, couplers, readout_duration=612e-9)


def line_calibration(n: int = 10) -> CalibrationSnapshot:
    """An n-qubit line whose qubits and couplers vary along it."""
    qubits = tuple(
        QubitCalibration(
            i,
            t1=(160 + 11 * i) * 1e-6,
            t2=(141 + 7 * i) * 1e-6,
            p1=(2.0 + 0.17 * i) * 1e-4,
            single_gate_duration=(35 + i) * 1e-9,
            readout_p01=0.009 + 0.0007 * i,
            readout_p10=0.011 + 0.0009 * i,
        )
        for i in range(n)
    )
    couplers = tuple(
        CouplerCalibration(i, i + 1, (2.3 + 0.07 * i) * 1e-3, (66 + 2 * i) * 1e-9)
        for i in range(n - 1)
    )
    return CalibrationSnapshot(qubits, couplers, readout_duration=587e-9)


def write_inputs(tmp: Path) -> dict:
    """Write the calibrations and map under `tmp`; the placeholders of CASES."""
    paths = {
        "calib5": tmp / "calib5.json",
        "line10": tmp / "line10.json",
        "map10": tmp / "map10.json",
        "csv": tmp / "report.csv",
        "pair": REPO / "demos" / "data" / "adjacent_pair.json",
    }
    save_calibration(five_qubit_calibration(), paths["calib5"])
    save_calibration(line_calibration(), paths["line10"])
    save_coupling_map(line_map(10), paths["map10"])
    return {key: str(path) for key, path in paths.items()}


def run_case(command: str, paths: dict) -> dict:
    """Run one CLI case in-process: exit code, stdout, stderr and CSV text."""
    csv_path = Path(paths["csv"])
    csv_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**paths) for arg in command.split()])
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "csv": csv_path.read_text() if csv_path.exists() else None,
    }


def parsed(result: dict) -> dict:
    """The stored form: stdout as its JSON document, the CSV as rows of cells."""
    return {
        "exit": result["exit"],
        "stderr": result["stderr"],
        "stdout": json.loads(result["stdout"]) if result["stdout"] else None,
        "csv": None if result["csv"] is None else list(csv.reader(io.StringIO(result["csv"]))),
    }


def record() -> dict:
    """Every case of CASES in its stored form, keyed by name."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        return {name: parsed(run_case(command, paths)) for name, command in CASES.items()}


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}", file=sys.stderr)
