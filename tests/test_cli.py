"""Command line interface: subcommands, exit codes, reproducibility."""

import copy
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pbrsim
from pbrsim import harness
from pbrsim.cli import main
from pbrsim.config import MAX_SOLVER_N, MAX_SPAN
from pbrsim.harness import (
    ExperimentConfig,
    analytic_report,
    report_to_dict,
    run_experiment,
)
from pbrsim.noise import (
    DEPOLARIZING,
    CalibrationSnapshot,
    CouplerCalibration,
    QubitCalibration,
    load_calibration,
    save_calibration,
    uniform_calibration,
)
from pbrsim.protocol import check_forbidden_outcomes
from pbrsim.routing import line_map, save_coupling_map


@pytest.fixture(autouse=True)
def fresh_check_cache():
    # The forbidden-outcome check is cached per process on its angles; start
    # each test cold, so a test that patches the simulator to fail is sure to
    # reach it whatever ran before.
    check_forbidden_outcomes.cache_clear()
    yield
    check_forbidden_outcomes.cache_clear()


@pytest.fixture
def calib_path(tmp_path):
    cal = CalibrationSnapshot(
        (
            QubitCalibration(0, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01),
            QubitCalibration(1, 239e-6, 276e-6, 2.8e-4, 36e-9, 0.01, 0.01),
            QubitCalibration(2, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01),
            QubitCalibration(3, 239e-6, 276e-6, 2.8e-4, 36e-9, 0.01, 0.01),
        ),
        (
            CouplerCalibration(0, 1, 2.4e-3, 68e-9),
            CouplerCalibration(1, 2, 2.4e-3, 68e-9),
            CouplerCalibration(2, 3, 2.4e-3, 68e-9),
        ),
        readout_duration=600e-9,
    )
    path = tmp_path / "cal.json"
    save_calibration(cal, path)
    return str(path)


def test_solve_angles_stdout(capsys):
    code = main(["solve-angles", "--n", "2", "--theta", str(np.pi / 4)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "pbr-angles"
    assert abs(doc["alpha"] - np.pi) < 1e-9
    assert abs(doc["beta"]) < 1e-9
    assert abs(doc["theta_min"] - np.pi / 4) < 1e-12


def test_solve_angles_theta_scale(capsys):
    code = main(["solve-angles", "--n", "3", "--theta-scale", "1.1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["theta"] - 1.1 * doc["theta_min"]) < 1e-12
    assert abs(doc["alpha"] - 4.433851687696589) < 1e-9


def test_solve_angles_below_threshold_exits_2(capsys):
    code = main(["solve-angles", "--n", "2", "--theta", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("n", [MAX_SOLVER_N + 1, 10**7])
def test_solve_angles_past_the_largest_n_exits_2(n, capsys):
    assert main(["solve-angles", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n={n} above the angle solver's largest n, {MAX_SOLVER_N}\n"


def test_tolerance_subcommand(calib_path, capsys):
    code = main(
        ["tolerance", "--n", "2", "--theta", str(np.pi / 4), "--calib", calib_path,
         "--model", "dep"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "pbr-tolerance"
    assert doc["model"] == "depolarizing"
    assert abs(doc["eps_tol_ideal"] - 0.02144660940672625) < 1e-12
    assert doc["eps_tol_noisy"] > doc["eps_tol_ideal"]
    tolerance_keys = {
        "model", "d_quantum", "d_noisy", "eps_tol_ideal", "eps_tol_noisy",
        "eps_tol_noisy_spread", "eps_dep", "eps_dec", "eps_dec_cumulative",
    }
    assert set(doc) == tolerance_keys | {
        "kind", "n", "theta", "qubit_ids", "eps_prep", "eps_tol_per_qubit",
    }
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING,
        calibration=load_calibration(calib_path), shots=100,
    )
    expected = report_to_dict(run_experiment(cfg))["tolerances"]["depolarizing"]
    assert {k: doc[k] for k in tolerance_keys} == expected


@pytest.mark.parametrize("n", [1024, MAX_SOLVER_N])
def test_tolerance_at_large_n_checks_the_calibration_before_the_circuit(n, calib_path, capsys):
    # 2**n stops converting to a float at n = 1024, and the n-qubit test
    # circuit took 185 MB at n = 200000 before the calibration was read.
    argv = ["tolerance", "--n", str(n), "--calib", calib_path, "--model", "dep"]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no calibration for qubit 4\n"
    assert captured.out == ""
    assert peak < 2**20 and elapsed < 2.0


def test_tolerance_at_n1024_on_a_covering_calibration(tmp_path, capsys):
    # A threshold below the float range reads 0.0: no overflow, no traceback.
    path = tmp_path / "cal.json"
    save_calibration(uniform_calibration(1024, p1=2e-4, p2=2e-3, edges=()), path)
    code = main(["tolerance", "--n", "1024", "--calib", str(path), "--model", "thermo"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 1024 and len(doc["eps_tol_per_qubit"]) == 1024
    assert 0.0 <= doc["eps_tol_ideal"] < 2.0**-1022
    assert 0.0 <= doc["eps_tol_noisy"] < 2.0**-1022


def test_run_pass_and_outputs(calib_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = main(
        ["run", "--n", "2", "--theta", str(np.pi / 4), "--calib", calib_path,
         "--model", "dep", "--shots", "5000", "--seed", "42",
         "--out", str(out), "--csv", str(csv_out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["model"] == "depolarizing"
    assert capsys.readouterr().out == out.read_text()
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("span,input,forbidden,exact_probability")


def test_run_reports_are_reproducible(calib_path, tmp_path, capsys):
    argv = ["run", "--n", "2", "--calib", calib_path, "--model", "thermo",
            "--shots", "3000", "--seed", "9"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_run_routed_placement(calib_path, tmp_path, capsys):
    map_path = tmp_path / "line.json"
    save_coupling_map(line_map(4), map_path)
    code = main(
        ["run", "--n", "2", "--calib", calib_path, "--model", "dep",
         "--shots", "2000", "--seed", "1",
         "--map", str(map_path), "--place", "0,3"]
    )
    assert code in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert doc["routing"]["span"] == 3
    assert doc["routing"]["swap_count"] == 2


def test_placed_run_memory_does_not_grow_with_declared_map_size(calib_path, tmp_path, capsys):
    # Only the map's edges and the placed qubits matter: a map that declares
    # 10^7 qubits around the same two edges gives the same report, and the
    # run allocates nothing per declared qubit (a float each would be 80 MB).
    def run(n_qubits):
        path = tmp_path / f"map{n_qubits}.json"
        path.write_text(json.dumps({"n_qubits": n_qubits, "edges": [[0, 1], [1, 2]]}))
        tracemalloc.start()
        try:
            code = main(["run", "--n", "2", "--calib", calib_path, "--model", "thermo",
                         "--map", str(path), "--place", "0,2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code in (0, 1) and captured.err == ""
        return captured.out, peak

    run(3)  # warm the process-wide caches
    small, small_peak = run(3)
    large, large_peak = run(10**7)
    assert large == small
    assert large_peak < small_peak + 4 * 2**20


def test_run_map_without_place_exits_2(calib_path, tmp_path, capsys):
    map_path = tmp_path / "line.json"
    save_coupling_map(line_map(4), map_path)
    code = main(
        ["run", "--n", "2", "--calib", calib_path, "--model", "dep",
         "--map", str(map_path)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_run_fractional_map_edge_exits_2(calib_path, tmp_path, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"n_qubits": 2, "edges": [[0, 1.9]]}))
    code = main(
        ["run", "--n", "2", "--calib", calib_path, "--model", "dep",
         "--map", str(map_path), "--place", "0,1"]
    )
    assert code == 2
    _assert_one_error_line(capsys)


def _line_files(tmp_path, n):
    """A uniform n-qubit line calibration and its map, saved: (calibration, map) paths."""
    cal_path = tmp_path / f"line{n}.json"
    save_calibration(uniform_calibration(n, p1=2e-4, p2=2.4e-3, edges=line_map(n).edges), cal_path)
    map_path = tmp_path / f"line{n}_map.json"
    save_coupling_map(line_map(n), map_path)
    return str(cal_path), str(map_path)


def test_run_routed_over_cap_exits_2(calib_path, tmp_path, capsys):
    # Placement 0,15 on a 20-qubit line touches 16 qubits but holds at most
    # three live at once: the cap bounds the live width, so it runs exactly.
    cal_path, map_path = _line_files(tmp_path, 20)
    code = main(
        ["run", "--n", "2", "--calib", cal_path, "--model", "dep",
         "--map", map_path, "--place", "0,15"]
    )
    assert code in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert doc["routing"]["span"] == 15 and doc["analytic_only"] is False
    assert len(doc["inputs"]) == 4
    # A span past MAX_SPAN is refused before any gate is lowered.
    cal_path, map_path = _line_files(tmp_path, MAX_SPAN + 2)
    code = main(
        ["run", "--n", "2", "--calib", cal_path, "--model", "dep",
         "--map", map_path, "--place", f"0,{MAX_SPAN + 1}"]
    )
    assert code == 2
    _assert_one_error_line(capsys)
    # Unplaced, every one of n qubits is live: n = 13 is over the cap.
    assert main(["run", "--n", "13", "--calib", calib_path, "--model", "dep"]) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "command", [["run", "--n", "2"], ["sweep-distance", "--spans", "1..3"]]
)
def test_negative_seed_exits_2_before_simulating(command, calib_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("simulated before the seed was checked")

    for name in ("_plan", "_table"):
        monkeypatch.setattr(f"pbrsim.harness.{name}", never)
    code = main(command + ["--calib", calib_path, "--model", "dep", "--seed", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed=-1 must be >= 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command", [["run", "--n", "2"], ["sweep-distance", "--spans", "1..3"]]
)
def test_shots_beyond_int64_exit_2_before_simulating(command, calib_path, capsys, monkeypatch):
    # The multinomial sampler takes int64 counts; one more used to raise
    # numpy's OverflowError after every input was simulated.
    def never(*args):
        raise AssertionError("simulated before the shot count was checked")

    for name in ("_plan", "_table"):
        monkeypatch.setattr(f"pbrsim.harness.{name}", never)
    for shots in (2**63, 10**20):
        code = main(command + ["--calib", calib_path, "--model", "dep", "--shots", str(shots)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: shots={shots} must be <= {2**63 - 1}\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    ("spans", "bad"), [("1..100000000", 100000000), ("1001", 1001), ("154,5000", 5000)]
)
def test_sweep_distance_spans_beyond_limit_exit_2_before_work(
    spans, bad, calib_path, capsys, monkeypatch
):
    # A range used to be expanded in full first: 1..10^8 ran for minutes at GBs of RSS.
    def never(*args):
        raise AssertionError("worked on a span before every span was checked")

    for name in ("_plan", "_table", "run_experiment", "analytic_report"):
        monkeypatch.setattr(f"pbrsim.harness.{name}", never)
    start = time.perf_counter()
    code = main(["sweep-distance", "--calib", calib_path, "--model", "dep", "--spans", spans])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: span {bad} is outside 1..{MAX_SPAN}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "n, model, qubits, couplers, message",
    [
        (12, "dep", 2, ((0, 1),), "no calibration for qubit 2"),
        (12, "thermo", 2, ((0, 1),), "no calibration for qubit 2"),
        (5, "dep", 5, (), "no calibration for coupler (0, 1)"),
    ],
)
def test_run_checks_calibration_before_simulating(
    n, model, qubits, couplers, message, tmp_path, capsys, monkeypatch
):
    # Forbidden-map discovery at n=12 simulates 4096 ideal circuits; a
    # calibration that cannot cover the circuit used to fail only after it.
    def never(*args):
        raise AssertionError("simulated before the calibration was checked")

    for name in ("pbrsim.harness._plan", "pbrsim.harness._table", "pbrsim.protocol.outcome_distributions"):
        monkeypatch.setattr(name, never)
    path = tmp_path / "cal.json"
    save_calibration(uniform_calibration(qubits, p1=2e-4, p2=2.4e-3, edges=couplers), path)
    start = time.perf_counter()
    code = main(["run", "--n", str(n), "--calib", str(path), "--model", model])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("n", [2, 3])
def test_run_degenerate_endpoint_exits_2(n, calib_path, capsys):
    # At theta = pi/2 the solver's root for n = 2 and 3 is beta = pi, where
    # the measurement factorizes and outcomes next to 0...0 vanish too.
    code = main(
        ["run", "--n", str(n), "--calib", calib_path, "--model", "dep",
         "--theta", "1.5707963267948966"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: input {'0' * n}: second outcome probability ")
    assert lines[0].endswith("below the forbidden threshold; zero outcome is ambiguous")


def test_run_with_small_runner_up_outcome_runs(capsys):
    # Just below pi/2 the outcomes next to the zero have P = 3.2e-7: small,
    # but far above the forbidden threshold, so the zero is unambiguous.
    calib = os.path.join(os.path.dirname(__file__), "..", "demos", "data", "adjacent_pair.json")
    code = main(["run", "--n", "2", "--theta", "1.57", "--model", "dep", "--calib", calib])
    assert code in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["kind"] == "pbr-experiment"


def test_run_missing_calibration_exits_2(capsys):
    code = main(["run", "--n", "2", "--calib", "/nonexistent.json", "--model", "dep"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_distance_csv(calib_path, tmp_path, capsys):
    csv_out = tmp_path / "sweep.csv"
    code = main(
        ["sweep-distance", "--calib", calib_path, "--model", "dep",
         "--shots", "2000", "--seed", "5", "--spans", "1..3",
         "--csv", str(csv_out)]
    )
    assert code in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "pbr-distance-sweep"
    spans = [r["routing"]["span"] for r in doc["reports"]]
    assert spans == [1, 2, 3]
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 4


@pytest.mark.parametrize("at_threshold", [True, False], ids=["equal", "just-below"])
def test_verdict_is_strict_for_both_report_kinds(at_threshold, calib_path, monkeypatch, capsys):
    # Every bound is pinned to the threshold or to the next float below it.
    threshold = 0.25
    bound = threshold if at_threshold else float(np.nextafter(threshold, 0.0))
    real = harness.tolerance_reports
    monkeypatch.setattr(
        harness,
        "tolerance_reports",
        lambda *a: tuple(replace(t, eps_tol_noisy=threshold) for t in real(*a)),
    )
    # The run loop's unchecked Wilson helper, which wilson_interval wraps.
    monkeypatch.setattr(harness, "_wilson", lambda *a: (0.0, bound))
    monkeypatch.setattr(harness, "epsilon_dep", lambda *a: bound)
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING,
        calibration=load_calibration(calib_path), shots=1000,
    )
    exact, analytic = run_experiment(cfg), analytic_report(cfg)
    assert [r.ci_high for r in exact.inputs] == [bound] * 4
    assert analytic.predicted_error == bound
    for rep in (exact, analytic):
        assert rep.active_tolerance == threshold
        assert rep.passed is not at_threshold
        assert rep.pass_fraction == (0.0 if at_threshold else 1.0)
    for command in (["run", "--n", "2"], ["sweep-distance", "--spans", "154"]):
        code = main(command + ["--calib", calib_path, "--model", "dep", "--shots", "1000"])
        assert code == (1 if at_threshold else 0)
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag",
    [
        (["run", "--n", "2", "--model", "dep", "--shots", "2000"], "--out"),
        (["run", "--n", "2", "--model", "dep", "--shots", "2000"], "--csv"),
        (["sweep-distance", "--spans", "1..2", "--model", "dep", "--shots", "2000"], "--out"),
        (["sweep-distance", "--spans", "1..2", "--model", "dep", "--shots", "2000"], "--csv"),
        (["tolerance", "--n", "2", "--model", "dep"], "--out"),
        (["solve-angles", "--n", "2"], "--out"),
    ],
    ids=["run-out", "run-csv", "sweep-out", "sweep-csv", "tolerance-out", "solve-angles-out"],
)
@pytest.mark.parametrize("target", ["missing-dir", "is-dir"])
def test_unwritable_output_path_exits_2_with_stdout_empty(
    command, flag, target, calib_path, tmp_path, capsys
):
    # The report used to reach stdout before the file write failed.
    path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    calib = [] if command[0] == "solve-angles" else ["--calib", calib_path]
    code = main(command + calib + [flag, str(path)])
    assert code == 2
    _assert_one_error_line(capsys)


def test_sweep_distance_bad_spans_exits_2(calib_path, capsys):
    code = main(
        ["sweep-distance", "--calib", calib_path, "--model", "dep", "--spans", " , "]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--place", "a,b", "error: --place wants two qubits like 3,7 (got 'a,b')"),
        ("--place", "0,", "error: --place wants two qubits like 3,7 (got '0,')"),
        ("--place", "1.5,2", "error: --place wants two qubits like 3,7 (got '1.5,2')"),
        ("--place", "0,1,2", "error: --place wants two qubits like 3,7 (got '0,1,2')"),
        ("--spans", "a..b", "error: --spans wants spans like 1,4 or 1..8 (got 'a..b')"),
        ("--spans", "1..", "error: --spans wants spans like 1,4 or 1..8 (got '1..')"),
        ("--spans", "2,x", "error: --spans wants spans like 1,4 or 1..8 (got '2,x')"),
    ],
)
def test_unparsable_place_or_spans_names_the_flag(
    flag, value, message, calib_path, tmp_path, capsys
):
    # int()'s own message named neither the flag nor the value's form.
    if flag == "--place":
        map_path = tmp_path / "line.json"
        save_coupling_map(line_map(4), map_path)
        argv = ["run", "--n", "2", "--map", str(map_path)]
    else:
        argv = ["sweep-distance"]
    code = main(argv + ["--calib", calib_path, "--model", "dep", f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


_PAIR_DOC = {
    "qubits": [
        {"id": 0, "t1_us": 173.0, "t2_us": 172.0, "p1": 2.1e-4, "single_ns": 36.0,
         "p01": 0.01, "p10": 0.01},
        {"id": 1, "t1_us": 239.0, "t2_us": 276.0, "p1": 2.8e-4, "single_ns": 36.0,
         "p01": 0.01, "p10": 0.01},
    ],
    "couplers": [{"q0": 0, "q1": 1, "p2": 2.4e-3, "duration_ns": 68.0}],
    "readout_us": 0.6,
}


def _pair_doc_with(key, value, section=None):
    """The valid two-qubit calibration with one field of its last entry replaced."""
    doc = copy.deepcopy(_PAIR_DOC)
    (doc if section is None else doc[section][-1])[key] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {"qubits": [5]},
        {"couplers": [[0, 1]]},
        {"qubits": 5},
        {"qubits": "q0"},
        {"couplers": {"q0": 0, "q1": 1}},
        _pair_doc_with("readout_us", float("nan")),
        _pair_doc_with("readout_us", float("inf")),
        _pair_doc_with("p1", True, "qubits"),
        _pair_doc_with("id", 1.7, "qubits"),
        _pair_doc_with("t1_us", float("nan"), "qubits"),
        _pair_doc_with("t2_us", "172", "qubits"),
        _pair_doc_with("single_ns", float("nan"), "qubits"),
        _pair_doc_with("duration_ns", float("nan"), "couplers"),
        _pair_doc_with("q1", True, "couplers"),
        _pair_doc_with("p2", 10**400, "couplers"),
        # The one pair again, flipped: a second coupler on it.
        {**_PAIR_DOC, "couplers": _PAIR_DOC["couplers"] + [{"q0": 1, "q1": 0, "p2": 0.5}]},
    ],
)
@pytest.mark.parametrize("command", ["tolerance", "run"])
def test_malformed_calibration_sections_exit_2(doc, command, tmp_path, capsys):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--n", "2", "--calib", str(path), "--model", "dep"])
    assert code == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("what", ["calibration", "map"])
def test_deeply_nested_documents_exit_2(what, calib_path, tmp_path, capsys):
    # json.load raises RecursionError, not a decode error, past its nesting limit.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = ["run", "--n", "2", "--model", "dep", "--calib", calib_path]
    if what == "calibration":
        argv[-1] = str(path)
    else:
        argv += ["--map", str(path), "--place", "0,1"]
    assert main(argv) == 2
    _assert_one_error_line(capsys)


# Flag values for the contract fuzz: (valid, boundary or junk). Every
# accepted combination is bounded work: runs simulate n <= 8 (a larger n
# fails the simulation cap, or the calibration lookup before any n-qubit
# circuit is built), spans past the simulation cap are analytic, and no
# span list runs to MAX_SPAN.
_FUZZ_FLAGS = {
    "--n": (["2", "3", "5", "8"], ["0", "1", "-1", "2.5", "x", "", "+4", "0x3", "1024", "200000"]),
    "--theta": (["0.7854", "0.3", "1.2", "1.5707963267948966"],
                ["1.5707963267948968", "0", "5e-324", "-1", "nan", "inf", "-inf", "1e308", "x"]),
    "--theta-scale": (["1", "1.1", "0.9999999"],
                      ["0.5", "0", "-0.0", "-2", "nan", "inf", "1e300", "1e-300"]),
    "--shots": (["1", "100", "100000", str(2**63 - 1)],
                [str(2**63), "0", "-5", "1.5", "1e5", "10" * 30]),
    "--seed": (["0", "1", str(2**32), str(2**64 + 7), str(10**30), "9" * 400], ["-1", "1.0", "x"]),
    "--confidence": (["0.95", "0.5", "0.999999", "1e-300"], ["0", "1", "-0.1", "nan", "inf"]),
    "--spans": (["1", "1..3", "2,4,154", "1..11", "5..5", "1000", " 2 , 1..2 "],
                ["0", "1001", "3..1", "..", "1..", "-1..2", "1..2..3", "1,,2", " ", "a", "1e3"]),
    "--place": (["0,1", "1,3", "3,0", " 0 , 2 "], ["1,1", "0,9", "-1,2", "0", "0,1,2", "a,b", ""]),
}
# Values a document field is set to: in and out of range, wrong types.
_FUZZ_JSON = [None, "", "x", "nan", True, False, [], {}, [1], {"a": 1}, -5, -1, 0, 1, 0.5, 1.0,
              2.5, 1e-320, 1e-300, 1e300, -1e308, 2**63, 10**400]
_LINE8_DOC = {
    "qubits": [dict(_PAIR_DOC["qubits"][i % 2], id=i) for i in range(8)],
    "couplers": [dict(_PAIR_DOC["couplers"][0], q0=i, q1=i + 1) for i in range(7)],
    "readout_us": 0.6,
}


def _fuzzed_doc(rng, doc):
    # One to three mutations: a field of an entry set, removed or added, a
    # section replaced or removed, an entry duplicated or a coupler flipped.
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        entries = [e for k in ("qubits", "couplers") if isinstance(doc.get(k), list)
                   for e in doc[k] if isinstance(e, dict)]
        op = rng.randrange(6)
        if op == 0 and entries:
            rng.choice(entries)[rng.choice(["id", "t1_us", "p1", "p01", "q0", "p2", "extra"])] = (
                rng.choice(_FUZZ_JSON))
        elif op == 1 and entries:
            entry = rng.choice(entries)
            entry.pop(rng.choice(sorted(entry)), None)
        elif op == 2:
            doc[rng.choice(["qubits", "couplers", "readout_us", "extra"])] = rng.choice(_FUZZ_JSON)
        elif op == 3 and doc:
            del doc[rng.choice(sorted(doc))]
        elif op == 4 and entries:
            section = rng.choice([k for k in ("qubits", "couplers") if isinstance(doc.get(k), list)])
            doc[section].append(copy.deepcopy(rng.choice(entries)))
        elif op == 5 and entries:
            entry = rng.choice(entries)
            entry["q0"], entry["q1"] = entry.get("q1"), entry.get("q0")
    return doc


def _fuzzed_text(rng, doc):
    r = rng.random()
    if r < 0.04:
        return "[" * rng.choice([1000, 100_000])
    if r < 0.08:
        return json.dumps(doc)[: rng.randrange(1, 40)]
    if r < 0.12:
        return rng.choice(["null", "[]", "1e999", '"x"', "{}", "1" * 5000,
                           '{"readout_us": ' + "9" * 5000 + "}"])
    return json.dumps(doc)


def _fuzzed_argv(rng, tmp_path):
    command = rng.choice(["run", "run", "routed", "sweep-distance", "tolerance", "solve-angles"])
    doc = rng.choice([_PAIR_DOC, _LINE8_DOC, _LINE8_DOC])
    if rng.random() < 0.3:
        doc = _fuzzed_doc(rng, doc)
    calib = tmp_path / "cal.json"
    calib.write_text(_fuzzed_text(rng, doc))
    flags = {"--n": "2", "--calib": str(calib), "--model": rng.choice(["dep", "thermo"])}
    mutable = ["--n", "--theta", "--theta-scale", "--shots", "--seed", "--confidence"]
    if command == "routed":
        command = "run"
        cmap = {"n_qubits": 8, "edges": [[i, i + 1] for i in range(7)]}
        if rng.random() < 0.3:
            cmap[rng.choice(["n_qubits", "edges", "extra"])] = rng.choice(
                _FUZZ_JSON + [[[0, 1], [0, 1]], [[0, 0]], [[0, 1, 2]], [[0, 9]], [["0", 1]]])
        (tmp_path / "map.json").write_text(_fuzzed_text(rng, cmap))
        flags.update({"--map": str(tmp_path / "map.json"), "--place": "0,3"})
        mutable = mutable[1:] + ["--place"]
    elif command == "sweep-distance":
        del flags["--n"]
        flags["--spans"] = "1..3"
        mutable = mutable[1:] + ["--spans"]
    elif command == "tolerance":
        mutable = mutable[:3]
    elif command == "solve-angles":
        flags = {"--n": "2"}
        mutable = mutable[:3]
    for flag in rng.sample(mutable, rng.randint(1, 3)):
        flags[flag] = rng.choice(_FUZZ_FLAGS[flag][rng.random() < 0.25])
    # "--flag=value", so that a value that starts with "-" stays a value.
    return [command] + [f"{flag}={value}" for flag, value in flags.items()]


@pytest.mark.parametrize("seed", range(4))
def test_cli_contract_fuzz(seed, tmp_path, capsys):
    # Mutated flags and documents, run in-process: each case exits 0, 1 or
    # 2 within 2 s and prints no traceback; exit 2 prints exactly one
    # `error:` line (argparse's usage lines come before its own) and no
    # report; exit 0 or 1 prints a report and nothing on stderr.
    rng = random.Random(seed)
    for _ in range(100):
        argv = _fuzzed_argv(rng, tmp_path)
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert elapsed < 2.0, argv
        assert "Traceback" not in err, argv
        if code == 2:
            lines = err.splitlines()
            assert [line for line in lines if "error:" in line] == lines[-1:], (argv, err)
            assert out == "", argv
        else:
            assert err == "", argv
            json.loads(out)


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from pbrsim.cli import main

calib = sys.argv[1]
results = []
for argv in (
    ["solve-angles", "--n", "2"],
    ["tolerance", "--n", "2", "--calib", calib, "--model", "dep"],
    ["run", "--n", "2", "--calib", calib, "--model", "dep", "--shots", "2000"],
    ["sweep-distance", "--calib", calib, "--model", "dep", "--shots", "2000",
     "--spans", "1..2"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({"argv": argv, "code": code, "stdout": out.getvalue()})
results.append(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
print(json.dumps(results))
"""


def test_cli_runs_without_scipy(calib_path):
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(pbrsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src_root)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, calib_path],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *results, scipy_modules = json.loads(proc.stdout)
    assert scipy_modules == []
    assert len(results) == 4
    for result in results:
        assert result["code"] in (0, 1), result
        json.loads(result["stdout"])


def test_cli_runs_under_optimize_2(calib_path):
    # python -OO strips docstrings; the CLI must not read its own. Each
    # command prints what it prints without -OO, with the same exit code.
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(pbrsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src_root)
    for argv in (
        ["run", "--n", "2", "--calib", calib_path, "--model", "dep", "--shots", "2000"],
        ["--help"],
    ):
        plain, stripped = (
            subprocess.run(
                [sys.executable, *flags, "-m", "pbrsim.cli", *argv],
                capture_output=True, text=True, env=env, timeout=300,
            )
            for flags in ([], ["-OO"])
        )
        assert plain.returncode == 0, plain.stderr
        assert (stripped.returncode, stripped.stdout, stripped.stderr) == (0, plain.stdout, "")
        assert plain.stdout.startswith("{" if argv[0] == "run" else "usage: pbrsim")


_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(pbrsim.__file__))))


def _console_script_target():
    with open(os.path.join(_REPO, "pyproject.toml")) as fh:
        match = re.search(r'^pbrsim = "([\w.]+):(\w+)"$', fh.read(), re.MULTILINE)
    assert match, "no pbrsim console script in pyproject.toml"
    return match.groups()


def test_process_entries_match_main(tmp_path, capsys):
    # `python -m pbrsim.cli` and the console script's function each run a
    # command in a fresh interpreter through the process entry; in-process
    # `main` is the library API. All three print, write and exit alike.
    module, func = _console_script_target()
    entries = {
        "-m": [sys.executable, "-m", "pbrsim.cli"],
        "script": [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"],
    }
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"))
    calib = os.path.join(_REPO, "demos", "data", "adjacent_pair.json")
    run = ["run", "--n", "2", "--calib", calib, "--model", "dep", "--shots", "2000"]
    cases = [
        (run, (0,), []),
        ([*run, "--theta", "1.57"], (0, 1), []),
        (["run", "--n", "2", "--calib", str(tmp_path / "missing.json"), "--model", "dep"], (2,), []),
        (["sweep-distance", "--calib", calib, "--model", "thermo", "--shots", "2000",
          "--spans", "1..3", "--csv", "{dir}/sweep.csv", "--out", "{dir}/sweep.json"],
         (0, 1), ["sweep.csv", "sweep.json"]),
    ]
    for k, (argv, codes, written) in enumerate(cases):
        results = {}
        for name in ("main", *entries):
            out_dir = tmp_path / f"{k}{name}"
            out_dir.mkdir()
            args = [arg.replace("{dir}", str(out_dir)) for arg in argv]
            if name == "main":
                code = main(args)
                captured = capsys.readouterr()
                result = (code, captured.out, captured.err)
            else:
                proc = subprocess.run([*entries[name], *args], capture_output=True, text=True,
                                      env=env, timeout=300)
                result = (proc.returncode, proc.stdout, proc.stderr)
            files = sorted((path.name, path.read_bytes()) for path in out_dir.iterdir())
            results[name] = (*result, files)
        assert results["-m"] == results["main"] == results["script"], argv
        code, out, err, files = results["main"]
        assert code in codes, (argv, err)
        assert [name for name, _ in files] == written
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")
        else:
            assert err == "" and json.loads(out)
        if written:
            assert dict(files)["sweep.json"] == out.encode()
