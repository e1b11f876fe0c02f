"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL line (run with -s to see them all);
tolerances and time budgets are fixed, not derived from the code under
test.
"""

import time

import numpy as np

import test_properties
from helpers import adjacent_pair_calibration, line_calibration
from pbrsim.bounds import epsilon_dec, epsilon_tol
from pbrsim.cli import main as cli_main
from pbrsim.harness import ExperimentConfig, run_experiment, sweep_distance
from pbrsim.noise import DEPOLARIZING, mean_p_from_time, save_calibration
from pbrsim.protocol import (
    PBRParams,
    build_test_circuit,
    solve_angles,
    theta_min,
)
from pbrsim.simulate import outcome_distribution
from simulated_reference import discover_forbidden_map

# highest usable grid angle per n: the solver's endpoint root at pi/2
# exactly is degenerate for n = 2 and 3, where the outcomes next to the
# zero fall below the forbidden threshold too
THETA_CAP_FRACTION = {2: 0.98, 3: 0.95, 4: 1.0, 5: 1.0}


def grid_points():
    for n in (2, 3, 4, 5):
        tmin = theta_min(n)
        yield n, tmin
        yield n, 1.1 * tmin
        yield n, THETA_CAP_FRACTION[n] * np.pi / 2


def report_line(index: int, ok: bool, detail: str) -> bool:
    print(f"criterion {index}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_forbidden_outcomes_across_grid():
    start = time.perf_counter()
    worst = 0.0
    bijective = True
    for n, theta in grid_points():
        params = PBRParams.solve(n, theta)
        fmap = discover_forbidden_map(params)
        seen = set()
        for x in range(2**n):
            probs = outcome_distribution(build_test_circuit(x, params))
            worst = max(worst, float(probs[fmap[x]]))
            seen.add(fmap[x])
        bijective = bijective and len(seen) == 2**n
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and bijective and elapsed < 30.0
    assert report_line(
        1, ok, f"worst forbidden prob {worst:.2e}, bijective {bijective}, {elapsed:.1f}s"
    )


def test_criterion_2_angle_solutions():
    alpha, beta = solve_angles(2, np.pi / 4)
    anchored = abs(alpha - np.pi) < 1e-9 and abs(beta) < 1e-9
    worst = 0.0
    for n, theta in grid_points():
        a, b = solve_angles(n, theta)
        t = np.tan(theta / 2)
        worst = max(worst, abs(np.exp(1j * a) + (1 + t * np.exp(1j * b)) ** n - 1))
    ok = anchored and worst < 1e-10
    assert report_line(2, ok, f"(pi, 0) anchor {anchored}, worst residual {worst:.2e}")


def test_criterion_3_tolerance_values():
    val2 = epsilon_tol(np.sin(np.pi / 4), 2)
    val5 = epsilon_tol(np.sin(theta_min(5)), 5)
    ok = abs(val2 - 0.02145) <= 0.0005 and abs(val5 - 0.00560) <= 0.0009
    assert report_line(3, ok, f"eps_tol(2)={val2:.5f}, eps_tol(5)={val5:.5f}")


def test_criterion_4_decoherence_budget():
    p_ad = mean_p_from_time((36e-9, 68e-9), 192e-6)
    p_phi = mean_p_from_time((36e-9, 68e-9), 95e-6)
    e_dec = epsilon_dec(5, p_ad, p_phi)
    ok = (
        2.6e-4 <= p_ad <= 3.0e-4
        and 5.2e-4 <= p_phi <= 6.0e-4
        and 4.0e-3 <= e_dec <= 4.4e-3
    )
    assert report_line(
        4, ok, f"p_ad={p_ad:.3e}, p_phi={p_phi:.3e}, eps_dec(5)={e_dec:.3e}"
    )


def test_criterion_5_adjacent_pair_magnitude():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        n=2,
        theta=np.pi / 4,
        model=DEPOLARIZING,
        calibration=adjacent_pair_calibration(),
        shots=100_000,
        seed=2024,
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    probs = [r.exact_probability for r in rep.inputs]
    in_window = all(1e-3 < p < 1e-2 for p in probs)
    ok = in_window and elapsed < 5.0
    assert report_line(
        5, ok, f"forbidden probs {min(probs):.2e}..{max(probs):.2e}, {elapsed:.2f}s"
    )


def test_criterion_6_distance_sweep():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        n=2,
        theta=np.pi / 4,
        model=DEPOLARIZING,
        calibration=line_calibration(10),
        shots=2000,
        seed=6,
    )
    reports = sweep_distance(cfg, list(range(1, 9)) + [154])
    elapsed = time.perf_counter() - start
    exact = [r for r in reports if not r.analytic_only]
    means = [r.mean_forbidden_exact for r in exact]
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    full_span = reports[-1]
    ok = (
        len(exact) == 8
        and monotone
        and full_span.analytic_only
        and full_span.span == 154
        and elapsed < 300.0
    )
    assert report_line(
        6,
        ok,
        f"means {means[0]:.2e}->{means[-1]:.2e} monotone {monotone}, "
        f"full span analytic {full_span.analytic_only}, {elapsed:.1f}s",
    )


def test_criterion_7_property_suite_budget():
    cases = [
        test_properties.test_random_circuits_produce_distributions,
        test_properties.test_random_unitaries_preserve_state_structure,
        test_properties.test_random_channels_are_physical,
        test_properties.test_solver_satisfies_angle_equation,
        test_properties.test_solver_rejects_below_threshold,
        test_properties.test_amplitude_law_matches_simulation,
        test_properties.test_wilson_interval_brackets_estimate,
        test_properties.test_readout_mixing_preserves_total_probability,
    ]
    total = sum(test_properties.INSTANCE_COUNTS)
    start = time.perf_counter()
    for case in cases:
        case()
    elapsed = time.perf_counter() - start
    ok = total == 1000 and elapsed < 120.0
    assert report_line(7, ok, f"{total} randomized instances in {elapsed:.1f}s")


def test_criterion_8_byte_identical_reports(tmp_path):
    cal_path = tmp_path / "cal.json"
    save_calibration(adjacent_pair_calibration(), cal_path)
    argv = [
        "run", "--n", "2", "--theta", str(np.pi / 4), "--calib", str(cal_path),
        "--model", "dep", "--shots", "20000", "--seed", "77",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code_a = cli_main(argv + ["--out", str(a)])
    code_b = cli_main(argv + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and code_a == code_b == 0
    assert report_line(8, ok, f"byte identical {identical}, exit codes ({code_a}, {code_b})")
