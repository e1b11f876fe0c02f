"""Tolerance thresholds: how much forbidden-outcome weight noise may add.

The threshold epsilon_tol = (1 - d)^n / 2^n is what a noisy experiment
must stay under to rule out the epistemic explanation; d is the trace
distance between the two preparations, shrunk by preparation noise.
Prints the ideal and noise-adjusted thresholds across n and theta, then
the decoherence budget for the adjacent-pair device.
"""

import os

import numpy as np

from pbrsim import (
    PBRParams,
    build_test_circuit,
    epsilon_dec,
    epsilon_tol,
    load_calibration,
    mean_p_from_time,
    theta_min,
    tolerance_reports,
)

CAL_PATH = os.path.join(os.path.dirname(__file__), "data", "adjacent_pair.json")


def main():
    print("Ideal thresholds epsilon_tol(sin theta, n):")
    for n in (2, 3, 4, 5):
        row = []
        for scale in (1.0, 1.1, 1.5):
            theta = min(scale * theta_min(n), np.pi / 2)
            row.append(f"theta={theta:.3f}: {epsilon_tol(np.sin(theta), n):.5f}")
        print(f"  n={n}  " + "  ".join(row))

    print("\nLarger theta means more distinguishable states and a lower bar;")
    print("the experiment trades signal strength against the threshold.\n")

    cal = load_calibration(CAL_PATH)
    params = PBRParams.solve(2, np.pi / 4)
    circuit = build_test_circuit(0, params)
    for rep in tolerance_reports(params, cal, circuit):
        print(f"{rep.model} tolerance for the adjacent pair:")
        print(f"  eps_tol ideal     {rep.eps_tol_ideal:.6f}")
        print(f"  eps_tol noisy     {rep.eps_tol_noisy:.6f} +- {rep.eps_tol_noisy_spread:.1e}")
        prep = ", ".join(f"{p:.2e}" for p in rep.eps_prep)
        print(f"  prep error/qubit  {prep}")
        print(f"  eps_dec           {rep.eps_dec:.6f}")
        print(f"  eps_dec cumulative {rep.eps_dec_cumulative:.6f}")

    print("\nDevice-style decoherence budget (T1=192us, T2=95us, 36/68ns gates):")
    p_ad = mean_p_from_time((36e-9, 68e-9), 192e-6)
    p_phi = mean_p_from_time((36e-9, 68e-9), 95e-6)
    print(f"  mean damping probability  {p_ad:.3e}")
    print(f"  mean dephasing probability {p_phi:.3e}")
    print(f"  eps_dec(n=5)              {epsilon_dec(5, p_ad, p_phi):.3e}")


if __name__ == "__main__":
    main()
