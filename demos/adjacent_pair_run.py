"""Full benchmark run on a calibrated adjacent pair.

Solves the angles at theta = pi/4, attaches depolarizing noise from the
shipped calibration, samples every input with a per-input seeded stream,
and checks each Wilson upper bound against the noise-adjusted tolerance.
"""

import os

import numpy as np

from pbrsim import (
    DEPOLARIZING,
    ExperimentConfig,
    load_calibration,
    render_json,
    run_experiment,
)

CAL_PATH = os.path.join(os.path.dirname(__file__), "data", "adjacent_pair.json")


def main():
    cal = load_calibration(CAL_PATH)
    cfg = ExperimentConfig(
        n=2,
        theta=np.pi / 4,
        model=DEPOLARIZING,
        calibration=cal,
        shots=100_000,
        seed=2024,
    )
    rep = run_experiment(cfg)

    print(f"n={rep.n}  theta={rep.theta:.6f}  alpha={rep.alpha:.6f}  beta={rep.beta:.6f}")
    print(f"model={rep.model}  shots={rep.shots}  seed={rep.seed}")
    print(f"gates: {rep.g1} single-qubit, {rep.g2} two-qubit")
    print(f"tolerance (noise-adjusted): {rep.active_tolerance:.6f}")
    print("forbidden outcome of each input: the input itself")
    print()
    print("input  forbidden  exact p    estimate   ci_high    pass")
    for r in rep.inputs:
        x = format(r.input_index, f"0{rep.n}b")
        print(
            f"  {x}      {x}    {r.exact_probability:.2e}  {r.estimate:.2e}"
            f"  {r.ci_high:.2e}  {r.passed}"
        )
    print()
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"verdict: {verdict} (every upper bound below the tolerance: {rep.passed})")
    print(f"mean exact forbidden probability: {rep.mean_forbidden_exact:.4e}")

    print("\nJSON report (first lines):")
    for line in render_json(rep).splitlines()[:12]:
        print("  " + line)


if __name__ == "__main__":
    main()
