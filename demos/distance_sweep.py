"""How qubit separation on a line device degrades the benchmark.

Routing the two-qubit entangler across s-1 intermediate qubits costs
6(s-1) extra single-qubit gates and 3(s-1) extra two-qubit gates, so the
forbidden-outcome probability climbs with span. Sweeps spans 1..8 with
sampling, then extrapolates analytically to a span too wide to simulate.
The simulator evolves each qubit only between its first and last gate,
so every exact span holds at most three live qubits; the cap counts
touched plus measured qubits, and spans past it go analytic.
"""

import numpy as np

from pbrsim import (
    DEPOLARIZING,
    ExperimentConfig,
    analytic_report,
    line_map,
    sweep_distance,
    uniform_calibration,
)


def main():
    n_phys = 10
    cal = uniform_calibration(
        n_phys,
        t1=173e-6,
        t2=172e-6,
        p1=2.1e-4,
        p2=2.4e-3,
        p01=0.01,
        p10=0.01,
        readout=600e-9,
        edges=[(i, i + 1) for i in range(n_phys - 1)],
    )
    cfg = ExperimentConfig(
        n=2,
        theta=np.pi / 4,
        model=DEPOLARIZING,
        calibration=cal,
        shots=20_000,
        seed=6,
        coupling=line_map(n_phys),
        placement=(0, 1),
    )

    print("span  swaps  g1   g2   exact p     estimate    tolerance   pass")
    reports = sweep_distance(cfg, range(1, 9))
    for rep in reports:
        mean_est = float(np.mean([r.estimate for r in rep.inputs]))
        print(
            f"  {rep.span}    {rep.swap_count:2d}   {rep.g1:3d}  {rep.g2:3d}"
            f"  {rep.mean_forbidden_exact:.4e}  {mean_est:.4e}"
            f"  {rep.active_tolerance:.4e}  {rep.passed}"
        )

    exact = [rep.mean_forbidden_exact for rep in reports]
    print(f"\nmonotone non-decreasing with span: {all(a <= b + 1e-15 for a, b in zip(exact, exact[1:]))}")

    span = 154
    far = analytic_report(cfg, span)
    print(f"\nspan {span} exceeds the simulation cap, so the report is analytic:")
    print(f"  g1={far.g1}  g2={far.g2}  swaps={far.swap_count}")
    print(f"  predicted error {far.predicted_error:.3f} vs tolerance {far.active_tolerance:.4f}")
    print("  a gate-error budget that large swamps the test long before")
    print("  sampling would; the sweep shows where the line is crossed.")


if __name__ == "__main__":
    main()
