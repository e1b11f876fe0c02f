"""How qubit separation on a line device degrades the benchmark.

Routing the two-qubit entangler across s-1 intermediate qubits costs
6(s-1) extra single-qubit gates and 3(s-1) extra two-qubit gates, so the
forbidden-outcome probability climbs with span. Sweeps spans 1..8 with
sampling, then goes to span 154, past the sweep's exact range, two ways:
the sweep's analytic extrapolation, and a placed run on a 155-qubit line.
The simulator evolves each qubit only between its first and last gate,
so a routed pair holds at most three live qubits at any span and the
placed run is exact.
"""

import numpy as np

from dataclasses import replace

from pbrsim import (
    DEPOLARIZING,
    ExperimentConfig,
    line_map,
    run_experiment,
    sweep_distance,
    uniform_calibration,
)


def line_calibration(n_phys):
    """A uniform n_phys-qubit line device."""
    return uniform_calibration(
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


def main():
    n_phys = 10
    cfg = ExperimentConfig(
        n=2,
        theta=np.pi / 4,
        model=DEPOLARIZING,
        calibration=line_calibration(n_phys),
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
    far = sweep_distance(cfg, [span])[0]
    placed = replace(
        cfg, calibration=line_calibration(span + 1), coupling=line_map(span + 1), placement=(0, span)
    )
    exact = run_experiment(placed)
    print(f"\nspan {span}: the sweep's report is analytic, a placed run is exact")
    print(f"  g1={far.g1}  g2={far.g2}  swaps={far.swap_count}  tolerance {far.active_tolerance:.4f}")
    print(f"  sweep:  predicted error   {far.predicted_error:.4f}  pass {far.passed}")
    print(f"  placed: exact mean p      {exact.mean_forbidden_exact:.4f}  pass {exact.passed}")


if __name__ == "__main__":
    main()
