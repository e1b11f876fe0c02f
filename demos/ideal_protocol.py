"""Noiseless walk-through of the antidistinguishability test.

Prepares each of the 2^n product states, applies the joint measurement,
and shows that exactly one outcome per input has probability zero: the
input itself. Each outcome's probability depends only on its Hamming
distance h to the input; the closed-form profile P[h] is printed next to
the simulated probabilities. The angle pair (alpha, beta) comes from the solver; at n = 2 and the minimal
angle theta = pi/4 it is exactly (pi, 0).
"""

import numpy as np

from pbrsim import (
    PBRParams,
    build_test_circuit,
    circuit_to_lines,
    outcome_distribution,
    solve_angles,
    theta_min,
)
from pbrsim.protocol import check_forbidden_outcomes


def show(n, theta):
    alpha, beta = solve_angles(n, theta)
    params = PBRParams(n=n, theta=theta, alpha=alpha, beta=beta)
    profile = check_forbidden_outcomes(params)
    print(f"\nn={n}  theta={theta:.6f}  alpha={alpha:.6f}  beta={beta:.6f}")
    print("  closed form: " + "  ".join(f"P[{h}]={p:.4f}" for h, p in enumerate(profile)))
    for x in range(2**n):
        probs = outcome_distribution(build_test_circuit(x, params))
        closed = profile[[bin(x ^ z).count("1") for z in range(2**n)]]
        bits = format(x, f"0{n}b")
        print(
            f"  input {bits}: forbidden outcome {bits}  p={probs[x]:.2e}"
            f"  (largest other p={probs.max():.4f}, |p - P[h]| <= {abs(probs - closed).max():.1e})"
        )


def main():
    print("Minimal two-qubit instance and its circuit:")
    params = PBRParams.solve(2, np.pi / 4)
    print(circuit_to_lines(build_test_circuit("01", params)))

    for n in (2, 3, 4):
        show(n, theta_min(n))
    show(2, 1.3 * theta_min(2))

    print("\nBelow theta_min the angle equation has no solution:")
    try:
        solve_angles(2, 0.9 * theta_min(2))
    except ValueError as exc:
        print(f"  {exc}")


if __name__ == "__main__":
    main()
