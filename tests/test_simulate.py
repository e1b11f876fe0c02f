"""Circuit evolution glue: cap enforcement, compaction, marginals, measured ordering."""

import numpy as np
import pytest

from pbrsim.circuits import Circuit, Gate, H, MEASURE, RY, X
from pbrsim.errors import CapError
from pbrsim.simulate import marginal_distribution, outcome_distribution, simulate_circuit


def test_qubit_cap_enforced():
    big = Circuit(13, (Gate(H, (0,)), Gate(MEASURE, tuple(range(13)))))
    with pytest.raises(CapError):
        simulate_circuit(big)
    # 13 live qubits out of 30: the cap counts the simulated width.
    wide = Circuit(30, (Gate(H, (0,)), Gate(MEASURE, tuple(range(0, 26, 2)))))
    with pytest.raises(CapError):
        outcome_distribution(wide)


def test_outcome_distribution_simulates_touched_qubits_only():
    # 30 qubits is far over the cap, but only qubits 3 and 17 are live.
    c = Circuit(30, (Gate(X, (17,)), Gate(MEASURE, (17, 3))))
    assert outcome_distribution(c).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_outcome_distribution_without_measure_covers_all_qubits():
    c = Circuit(3, (Gate(X, (1,)),))
    probs = outcome_distribution(c)
    assert probs.shape == (8,)
    assert abs(probs[0b010] - 1.0) < 1e-12


def test_measured_qubits_in_listed_order():
    c = Circuit(3, (Gate(X, (2,)), Gate(MEASURE, (2, 0))))
    final, measured = simulate_circuit(c)
    assert measured == (2, 0)
    probs = outcome_distribution(c)
    # qubit 2 is |1> and listed first, so outcome index 10 binary = 2
    assert probs.shape == (4,)
    assert abs(probs[2] - 1.0) < 1e-12


def test_marginal_distribution_orders_and_sums():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(8))
    keep01 = marginal_distribution(probs, 3, (0, 1))
    keep10 = marginal_distribution(probs, 3, (1, 0))
    assert abs(keep01.sum() - 1.0) < 1e-12
    # swapping the kept qubits transposes the outcome index bits
    swapped = keep01.reshape(2, 2).T.reshape(-1)
    assert np.abs(keep10 - swapped).max() < 1e-12
    single = marginal_distribution(probs, 3, (2,))
    t = probs.reshape(2, 2, 2)
    assert abs(single[1] - t[:, :, 1].sum()) < 1e-12


def test_full_measure_is_plain_distribution():
    theta = 0.7
    c = Circuit(1, (Gate(RY, (0,), angle=theta), Gate(MEASURE, (0,))))
    probs = outcome_distribution(c)
    assert abs(probs[0] - np.cos(theta / 2) ** 2) < 1e-12
    assert abs(probs[1] - np.sin(theta / 2) ** 2) < 1e-12
