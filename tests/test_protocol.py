"""Angle solving, circuit construction, the forbidden-outcome check."""

import numpy as np
import pytest

from pbrsim.circuits import (
    CPHASE_OPEN,
    H,
    MCPHASE_OPEN,
    MEASURE,
    PHASE,
    RY,
    X,
    gate_counts,
)
from pbrsim.errors import (
    NoSolutionError,
    ProtocolError,
    RangeError,
    ValidationError,
)
from pbrsim.protocol import (
    PBRParams,
    bits_of,
    build_entangling_measurement,
    build_preparation,
    build_test_circuit,
    check_forbidden_outcomes,
    solve_angles,
    solved,
    theta_min,
)
from pbrsim.simulate import outcome_distribution, outcome_distributions
from simulated_reference import discover_forbidden_map


@pytest.fixture(autouse=True)
def fresh_check_cache():
    # The check is cached per process on its angles; each test starts cold,
    # so a fault injected into the simulator is reached whatever ran before.
    check_forbidden_outcomes.cache_clear()
    yield
    check_forbidden_outcomes.cache_clear()


def test_theta_min_values():
    assert abs(theta_min(2) - np.pi / 4) < 1e-15
    assert abs(theta_min(3) - 0.5085882122301613) < 1e-15
    assert abs(theta_min(4) - 0.3739931524730452) < 1e-15
    assert abs(theta_min(5) - 0.29523340544588333) < 1e-15
    assert isinstance(theta_min(2), float)
    with pytest.raises(RangeError):
        theta_min(0)


def test_solve_angles_reference_point():
    alpha, beta = solve_angles(2, np.pi / 4)
    assert abs(alpha - np.pi) < 1e-9
    assert abs(beta) < 1e-9


def test_solve_angles_residuals_on_grid():
    for n in (2, 3, 4, 5):
        tmin = theta_min(n)
        for theta in (tmin, 1.05 * tmin, 1.1 * tmin, 1.3 * tmin, 0.95 * np.pi / 2):
            alpha, beta = solve_angles(n, theta)
            t = np.tan(theta / 2)
            resid = abs(np.exp(1j * alpha) + (1 + t * np.exp(1j * beta)) ** n - 1)
            assert resid < 1e-10
            assert 0.0 <= beta <= np.pi
            assert 0.0 <= alpha < 2 * np.pi


def test_solve_angles_frozen_points():
    cases = {
        2: (4.648139041871555, 1.3002886893295094),
        3: (4.433851687696589, 1.0544006090421956),
        4: (4.359589061084955, 0.966021143034879),
        5: (4.322493258339771, 0.9207045006712548),
    }
    for n, (ea, eb) in cases.items():
        alpha, beta = solve_angles(n, 1.1 * theta_min(n))
        assert abs(alpha - ea) < 1e-9
        assert abs(beta - eb) < 1e-9


def test_solve_angles_below_threshold():
    with pytest.raises(NoSolutionError):
        solve_angles(2, 0.9 * theta_min(2))
    with pytest.raises(NoSolutionError):
        solve_angles(5, 0.99 * theta_min(5))


def test_solve_angles_range_checks():
    with pytest.raises(RangeError):
        solve_angles(0, 0.5)
    with pytest.raises(RangeError):
        solve_angles(2, -0.1)
    with pytest.raises(RangeError):
        solve_angles(2, np.pi)


def test_bits_of():
    assert bits_of(0, 3) == (0, 0, 0)
    assert bits_of(5, 3) == (1, 0, 1)
    assert bits_of(1, 2) == (0, 1)


def test_build_preparation_signs():
    theta = 0.6
    c = build_preparation((0, 1), theta)
    assert [g.kind for g in c.gates] == [RY, RY]
    assert c.gates[0].angle == pytest.approx(theta)
    assert c.gates[1].angle == pytest.approx(-theta)
    from_string = build_preparation("01", theta)
    assert from_string == c
    with pytest.raises(ValidationError):
        build_preparation("021", theta)


def test_measurement_structure_without_phase_layer():
    c = build_entangling_measurement(2, np.pi, 0.0)
    kinds = [g.kind for g in c.gates]
    assert kinds == [X, CPHASE_OPEN, X, H, H, MEASURE]
    assert gate_counts(c) == (4, 1)
    # the X conjugation brackets the entangler on the last qubit
    assert c.gates[0].qubits == (1,)
    assert c.gates[2].qubits == (1,)
    assert c.gates[1].angle == pytest.approx(np.pi)


def test_measurement_structure_with_phase_layer():
    alpha, beta = solve_angles(3, 1.1 * theta_min(3))
    c = build_entangling_measurement(3, alpha, beta)
    kinds = [g.kind for g in c.gates]
    assert kinds == [PHASE, PHASE, PHASE, X, MCPHASE_OPEN, X, H, H, H, MEASURE]
    assert c.gates[4].qubits == (0, 1, 2)
    assert c.gates[3].qubits == (2,)
    assert all(g.angle == pytest.approx(beta) for g in c.gates[:3])


def test_build_test_circuit_input_forms():
    params = PBRParams.solve(2, np.pi / 4)
    a = build_test_circuit(1, params)
    b = build_test_circuit("01", params)
    c = build_test_circuit((0, 1), params)
    assert a == b == c
    with pytest.raises(RangeError):
        build_test_circuit(4, params)
    with pytest.raises(RangeError):
        build_test_circuit(-1, params)
    with pytest.raises(ValidationError):
        build_test_circuit("011", params)


def test_ideal_distribution_two_qubits():
    # closed form at theta = pi/4: probability 0, 1/4, 1/4, 1/2 ordered by
    # Hamming distance from the prepared bitstring
    params = PBRParams.solve(2, np.pi / 4)
    for x in range(4):
        probs = outcome_distribution(build_test_circuit(x, params))
        for z in range(4):
            h = bin(x ^ z).count("1")
            expected = {0: 0.0, 1: 0.25, 2: 0.5}[h]
            assert abs(probs[z] - expected) < 1e-12


def test_ideal_distribution_three_qubits():
    params = PBRParams.solve(3, theta_min(3))
    by_h = {0: 0.0, 1: 0.06996013467331974, 2: 0.1762884926567915, 3: 0.2612541180096656}
    for x in (0, 5):
        probs = outcome_distribution(build_test_circuit(x, params))
        for z in range(8):
            h = bin(x ^ z).count("1")
            assert abs(probs[z] - by_h[h]) < 1e-12


def test_distribution_depends_only_on_hamming_distance():
    rng = np.random.default_rng(19)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        theta = float(rng.uniform(theta_min(n), 0.95 * np.pi / 2))
        params = PBRParams.solve(n, theta)
        ref = outcome_distribution(build_test_circuit(0, params))
        x = int(rng.integers(1, 2**n))
        probs = outcome_distribution(build_test_circuit(x, params))
        for z in range(2**n):
            assert abs(probs[z] - ref[x ^ z]) < 1e-12


def test_forbidden_map_is_identity_on_grid():
    for n in (2, 3, 4, 5):
        tmin = theta_min(n)
        for theta in (tmin, 1.1 * tmin):
            params = PBRParams.solve(n, theta)
            check_forbidden_outcomes(params)
            assert discover_forbidden_map(params) == tuple(range(2**n))


def test_forbidden_map_identity_at_cap():
    for n, frac in ((2, 0.98), (3, 0.95), (4, 1.0), (5, 1.0)):
        params = PBRParams.solve(n, frac * np.pi / 2)
        check_forbidden_outcomes(params)
        assert discover_forbidden_map(params) == tuple(range(2**n))


def test_degenerate_endpoint_small_n():
    # at theta = pi/2 exactly the solver lands on beta = pi where the
    # entangling phase vanishes and every input has many zero outcomes
    for n in (2, 3):
        alpha, beta = solve_angles(n, np.pi / 2)
        assert abs(beta - np.pi) < 1e-6
        params = PBRParams(n=n, theta=np.pi / 2, alpha=alpha, beta=beta)
        with pytest.raises(ProtocolError, match=f"^input {'0' * n}: second outcome"):
            check_forbidden_outcomes(params)
        with pytest.raises(ProtocolError):
            discover_forbidden_map(params)


def test_endpoint_fine_for_larger_n():
    for n, expected_beta in ((4, 2.418858405776378), (5, 2 * np.pi / 3)):
        alpha, beta = solve_angles(n, np.pi / 2)
        assert abs(beta - expected_beta) < 1e-7
        params = PBRParams(n, np.pi / 2, alpha, beta)
        check_forbidden_outcomes(params)
        assert discover_forbidden_map(params) == tuple(range(2**n))


# One angle inside a guard-band failure per n: an outcome next to the zero
# dips under 1e-6, and the simulated discovery rejects the angle too.
GUARD_BAND_THETA = {3: 1.5177, 6: 1.1727, 8: 1.5013}


def _agreement_points():
    # The criterion-1 grid, seeded random (n, theta) up to n = 8, and the
    # guard-band failures.
    for n, frac in ((2, 0.98), (3, 0.95), (4, 1.0), (5, 1.0)):
        yield n, theta_min(n)
        yield n, 1.1 * theta_min(n)
        yield n, frac * np.pi / 2
    rng = np.random.default_rng(139)
    for _ in range(24):
        n = int(rng.integers(2, 9))
        yield n, float(rng.uniform(theta_min(n), np.pi / 2))
    yield from GUARD_BAND_THETA.items()


@pytest.mark.parametrize("n, theta", list(_agreement_points()))
def test_closed_form_agrees_with_simulated_discovery(n, theta):
    params = PBRParams.solve(n, theta)
    try:
        mapping = discover_forbidden_map(params)
    except ProtocolError:
        with pytest.raises(ProtocolError):
            check_forbidden_outcomes(params)
        return
    assert mapping == tuple(range(2**n))
    profile = check_forbidden_outcomes(params)
    assert profile.shape == (n + 1,)
    # Every simulated row follows the closed-form profile by Hamming distance.
    dists = outcome_distributions(build_test_circuit(0, params), range(n))
    x = np.arange(2**n)
    distance = np.array([[bin(v).count("1") for v in row] for row in x[:, None] ^ x[None, :]])
    assert np.abs(dists - profile[distance]).max() < 1e-14


def test_guard_band_failures_raise():
    # A failing check is not cached: it raises on every call.
    for n, theta in GUARD_BAND_THETA.items():
        params = PBRParams.solve(n, theta)
        for _ in range(2):
            with pytest.raises(ProtocolError, match="inside the guard band"):
                check_forbidden_outcomes(params)


def test_cached_profile_is_read_only_and_fresh():
    params = PBRParams.solve(5, theta_min(5))
    profile = check_forbidden_outcomes(params)
    assert check_forbidden_outcomes(params) is profile
    assert check_forbidden_outcomes.cache_info().hits == 1
    assert not profile.flags.writeable
    with pytest.raises(ValueError):
        profile[0] = 1.0
    fresh = check_forbidden_outcomes.__wrapped__(params)
    assert fresh is not profile
    assert np.array_equal(fresh, profile)
    # An equal set of angles is the same cache entry; another theta is not.
    assert check_forbidden_outcomes(PBRParams.solve(5, theta_min(5))) is profile
    other = check_forbidden_outcomes(PBRParams.solve(5, 1.1 * theta_min(5)))
    assert not np.array_equal(other, profile)
    assert check_forbidden_outcomes.cache_info().misses == 2


def test_solved_builds_angles_and_circuit_once_per_n_theta(monkeypatch):
    solved.cache_clear()
    assert solved.cache_parameters()["maxsize"] == 64
    params = solved(3, 1.0)
    assert solved(3, 1.0) is params
    assert params == PBRParams.solve(3, 1.0)
    assert params.test_circuit is params.test_circuit
    assert params.test_circuit == build_test_circuit(0, params)
    # theta = 1 and theta = 1.0 are separate entries, each keeping its type.
    assert type(solved(2, 1).theta) is int and type(solved(2, 1.0).theta) is float
    # A failing solve is not cached.
    for _ in range(2):
        with pytest.raises(NoSolutionError):
            solved(2, 0.5)
    assert solved.cache_info().currsize == 3
    # The forbidden-outcome check simulates the shared circuit itself.
    seen = []

    def recording(c, frames):
        seen.append(c)
        return outcome_distributions(c, frames)

    monkeypatch.setattr("pbrsim.protocol.outcome_distributions", recording)
    check_forbidden_outcomes(params)
    assert len(seen) == 1 and seen[0] is params.test_circuit


def test_check_spots_a_simulator_convention_fault(monkeypatch):
    # A simulator that read outcomes with qubit 0 as the least significant
    # bit would put input 0...01's zero at 10...0.
    n = 4
    flip = [int(format(z, f"0{n}b")[::-1], 2) for z in range(2**n)]

    def reversed_bits(c, frames):
        return outcome_distributions(c, frames)[:, flip]

    monkeypatch.setattr("pbrsim.protocol.outcome_distributions", reversed_bits)
    with pytest.raises(ProtocolError, match="^input 0001: simulated zero at outcome 1000;"):
        check_forbidden_outcomes(PBRParams.solve(n, theta_min(n)))


def test_check_spots_frame_bits_in_reversed_qubit_order(monkeypatch):
    # A simulator that took the last frame as the most significant input bit
    # would evolve input 10...0 as row 0...01, whose zero then sits at 10...0.
    n = 4

    def reversed_frames(c, frames):
        return outcome_distributions(c, tuple(frames)[::-1])

    monkeypatch.setattr("pbrsim.protocol.outcome_distributions", reversed_frames)
    with pytest.raises(ProtocolError, match="^input 0001: simulated zero at outcome 1000;"):
        check_forbidden_outcomes(PBRParams.solve(n, theta_min(n)))


def test_check_spots_a_fault_once_the_cache_is_cleared(monkeypatch):
    # A cached pass stands for its angles until the cache is cleared; the
    # next call then simulates again and names the first misplaced zero.
    n = 4
    params = PBRParams.solve(n, theta_min(n))
    profile = check_forbidden_outcomes(params)
    flip = [int(format(z, f"0{n}b")[::-1], 2) for z in range(2**n)]

    def reversed_bits(c, frames):
        return outcome_distributions(c, frames)[:, flip]

    monkeypatch.setattr("pbrsim.protocol.outcome_distributions", reversed_bits)
    assert check_forbidden_outcomes(params) is profile
    check_forbidden_outcomes.cache_clear()
    with pytest.raises(ProtocolError, match="^input 0001: simulated zero at outcome 1000;"):
        check_forbidden_outcomes(params)


def test_pbr_params_validation():
    with pytest.raises(ValidationError):
        PBRParams(1, np.pi / 4, np.pi, 0.0)
    with pytest.raises(ValidationError):
        PBRParams(2, 0.5, np.pi, 0.0)  # below theta_min(2)
    with pytest.raises(ValidationError):
        PBRParams(2, np.pi / 4, 1.0, 0.0)  # residual too large
