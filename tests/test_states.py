"""Kraus channels, and the Liouville kernel that applies operators to a state stack."""

import numpy as np
import pytest

from dense_reference import conjugate, ground_matrix, kraus_apply
from pbrsim.circuits import Circuit, Gate, X
from pbrsim.errors import ChannelError, UnitarityError
from pbrsim.noise import amplitude_damping, dephasing, depolarizing_channel
from pbrsim.simulate import _apply, _liouville, outcome_distribution
from pbrsim.states import KrausChannel, check_phases, check_unitary
from simulated_reference import evolve


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, n):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def purity(rho):
    return float(np.trace(rho @ rho).real)


def test_ground_state():
    # Every evolution starts from |0...0>: kept qubits no gate touches join as |0>.
    rho = next(evolve(Circuit(3, ()), (0, 1, 2)))[0]
    assert rho.shape == (8, 8)
    assert np.abs(rho - ground_matrix(3)).max() == 0.0
    assert abs(purity(rho) - 1.0) < 1e-14


def test_apply_unitary_matches_full_kron():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, n)
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = tuple(int(q) for q in rng.permutation(n)[:k])
        u = random_unitary(rng, 2**k)
        out = _apply(rho[None], _liouville(u[None]), targets, n)[0]

        # reference: permute targets to the front, apply u x I, permute back
        perm = list(targets) + [q for q in range(n) if q not in targets]
        t = rho.reshape((2,) * (2 * n))
        t = np.moveaxis(t, perm + [n + p for p in perm], range(2 * n))
        full = np.kron(u, np.eye(2 ** (n - k)))
        ref = full @ t.reshape(2**n, 2**n) @ full.conj().T
        t = ref.reshape((2,) * (2 * n))
        inv = np.argsort(perm)
        t = np.moveaxis(t, list(inv) + [n + p for p in inv], range(2 * n))
        assert np.abs(out - t.reshape(2**n, 2**n)).max() < 1e-12
        assert np.abs(out - conjugate(rho, u, targets)).max() < 1e-12


def test_apply_unitary_preserves_purity_and_trace():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, n)
        u = random_unitary(rng, 2)
        out = _apply(rho[None], _liouville(u[None]), (int(rng.integers(n)),), n)[0]
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert abs(purity(out) - purity(rho)) < 1e-12


def test_check_unitary():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 4)
    check_unitary(u)
    check_unitary(np.stack([u, random_unitary(rng, 4)]))
    with pytest.raises(UnitarityError):
        check_unitary(1.01 * u)
    with pytest.raises(UnitarityError):
        check_unitary(np.stack([u, np.diag([1.0, 1.0, 1.0, 0.0])]))
    check_phases(np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, 8))))
    with pytest.raises(UnitarityError):
        check_phases(np.array([[1.0, 1j], [1.0, 0.999]]))


def test_kraus_channel_validation():
    with pytest.raises(ChannelError):
        KrausChannel(())
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(3),))
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(2), np.eye(4)))
    with pytest.raises(ChannelError):
        KrausChannel((0.5 * np.eye(2),))  # not trace preserving
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(4), 1e-4 * np.eye(4)))  # trace increasing, two qubits
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(8),))  # three qubits: a 4096-entry superoperator
    ch = KrausChannel((np.eye(2),))
    assert ch.arity == 1
    assert KrausChannel((np.eye(4),)).arity == 2


def test_kraus_channel_takes_no_check_switch():
    # Every channel is checked; the switch that skipped the check is gone.
    with pytest.raises(TypeError):
        KrausChannel((np.eye(2),), check=False)


@pytest.mark.parametrize(
    "build, args",
    [(depolarizing_channel, (p, arity)) for p in (0.0, 1e-12, 0.5, 1.0) for arity in (1, 2)]
    + [(builder, (p,)) for builder in (amplitude_damping, dephasing) for p in (0.0, 1.0)],
)
def test_noise_builders_pass_the_completeness_check_at_their_edges(build, args):
    # The unmemoized builder, so the check runs here whatever the cache holds.
    ch = build.__wrapped__(*args)
    assert ch.superoperator.shape == (4**ch.arity,) * 2
    total = sum(k.conj().T @ k for k in ch.operators)
    assert np.abs(total - np.eye(2**ch.arity)).max() < 1e-12


def test_kraus_channel_holds_read_only_copies():
    k = np.eye(2, dtype=complex)
    ch = KrausChannel((k,))
    k[0, 0] = 5.0  # the caller's array stays writable and apart from the channel
    assert ch.operators[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        ch.operators[0][1, 1] = 5.0
    assert np.array_equal(ch.superoperator, np.eye(4))
    with pytest.raises(ValueError):
        ch.superoperator[0, 0] = 5.0


def test_apply_channel_trace_preserving():
    rng = np.random.default_rng(3)
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    for p in (0.0, 0.3, 1.0):
        ch = KrausChannel((np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * px))
        for _ in range(10):
            rho = random_density(rng, 2)
            out = _apply(rho[None], ch.superoperator[None], (1,), 2)[0]
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.abs(out - kraus_apply(rho, ch.operators, (1,))).max() < 1e-12


def test_channel_superoperators_match_kraus_sum():
    # The superoperator of every noise builder against sum_K K rho K^dagger.
    rng = np.random.default_rng(41)
    for _ in range(40):
        p = float(rng.uniform(0, 1))
        n = int(rng.integers(2, 4))
        for ch in (
            depolarizing_channel(p, 1),
            depolarizing_channel(p, 2),
            amplitude_damping(p),
            dephasing(p),
        ):
            rho = random_density(rng, n)
            targets = tuple(int(q) for q in rng.permutation(n)[: ch.arity])
            out = _apply(rho[None], ch.superoperator[None], targets, n)[0]
            assert np.abs(out - kraus_apply(rho, ch.operators, targets)).max() < 1e-12
            assert abs(np.trace(out).real - 1.0) < 1e-12


def test_measurement_probs_basics():
    probs = outcome_distribution(Circuit(2, ()))
    assert probs.shape == (4,)
    assert np.abs(probs - np.array([1.0, 0, 0, 0])).max() < 1e-15
    assert outcome_distribution(Circuit(2, (Gate(X, (1,)),))).tolist() == [0.0, 1.0, 0.0, 0.0]
