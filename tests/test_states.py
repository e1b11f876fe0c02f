"""Density-matrix container, unitary/channel application, probabilities."""

import numpy as np
import pytest

from pbrsim.errors import ChannelError, NormalizationError
from pbrsim.states import (
    DensityMatrix,
    KrausChannel,
    apply_channel,
    apply_unitary,
    ground_state,
    measurement_probs,
    pure_density,
)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, n):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_ground_state():
    rho = ground_state(3)
    assert rho.n_qubits == 3
    assert rho.dim == 8
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.abs(rho.matrix - expected).max() == 0.0
    assert abs(rho.purity() - 1.0) < 1e-14


def test_pure_density_normalizes_phase_free():
    amps = np.array([1.0, 1j]) / np.sqrt(2)
    rho = pure_density(amps)
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.abs(rho.matrix - expected).max() < 1e-15


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)  # not a power of two
    with pytest.raises(NormalizationError):
        DensityMatrix(2 * np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    bad = np.array([[1.5, 0.0], [0.0, -0.5]])
    DensityMatrix(bad).validate  # construction passes trace+hermiticity
    with pytest.raises(ValueError):
        DensityMatrix(bad).validate()  # but the eigenvalue check rejects it


def test_apply_unitary_matches_full_kron():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, n)
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = tuple(rng.permutation(n)[:k])
        u = random_unitary(rng, 2**k)
        out = apply_unitary(rho, u, targets)

        # reference: permute targets to the front, apply u x I, permute back
        perm = list(targets) + [q for q in range(n) if q not in targets]
        t = rho.matrix.reshape((2,) * (2 * n))
        t = np.moveaxis(t, perm + [n + p for p in perm], range(2 * n))
        full = np.kron(u, np.eye(2 ** (n - k)))
        ref = full @ t.reshape(2**n, 2**n) @ full.conj().T
        t = ref.reshape((2,) * (2 * n))
        inv = np.argsort(perm)
        t = np.moveaxis(t, list(inv) + [n + p for p in inv], range(2 * n))
        assert np.abs(out.matrix - t.reshape(2**n, 2**n)).max() < 1e-12


def test_apply_unitary_preserves_purity_and_trace():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, n)
        u = random_unitary(rng, 2)
        out = apply_unitary(rho, u, (int(rng.integers(n)),))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
        assert abs(out.purity() - rho.purity()) < 1e-12


def test_kraus_channel_validation():
    with pytest.raises(ChannelError):
        KrausChannel(())
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(3),))
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(2), np.eye(4)))
    with pytest.raises(ChannelError):
        KrausChannel((0.5 * np.eye(2),))  # not trace preserving
    ch = KrausChannel((np.eye(2),))
    assert ch.arity == 1


def test_kraus_channel_holds_read_only_copies():
    k = np.eye(2, dtype=complex)
    ch = KrausChannel((k,))
    k[0, 0] = 5.0  # the caller's array stays writable and apart from the channel
    assert ch.operators[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        ch.operators[0][1, 1] = 5.0


def test_apply_channel_trace_preserving():
    rng = np.random.default_rng(3)
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    for p in (0.0, 0.3, 1.0):
        ch = KrausChannel((np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * px))
        for _ in range(10):
            rho = random_density(rng, 2)
            out = apply_channel(rho, ch, (1,))
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


def test_apply_channel_arity_mismatch():
    ch = KrausChannel((np.eye(2),))
    with pytest.raises(ValueError):
        apply_channel(ground_state(2), ch, (0, 1))


def test_measurement_probs_basics():
    rho = ground_state(2)
    probs = measurement_probs(rho)
    assert probs.shape == (4,)
    assert np.abs(probs - np.array([1.0, 0, 0, 0])).max() < 1e-15

    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density(rng, 3)
        probs = measurement_probs(rho)
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) < 1e-10
