"""Calibrations and density-matrix helpers that several test files share."""

import numpy as np

from pbrsim.noise import CalibrationSnapshot, CouplerCalibration, QubitCalibration


def adjacent_pair_calibration():
    return CalibrationSnapshot(
        (
            QubitCalibration(0, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01),
            QubitCalibration(1, 239e-6, 276e-6, 2.8e-4, 36e-9, 0.01, 0.01),
        ),
        (CouplerCalibration(0, 1, 2.4e-3, 68e-9),),
        readout_duration=600e-9,
    )


def line_calibration(n):
    """n identical qubits on a line, each neighbour pair coupled."""
    qubits = tuple(
        QubitCalibration(i, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01)
        for i in range(n)
    )
    couplers = tuple(CouplerCalibration(i, i + 1, 2.4e-3, 68e-9) for i in range(n - 1))
    return CalibrationSnapshot(qubits, couplers, 600e-9)


def random_density(rng, n):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def purity(rho):
    return float(np.trace(rho @ rho).real)
