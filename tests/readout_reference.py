"""Readout confusion applied to finished distributions, axis by axis.

A run folds each measured qubit's confusion matrix into
`simulate.outcome_distributions`' population read; the tests check that
fold against this map on the unmixed table.
"""

import numpy as np


def apply_readout(probs: np.ndarray, mats) -> np.ndarray:
    """Push distributions through per-qubit confusion matrices.

    `probs` is one distribution over 2^m outcomes or a (..., 2^m) stack of
    them; each comes out as (M_0 x ... x M_{m-1}) @ probs with qubit 0 as
    the most significant bit, applied axis by axis. Each entry is the same
    two products and one sum whatever the stack holds, so a row's result
    does not depend on the rows beside it.
    """
    probs = np.asarray(probs, dtype=float)
    mats = [np.asarray(m, dtype=float) for m in mats]
    n = len(mats)
    width = probs.shape[-1] if probs.ndim else 1
    if width != 2**n:
        raise IndexError(f"distribution of size {width} needs {n} matrices")
    lead = probs.shape[:-1]
    t = probs.reshape(lead + (2,) * n)
    for axis, m in enumerate(mats):
        ax = len(lead) + axis
        zero, one = np.take(t, 0, axis=ax), np.take(t, 1, axis=ax)
        t = np.stack([m[0, 0] * zero + m[0, 1] * one, m[1, 0] * zero + m[1, 1] * one], axis=ax)
    return t.reshape(probs.shape)
