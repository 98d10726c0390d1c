"""
Small dense linear-algebra helpers.

Everything in here operates on float64 ndarrays the package has already
built from checked inputs, so nothing is validated again here. Sizes are
those of the networks this package simulates (a few dozen sensors,
regressor length below ~20), so no sparse or large-scale paths are
provided.
"""

import numpy as np

#: relative singular-value cutoff of `pinv`
DEFAULT_PINV_TOL = 1e-10


def pinv(a):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below DEFAULT_PINV_TOL times the largest singular value
    are treated as zero. The cutoff is loose enough for the (J, J) scaled
    graph Laplacian this package inverts (exact nullspace of dimension one
    on a connected network) and tight enough not to discard small modes.
    """
    return np.linalg.pinv(a, rcond=DEFAULT_PINV_TOL)


def bdiag(blocks):
    """Block-diagonal (Kp, Kp) matrix of a (K, p, p) stack; K = 0 gives (0, 0)."""
    k, p, _ = blocks.shape
    out = np.zeros((k, p, k, p))
    at = np.arange(k)
    out[at, :, at] = blocks
    return out.reshape(k * p, k * p)


def kron_eye(a, p):
    """a (x) I_p for a (K, K) `a`, by one broadcast product: the bits of
    ``np.kron(a, np.eye(p))``, signed zeros included, without its bookkeeping."""
    k = a.shape[0]
    return (a[:, None, :, None] * np.eye(p)[:, None]).reshape(k * p, k * p)
