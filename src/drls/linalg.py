"""
Small dense linear-algebra helpers.

Everything in here operates on plain float64 ndarrays and is sized for the
networks this package simulates (a few dozen sensors, regressor length below
~20), so no sparse or large-scale paths are provided.
"""

import numpy as np

DEFAULT_PINV_TOL = 1e-10


def as_matrix(a, name="matrix"):
    """Validate and return `a` as a C-contiguous float64 2-D array.

    Raises ValueError if `a` is not 2-D or contains non-finite entries.
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def pinv(a, tol=DEFAULT_PINV_TOL):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below `tol` times the largest singular value are
    treated as zero. The default cutoff is loose enough for the scaled
    graph Laplacians this package inverts (exact nullspace of dimension p)
    and tight enough not to discard genuinely small modes.
    """
    a = as_matrix(a, "a")
    return np.linalg.pinv(a, rcond=tol)


def spectral_radius(a):
    """Largest eigenvalue modulus of a square matrix (complex eigensolve)."""
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got {a.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def bdiag(blocks):
    """Assemble square blocks into a block-diagonal matrix."""
    blocks = [as_matrix(b, "block") for b in blocks]
    if not blocks:
        raise ValueError("bdiag needs at least one block")
    n = sum(b.shape[0] for b in blocks)
    m = sum(b.shape[1] for b in blocks)
    out = np.zeros((n, m))
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out
