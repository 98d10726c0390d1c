import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from drls.linalg import bdiag, kron_eye, pinv


def _rng_matrices(seed, shapes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
def test_pinv_penrose_conditions(seed, n, m):
    (a,) = _rng_matrices(seed, [(n, m)])
    ap = pinv(a)
    assert_allclose(a @ ap @ a, a, atol=1e-8)
    assert_allclose(ap @ a @ ap, ap, atol=1e-8)
    assert_allclose((a @ ap).T, a @ ap, atol=1e-8)
    assert_allclose((ap @ a).T, ap @ a, atol=1e-8)


def test_pinv_of_two_node_laplacian():
    """The complete-graph Laplacian on two nodes pseudo-inverts to L/4."""
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(pinv(lap), lap / 4.0, atol=1e-12)


def test_vec_identity_for_triple_products():
    """vec(R S T) = (T^T kron R) vec(S) with column-stacking vec, the basis
    of the closed-form Lyapunov oracle in the tests."""
    rng = np.random.default_rng(7)
    r, s, t = rng.standard_normal((3, 4, 4))
    assert_allclose((r @ s @ t).flatten(order="F"),
                    np.kron(t.T, r) @ s.flatten(order="F"), atol=1e-12)


def test_bdiag_layout():
    blocks = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    expected = np.array([[1.0, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]])
    assert_array_equal(bdiag(blocks), expected)
    assert_array_equal(bdiag(3.0 * np.ones((1, 1, 1))), [[3.0]])


def test_bdiag_empty_stack():
    # an empty stack, as a network without links has, gives the empty matrix
    assert bdiag(np.zeros((0, 2, 2))).shape == (0, 0)


@pytest.mark.parametrize("k, p", [(1, 1), (3, 1), (4, 2), (6, 5)])
def test_kron_eye_is_numpy_kron_bit_for_bit(k, p):
    """a (x) I_p by the broadcast product has the bytes of np.kron, on
    random entries and on signed zeros, infinities and NaN."""
    rng = np.random.default_rng(k * 10 + p)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -2.5])
    for a in (rng.standard_normal((k, k)), rng.choice(special, size=(k, k))):
        with np.errstate(invalid="ignore"):   # inf * 0 is NaN in both
            got, want = kron_eye(a, p), np.kron(a, np.eye(p))
        assert got.shape == want.shape == (k * p, k * p)
        assert got.tobytes() == want.tobytes()
