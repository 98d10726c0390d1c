import numpy as np
import pytest

from drls.analysis import _stationary_forcing


def _kron_lyapunov(system, noise):
    """Closed-form stationary covariance: vectorise R = A R A^T + F by column
    stacking and solve (I - A kron A) vec(R) = vec(F). Exact, but O((Jp)^6)
    time and O((Jp)^4) memory, so it serves as an oracle on small systems."""
    a = system.inner_transition
    n = a.shape[0]
    forcing = _stationary_forcing(system, noise)
    sol = np.linalg.solve(np.eye(n * n) - np.kron(a, a), forcing.flatten(order="F"))
    r_z = sol.reshape((n, n), order="F")
    return 0.5 * (r_z + r_z.T)


@pytest.fixture
def kron_lyapunov():
    return _kron_lyapunov
