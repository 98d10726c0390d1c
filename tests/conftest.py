import numpy as np
import pytest

from drls.analysis import _stationary_forcing

#: relative tail-error target, and step cap, of the forward covariance iteration
ITERATE_TOL = 1e-11
ITERATE_MAX_STEPS = 500_000


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


def _iterated_lyapunov(system, noise):
    """Stationary covariance by running the covariance recursion forward in
    time from R(0) = 0. The data-noise covariance ramps up as
    r_eps_inf (1 - lam^{2(t+1)}), and its cross covariance with the state is
    stepped alongside, so no closed-form stationary forcing is used: this is
    the oracle for it. Stops once the per-step change, times the geometric
    tail gain, is below ITERATE_TOL relative to the iterate, and fails the
    test if that takes more than ITERATE_MAX_STEPS steps."""
    a = system.inner_transition
    b = system.data_input
    lam = noise.lam
    n = a.shape[0]
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    if rho >= 1.0:
        pytest.fail(f"covariance recursion cannot converge: spectral radius {rho:.6f}")
    # both the recursion tail and the data-noise ramp decay geometrically
    q2 = max(rho, lam) ** 2
    tail_gain = q2 / (1.0 - q2)

    def r_eps(t):
        return noise.r_eps_inf * (1.0 - lam ** (2 * (t + 1)))

    link_forcing = a @ (noise.r_eta_bar_lam + noise.r_eta_lam) @ a.T
    r_z = np.zeros((n, n))
    r_zeps = np.zeros((n, b.shape[1]))
    for t in range(1, ITERATE_MAX_STEPS + 1):
        r_zeps = lam * (a @ r_zeps) + lam * (b @ r_eps(t - 1))
        cross = a @ r_zeps @ b.T
        r_new = a @ r_z @ a.T + link_forcing + b @ r_eps(t) @ b.T + cross + cross.T
        r_new = 0.5 * (r_new + r_new.T)
        change = float(np.linalg.norm(r_new - r_z))
        r_z = r_new
        if not np.isfinite(change):
            pytest.fail(f"covariance recursion lost finiteness at step {t}")
        if change * tail_gain <= ITERATE_TOL * float(np.linalg.norm(r_z)):
            return r_z
    pytest.fail(f"covariance recursion did not converge in {ITERATE_MAX_STEPS} steps")


@pytest.fixture
def kron_lyapunov():
    return _kron_lyapunov


@pytest.fixture
def iterated_lyapunov():
    return _iterated_lyapunov
