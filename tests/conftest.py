import numpy as np
import pytest

from drls.analysis import _stationary_forcing
from drls.estimators import DrlsState

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


def _ewlse_centralized(regressors, observations, lam, phi0):
    """Exact exponentially weighted LS minimizer over pooled history.

    Parameters
    ----------
    regressors : ndarray
        (T, J, p): regressor of sensor j at sample index tau.
    observations : ndarray
        (T, J) matching observations.
    lam : float
        Forgetting factor; sample tau gets weight lam^(T-1-tau).
    phi0 : float or ndarray
        Ridge matrix (a float means phi0 * I_p), discounted by the same
        factor as the oldest sample. To reproduce a recursive kernel that
        took T steps from pinv(0) = delta*I, pass phi0 = lam * J / delta.

    Returns the (p,) minimizer of
    sum_tau lam^(T-1-tau) sum_j (x_j(tau) - h_j(tau)^T s)^2
    + lam^(T-1) s^T phi0 s.
    """
    hs = np.asarray(regressors, dtype=np.float64)
    xs = np.asarray(observations, dtype=np.float64)
    if hs.ndim != 3 or xs.shape != hs.shape[:2]:
        raise ValueError(
            f"need regressors (T, J, p) and observations (T, J), got {hs.shape} / {xs.shape}"
        )
    t, _, p = hs.shape
    phi0 = np.asarray(phi0, dtype=np.float64)
    if phi0.ndim == 0:
        phi0 = float(phi0) * np.eye(p)
    w = lam ** np.arange(t - 1, -1, -1, dtype=np.float64)
    phi = np.einsum("t,tja,tjb->ab", w, hs, hs) + (w[0] if t else 1.0) * phi0
    b = np.einsum("t,tja,tj->a", w, hs, xs) if t else np.zeros(p)
    return np.linalg.solve(phi, b)


def _frozen_consensus(local, top, c, iters):
    """Estimates after `iters` consensus rounds on the kernels of `local`
    held still: multipliers start at zero and the estimates at the local
    ones. At lam = 1 a step on zero data leaves `pinv` and `psi` as they
    are, so each ``DrlsState`` step is one consensus round alone."""
    p = local.psi.shape[-1]
    state = DrlsState(top, p, 1.0, c, 1.0)
    state.pinv, state.psi, state.s = local.pinv, local.psi, local.s
    h, x = np.zeros((top.J, p)), np.zeros(top.J)
    for _ in range(iters):
        state.step(h, x)
    return state.s


@pytest.fixture
def kron_lyapunov():
    return _kron_lyapunov


@pytest.fixture
def iterated_lyapunov():
    return _iterated_lyapunov


@pytest.fixture
def ewlse_centralized():
    return _ewlse_centralized


@pytest.fixture
def frozen_consensus():
    return _frozen_consensus
