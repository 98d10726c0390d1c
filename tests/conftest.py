from dataclasses import dataclass

import numpy as np
import pytest

from drls.analysis import DOUBLING_MAX_SQUARINGS
from drls.estimators import DrlsState
from drls.linalg import bdiag
from drls.topology import laplacian

#: relative tail-error target, and step cap, of the forward covariance iteration
ITERATE_TOL = 1e-11
ITERATE_MAX_STEPS = 500_000

#: distance from 1 within which an eigenvalue of the whole mean transition
#: counts as a unit eigenvalue
FULL_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class FullOperators:
    """The (2Jp, 2Jp) objects of the averaged error system, rebuilt from its
    (Jp, Jp) primitives: R = rh_lam_inv, L = lap_scaled, L^+ = lap_pinv."""

    mean_transition: np.ndarray     # [[-RL, -R], [L, I]]
    inner_transition: np.ndarray    # [U, U], U = [-RL; L L^+]
    data_input: np.ndarray          # [R; 0]


def _full_operators(system):
    r, lap = system.rh_lam_inv, system.lap_scaled
    jp = r.shape[0]
    u = np.vstack([-r @ lap, lap @ system.lap_pinv])
    return FullOperators(
        mean_transition=np.block([[-r @ lap, -r], [lap, np.eye(jp)]]),
        inner_transition=np.hstack([u, u]),
        data_input=np.vstack([r, np.zeros((jp, jp))]),
    )


def _full_link_covariances(system, noise):
    """(2Jp, 2Jp) covariances of the multiplier-exchange and the
    estimate-exchange link noise in the fluctuation state: through [R; 0]
    and through [-R; L^+]."""
    r = system.rh_lam_inv
    b = np.vstack([r, np.zeros_like(r)])
    g = np.vstack([-r, system.lap_pinv])
    return b @ np.diag(noise.r_eta_bar) @ b.T, g @ noise.r_eta_mix @ g.T


def _full_forcing(system, noise):
    """Stationary forcing F of R = A R A^T + F from the whole (2Jp, 2Jp)
    fluctuation transition: the cross covariance with the data noise by a
    2Jp solve of (I - lam A). The package solves a (Jp, Jp) core instead."""
    full = _full_operators(system)
    a, b = full.inner_transition, full.data_input
    n = a.shape[0]
    r_zeps = np.linalg.solve(np.eye(n) - noise.lam * a, noise.lam * (b @ noise.r_eps_inf))
    cross = a @ r_zeps @ b.T
    return (a @ sum(_full_link_covariances(system, noise)) @ a.T
            + b @ noise.r_eps_inf @ b.T + cross + cross.T)


def _full_doubling_solve(system, noise):
    """Stationary covariance by doubling on the whole (2Jp, 2Jp) transition:
    from Q = F, repeat Q <- Q + A Q A^T and A <- A^2 until the added term is
    at round-off. The package doubles on the (Jp, Jp) core and lifts back."""
    a = _full_operators(system).inner_transition
    r_z = _full_forcing(system, noise)
    for _ in range(DOUBLING_MAX_SQUARINGS + 1):
        added = a @ r_z @ a.T
        r_z = r_z + added
        if np.linalg.norm(added) <= np.finfo(np.float64).eps * np.linalg.norm(r_z):
            return 0.5 * (r_z + r_z.T)
        a = a @ a
    pytest.fail(f"full doubling solve did not converge in {DOUBLING_MAX_SQUARINGS} squarings")


def _kron_lyapunov(system, noise):
    """Closed-form stationary covariance: vectorise R = A R A^T + F by column
    stacking and solve (I - A kron A) vec(R) = vec(F). Exact, but O((Jp)^6)
    time and O((Jp)^4) memory, so it serves as an oracle on small systems."""
    a = _full_operators(system).inner_transition
    n = a.shape[0]
    forcing = _full_forcing(system, noise)
    sol = np.linalg.solve(np.eye(n * n) - np.kron(a, a), forcing.flatten(order="F"))
    r_z = sol.reshape((n, n), order="F")
    return 0.5 * (r_z + r_z.T)


def _full_radius(system):
    """Spectral radius of the whole (2Jp, 2Jp) fluctuation transition; the
    package reads it off the symmetric coupling spectrum."""
    return float(np.max(np.abs(np.linalg.eigvals(_full_operators(system).inner_transition))))


@dataclass(frozen=True)
class FullMeanStability:
    """The mean-transition eigenstructure, read off the whole transition."""

    unit_eigen_count: int       # eigenvalues within tol of 1
    max_other_modulus: float    # largest |eigenvalue| outside the unit cluster
    semisimple: bool            # unit eigenvalue has full geometric multiplicity
    left_upper_norm: float      # estimation-error block of the left unit-eigenbasis
    left_null_residual: float   # ||lap_scaled @ multiplier block|| of the same basis

    @property
    def left_vectors_structured(self):
        """Left unit-eigenvectors vanish on the estimation errors and their
        multiplier part lies in the nullspace of the consensus coupling."""
        return self.left_upper_norm < 1e-8 and self.left_null_residual < 1e-8


def _full_mean_stability(system):
    """The mean-transition eigenstructure read off the whole (2Jp, 2Jp)
    transition: its eigenvalues, and its left unit-eigenspace from the SVD
    of the transition less I. The package reads the eigenvalues off the
    symmetric coupling spectrum and takes the rest as given."""
    omega = _full_operators(system).mean_transition
    n = omega.shape[0]
    jp = n // 2
    w = np.linalg.eigvals(omega)
    unit = np.abs(w - 1.0) < FULL_UNIT_TOL
    others = np.abs(w[~unit])
    max_other = float(others.max()) if others.size else 0.0

    u, sv, _ = np.linalg.svd(omega - np.eye(n))
    sv_tol = FULL_UNIT_TOL * max(1.0, float(sv[0]))
    nullity = int(np.sum(sv < sv_tol))
    if nullity:
        # zero-singular-value U columns y satisfy (omega - I)^T y = 0, so
        # they are an orthonormal basis of the left unit-eigenspace
        basis = u[:, n - nullity:]
        upper = float(np.linalg.norm(basis[:jp, :]))
        null_residual = float(np.linalg.norm(system.lap_scaled @ basis[jp:, :]))
    else:
        upper = 0.0
        null_residual = 0.0
    return FullMeanStability(
        unit_eigen_count=int(np.sum(unit)),
        max_other_modulus=max_other,
        semisimple=nullity == int(np.sum(unit)),
        left_upper_norm=upper,
        left_null_residual=null_residual,
    )


def _general_mean_stability_bound(topology, model, lam):
    """The mean-stability bound by a general eigensolve of the nonsymmetric
    bdiag(R_hj^{-1}) (L (x) I_p); the package solves a symmetric form."""
    coupling = bdiag(np.linalg.inv(model.rh)) @ np.kron(laplacian(topology), np.eye(model.p))
    return 4.0 / ((1.0 - lam) * float(np.max(np.abs(np.linalg.eigvals(coupling)))))


def _directed_links(top):
    """The (D,) directed links (owner, peer) in the order of the stream's
    per-link fold: link k is what sensor owner[k] hears from peer[k],
    grouped by owner with peers ascending. D is twice the edge count."""
    return np.nonzero(top.adjacency)


def _dense_link_mix(top, p, c):
    """(Jp, Dp) map from the link noise, stacked over the directed links of
    `_directed_links` (row k = what owner[k] hears from peer[k]), to
    each sensor's aggregate: c/4 times every corruption of its own
    broadcast, less everything it hears. Built link by link; the package
    builds the aggregate's covariance as a weighted (J, J) Laplacian."""
    owner, peer = _directed_links(top)
    mix = np.zeros((top.J * p, owner.size * p))
    for k, (mine, own) in enumerate(zip(owner, peer)):
        cols = slice(k * p, (k + 1) * p)
        # a corruption of sensor peer[k]'s broadcast
        mix[own * p:(own + 1) * p, cols] += c / 4.0 * np.eye(p)
        # what sensor owner[k] hears
        mix[mine * p:(mine + 1) * p, cols] -= c / 4.0 * np.eye(p)
    return mix


def _iterated_lyapunov(system, noise):
    """Stationary covariance by running the covariance recursion forward in
    time from R(0) = 0. The data-noise covariance ramps up as
    r_eps_inf (1 - lam^{2(t+1)}), and its cross covariance with the state is
    stepped alongside, so no closed-form stationary forcing is used: this is
    the oracle for it. Stops once the per-step change, times the geometric
    tail gain, is below ITERATE_TOL relative to the iterate, and fails the
    test if that takes more than ITERATE_MAX_STEPS steps."""
    full = _full_operators(system)
    a, b = full.inner_transition, full.data_input
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

    link_forcing = a @ sum(_full_link_covariances(system, noise)) @ a.T
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


def _advance_one(state, h, x, eta=None, eta_bar=None):
    """`state` after one step on datum (h, x) and its per-sensor link-noise
    sums (None on ideal links), taken as a one-step chunk of ``advance``."""
    chunk = (None if v is None else np.asarray(v)[None] for v in (h, x, eta, eta_bar))
    state.advance(*chunk)
    return state


def _frozen_consensus(local, top, c, iters):
    """Estimates after `iters` consensus rounds on the kernels of `local`
    held still: multipliers start at zero and the estimates at the local
    ones. At lam = 1 a step on zero data leaves `pinv` and `psi` as they
    are, so each ``DrlsState`` step is one consensus round alone."""
    p = local.psi.shape[-1]
    state = DrlsState(top, p, 1.0, c, 1.0)
    state.pinv, state.psi, state.s = local.pinv.copy(), local.psi.copy(), local.s.copy()
    for _ in range(iters):
        _advance_one(state, np.zeros((top.J, p)), np.zeros(top.J))
    return state.s


def _fold_link_noise(top, eta, eta_bar):
    """The per-sensor link-noise sums the estimators read, folded link by
    link from per-link noise (..., D, p), row k what owner[k] hears from
    peer[k] of ``_directed_links``.
    Returns the (..., 2, J, p) sums over each sensor's links of
    eta_k - eta_flip(k), the drift, and of eta_k, drift first as the stream
    lays them out, and the (..., J, p) sums of eta_bar_k. Built link by
    link; the stream draws the sums from their law instead."""
    lead, p = eta.shape[:-2], eta.shape[-1]
    heard = np.zeros(lead + (2, top.J, p))
    heard_bar = np.zeros(lead + (top.J, p))
    for k, (owner, peer) in enumerate(zip(*_directed_links(top))):
        heard[..., :, owner, :] += eta[..., None, k, :]
        # link k is the reverse of a link of `peer`: it corrupts peer's broadcast
        heard[..., 0, peer, :] -= eta[..., k, :]
        heard_bar[..., owner, :] += eta_bar[..., k, :]
    return heard, heard_bar


@pytest.fixture
def full_forcing():
    return _full_forcing


@pytest.fixture
def full_operators():
    return _full_operators


@pytest.fixture
def full_link_covariances():
    return _full_link_covariances


@pytest.fixture
def full_doubling_solve():
    return _full_doubling_solve


@pytest.fixture
def kron_lyapunov():
    return _kron_lyapunov


@pytest.fixture
def full_radius():
    return _full_radius


@pytest.fixture
def full_mean_stability():
    return _full_mean_stability


@pytest.fixture
def general_mean_stability_bound():
    return _general_mean_stability_bound


@pytest.fixture
def directed_links():
    return _directed_links


@pytest.fixture
def dense_link_mix():
    return _dense_link_mix


@pytest.fixture
def iterated_lyapunov():
    return _iterated_lyapunov


@pytest.fixture
def ewlse_centralized():
    return _ewlse_centralized


@pytest.fixture
def advance_one():
    return _advance_one


@pytest.fixture
def frozen_consensus():
    return _frozen_consensus


@pytest.fixture
def fold_link_noise():
    return _fold_link_noise
