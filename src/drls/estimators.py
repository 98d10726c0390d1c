"""
Recursive least-squares estimators over a sensor network.

All variants minimize the same exponentially weighted LS cost with
forgetting factor ``lam`` and a vanishing ridge term: the per-sensor data
matrix after n steps is sum_{tau=1..n} lam^(n-tau) h h^T + lam^n/delta I,
realized by initializing the inverse at delta*I before any datum arrives.

* ``CentralizedRls`` pools every sensor's datum each step (the benchmark
  the distributed schemes try to match).
* ``LocalRls`` runs an isolated RLS per sensor (no cooperation).
* ``DrlsState`` is the single-time-scale distributed RLS: per step each
  sensor absorbs its new datum through a rank-one inverse update, then
  runs one consensus round: it broadcasts its estimate, updates one
  price/multiplier per neighbor from the (possibly noise-corrupted)
  received estimates, exchanges the multipliers, and re-solves for its
  estimate. O(p^2) per sensor per step.
* ``AdmomState`` is the augmented-Lagrangian variant: same multiplier
  recursion, but the estimate update solves a dense p x p system whose
  matrix carries an extra c*deg_j*I term, O(p^3) per sensor per step.
* ``drls_batch_ama`` freezes the data at one instant and repeats the
  ``DrlsState`` consensus round to convergence (the two-time-scale limit);
  with ideal links it converges to the centralized solution for small
  enough c.

Per-link quantities follow the topology's directed-link table: row k of a
(D, p) array belongs to ``link_owner[k]`` and concerns its neighbor
``link_peer[k]``. Noise arrays passed to ``step`` use the same layout
(row k = what owner k actually receives on that link).

``step`` takes data with any leading shape, such as a runs axis: h
(..., J, p), x (..., J) and noise (..., D, p). A fresh state holds one
unbatched copy and takes on the leading shape of its first datum by
broadcasting, so each run of a batch follows its own recursion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

#: growth factor over a 100-iteration window that trips divergence watchdogs
WATCHDOG_FACTOR = 10.0
WATCHDOG_WINDOW = 100


def _matvec(mats, vecs):
    """Batched matrix-vector product: (..., p, p) @ (..., p) -> (..., p)."""
    return np.einsum("...ab,...b->...a", mats, vecs)


# ---------------------------------------------------------------------------
# rank-one RLS kernel
# ---------------------------------------------------------------------------

def rls_kernel_step(pinv, psi, h, x, lam):
    """Absorb one datum per kernel through the rank-one inverse update.

    Matrix-inversion-lemma form of inverting lam*Phi + h h^T given
    pinv = Phi^{-1}: new_pinv = (pinv - (pinv h)(pinv h)^T / (lam + h^T pinv h)) / lam,
    and psi <- lam*psi + h*x. `pinv` (..., p, p), `psi` and `h` (..., p)
    and `x` (...) share any leading shape, e.g. (runs, J); returns the new
    (pinv, psi).
    """
    ph = _matvec(pinv, h)
    den = lam + np.einsum("...a,...a->...", h, ph)
    pinv = (pinv - ph[..., :, None] * ph[..., None, :] / den[..., None, None]) / lam
    return pinv, lam * psi + h * x[..., None]


def ewlse_centralized(regressors, observations, lam, phi0):
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


# ---------------------------------------------------------------------------
# flop cost model (analytic counts; each estimator keeps its per-step total)
# ---------------------------------------------------------------------------

def ama_step_flops(p, degree):
    """Per-sensor per-step arithmetic of the single-time-scale AMA variant.

    Rank-one inverse update 6p^2 + 2p + 1, correlation update 3p, estimate
    solve via the stored inverse 2p^2 + 2p, plus 7p per neighbor for the
    multiplier update and aggregation. O(p^2).
    """
    return 8 * p * p + 7 * p + 1 + 7 * p * degree


def admom_step_flops(p, degree):
    """Per-sensor per-step arithmetic of the augmented-Lagrangian variant.

    Data-matrix update 3p^2 + p, correlation update 3p, dense p x p solve
    (2/3)p^3 + 2p^2, plus 9p per neighbor for the estimate/multiplier
    sums. O(p^3) because the extra c*deg*I term rules out rank-one
    inverse updates.
    """
    return (2 * p ** 3) // 3 + 5 * p * p + 4 * p + 9 * p * degree


def centralized_step_flops(p, j):
    """Per-step arithmetic of the pooled estimator over j sensors.

    Data-matrix update: j outer-product accumulations 2jp^2 plus the
    forgetting scale 2p^2; correlation update 2jp + 2p; dense p x p solve
    (2/3)p^3 + 2p^2. O(jp^2 + p^3), all at the fusion center.
    """
    return (2 * p ** 3) // 3 + 4 * p * p + 2 * p + 2 * j * p * (p + 1)


# ---------------------------------------------------------------------------
# network estimators
# ---------------------------------------------------------------------------

def _check_parameters(lam, c, delta):
    """Refuse the parameters no estimator can run with (NaN included)."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1], got {lam}")
    if not c >= 0:
        raise ValueError(f"consensus step c must be >= 0, got {c}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")


class _NetworkBase:
    """Shared plumbing: batched per-sensor arrays plus the link tables."""

    def __init__(self, topology, p, lam, c, delta):
        _check_parameters(lam, c, delta)
        self.topology = topology
        self.p = p
        self.lam = lam
        self.c = c
        self.s = np.zeros((topology.J, p))
        self.v = np.zeros((topology.n_links, p))

    def _exchange(self, eta, eta_bar):
        """Multiplier recursion from broadcast estimates; returns what each
        owner aggregates from its own and its neighbors' multipliers."""
        top = self.topology
        recv_s = self.s.take(top.link_peer, axis=-2)
        if eta is not None:
            recv_s = recv_s + eta
        v_new = self.v + 0.5 * self.c * (self.s.take(top.link_owner, axis=-2) - recv_s)
        recv_v = v_new.take(top.link_flip, axis=-2)
        if eta_bar is not None:
            recv_v = recv_v + eta_bar
        return recv_s, v_new, recv_v

    def _persensor_sum(self, per_link):
        """Sum a (..., D, p) per-link array into (..., J, p) per-owner totals."""
        if self.topology.n_links == 0:
            return np.zeros((self.topology.J, self.p))
        return np.add.reduceat(per_link, self.topology.link_start[:-1], axis=-2)

    def multiplier_imbalance(self):
        """Largest violation of the pairwise antisymmetry v_ij = -v_ji.

        Exactly zero for all time under ideal links (each update adds
        opposite quantities to the two directions of a link); receiver
        noise makes it drift.
        """
        if self.topology.n_links == 0:
            return 0.0
        return float(np.abs(self.v + self.v.take(self.topology.link_flip, axis=-2)).max())


class DrlsState(_NetworkBase):
    """Single-time-scale distributed RLS (one consensus round per datum)."""

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        self.pinv = np.broadcast_to(delta * np.eye(p), (topology.J, p, p)).copy()
        self.psi = np.zeros((topology.J, p))
        self.step_flops = sum(ama_step_flops(p, int(d)) for d in topology.degrees)

    def step(self, h, x, eta=None, eta_bar=None):
        """One time step: absorb datum t+1, then one consensus round.

        `h` (..., J, p) and `x` (..., J) are the new snapshot; `eta` /
        `eta_bar` are (..., D, p) receiver-noise arrays for the estimate and
        multiplier exchanges (None = ideal links).
        """
        self.pinv, self.psi = rls_kernel_step(self.pinv, self.psi, h, x, self.lam)
        self._consensus(eta, eta_bar)
        return self

    def _consensus(self, eta=None, eta_bar=None):
        """Exchange the time-t estimates and multipliers, then re-solve the
        estimates from the kernel state. The exchange reads neither `pinv`
        nor `psi`, so it sees the same values before or after a datum."""
        _, v_new, recv_v = self._exchange(eta, eta_bar)
        self.s = _matvec(self.pinv, self.psi - 0.5 * self._persensor_sum(v_new - recv_v))
        self.v = v_new


class AdmomState(_NetworkBase):
    """Augmented-Lagrangian distributed RLS (dense per-step solves).

    Keeps the weighted data matrix directly; the estimate update inverts
    data_matrix + c*deg_j*I every step, so there is no rank-one shortcut.
    """

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        self.phi = np.broadcast_to(np.eye(p) / delta, (topology.J, p, p)).copy()
        self.psi = np.zeros((topology.J, p))
        self._ridge = c * self.topology.degrees[:, None, None] * np.eye(p)
        self.step_flops = sum(admom_step_flops(p, int(d)) for d in topology.degrees)

    def step(self, h, x, eta=None, eta_bar=None):
        top = self.topology
        recv_s, v_new, recv_v = self._exchange(eta, eta_bar)
        self.phi = self.lam * self.phi + h[..., :, None] * h[..., None, :]
        self.psi = self.lam * self.psi + h * x[..., None]
        # own estimate plus each received one, summed over neighbors
        nbr = top.degrees[:, None] * self.s + self._persensor_sum(recv_s)
        rhs = self.psi + 0.5 * self.c * nbr - 0.5 * self._persensor_sum(v_new - recv_v)
        self.s = np.linalg.solve(self.phi + self._ridge, rhs[..., None])[..., 0]
        self.v = v_new
        return self


class LocalRls(DrlsState):
    """Isolated per-sensor RLS (the no-cooperation baseline): the kernel of
    ``DrlsState`` with no exchange, whatever the links carry."""

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        # the AMA step without neighbors: kernel update and estimate only
        self.step_flops = topology.J * ama_step_flops(p, 0)

    def step(self, h, x, eta=None, eta_bar=None):
        self.pinv, self.psi = rls_kernel_step(self.pinv, self.psi, h, x, self.lam)
        self.s = _matvec(self.pinv, self.psi)
        return self


class CentralizedRls:
    """All data pooled each step; the consensus benchmark trajectory."""

    def __init__(self, topology, p, lam, c, delta):
        _check_parameters(lam, c, delta)
        self.topology = topology
        self.p = p
        self.lam = lam
        self.phi = (topology.J / delta) * np.eye(p)
        self.psi_c = np.zeros(p)
        self.s_c = np.zeros(p)
        self.step_flops = centralized_step_flops(p, topology.J)

    @property
    def s(self):
        j_p = (self.topology.J, self.p)
        return np.broadcast_to(self.s_c[..., None, :], self.s_c.shape[:-1] + j_p)

    def step(self, h, x, eta=None, eta_bar=None):
        h_t = np.swapaxes(h, -1, -2)
        self.phi = self.lam * self.phi + h_t @ h
        self.psi_c = self.lam * self.psi_c + (h_t @ x[..., None])[..., 0]
        self.s_c = np.linalg.solve(self.phi, self.psi_c[..., None])[..., 0]
        return self


# ---------------------------------------------------------------------------
# batch consensus mode
# ---------------------------------------------------------------------------

@dataclass
class BatchConsensusResult:
    s: np.ndarray              # (J, p) estimates after the final iteration
    iterations: int
    disagreement: float        # max over links of ||s_i - s_j|| at exit
    history: np.ndarray        # per-iteration disagreement trace


def drls_batch_ama(pinv, psi, topology, c, iters, tol=None):
    """Repeat the ``DrlsState`` consensus round with the data frozen.

    `pinv` (J, p, p) and `psi` (J, p) are the per-sensor kernel states at
    the frozen instant; multipliers start at zero and the estimates at the
    local ones, pinv @ psi. Stops early once the maximum link
    disagreement drops to `tol` (when given). Raises DivergenceError if
    the disagreement grows 10x over any 100-iteration window.

    With ideal links and c inside its (topology-dependent) convergence
    range, the iterates approach the pooled EWLS solution.
    """
    if iters < 0:
        raise ValueError(f"iteration count must be >= 0, got {iters}")
    if c <= 0:
        raise ValueError(f"consensus step c must be positive, got {c}")
    # lam and delta shape only kernel updates, which a frozen state never takes
    state = DrlsState(topology, np.shape(psi)[-1], 1.0, c, 1.0)
    state.pinv = np.asarray(pinv, dtype=np.float64)
    state.psi = np.asarray(psi, dtype=np.float64)
    state.s = _matvec(state.pinv, state.psi)
    owner, peer = topology.link_owner, topology.link_peer

    def disagreement(est):
        if topology.n_links == 0:
            return 0.0
        return float(np.max(np.linalg.norm(est[owner] - est[peer], axis=1)))

    history = []
    d = disagreement(state.s)
    k = 0
    for k in range(1, iters + 1):
        state._consensus()
        d = disagreement(state.s)
        history.append(d)
        if (
            k > WATCHDOG_WINDOW
            and d > WATCHDOG_FACTOR * history[k - 1 - WATCHDOG_WINDOW]
            and d > 1e-12
        ):
            raise DivergenceError(
                f"batch consensus diverging: disagreement {d:.3e} at iteration {k} "
                f"is over {WATCHDOG_FACTOR:.0f}x its value {WATCHDOG_WINDOW} iterations ago"
            )
        if tol is not None and d <= tol:
            break
    return BatchConsensusResult(
        s=state.s, iterations=k, disagreement=d, history=np.asarray(history)
    )
