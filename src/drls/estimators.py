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
  runs one consensus round on the (possibly noise-corrupted) estimates its
  neighbors broadcast, and re-solves for its estimate. O(p^2) per sensor.
* ``AdmomState`` is the augmented-Lagrangian variant: the estimate update
  solves a dense p x p system whose matrix carries an extra c*deg_j*I
  term, O(p^3) per sensor per step.

The paper keeps one multiplier v_j^{j'} per directed link, but the
estimates read them only through each sensor's imbalance b_j = (1/2)
sum_{j'} (v_j^{j'} - v_{j'}^j), the beta2 of ``analysis``. So the states
carry b (..., J, p), with L the graph Laplacian and sums over each sensor's
links k of the noise it hears on the estimates (eta) and on the multiplier
exchange (eta_bar), flip(k) being link k the other way:

    b <- b + (c/2) L s - (c/4) sum_k (eta_k - eta_flip(k))
    s  = Phi^{-1} (psi - b + (1/2) sum_k eta_bar_k)

``step_inputs`` does the data-only work of data with any leading shape,
such as a chunk's (n, runs), and ``step`` takes one step of it. A fresh
state takes on the leading shape of its first datum by broadcasting, and
each run of a batch follows its own recursion to the bit.
"""

import numpy as np

from .topology import laplacian


def _matvec(mats, vecs):
    """Batched matrix-vector product: (..., p, p) @ (..., p) -> (..., p)."""
    return np.einsum("...ab,...b->...a", mats, vecs)


# ---------------------------------------------------------------------------
# rank-one RLS kernel
# ---------------------------------------------------------------------------

def rls_kernel_step(pinv, psi, h, hx, lam):
    """Absorb one datum per kernel through the rank-one inverse update.

    Matrix-inversion-lemma form of inverting lam*Phi + h h^T given
    pinv = Phi^{-1}: new_pinv = (pinv - (pinv h)(pinv h)^T / (lam + h^T pinv h)) / lam,
    and psi <- lam*psi + hx, where hx = h*x is the regressor times its
    observation. `pinv` (..., p, p) and `psi`, `h` and `hx` (..., p) share
    any leading shape, e.g. (runs, J); returns the new (pinv, psi).
    """
    ph = _matvec(pinv, h)
    den = lam + np.einsum("...a,...a->...", h, ph)
    pinv = (pinv - ph[..., :, None] * ph[..., None, :] / den[..., None, None]) / lam
    return pinv, lam * psi + hx


# ---------------------------------------------------------------------------
# flop cost model (analytic counts; each estimator keeps its per-step total)
# ---------------------------------------------------------------------------

def ama_step_flops(p, degree):
    """Per-sensor per-step arithmetic of the single-time-scale AMA variant.

    Rank-one inverse update 6p^2 + 2p + 1, correlation update 3p, estimate
    solve via the stored inverse 2p^2 + 2p, and, on a sensor with
    neighbors, the imbalance update: (L s)_j at 2p per neighbor, and 3p to
    add it and the noise drift to b. O(p^2).
    """
    return 8 * p * p + 7 * p + 1 + (2 * degree + 3) * p * (degree > 0)


def admom_step_flops(p, degree):
    """Per-sensor per-step arithmetic of the augmented-Lagrangian variant.

    Data-matrix update 3p^2 + p, correlation update 3p, dense p x p solve
    (2/3)p^3 + 2p^2, and, with neighbors, the imbalance update of
    `ama_step_flops` and 5p for c deg_j s_j - (c/2)(L s)_j - b + heard. O(p^3)
    because the extra c*deg*I term rules out rank-one inverse updates.
    """
    return (2 * p ** 3) // 3 + 5 * p * p + 4 * p + (2 * degree + 8) * p * (degree > 0)


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
    """Shared plumbing: batched per-sensor arrays, and (c/2) L."""

    def __init__(self, topology, p, lam, c, delta):
        _check_parameters(lam, c, delta)
        self.lam = lam
        self.c = c
        self.s = np.zeros((topology.J, p))
        self.b = np.zeros((topology.J, p))
        self._half_cl = 0.5 * c * laplacian(topology)
        # weight of the noise on the estimates heard in the estimate's right-hand side
        self._eta_gain = 0.0

    def step_inputs(self, h, x, eta=None, eta_bar=None):
        """`step`'s arguments from h, x and the link-noise sums of
        ``SnapshotStream.draws`` (None on ideal links): h, h x, the
        imbalance's drift (c/4) sum_k (eta_k - eta_flip(k)) and the noise
        the estimate hears, both zero on ideal links."""
        hx = h * x[..., None]
        if eta is None:
            zero = np.broadcast_to(0.0, hx.shape)
            return h, hx, zero, zero
        heard = 0.5 * eta_bar + self._eta_gain * eta[..., 0, :, :]
        return h, hx, (0.25 * self.c) * eta[..., 1, :, :], heard


class DrlsState(_NetworkBase):
    """Single-time-scale distributed RLS (one consensus round per datum)."""

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        self.pinv = np.broadcast_to(delta * np.eye(p), (topology.J, p, p)).copy()
        self.psi = np.zeros((topology.J, p))
        self.step_flops = sum(ama_step_flops(p, int(d)) for d in topology.degrees)

    def step(self, h, hx, drift, heard):
        """One time step of `step_inputs`: absorb datum t+1, then one
        consensus round from the time-t estimates."""
        self.pinv, self.psi = rls_kernel_step(self.pinv, self.psi, h, hx, self.lam)
        self.b = self.b + self._half_cl @ self.s - drift
        self.s = _matvec(self.pinv, self.psi - self.b + heard)
        return self


class AdmomState(_NetworkBase):
    """Augmented-Lagrangian distributed RLS (dense per-step solves).

    Keeps the weighted data matrix directly; the estimate update inverts
    data_matrix + c*deg_j*I every step, so there is no rank-one shortcut.
    Its right-hand side also reads the estimates each sensor hears,
    (A s)_j + sum_k eta_k = deg_j s_j - (L s)_j + sum_k eta_k.
    """

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        self._eta_gain = 0.5 * c
        self.phi = np.broadcast_to(np.eye(p) / delta, (topology.J, p, p)).copy()
        self.psi = np.zeros((topology.J, p))
        self._ridge = c * topology.degrees[:, None, None] * np.eye(p)
        self._c_deg = c * topology.degrees[:, None]
        self.step_flops = sum(admom_step_flops(p, int(d)) for d in topology.degrees)

    def step(self, h, hx, drift, heard):
        self.phi = self.lam * self.phi + h[..., :, None] * h[..., None, :]
        self.psi = self.lam * self.psi + hx
        half_ls = self._half_cl @ self.s
        self.b = self.b + half_ls - drift
        # psi + (c/2) (deg s + A s) - b
        rhs = self.psi + self._c_deg * self.s - half_ls - self.b + heard
        self.s = np.linalg.solve(self.phi + self._ridge, rhs[..., None])[..., 0]
        return self


class LocalRls(DrlsState):
    """Isolated per-sensor RLS (the no-cooperation baseline): the kernel of
    ``DrlsState`` with no exchange, whatever the links carry."""

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        # the AMA step without neighbors: kernel update and estimate only
        self.step_flops = topology.J * ama_step_flops(p, 0)

    def step(self, h, hx, drift, heard):
        self.pinv, self.psi = rls_kernel_step(self.pinv, self.psi, h, hx, self.lam)
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

    def step_inputs(self, h, x, eta=None, eta_bar=None):
        return h, x

    def step(self, h, x):
        h_t = np.swapaxes(h, -1, -2)
        self.phi = self.lam * self.phi + h_t @ h
        self.psi_c = self.lam * self.psi_c + (h_t @ x[..., None])[..., 0]
        self.s_c = np.linalg.solve(self.phi, self.psi_c[..., None])[..., 0]
        return self
