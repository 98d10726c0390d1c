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

Every estimator steps by one call, ``advance(h, x, eta=None, eta_bar=None)``,
on a chunk of n steps, with the link-noise sums as ``SnapshotStream.draws``
gives them (None on ideal links). It returns the (n + 1, ..., J, p)
trajectory of the estimates: row 0 before the chunk, row k after step k.
A state is sized once, to the leading shape of its first chunk (such as
(runs,)), refuses a chunk of another with ValueError, and steps in place;
each run of a batch follows its own recursion to the bit, and a chunk of n
steps gives the bits of n one-step chunks.
"""

import numpy as np

from .topology import laplacian

_MATVEC = "...ab,...b->...a"   # batched (..., p, p) @ (..., p) -> (..., p)


# ---------------------------------------------------------------------------
# rank-one RLS kernel
# ---------------------------------------------------------------------------

def kernel_buffers(pinv_shape):
    """Temporaries of `rls_kernel_step` for kernels of `pinv_shape`: p h,
    its denominator and the outer product, with the views the update reads."""
    ph, den = np.empty(pinv_shape[:-1]), np.empty(pinv_shape[:-2])
    return ph, den, np.empty(pinv_shape), ph[..., :, None], ph[..., None, :], den[..., None, None]


def rls_kernel_step(pinv, psi, h, hx, lam, work=None):
    """Absorb one datum per kernel through the rank-one inverse update, in place.

    Matrix-inversion-lemma form of inverting lam*Phi + h h^T given
    pinv = Phi^{-1}: pinv <- (pinv - (pinv h)(pinv h)^T / (lam + h^T pinv h)) / lam,
    and psi <- lam*psi + hx, where hx = h*x is the regressor times its
    observation. `pinv` (..., p, p) and `psi` (..., p) are overwritten;
    `h` and `hx` (..., p) broadcast against them. `work` is the
    `kernel_buffers(pinv.shape)` to reuse; without it they are allocated.
    """
    ph, den, outer, ph_col, ph_row, den_b = work or kernel_buffers(pinv.shape)
    np.einsum(_MATVEC, pinv, h, out=ph)
    np.einsum("...a,...a->...", h, ph, out=den)
    den += lam
    np.multiply(ph_col, ph_row, out=outer)
    outer /= den_b
    pinv -= outer
    pinv /= lam
    psi *= lam
    psi += hx


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

class _Estimator:
    """An estimator's state, sized once, to the leading shape of its first chunk."""

    _lead = None     # leading shape the state and temporaries are sized to

    def __init__(self, lam, c, delta):
        """Refuse the parameters no estimator can run with (NaN included)."""
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"forgetting factor must lie in (0, 1], got {lam}")
        if not c >= 0:
            raise ValueError(f"consensus step c must be >= 0, got {c}")
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.lam = lam

    def _start(self, h):
        """The trajectory of a chunk of regressors `h` (n, ..., J, p), row 0
        holding the estimates before it. The first chunk sizes the state
        arrays `_state` to its leading shape and makes the temporaries; a
        chunk of another leading shape is refused."""
        lead = h.shape[1:-2]
        if self._lead is None:
            for name in self._state:
                value = getattr(self, name)
                setattr(self, name, np.broadcast_to(value, lead + value.shape).copy())
            self._lead = lead
            self._make_buffers()
        elif lead != self._lead:
            raise ValueError(f"{type(self).__name__} is sized to leading shape "
                             f"{self._lead}, got a chunk of leading shape {lead}")
        traj = np.empty((len(h) + 1,) + self.s.shape)
        traj[0] = self.s
        return traj

    def _make_buffers(self):
        """Make the temporaries, once the state is sized."""

    def _finish(self, traj):
        """`traj`, after keeping its last estimates as the state's own copy."""
        self.s[...] = traj[-1]
        return traj


class _NetworkBase(_Estimator):
    """Shared plumbing of the consensus recursions: (c/2) L and the link terms."""

    #: the state arrays `_start` sizes, each with no leading axes until then
    _state = ("s", "b", "psi")

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(lam, c, delta)
        self.c = c
        self.s = np.zeros((topology.J, p))
        self.b = np.zeros((topology.J, p))
        self.psi = np.zeros((topology.J, p))
        self._half_cl = 0.5 * c * laplacian(topology)

    def _link_terms(self, h, eta, eta_bar):
        """The imbalance's drift (c/4) sum_k (eta_k - eta_flip(k)) and the
        heard (1/2) sum_k eta_bar_k; on ideal links (None), zeros of h's shape."""
        if eta is None:
            zero = np.broadcast_to(0.0, h.shape)
            return zero, zero
        return (0.25 * self.c) * eta[..., 1, :, :], 0.5 * eta_bar


class DrlsState(_NetworkBase):
    """Single-time-scale distributed RLS (one consensus round per datum)."""

    _state = _NetworkBase._state + ("pinv",)

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        self.pinv = np.broadcast_to(delta * np.eye(p), (topology.J, p, p)).copy()
        self.step_flops = sum(ama_step_flops(p, int(d)) for d in topology.degrees)

    def _make_buffers(self):
        self._work = kernel_buffers(self.pinv.shape)
        self._ls = np.empty(self.s.shape)
        self._rhs = np.empty(self.s.shape)

    def advance(self, h, x, eta=None, eta_bar=None):
        """Step through a chunk of data and link-noise sums; each step absorbs
        datum t+1, then runs one consensus round from the time-t estimates."""
        traj = self._start(h)
        drift, heard = self._link_terms(h, eta, eta_bar)
        pinv, psi, b, ls, rhs = self.pinv, self.psi, self.b, self._ls, self._rhs
        for h_k, hx_k, drift_k, heard_k, s, s_next in zip(h, h * x[..., None], drift, heard,
                                                          traj[:-1], traj[1:]):
            rls_kernel_step(pinv, psi, h_k, hx_k, self.lam, self._work)
            np.matmul(self._half_cl, s, out=ls)
            b += ls
            b -= drift_k
            np.subtract(psi, b, out=rhs)
            rhs += heard_k
            np.einsum(_MATVEC, pinv, rhs, out=s_next)
        return self._finish(traj)


class AdmomState(_NetworkBase):
    """Augmented-Lagrangian distributed RLS (dense per-step solves).

    Keeps the weighted data matrix directly; the estimate update inverts
    data_matrix + c*deg_j*I every step, so there is no rank-one shortcut.
    Its right-hand side also reads the estimates each sensor hears,
    (A s)_j + sum_k eta_k = deg_j s_j - (L s)_j + sum_k eta_k.
    """

    _state = _NetworkBase._state + ("phi",)

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        self.phi = np.broadcast_to(np.eye(p) / delta, (topology.J, p, p)).copy()
        self._ridge = c * topology.degrees[:, None, None] * np.eye(p)
        self._c_deg = c * topology.degrees[:, None]
        self.step_flops = sum(admom_step_flops(p, int(d)) for d in topology.degrees)

    def _make_buffers(self):
        self._outer = np.empty(self.phi.shape)
        self._ls = np.empty(self.s.shape)
        self._rhs = np.empty(self.s.shape)

    def advance(self, h, x, eta=None, eta_bar=None):
        traj = self._start(h)
        drift, heard = self._link_terms(h, eta, eta_bar)
        if eta is not None:
            heard = heard + (0.5 * self.c) * eta[..., 0, :, :]
        phi, psi, b, ls, rhs, outer = self.phi, self.psi, self.b, self._ls, self._rhs, self._outer
        for h_k, hx_k, drift_k, heard_k, s, s_next in zip(h, h * x[..., None], drift, heard,
                                                          traj[:-1], traj[1:]):
            np.multiply(h_k[..., :, None], h_k[..., None, :], out=outer)
            phi *= self.lam
            phi += outer
            psi *= self.lam
            psi += hx_k
            np.matmul(self._half_cl, s, out=ls)
            b += ls
            b -= drift_k
            # psi + (c/2) (deg s + A s) - b
            np.multiply(self._c_deg, s, out=rhs)
            np.add(psi, rhs, out=rhs)
            rhs -= ls
            rhs -= b
            rhs += heard_k
            s_next[...] = np.linalg.solve(phi + self._ridge, rhs[..., None])[..., 0]
        return self._finish(traj)


class LocalRls(DrlsState):
    """Isolated per-sensor RLS (the no-cooperation baseline): the kernel of
    ``DrlsState`` with no exchange, whatever the links carry."""

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(topology, p, lam, c, delta)
        # the AMA step without neighbors: kernel update and estimate only
        self.step_flops = topology.J * ama_step_flops(p, 0)

    def advance(self, h, x, eta=None, eta_bar=None):
        traj = self._start(h)
        for h_k, hx_k, s_next in zip(h, h * x[..., None], traj[1:]):
            rls_kernel_step(self.pinv, self.psi, h_k, hx_k, self.lam, self._work)
            np.einsum(_MATVEC, self.pinv, self.psi, out=s_next)
        return self._finish(traj)


class CentralizedRls(_Estimator):
    """All data pooled each step; the consensus benchmark trajectory. Every
    sensor holds the common estimate, so `s` repeats it along the sensor axis."""

    _state = ("phi", "psi_c", "s")

    def __init__(self, topology, p, lam, c, delta):
        super().__init__(lam, c, delta)
        self.phi = (topology.J / delta) * np.eye(p)
        self.psi_c = np.zeros(p)
        self.s = np.zeros((topology.J, p))
        self.step_flops = centralized_step_flops(p, topology.J)

    def advance(self, h, x, eta=None, eta_bar=None):
        """Step through a chunk of pooled data, which the links do not touch;
        returns the trajectory of the common estimate, held at every sensor."""
        traj = self._start(h)
        for h_k, x_k, s_next in zip(h, x, traj[1:]):
            h_t = np.swapaxes(h_k, -1, -2)
            self.phi = self.lam * self.phi + h_t @ h_k
            self.psi_c = self.lam * self.psi_c + (h_t @ x_k[..., None])[..., 0]
            s_next[...] = np.linalg.solve(self.phi, self.psi_c[..., None])[..., None, :, 0]
        return self._finish(traj)
