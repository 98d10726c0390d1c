"""
Sensor observation models and seeded snapshot streams.

Each sensor j observes x_j(t) = h_j(t)^T s0 + eps_j(t) with its own
regressor covariance R_hj and observation-noise variance. Two regressor
kinds are supported:

* ``iid_gaussian``: h_j(t) drawn i.i.d. Gaussian(0, R_hj) across time.
* ``ar1_shift``: shift-structure regressors built from one scalar AR(1)
  process per sensor, h_j(t) = [h_j(t), h_j(t-1), ..., h_j(t-p+1)], with
  h_j(t) = (1-rho)*beta_j*h_j(t-1) + sqrt(rho)*omega_j(t) and uniform
  driving noise of variance sigma2_omega_j. The model carries the exact
  stationary autocovariance (Toeplitz) so the analysis module can use it.

Inter-sensor links add receiver-side noise with per-receiver covariance
R_eta_j, applied to both the estimate exchange and the multiplier exchange
(independent draws). Streams are deterministic per seed and keep one child
generator per noise kind, scaled per sensor after the unit-variance draws,
so changing one sensor's noise level or disabling a noise source perturbs
no other draw. Steps are drawn a chunk at a time; the byte budget changes no byte.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError

REGRESSOR_KINDS = ("iid_gaussian", "ar1_shift")

#: scalar AR(1) steps taken before t = 1 so streams start near-stationary
AR_WARMUP_STEPS = 200


def ar_stationary_covariance(rho, beta, sigma2_omega, p):
    """Exact stationary covariance of a shift-structure AR(1) regressor.

    For h(t) = a h(t-1) + sqrt(rho) omega(t) with a = (1-rho)*beta and
    Var(omega) = sigma2_omega, the scalar process has stationary variance
    rho*sigma2_omega / (1 - a^2) and lag-k autocovariance var * a^k; the
    regressor covariance is the p x p Toeplitz matrix of those lags.
    """
    a = (1.0 - rho) * beta
    if not abs(a) < 1.0:
        raise ModelError(f"AR coefficient (1-rho)*beta = {a} is not stable")
    var = rho * sigma2_omega / (1.0 - a * a)
    lags = np.arange(p)
    return var * a ** np.abs(lags[:, None] - lags[None, :])


def _check_spd(m, name):
    if not np.allclose(m, m.T, atol=1e-12):
        raise ModelError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ModelError(f"{name} is not positive definite")


def _apply_factors(factors, z):
    """Per-row factors (K, p, p) applied to draws z (..., K, p). The factors
    are copied out to z's leading shape first: einsum over a broadcast
    operand takes several times longer, for the same bits."""
    full = np.broadcast_to(factors, z.shape + z.shape[-1:]).copy()
    return np.einsum("...ab,...b->...a", full, z)


def _psd_factor(m, name):
    """Symmetric square root of a PSD matrix (handles exact zeros)."""
    if not (np.isfinite(m).all() and np.allclose(m, m.T, atol=1e-12)):
        raise ModelError(f"{name} must be finite and symmetric")
    w, v = np.linalg.eigh(m)
    floor = -1e-10 * max(1.0, float(np.max(np.abs(w))))
    if (w < floor).any():
        raise ModelError(f"{name} is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


@dataclass(frozen=True)
class SensorEnsembleModel:
    """Per-sensor signal model shared by all Monte Carlo runs.

    Attributes
    ----------
    p : int
        Regressor length.
    s0 : ndarray
        (p,) common parameter vector being estimated.
    rh : ndarray
        (J, p, p) regressor covariances (draw covariance for iid, exact
        stationary covariance for the AR kind).
    sigma2_eps : ndarray
        (J,) observation-noise variances.
    r_eta : ndarray
        (J, p, p) per-receiver link-noise covariances, used for both the
        estimate and the multiplier exchange.
    regressor_kind : str
        One of ``iid_gaussian`` / ``ar1_shift``.
    ar_rho, ar_beta, ar_sigma2_omega
        AR parameters (``ar1_shift`` only).
    """

    p: int
    s0: np.ndarray
    rh: np.ndarray
    sigma2_eps: np.ndarray
    r_eta: np.ndarray
    regressor_kind: str
    ar_rho: float | None = None
    ar_beta: np.ndarray | None = None
    ar_sigma2_omega: np.ndarray | None = None

    def __post_init__(self):
        if self.regressor_kind not in REGRESSOR_KINDS:
            raise ModelError(f"unknown regressor kind {self.regressor_kind!r}")
        if self.p < 1:
            raise ModelError(f"regressor length must be >= 1, got {self.p}")
        j = self.sigma2_eps.shape[0]
        if self.s0.shape != (self.p,):
            raise ModelError(f"s0 must have shape ({self.p},), got {self.s0.shape}")
        if not np.isfinite(self.s0).all():
            raise ModelError("s0 must be finite")
        if self.rh.shape != (j, self.p, self.p):
            raise ModelError(f"rh must have shape ({j}, {self.p}, {self.p})")
        if not np.isfinite(self.rh).all():
            raise ModelError("rh must be finite")
        if self.r_eta.shape != (j, self.p, self.p):
            raise ModelError(f"r_eta must have shape ({j}, {self.p}, {self.p})")
        if not (np.isfinite(self.sigma2_eps) & (self.sigma2_eps >= 0)).all():
            raise ModelError("observation-noise variances must be finite and >= 0")
        for k in range(j):
            _check_spd(self.rh[k], f"rh[{k}]")
            _psd_factor(self.r_eta[k], f"r_eta[{k}]")
        if self.regressor_kind == "ar1_shift":
            if self.ar_rho is None or self.ar_beta is None or self.ar_sigma2_omega is None:
                raise ModelError("ar1_shift needs ar_rho, ar_beta and ar_sigma2_omega")
            for name in ("ar_beta", "ar_sigma2_omega"):
                shape = np.shape(getattr(self, name))
                if shape != (j,):
                    raise ModelError(f"{name} must have shape ({j},), got {shape}")
            if not 0.0 < self.ar_rho < 1.0:
                raise ModelError(f"ar_rho must lie in (0, 1), got {self.ar_rho}")
            if not ((0 <= self.ar_beta) & (self.ar_beta <= 1)).all():
                raise ModelError("ar_beta entries must lie in [0, 1]")
            if not (np.isfinite(self.ar_sigma2_omega) & (self.ar_sigma2_omega > 0)).all():
                raise ModelError("ar_sigma2_omega entries must be finite and positive")

    @property
    def J(self):
        return self.sigma2_eps.shape[0]

    def with_link_noise(self, enabled):
        """Copy of the model with link noise kept or zeroed."""
        return replace(self, r_eta=self.r_eta if enabled else np.zeros_like(self.r_eta))


def iid_scenario(j, p, seed, sigma2_eta=0.1, rh=None, sigma2_eps=None):
    """Gaussian-regressor benchmark model.

    Parameters
    ----------
    j, p : int
        Sensor count and regressor length.
    seed : int
        Spatial-profile seed (draws the default observation-noise profile).
    sigma2_eta : float
        Link-noise variance; R_eta_j = sigma2_eta * I_p at every receiver.
    rh : None, float or ndarray
        None = identity covariance at every sensor; a float scales the
        identity; a (J, p, p) array is used as given.
    sigma2_eps : None, float or ndarray
        None = 1e-3 * U[0,1) per sensor (drawn from `seed`); a float is a
        common variance; a (J,) array is per sensor.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(size=j)
    if sigma2_eps is None:
        eps = 1e-3 * alpha
    else:
        eps = np.broadcast_to(np.asarray(sigma2_eps, dtype=np.float64), (j,)).copy()
    if rh is None:
        rh = 1.0
    if np.ndim(rh) == 0:
        rh = np.broadcast_to(float(rh) * np.eye(p), (j, p, p)).copy()
    else:
        rh = np.asarray(rh, dtype=np.float64)
    r_eta = np.broadcast_to(sigma2_eta * np.eye(p), (j, p, p)).copy()
    return SensorEnsembleModel(
        p=p, s0=np.ones(p), rh=rh, sigma2_eps=eps, r_eta=r_eta,
        regressor_kind="iid_gaussian",
    )


def ar_scenario(j, seed, sigma2_eta=0.1):
    """AR(1) shift-structure benchmark model (p = 4).

    Per-sensor profiles drawn from `seed`, in this order: alpha, beta,
    gamma, each U[0,1). Observation noise is 1e-3*alpha_j, the AR memory
    coefficient is beta_j with pole rho = 0.5, and the uniform driving
    noise has variance 2*gamma_j. Every receiver gets link-noise
    covariance sigma2_eta * I_4.
    """
    p = 4
    rho = 0.5
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(size=j)
    beta = rng.uniform(size=j)
    gamma = rng.uniform(size=j)
    sigma2_omega = 2.0 * gamma
    # driving noise must be nondegenerate for the stationary covariance
    sigma2_omega = np.maximum(sigma2_omega, 1e-8)
    rh = np.stack([
        ar_stationary_covariance(rho, beta[k], sigma2_omega[k], p) for k in range(j)
    ])
    r_eta = np.broadcast_to(sigma2_eta * np.eye(p), (j, p, p)).copy()
    return SensorEnsembleModel(
        p=p, s0=np.ones(p), rh=rh, sigma2_eps=1e-3 * alpha, r_eta=r_eta,
        regressor_kind="ar1_shift", ar_rho=rho, ar_beta=beta,
        ar_sigma2_omega=sigma2_omega,
    )


#: bytes of one draw array (regressors or one link-noise kind) per chunk:
#: bounds the draw buffers and changes no draw
DRAW_CHUNK_BYTES = 128 * 1024

# each run's child generators, in spawn order
_REG, _EPS, _ETA, _ETA_BAR = range(4)


class SnapshotStream:
    """Seeded source of regressors, observations, and link-noise draws for
    a block of Monte Carlo runs.

    Run r of the block is seeded with ``seeds[r]``. Its seed sequence spawns
    one child generator per draw kind (regressors, observation noise,
    estimate-exchange noise, multiplier-exchange noise), and each kind is
    drawn in time order, so a run's draws depend neither on the other runs
    of the block nor on how many steps one call draws.
    """

    def __init__(self, model, topology, seeds):
        if model.J != topology.J:
            raise ModelError(
                f"model has {model.J} sensors but topology has {topology.J}"
            )
        self.model = model
        self.topology = topology
        self._rngs = [
            [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
            for seed in seeds
        ]
        self.runs = len(self._rngs)

        self._sigma_eps = np.sqrt(model.sigma2_eps)
        if model.regressor_kind == "iid_gaussian":
            self._chol_rh = np.linalg.cholesky(model.rh)
        else:
            self._ar_a = (1.0 - model.ar_rho) * model.ar_beta
            self._ar_gain = np.sqrt(model.ar_rho)
            self._ar_sigma = np.sqrt(model.ar_sigma2_omega)
            self._buf = np.zeros((self.runs, model.J, model.p))
            for n in self._chunks(max(AR_WARMUP_STEPS, model.p)):
                self._regressors(n)

        self.link_noise_active = bool(np.any(model.r_eta))
        if self.link_noise_active:
            factors = np.stack([
                _psd_factor(model.r_eta[k], f"r_eta[{k}]") for k in range(model.J)
            ])
            # what link k carries is heard by its owner
            self._eta_factor = factors[topology.link_owner]

    def _chunks(self, total):
        """Step counts covering `total` steps, DRAW_CHUNK_BYTES per draw array."""
        row = 8 * self.runs * self.model.p * max(self.model.J, self.topology.n_links)
        size = max(1, DRAW_CHUNK_BYTES // row)
        for start in range(0, total, size):
            yield min(size, total - start)

    def _per_run(self, kind, shape, fill=lambda g, out: g.standard_normal(out=out)):
        """Draws of `shape` (n, ...) from every run's `kind` generator, as
        (n, runs, ...): ``fill(generator, out)`` fills one run's slice of one buffer."""
        buf = np.empty((self.runs,) + shape)
        for rngs, out in zip(self._rngs, buf):
            fill(rngs[kind], out)
        return np.moveaxis(buf, 0, 1).copy()

    def _regressors(self, n):
        """Regressors of the next `n` steps, (n, runs, J, p)."""
        m = self.model
        if m.regressor_kind == "iid_gaussian":
            return _apply_factors(self._chol_rh, self._per_run(_REG, (n, m.J, m.p)))
        omega = self._ar_sigma * self._per_run(_REG, (n, m.J), lambda g, out: np.copyto(
            out, g.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=out.shape)))
        h = np.empty((n, self.runs, m.J, m.p))
        buf = self._buf
        for k in range(n):
            h[k, ..., 0] = self._ar_a * buf[..., 0] + self._ar_gain * omega[k]
            h[k, ..., 1:] = buf[..., :-1]
            buf = h[k]
        self._buf = buf
        return h

    def draws(self, n):
        """Draws of the next `n` steps for every run of the block.

        Returns regressors h (n, runs, J, p), observations x (n, runs, J),
        and the receiver noise on the estimate and on the multiplier
        exchange, each (n, runs, D, p), or None on ideal links. Row k of a
        noise array is what sensor ``link_owner[k]`` hears on the broadcast
        from ``link_peer[k]``.
        """
        m = self.model
        h = self._regressors(n)
        x = h @ m.s0 + self._sigma_eps * self._per_run(_EPS, (n, m.J))
        if not self.link_noise_active:
            return h, x, None, None
        shape = (n, self.topology.n_links, m.p)
        return h, x, *(_apply_factors(self._eta_factor, self._per_run(kind, shape))
                       for kind in (_ETA, _ETA_BAR))

    def chunks(self, total):
        """Yield the `draws` of the next `total` steps, one chunk at a time."""
        for n in self._chunks(total):
            yield self.draws(n)
