"""
Sensor observation models and seeded snapshot streams.

Each sensor j observes x_j(t) = h_j(t)^T s0 + eps_j(t) with its own
regressor covariance R_hj and observation-noise variance. Without AR
parameters, h_j(t) is drawn i.i.d. Gaussian(0, R_hj) across time. With
them, h_j(t) = [h_j(t), h_j(t-1), ..., h_j(t-p+1)] is the shift-structure
regressor of one scalar AR(1) process per sensor,
h_j(t) = (1-rho)*beta_j*h_j(t-1) + sqrt(rho)*omega_j(t), with uniform
driving noise of variance sigma2_omega_j, and R_hj must be its exact
stationary (Toeplitz) covariance, so the analysis reads the drawn process.

Inter-sensor links add receiver-side noise with per-receiver covariance
sigma2_eta_j I_p on the estimate and on the multiplier exchange (independent
draws). The recursions read it only through per-sensor sums, which are jointly
Gaussian, so the stream draws those sums from their law: the multiplier sums
elementwise, the estimate sums through a factor of their covariance that keeps
a silent receiver's sum exactly zero. Streams are deterministic per seed and keep
one child generator per noise kind, mixed per sensor after the unit-variance
draws, so disabling a noise source perturbs no other draw. Steps are drawn a
chunk at a time; neither the byte budget nor the block of runs changes a byte.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError

#: scalar AR(1) steps taken before t = 1 so streams start near-stationary
AR_WARMUP_STEPS = 200


def ar_stationary_covariance(rho, beta, sigma2_omega, p):
    """Exact stationary covariances of shift-structure AR(1) regressors.

    For h(t) = a h(t-1) + sqrt(rho) omega(t) with a = (1-rho)*beta and
    Var(omega) = sigma2_omega, the scalar process has stationary variance
    rho*sigma2_omega / (1 - a^2) and lag-k autocovariance var * a^k; the
    regressor covariance is the p x p Toeplitz matrix of those lags. Takes
    (J,) `beta` and `sigma2_omega` and returns the (J, p, p) stack.
    """
    a = (1.0 - rho) * beta
    bad = np.flatnonzero(~(np.abs(a) < 1.0))
    if bad.size:
        raise ModelError(f"AR coefficient (1-rho)*beta of sensor {bad[0]} = {a[bad[0]]} is not stable")
    var = rho * sigma2_omega / (1.0 - a * a)
    lags = np.arange(p)
    return var[:, None, None] * a[:, None, None] ** np.abs(lags[:, None] - lags[None, :])


def _check_spd(m, name):
    # a few ulps of the largest entry: Cholesky reads one triangle, the analysis all of m
    if np.abs(m - m.T).max() > 16 * np.finfo(np.float64).eps * np.abs(m).max():
        raise ModelError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ModelError(f"{name} is not positive definite")


def _check_variances(v, j, name):
    """Refuse anything but one finite variance >= 0 per sensor, naming the sensor."""
    if np.shape(v) != (j,):
        raise ModelError(f"{name} must have shape ({j},), one variance per sensor, "
                         f"got {np.shape(v)}")
    bad = np.flatnonzero(~(np.isfinite(v) & (v >= 0)))
    if bad.size:
        raise ModelError(f"{name} of sensor {bad[0]} must be finite and >= 0, got {v[bad[0]]}")


@dataclass(frozen=True)
class SensorEnsembleModel:
    """Per-sensor signal model shared by all Monte Carlo runs.

    Checked when built, by ``dataclasses.replace`` too. The regressors are
    AR exactly when the AR parameters are given, and `rh` is then theirs.

    Attributes
    ----------
    s0 : ndarray
        (p,) common parameter vector being estimated; p is the regressor length.
    rh : ndarray
        (J, p, p) regressor covariances (draw covariance of Gaussian
        regressors, exact stationary covariance of AR ones).
    sigma2_eps : ndarray
        (J,) observation-noise variances.
    sigma2_eta : ndarray
        (J,) link-noise variances: receiver j hears noise of covariance
        sigma2_eta[j] * I_p on both the estimate and the multiplier exchange.
    ar_rho, ar_beta, ar_sigma2_omega
        AR pole in (0, 1), and (J,) memory coefficients in [0, 1] and
        driving-noise variances > 0; all three or none.
    """

    s0: np.ndarray
    rh: np.ndarray
    sigma2_eps: np.ndarray
    sigma2_eta: np.ndarray
    ar_rho: float | None = None
    ar_beta: np.ndarray | None = None
    ar_sigma2_omega: np.ndarray | None = None

    def __post_init__(self):
        given = [v is not None for v in (self.ar_rho, self.ar_beta, self.ar_sigma2_omega)]
        if any(given) != all(given):
            raise ModelError("an AR model needs all of ar_rho, ar_beta and ar_sigma2_omega")
        ar = ("ar_beta", "ar_sigma2_omega") if all(given) else ()
        for name in ("s0", "rh", "sigma2_eps", "sigma2_eta") + ar:
            value = getattr(self, name)
            if not isinstance(value, np.ndarray):
                raise ModelError(f"{name} must be a numpy array, got {type(value).__name__}")
            if name in ("s0", "sigma2_eps") and (value.ndim != 1 or value.size == 0):
                raise ModelError(f"{name} must be a non-empty 1-D array, got shape {value.shape}")
        if not np.isfinite(self.s0).all():
            raise ModelError("s0 must be finite")
        j, p = self.J, self.p
        if self.rh.shape != (j, p, p):
            raise ModelError(f"rh must have shape ({j}, {p}, {p})")
        if not np.isfinite(self.rh).all():
            raise ModelError("rh must be finite")
        _check_variances(self.sigma2_eps, j, "sigma2_eps")
        _check_variances(self.sigma2_eta, j, "sigma2_eta")
        for k in range(j):
            _check_spd(self.rh[k], f"rh[{k}]")
        if not ar:
            return
        for name in ar:
            shape = getattr(self, name).shape
            if shape != (j,):
                raise ModelError(f"{name} must have shape ({j},), got {shape}")
        if not 0.0 < self.ar_rho < 1.0:
            raise ModelError(f"ar_rho must lie in (0, 1), got {self.ar_rho}")
        if not ((0 <= self.ar_beta) & (self.ar_beta <= 1)).all():
            raise ModelError("ar_beta entries must lie in [0, 1]")
        if not (np.isfinite(self.ar_sigma2_omega) & (self.ar_sigma2_omega > 0)).all():
            raise ModelError("ar_sigma2_omega entries must be finite and positive")
        stationary = ar_stationary_covariance(self.ar_rho, self.ar_beta, self.ar_sigma2_omega, p)
        if not np.array_equal(self.rh, stationary):
            raise ModelError("rh of an AR model must be ar_stationary_covariance of its "
                             "ar_rho, ar_beta and ar_sigma2_omega")

    @property
    def J(self):
        return self.sigma2_eps.shape[0]

    @property
    def p(self):
        return self.s0.shape[0]

    def check_topology(self, topology):
        """Refuse a topology whose sensor count is not the model's."""
        if self.J != topology.J:
            raise ModelError(f"model has {self.J} sensors but topology has {topology.J}")


def iid_scenario(j, p, seed, sigma2_eta=0.1, rh=1.0):
    """Gaussian-regressor benchmark model.

    Parameters
    ----------
    j, p : int
        Sensor count and regressor length.
    seed : int
        Spatial-profile seed: sensor j's observation-noise variance is
        1e-3 * U[0,1), drawn from it.
    sigma2_eta : float
        Link-noise variance at every receiver; 0 gives ideal links.
    rh : float
        Scale of the identity regressor covariance at every sensor.

    Any other profile is ``dataclasses.replace(model, rh=..., sigma2_eps=...)``.
    """
    rng = np.random.default_rng(seed)
    return SensorEnsembleModel(
        s0=np.ones(p), rh=np.broadcast_to(float(rh) * np.eye(p), (j, p, p)).copy(),
        sigma2_eps=1e-3 * rng.uniform(size=j), sigma2_eta=np.full(j, float(sigma2_eta)),
    )


def ar_scenario(j, seed, sigma2_eta=0.1):
    """AR(1) shift-structure benchmark model (p = 4).

    Per-sensor profiles drawn from `seed`, in this order: alpha, beta,
    gamma, each U[0,1). Observation noise is 1e-3*alpha_j, the AR memory
    coefficient is beta_j with pole rho = 0.5, and the uniform driving
    noise has variance 2*gamma_j. Every receiver gets link-noise
    variance sigma2_eta.
    """
    p = 4
    rho = 0.5
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(size=j)
    beta = rng.uniform(size=j)
    gamma = rng.uniform(size=j)
    # driving noise must be nondegenerate for the stationary covariance
    sigma2_omega = np.maximum(2.0 * gamma, 1e-8)
    return SensorEnsembleModel(
        s0=np.ones(p), rh=ar_stationary_covariance(rho, beta, sigma2_omega, p),
        sigma2_eps=1e-3 * alpha, sigma2_eta=np.full(j, float(sigma2_eta)),
        ar_rho=rho, ar_beta=beta, ar_sigma2_omega=sigma2_omega,
    )


#: bytes of one draw array per chunk, the widest being the unit draws of the
#: estimate-noise sums on noisy links: bounds the draw buffers and changes no draw
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
        model.check_topology(topology)
        self.model = model
        self._rngs = [
            [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
            for seed in seeds
        ]
        self.runs = len(self._rngs)

        self._link_noise_active = bool(np.any(model.sigma2_eta))
        # the D directed links, grouped by owner with peers ascending: link k is
        # heard by its owner, at its sigma_eta, and carries its peer's estimate;
        # the (2J, D) fold maps them to each sensor's sum_k eta_k and drift
        owner, peer = np.nonzero(topology.adjacency)
        sensors = np.arange(model.J)[:, None]
        heard = (owner == sensors) * np.sqrt(model.sigma2_eta)[:, None]
        fold = np.concatenate([heard, heard - (peer == sensors) * heard.sum(0)])
        # with fold^T = QR, F = R^T has F F^T = fold fold^T in min(D, 2J) columns,
        # and a zero row of the fold stays exactly zero (an eigh factor leaks ~sqrt(eps))
        self._eta_factor = np.linalg.qr(fold.T, mode="r").T
        self._sigma_eta_bar = np.sqrt(topology.degrees * model.sigma2_eta)[:, None]

        self._sigma_eps = np.sqrt(model.sigma2_eps)
        if model.ar_rho is None:
            self._chol_rh = np.linalg.cholesky(model.rh)
        else:
            self._ar_a = (1.0 - model.ar_rho) * model.ar_beta
            self._ar_gain = np.sqrt(model.ar_rho)
            self._ar_sigma = np.sqrt(model.ar_sigma2_omega)
            # the scalar series' last p values, oldest first: (p, runs, J)
            self._tail = np.zeros((model.p, self.runs, model.J))
            for n in self._chunks(max(AR_WARMUP_STEPS, model.p)):
                self._regressors(n)

    def _chunks(self, total):
        """Step counts covering `total` steps, DRAW_CHUNK_BYTES per draw array."""
        widest = max(self.model.J, self._link_noise_active * self._eta_factor.shape[1])
        size = max(1, DRAW_CHUNK_BYTES // (8 * self.runs * self.model.p * widest))
        for start in range(0, total, size):
            yield min(size, total - start)

    def _per_run(self, kind, shape, fill=lambda g, out: g.standard_normal(out=out)):
        """Draws of `shape` (n, ...) from every run's `kind` generator, as an
        (n, runs, ...) view of one run-major buffer: ``fill(generator, out)``
        fills one run's slice of it."""
        buf = np.empty((self.runs,) + shape)
        for rngs, out in zip(self._rngs, buf):
            fill(rngs[kind], out)
        return buf.swapaxes(0, 1)

    def _regressors(self, n):
        """Regressors of the next `n` steps, (n, runs, J, p)."""
        m, p = self.model, self.model.p
        if m.ar_rho is None:
            # copied step-major: einsum takes several times longer on the strided view
            z = self._per_run(_REG, (n, m.J, p)).copy()
            # copied out: einsum over broadcast factors takes several times longer, same bits
            full = np.broadcast_to(self._chol_rh, z.shape + (p,)).copy()
            return np.einsum("...ab,...b->...a", full, z)
        drive = self._per_run(_REG, (n, m.J), lambda g, out: np.copyto(
            out, g.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=out.shape)))
        drive *= self._ar_sigma    # omega,
        drive *= self._ar_gain     # then sqrt(rho) omega
        s = np.concatenate([self._tail, np.empty((n, self.runs, m.J))])
        for k in range(p, p + n):
            np.multiply(self._ar_a, s[k - 1], out=s[k])
            s[k] += drive[k - p]
        self._tail = s[n:]
        # entry i of step k's regressor is the series i steps before step k
        h = np.empty((n, self.runs, m.J, p))
        for i in range(p):
            h[..., i] = s[p - i:p - i + n]
        return h

    def draws(self, n):
        """Draws of the next `n` steps for every run of the block.

        Returns regressors h (n, runs, J, p), observations x (n, runs, J),
        and the receiver noise summed over each sensor's links k, or None on
        ideal links, each drawn from its law: eta (n, runs, 2, J, p) holds
        sum_k eta_k and sum_k (eta_k - eta_flip(k)), what the sensor hears less
        the noise on its broadcasts, as F xi for each run-step's (min(D, 2J), p)
        unit normals xi, F F^T their covariance; eta_bar (n, runs, J, p) holds
        sum_k eta_bar_k. Link k is the k-th directed link (owner, peer) of
        ``np.nonzero(adjacency)``, what the owner hears of the peer; flip(k) is its reverse.
        """
        m = self.model
        h = self._regressors(n)
        x = h @ m.s0 + self._sigma_eps * self._per_run(_EPS, (n, m.J))
        if not self._link_noise_active:
            return h, x, None, None
        # one product of one shape per run-step: no sum depends on the block or the chunk
        f = self._eta_factor
        eta = np.matmul(f, self._per_run(_ETA, (n, f.shape[1], m.p)))
        eta_bar = self._per_run(_ETA_BAR, (n, m.J, m.p))
        eta_bar *= self._sigma_eta_bar
        return h, x, eta.reshape(n, self.runs, 2, m.J, m.p), eta_bar

    def chunks(self, total):
        """Yield the `draws` of the next `total` steps, one chunk at a time."""
        yield from map(self.draws, self._chunks(total))
