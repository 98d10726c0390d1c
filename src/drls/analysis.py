"""
Mean and mean-square analysis of the distributed RLS error dynamics.

Everything here works on the averaged error system: stack the per-sensor
estimation errors beta1_j(t) = s_j(t) - s0 and the per-sensor multiplier
imbalances beta2_j(t) = (1/2) sum_{j'} (v_j^{j'}(t-1) - v_{j'}^j(t-1))
into beta = [beta1; beta2] in R^{2Jp}, and replace each sensor's inverse
data matrix by its steady-state mean R_hj / (1 - lam). The mean error
then evolves as E beta(t+1) = mean_transition @ E beta(t), and the error
fluctuations evolve through the lower-dimensional inner state z(t) with
z(t+1) = inner_transition @ z(t) + inputs, where beta1 = z1 plus an
instantaneous link-noise feedthrough and beta2 = lap_scaled @ z2. The two
transitions intertwine: bdiag(I, lap_scaled) @ inner = mean @ bdiag(I,
lap_scaled).

Link-noise bookkeeping uses transmitter-major directed-link supervectors:
entry k concerns the broadcast from ``link_owner[k]`` as heard by
``link_peer[k]`` (the reverse reading of the simulation's receiver-major
rows; the permutation between the two is ``link_flip``). ``recv_mix``
aggregates, per receiver, the noise on everything it hears; ``bcast_mix``
aggregates, per transmitter, the noise on every reception of its own
broadcast; both carry the c/4 weighting. Their difference lies in the
range of ``lap_scaled``, and ``lifted_mix`` is the least-squares lift
satisfying lap_scaled @ lifted_mix = bcast_mix - recv_mix.

Steady-state second moments are the fixed point R = A R A^T + F of the
covariance recursion, a discrete Lyapunov equation, solved by doubling.
Per-sensor and network MSD, EMSE and MSE come from the top-left block of
that stationary covariance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, DivergenceError, ModelError, StabilityError
from .linalg import bdiag, kron, pinv, spectral_radius
from .topology import laplacian, scaled_laplacian

#: residual above which the multiplier-mix lift is considered unsolvable
LIFT_RESIDUAL_LIMIT = 1e-8

#: squarings after which the doubling solve gives up; 2^64 recursion steps
#: reach round-off for any spectral radius representable below 1
DOUBLING_MAX_SQUARINGS = 64

_DB_FLOOR = 1e-300

#: rows a metrics table formats at a time, which bounds the writer's memory
_CSV_BLOCK_ROWS = 256


def to_db(x):
    """Linear power to dB, floored away from log(0)."""
    return 10.0 * np.log10(np.maximum(x, _DB_FLOOR))


def write_metrics_csv(path, labels, msd, emse, mse):
    """Write a metrics table: one row per cell of the same-shaped metric
    arrays, in row-major order, with a label column per axis (`labels` maps
    its name to the axis labels), then MSD, EMSE and MSE, each linear
    (``%.12e``) and in dB (``%.6f``, floored by `to_db`). Rows are
    formatted a fixed block at a time, so memory does not grow with them.
    """
    row = ",".join(["%s"] * len(labels) + ["%.12e", "%.6f"] * 3) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*labels, "msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"]) + "\n")
        for lo in range(0, msd.size, _CSV_BLOCK_ROWS):
            at = np.unravel_index(np.arange(lo, min(lo + _CSV_BLOCK_ROWS, msd.size)), msd.shape)
            lin = np.stack([msd[at], emse[at], mse[at]])
            cells = np.stack([lin, to_db(lin)], axis=1).reshape(6, -1).tolist()
            names = [[axis[k] for k in i.tolist()] for axis, i in zip(labels.values(), at)]
            fh.writelines(row % cell for cell in zip(*names, *cells))


# ---------------------------------------------------------------------------
# averaged-system assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragedSystem:
    """Constant matrices of the averaged error dynamics for one setup.

    Attributes
    ----------
    topology, p, lam, c
        The network and algorithm parameters the matrices were built from.
    lap_scaled : ndarray
        (Jp, Jp) consensus coupling (c/2) L (x) I_p.
    rh : ndarray
        (Jp, Jp) block diagonal of the regressor covariances.
    rh_lam_inv : ndarray
        (Jp, Jp) steady-state mean of the inverse data matrices,
        (1 - lam) * bdiag(R_hj^{-1}).
    mean_transition : ndarray
        (2Jp, 2Jp) transition of E[beta(t)].
    inner_transition : ndarray
        (2Jp, 2Jp) transition of the fluctuation state z(t).
    recv_mix, bcast_mix : ndarray
        (Jp, Dp) per-receiver / per-transmitter link-noise aggregation
        maps (transmitter-major columns, c/4 included).
    lifted_mix : ndarray
        (Jp, Dp) lift of bcast_mix - recv_mix through lap_scaled.
    data_input : ndarray
        (2Jp, Jp) injection of per-sensor data-noise vectors into z.
    link_input : ndarray
        (2Jp, Dp) injection of estimate-exchange noise into z.
    """

    topology: object
    p: int
    lam: float
    c: float
    lap_scaled: np.ndarray
    rh: np.ndarray
    rh_lam_inv: np.ndarray
    mean_transition: np.ndarray
    inner_transition: np.ndarray
    recv_mix: np.ndarray
    bcast_mix: np.ndarray
    lifted_mix: np.ndarray
    data_input: np.ndarray
    link_input: np.ndarray


def build_averaged_system(topology, model, lam, c):
    """Assemble the averaged error-system matrices.

    Requires lam < 1 (the averaged inverse data matrix must have a finite
    limit) and c > 0. Raises AssemblyError if the multiplier-mix lift
    leaves a residual above LIFT_RESIDUAL_LIMIT, which would mean the
    link-noise aggregation maps fell outside the consensus range space.
    """
    if model.J != topology.J:
        raise ModelError(f"model has {model.J} sensors but topology has {topology.J}")
    if not 0.0 < lam < 1.0:
        raise AssemblyError(
            f"steady-state analysis needs a forgetting factor in (0, 1), got {lam}"
        )
    if c <= 0:
        raise AssemblyError(f"consensus step c must be positive, got {c}")
    j, p = topology.J, model.p
    jp = j * p
    eye = np.eye(jp)

    lap = scaled_laplacian(topology, c, p)
    rh = bdiag(list(model.rh))
    rh_lam_inv = (1.0 - lam) * bdiag([np.linalg.inv(model.rh[k]) for k in range(j)])

    mean = np.block([[-rh_lam_inv @ lap, -rh_lam_inv], [lap, eye]])
    lap_pinv = pinv(lap)
    lap_proj = lap @ lap_pinv
    inner = np.block(
        [[-rh_lam_inv @ lap, -rh_lam_inv @ lap], [lap_proj, lap_proj]]
    )

    d = topology.n_links
    recv_mix = np.zeros((jp, d * p))
    bcast_mix = np.zeros((jp, d * p))
    gain = c / 4.0 * np.eye(p)
    for k in range(d):
        rx = int(topology.link_peer[k])
        tx = int(topology.link_owner[k])
        recv_mix[rx * p:(rx + 1) * p, k * p:(k + 1) * p] = gain
        bcast_mix[tx * p:(tx + 1) * p, k * p:(k + 1) * p] = gain

    diff = bcast_mix - recv_mix
    lifted_mix = lap_pinv @ diff
    residual = float(np.linalg.norm(lap @ lifted_mix - diff))
    if residual > LIFT_RESIDUAL_LIMIT:
        raise AssemblyError(
            f"link-noise aggregation is not liftable through the consensus "
            f"coupling: residual {residual:.3e} exceeds {LIFT_RESIDUAL_LIMIT:.0e}"
        )

    data_input = np.vstack([rh_lam_inv, np.zeros((jp, jp))])
    link_input = np.vstack([rh_lam_inv @ (recv_mix - bcast_mix), lifted_mix])

    return AveragedSystem(
        topology=topology, p=p, lam=lam, c=c, lap_scaled=lap, rh=rh,
        rh_lam_inv=rh_lam_inv, mean_transition=mean,
        inner_transition=inner, recv_mix=recv_mix, bcast_mix=bcast_mix,
        lifted_mix=lifted_mix, data_input=data_input, link_input=link_input,
    )


# ---------------------------------------------------------------------------
# stability checks
# ---------------------------------------------------------------------------

def mean_stability_bound(topology, model, lam):
    """Supremum of the consensus steps c with a stable mean recursion.

    The mean error converges (up to the consensus-invariant directions)
    for 0 < c < 4 / ((1 - lam) * specrad(bdiag(R_hj^{-1}) (L (x) I_p))),
    with L the unscaled graph Laplacian. Returns inf when lam = 1.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1], got {lam}")
    if lam == 1.0:
        return float("inf")
    p = model.p
    rh_inv = bdiag([np.linalg.inv(model.rh[k]) for k in range(model.J)])
    coupling = rh_inv @ kron(laplacian(topology), np.eye(p))
    return 4.0 / ((1.0 - lam) * spectral_radius(coupling))


@dataclass(frozen=True)
class MeanStabilityReport:
    """Eigenstructure summary of the mean transition."""

    unit_eigen_count: int       # eigenvalues within tol of 1
    expected_unit_count: int    # p for a connected network
    max_other_modulus: float    # largest |eigenvalue| outside the unit cluster
    semisimple: bool            # unit eigenvalue has full geometric multiplicity
    left_upper_norm: float      # estimation-error block of the left unit-eigenbasis
    left_null_residual: float   # ||lap_scaled @ multiplier block|| of the same basis

    @property
    def left_vectors_structured(self):
        """Left unit-eigenvectors vanish on the estimation errors and their
        multiplier part lies in the nullspace of the consensus coupling."""
        return self.left_upper_norm < 1e-8 and self.left_null_residual < 1e-8

    @property
    def stable(self):
        """Mean error converges on the consensus-relevant subspace."""
        return (
            self.unit_eigen_count == self.expected_unit_count
            and self.semisimple
            and self.left_vectors_structured
            and self.max_other_modulus < 1.0
        )


def check_mean_stability(system, tol=1e-8):
    """Verify the unit-eigenvalue structure of the mean transition.

    A healthy mean transition has exactly p semisimple unit eigenvalues
    (the consensus-invariant directions of a connected network), all other
    eigenvalues strictly inside the unit circle, and left unit-eigenvectors
    supported on the multiplier block only (so the invariant directions
    never contaminate the estimation errors).
    """
    omega = system.mean_transition
    n = omega.shape[0]
    jp = n // 2
    w = np.linalg.eigvals(omega)
    unit = np.abs(w - 1.0) < tol
    others = np.abs(w[~unit])
    max_other = float(others.max()) if others.size else 0.0

    u, sv, _ = np.linalg.svd(omega - np.eye(n))
    sv_tol = tol * max(1.0, float(sv[0]))
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
    return MeanStabilityReport(
        unit_eigen_count=int(np.sum(unit)),
        expected_unit_count=system.p,
        max_other_modulus=max_other,
        semisimple=nullity == int(np.sum(unit)),
        left_upper_norm=upper,
        left_null_residual=null_residual,
    )


@dataclass(frozen=True)
class MseStabilityReport:
    rho: float  # spectral radius of the fluctuation transition

    @property
    def stable(self):
        return self.rho < 1.0


def check_mse_stability(system):
    """Mean-square stability reduces to specrad(inner_transition) < 1."""
    return MseStabilityReport(rho=spectral_radius(system.inner_transition))


# ---------------------------------------------------------------------------
# noise covariances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseCovariances:
    """Driving-noise second moments of the fluctuation recursion.

    ``r_eps_inf`` is the stationary covariance of the per-sensor data
    noise h_j eps_j accumulated with forgetting; ``r_eps(t)`` gives its
    finite-time ramp. ``r_eta`` is the transmitter-major block diagonal of
    the per-receiver link-noise covariances, ``r_eta_bar`` the per-sensor
    aggregate of the multiplier-exchange noise ((deg_j / 4) R_eta_j).
    ``r_eta_lam`` / ``r_eta_bar_lam`` are both mapped into the fluctuation
    state, and ``feedthrough`` is the instantaneous link-noise covariance
    that adds to the top-left block of the state covariance when reading
    off estimation-error moments.
    """

    lam: float
    sigma2_eps: np.ndarray
    r_eps_inf: np.ndarray
    r_eta: np.ndarray
    r_eta_bar: np.ndarray
    r_eta_lam: np.ndarray
    r_eta_bar_lam: np.ndarray
    feedthrough: np.ndarray

    def r_eps(self, t):
        """Data-noise covariance after t+1 absorbed samples."""
        return self.r_eps_inf * (1.0 - self.lam ** (2 * (t + 1)))


def noise_covariances(system, model):
    """Assemble the noise second moments for one model on one system."""
    if model.J != system.topology.J or model.p != system.p:
        raise ModelError("model dimensions do not match the averaged system")
    top = system.topology
    j, p = top.J, system.p
    lam = system.lam

    r_eps_inf = bdiag([
        model.rh[k] * float(model.sigma2_eps[k]) for k in range(j)
    ]) / (1.0 - lam * lam)
    # transmitter-major entry k is received by link_peer[k]
    if top.n_links:
        r_eta = bdiag([model.r_eta[int(top.link_peer[k])] for k in range(top.n_links)])
    else:
        r_eta = np.zeros((0, 0))
    r_eta_bar = bdiag([
        (float(top.degrees[k]) / 4.0) * model.r_eta[k] for k in range(j)
    ])
    b = system.data_input
    g = system.link_input
    r_eta_bar_lam = b @ r_eta_bar @ b.T
    r_eta_lam = g @ r_eta @ g.T
    mix = system.recv_mix - system.bcast_mix
    feedthrough = system.rh_lam_inv @ (
        r_eta_bar + mix @ r_eta @ mix.T
    ) @ system.rh_lam_inv
    return NoiseCovariances(
        lam=lam, sigma2_eps=np.array(model.sigma2_eps, dtype=np.float64),
        r_eps_inf=r_eps_inf, r_eta=r_eta, r_eta_bar=r_eta_bar,
        r_eta_lam=r_eta_lam, r_eta_bar_lam=r_eta_bar_lam,
        feedthrough=feedthrough,
    )


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyStateReport:
    """Stationary mean-square performance prediction.

    Per-sensor arrays are linear powers; the dB views and network means
    (arithmetic over sensors, matching how the simulation averages) are
    derived properties. ``r_y1`` is the stationary covariance of the
    stacked estimation errors, ``r_z`` the full fluctuation-state one.
    """

    rho: float
    r_z: np.ndarray
    r_y1: np.ndarray
    msd: np.ndarray
    emse: np.ndarray
    mse: np.ndarray

    @property
    def msd_global(self):
        return float(self.msd.mean())

    @property
    def emse_global(self):
        return float(self.emse.mean())

    @property
    def mse_global(self):
        return float(self.mse.mean())

    def to_csv(self, path):
        """Write per-sensor rows plus a trailing network-mean row."""
        write_metrics_csv(
            path, {"sensor_id": [*range(self.msd.shape[0]), "global"]},
            np.append(self.msd, self.msd_global),
            np.append(self.emse, self.emse_global),
            np.append(self.mse, self.mse_global),
        )


def _metrics_from_error_covariance(system, noise, r_y1):
    j, p = system.topology.J, system.p
    msd = np.empty(j)
    emse = np.empty(j)
    for k in range(j):
        block = r_y1[k * p:(k + 1) * p, k * p:(k + 1) * p]
        msd[k] = np.trace(block)
        emse[k] = np.trace(system.rh[k * p:(k + 1) * p, k * p:(k + 1) * p] @ block)
    mse = emse + noise.sigma2_eps
    return msd, emse, mse


def _stationary_forcing(system, noise):
    """Constant forcing of the covariance recursion at t = infinity."""
    psi_m = system.inner_transition
    b = system.data_input
    n = psi_m.shape[0]
    r_zeps = np.linalg.solve(
        np.eye(n) - noise.lam * psi_m, noise.lam * (b @ noise.r_eps_inf)
    )
    cross = psi_m @ r_zeps @ b.T
    return (
        psi_m @ (noise.r_eta_bar_lam + noise.r_eta_lam) @ psi_m.T
        + b @ noise.r_eps_inf @ b.T
        + cross + cross.T
    )


def steady_state_solve(system, noise):
    """Stationary covariance and mean-square metrics of the error system.

    Solves R = A R A^T + F, with A the fluctuation transition and F the
    stationary forcing, by doubling (squared Smith iteration): from Q = F,
    repeat Q <- Q + A Q A^T and A <- A^2, so each pass doubles the number
    of recursion terms Q sums. Stops once the added term is at round-off
    relative to Q. Refuses systems whose fluctuation transition
    is not a contraction, and raises DivergenceError rather than return a
    covariance that did not converge within DOUBLING_MAX_SQUARINGS.
    """
    rho = spectral_radius(system.inner_transition)
    if rho >= 1.0:
        raise StabilityError(
            f"error dynamics are not mean-square stable: spectral radius "
            f"{rho:.6f} of the fluctuation transition is >= 1"
        )
    a = system.inner_transition
    # the finiteness check below reports overflow, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        r_z = _stationary_forcing(system, noise)
        for squarings in range(DOUBLING_MAX_SQUARINGS + 1):
            added = a @ r_z @ a.T
            r_z = r_z + added
            total_norm = float(np.linalg.norm(r_z))
            if not np.isfinite(total_norm):
                raise DivergenceError(
                    f"doubling solve lost finiteness after {squarings} squarings "
                    f"(spectral radius {rho:.6f})"
                )
            if np.linalg.norm(added) <= np.finfo(np.float64).eps * total_norm:
                break
            a = a @ a
        else:
            raise DivergenceError(
                f"doubling solve did not converge in {DOUBLING_MAX_SQUARINGS} "
                f"squarings (spectral radius {rho:.6f})"
            )
    r_z = 0.5 * (r_z + r_z.T)

    jp = system.topology.J * system.p
    r_y1 = r_z[:jp, :jp] + noise.feedthrough
    msd, emse, mse = _metrics_from_error_covariance(system, noise, r_y1)
    return SteadyStateReport(
        rho=rho, r_z=r_z, r_y1=r_y1, msd=msd, emse=emse, mse=mse,
    )


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Transient of the covariance recursion from a zero initial state.

    ``network_msd[i]`` is the predicted sum over sensors of
    E||s_j(t) - s0||^2 at t = i + 1 (instantaneous feedthrough included).
    """

    r_z: np.ndarray
    r_zeps: np.ndarray
    network_msd: np.ndarray
    steps: int
    converged: bool


def covariance_recursion_iterate(system, noise, steps=None, tol=1e-11,
                                 max_steps=500_000):
    """Run the covariance recursion forward in time.

    With ``steps`` given, runs exactly that many updates (transient use).
    Otherwise iterates until the per-step change is small enough that the
    geometric tail bound puts the remaining error below ``tol`` relative
    to the current solution, and raises StabilityError for rho >= 1 or
    DivergenceError if the traces stop being finite.
    """
    psi_m = system.inner_transition
    b = system.data_input
    lam = noise.lam
    n = psi_m.shape[0]
    jp = n // 2
    rho = spectral_radius(psi_m)
    if steps is None and rho >= 1.0:
        raise StabilityError(
            f"covariance recursion cannot converge: spectral radius {rho:.6f} >= 1"
        )
    # both the recursion tail and the data-noise ramp decay geometrically
    q2 = max(rho, lam) ** 2
    tail_gain = q2 / max(1.0 - q2, 1e-300)

    link_forcing = psi_m @ (noise.r_eta_bar_lam + noise.r_eta_lam) @ psi_m.T
    feed_trace = float(np.trace(noise.feedthrough))
    r_z = np.zeros((n, n))
    r_zeps = np.zeros((n, jp))
    traces = []
    converged = False
    count = steps if steps is not None else max_steps
    t = 0
    for t in range(1, count + 1):
        r_zeps = lam * (psi_m @ r_zeps) + lam * (b @ noise.r_eps(t - 1))
        cross = psi_m @ r_zeps @ b.T
        r_new = (
            psi_m @ r_z @ psi_m.T + link_forcing
            + b @ noise.r_eps(t) @ b.T + cross + cross.T
        )
        r_new = 0.5 * (r_new + r_new.T)
        change = float(np.linalg.norm(r_new - r_z))
        r_z = r_new
        trace_now = float(np.trace(r_z[:jp, :jp])) + feed_trace
        traces.append(trace_now)
        if not np.isfinite(trace_now):
            raise DivergenceError(
                f"covariance recursion lost finiteness at step {t}"
            )
        if steps is None and change * tail_gain <= tol * max(
            float(np.linalg.norm(r_z)), 1e-300
        ):
            converged = True
            break
    return CovarianceTrajectory(
        r_z=r_z, r_zeps=r_zeps, network_msd=np.asarray(traces),
        steps=t, converged=converged or steps is not None,
    )
