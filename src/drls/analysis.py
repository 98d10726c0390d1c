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

Link noise is stacked over the topology's directed-link table as the
simulation draws it: entry k is the noise on what ``link_owner[k]`` hears
from ``link_peer[k]``. ``recv_mix`` aggregates, per receiver, the noise on
everything it hears; ``bcast_mix`` aggregates, per transmitter, the noise
on every reception of its own broadcast; both carry the c/4 weighting.
Their difference lies in the range of ``lap_scaled``, and ``lifted_mix`` is
the least-squares lift satisfying lap_scaled @ lifted_mix = bcast_mix -
recv_mix.

Steady-state second moments are the fixed point R = A R A^T + F of the
covariance recursion, a discrete Lyapunov equation, solved by doubling.
Per-sensor and network MSD, EMSE and MSE come from the top-left block of
that stationary covariance.

The per-sensor blocks (R_hj, R_hj^{-1}, R_eta_j, and the per-sensor error
covariances) are handled as (J, p, p) stacks, with no loop over sensors or
links. The model checked them when it was built, so they are used here as
given.

`write_metrics_csv` writes the metric tables of both the prediction and the
simulation. It formats cells a block of rows at a time with a vectorised
kernel whose bytes are the same as ``%`` gives; a row holding a cell the
kernel cannot prove equal is formatted by ``%`` instead.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, DivergenceError, ModelError, StabilityError
from .linalg import bdiag, pinv, spectral_radius
from .topology import laplacian, scaled_laplacian

#: residual above which the multiplier-mix lift is considered unsolvable
LIFT_RESIDUAL_LIMIT = 1e-8

#: squarings after which the doubling solve gives up; 2^64 recursion steps
#: reach round-off for any spectral radius representable below 1
DOUBLING_MAX_SQUARINGS = 64

#: distance from 1 within which an eigenvalue of the mean transition counts
#: as a unit eigenvalue (also the relative singular-value cutoff of its nullity)
UNIT_EIGEN_TOL = 1e-8

_DB_FLOOR = 1e-300

#: rows a metrics table formats at a time, which bounds the writer's memory
_CSV_BLOCK_ROWS = 1024

#: largest |k| for which 10^k is one or two exact powers of ten
_K_MAX = 44


def _formatting_tables():
    """The metric-cell kernel's lookup tables, built by numpy arithmetic.

    ``digits4[n]`` is the ASCII of n as four digits and ``digits2[n]`` as
    two; ``whole4[n]`` is n as an integer part, NUL for each leading zero.
    Column k + _K_MAX of ``scale`` holds the two powers of ten to multiply
    by and the two to divide by (10^k for k < 0 is not a double), then the
    tie margin per unit of the scaled value, nonzero where that makes two
    roundings. ``exponents[e + _K_MAX - 12]`` is ``e+dd`` or ``e-dd``.
    """
    # built up from 00 to 99 in small dtypes: large temporaries would stay
    # resident in the heap for the life of the process
    digits2 = (np.arange(100)[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8)
    digits = np.hstack([np.repeat(digits2, 100, axis=0), np.tile(digits2, (100, 1))])
    n = np.arange(10_000, dtype=np.uint16)[:, None]
    whole = np.where(n >= np.array([1000, 100, 10, 0], np.uint16), digits, np.uint8(0))
    k = np.arange(-_K_MAX, _K_MAX + 1)
    pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])        # exact up to 10^22
    first = pow10[np.minimum(np.abs(k), 22)]
    second = pow10[np.abs(k) - np.minimum(np.abs(k), 22)]
    scale = np.stack([np.where(k >= 0, first, 1.0), np.where(k >= 0, second, 1.0),
                      np.where(k < 0, first, 1.0), np.where(k < 0, second, 1.0),
                      np.where(second > 1.0, 2.0**-52, 0.0)])
    e = np.arange(12 - _K_MAX, 14 + _K_MAX)
    exponents = np.column_stack([np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                                 digits[np.abs(e), 2:]]).astype(np.uint8)
    return (digits.view("V4").ravel(), digits2.view("V2").ravel(), whole.view("V4").ravel(),
            scale, exponents.view("V4").ravel())


_DIGITS4, _DIGITS2, _WHOLE4, _SCALE, _EXPONENTS = _formatting_tables()

#: the MSD, EMSE and MSE cells of a row, ``%.12e,%.6f`` each at its widest;
#: the kernel fills in digits and signs, and NUL marks a byte the writer
#: drops (the sign of a positive value, a leading zero of an integer part)
_CELLS = np.frombuffer(b"-0.000000000000e+00,-0000.000000," * 3, np.uint8).reshape(3, 33).copy()
_CELLS[2, -1] = ord("\n")
_CELL_FIELDS = np.dtype({
    "names": ["sign", "lead", "d1", "d2", "d3", "exp", "db_sign", "db_whole", "db_d1", "db_d2"],
    "formats": ["u1", "u1", "V4", "V4", "V4", "V4", "u1", "V4", "V4", "V2"],
    "offsets": [0, 1, 3, 7, 11, 15, 20, 21, 26, 30],
    "itemsize": 33,
})


def to_db(x):
    """Linear power to dB, floored away from log(0)."""
    return 10.0 * np.log10(np.maximum(x, _DB_FLOOR))


def _metric_cells(lin, db):
    """The ``%.12e,%.6f`` cells of each row of `lin` and `db`, both (n, 3):
    ASCII (n, 99) with NUL at the bytes to drop, and whether every cell of
    the row is proven to be what ``%`` prints.

    A ``%.12e`` cell scales |x| by 10^k, k = 12 - floor(log10 |x|) held to
    [-44, 44], in one or two exact powers of ten, and rounds it to a
    13-digit mantissa; a ``%.6f`` cell rounds |v|·10^6. A cell is proven
    when the scaled value is clear of every rounding tie and the mantissa
    lies in [10^12, 10^13], 10^13 carrying into the exponent; the lower end
    is checked before rounding, since a k one too small could round up to
    it. The range check also turns away what log10 cannot scale right:
    zero, subnormals, non-finite values and values out of range.

    Rounding is monotone and half-integers below 2^52 are doubles, so one
    rounding cannot carry a value across a half-integer; it can only land
    on one. Two roundings (|k| > 22) leave the scaled value within 1.5
    spacings of the exact one, on a grid of spacings, so those must lie
    more than one spacing (bounded by y·2^-52) from every half-integer.
    """
    n = lin.shape[0]
    cells = np.empty((n, 3, 33), np.uint8)
    cells[:] = _CELLS
    out = cells.view(_CELL_FIELDS)[..., 0]
    a = np.abs(lin)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.fmin(np.fmax(12.0 - np.floor(np.log10(a)), -_K_MAX), _K_MAX).astype(np.int64)
        up1, up2, down1, down2, margin = _SCALE.take(k + _K_MAX, axis=1)
        y = a * up1 * up2 / down1 / down2
        m = np.rint(y)
        proven = (np.abs(y - m) < 0.5 - margin * y) & (y >= 1e12) & (m <= 1e13)
        carry = m == 1e13
        mantissa = np.where(m < 1e13, m, 1e12).astype(np.int64)

        fixed = np.abs(db) * 1e6
        m = np.rint(fixed)
        proven &= (np.abs(fixed - m) < 0.5) & (m < 1e10)
        micro = np.where(m < 1e10, m, 0.0).astype(np.int64)
    # 13 digits as 1 + 4 + 4 + 4, and 4 + 6 as 4 + 4 + 2 (remainders by
    # subtraction: numpy divides by a constant fast, but not so for %)
    head = mantissa // 10**8
    lead = head // 10**4
    tail = mantissa - head * 10**8
    mid = tail // 10**4
    whole = micro // 10**6
    frac = micro - whole * 10**6
    frac_hi = frac // 100
    out["sign"] = np.signbit(lin) * np.uint8(ord("-"))
    out["lead"] = lead + ord("0")
    out["d1"] = _DIGITS4.take(head - lead * 10**4)
    out["d2"] = _DIGITS4.take(mid)
    out["d3"] = _DIGITS4.take(tail - mid * 10**4)
    out["exp"] = _EXPONENTS.take(_K_MAX - k + carry)
    out["db_sign"] = np.signbit(db) * np.uint8(ord("-"))
    out["db_whole"] = _WHOLE4.take(whole)
    out["db_d1"] = _DIGITS4.take(frac_hi)
    out["db_d2"] = _DIGITS2.take(frac - frac_hi * 100)
    return cells.reshape(n, 99), proven.all(axis=1)


def _label_column(axis, at):
    """The labels ``axis[at]`` as ``%s,`` in UTF-8, NUL-padded to one width.
    Only the span of `at` is formatted, so a block's labels are the only
    label strings alive at a time."""
    first = int(at.min())
    text = np.array([f"{label},".encode() for label in axis[first:int(at.max()) + 1]], dtype=bytes)
    return text.view(np.uint8).reshape(text.size, text.itemsize).take(at - first, axis=0)


def write_metrics_csv(path, labels, msd, emse, mse):
    """Write a metrics table: one row per cell of the same-shaped metric
    arrays, in row-major order, with a label column per axis (`labels` maps
    its name to the axis labels), then MSD, EMSE and MSE, each linear
    (``%.12e``) and in dB (``%.6f``, floored by `to_db`).

    Rows are formatted a fixed block at a time, so memory does not grow
    with them, by a vectorised kernel (`_metric_cells`) whose bytes are
    what ``%`` prints. A row with a cell the kernel cannot prove, such as a
    zero, a subnormal or a near-tie, is formatted by ``%`` instead and
    spliced in at its place.
    """
    row = ",".join(["%s"] * len(labels) + ["%.12e", "%.6f"] * 3) + "\n"
    flat = [np.ravel(a) for a in (msd, emse, mse)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*labels, "msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"]) + "\n")
        for lo in range(0, msd.size, _CSV_BLOCK_ROWS):
            n = min(_CSV_BLOCK_ROWS, msd.size - lo)
            at = np.unravel_index(np.arange(lo, lo + n), msd.shape)
            lin = np.stack([f[lo:lo + n] for f in flat], axis=1)
            db = to_db(lin)
            cells, proven = _metric_cells(lin, db)
            bad = np.flatnonzero(~proven)
            names = [[axis[k] for k in i[bad].tolist()] for axis, i in zip(labels.values(), at)]
            values = np.stack([lin[bad], db[bad]], axis=2).reshape(-1, 6).T.tolist()
            lines = [row % cell for cell in zip(*names, *values)]
            # each row left to `%` goes between the kernel's rows before and after it
            text = np.concatenate(
                [_label_column(axis, i) for axis, i in zip(labels.values(), at)] + [cells],
                axis=1)
            start = 0
            for r, line in zip([*bad.tolist(), n], [*lines, ""]):
                part = text[start:r]
                fh.write(part[part != 0].tobytes().decode() + line)
                start = r + 1


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
        maps (columns in link-table order, c/4 included).
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
    rh = bdiag(model.rh)
    rh_lam_inv = (1.0 - lam) * bdiag(np.linalg.inv(model.rh))

    mean = np.block([[-rh_lam_inv @ lap, -rh_lam_inv], [lap, eye]])
    lap_pinv = pinv(lap)
    lap_proj = lap @ lap_pinv
    inner = np.block(
        [[-rh_lam_inv @ lap, -rh_lam_inv @ lap], [lap_proj, lap_proj]]
    )

    # (J, D) one-hots of each link's receiver and transmitter, widened by c/4 I_p
    gain = c / 4.0 * np.eye(p)
    recv_mix = np.kron(np.eye(j)[topology.link_owner].T, gain)
    bcast_mix = np.kron(np.eye(j)[topology.link_peer].T, gain)

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
    with L the unscaled graph Laplacian. Returns inf when lam = 1, and when
    the network has no links, as there is then no coupling to destabilise.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1], got {lam}")
    if lam == 1.0 or topology.n_links == 0:
        return float("inf")
    coupling = bdiag(np.linalg.inv(model.rh)) @ np.kron(laplacian(topology), np.eye(model.p))
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


def check_mean_stability(system):
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
    unit = np.abs(w - 1.0) < UNIT_EIGEN_TOL
    others = np.abs(w[~unit])
    max_other = float(others.max()) if others.size else 0.0

    u, sv, _ = np.linalg.svd(omega - np.eye(n))
    sv_tol = UNIT_EIGEN_TOL * max(1.0, float(sv[0]))
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
    noise h_j eps_j accumulated with forgetting. ``r_eta`` is the block
    diagonal, in link-table order, of the covariance of the noise each link
    owner hears, ``r_eta_bar`` the per-sensor aggregate of the
    multiplier-exchange noise ((deg_j / 4) R_eta_j).
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


def noise_covariances(system, model):
    """Assemble the noise second moments for one model on one system."""
    if model.J != system.topology.J or model.p != system.p:
        raise ModelError("model dimensions do not match the averaged system")
    top = system.topology
    lam = system.lam

    r_eps_inf = bdiag(model.rh * model.sigma2_eps[:, None, None]) / (1.0 - lam * lam)
    r_eta = bdiag(model.r_eta[top.link_owner])
    r_eta_bar = bdiag((top.degrees / 4.0)[:, None, None] * model.r_eta)
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
    at = np.arange(j)
    # (J, p, p) stacks of the per-sensor diagonal blocks
    blocks = r_y1.reshape(j, p, j, p)[at, :, at]
    rh = system.rh.reshape(j, p, j, p)[at, :, at]
    msd = np.trace(blocks, axis1=1, axis2=2)
    emse = np.trace(rh @ blocks, axis1=1, axis2=2)
    return msd, emse, emse + noise.sigma2_eps


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

