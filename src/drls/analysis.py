"""
Mean and mean-square analysis of the distributed RLS error dynamics.

Everything here works on the averaged error system: stack the per-sensor
estimation errors beta1_j(t) = s_j(t) - s0 and the per-sensor multiplier
imbalances beta2_j(t) = (1/2) sum_{j'} (v_j^{j'}(t-1) - v_{j'}^j(t-1))
into beta = [beta1; beta2] in R^{2Jp}, and replace each sensor's inverse
data matrix by its steady-state mean R_hj / (1 - lam). With R = rh_lam_inv,
L = lap_scaled and P = L L^+, the mean error evolves by [-R; I] [L, I], and
the error fluctuations through an inner state z(t) by A = U V, U = [-RL; P],
V = [I, I], with beta1 = z1 plus an instantaneous link-noise feedthrough and
beta2 = L z2. Both are products of rank Jp, so everything is computed on the
(Jp, Jp) core C = V U = P - RL and the top block U1 = -RL of U; the (2Jp,
2Jp) objects are derived only when something reads them.

Link noise enters each sensor's multiplier imbalance, with the c/4
weighting, as the noise on every reception of its own broadcast less the
noise on everything it hears. The noise a receiver hears is isotropic, so
the covariance of that aggregate is (c/4)^2 (W (x) I_p), where W is the
(J, J) Laplacian whose link {i, j} weighs sigma2_eta_i + sigma2_eta_j. W 1 =
0, so the aggregate lies in the range of ``lap_scaled`` and lifts through
its pseudoinverse.

Steady-state second moments are the fixed point R = A R A^T + F of a
discrete Lyapunov equation, solved by doubling on C (A^k = U C^(k-1) V);
MSD, EMSE and MSE come from its top-left block U1 (.) U1^T.

The per-sensor blocks (R_hj, R_hj^{-1}, and the per-sensor error
covariances) are handled as (J, p, p) stacks, and every network operator is
built at (J, J) and widened by I_p, with no loop over sensors or links. The
model checked its inputs when it was built, so they are used here as given.

`write_metrics_csv` writes the metric tables of both the prediction and the
simulation. It formats cells a block of rows at a time with a vectorised
kernel whose bytes are the same as ``%`` gives; a row holding a cell the
kernel cannot prove equal is formatted by ``%`` instead.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssemblyError, DivergenceError, ModelError, StabilityError
from .linalg import bdiag, kron_eye, pinv
from .topology import laplacian

#: squarings after which the doubling solve gives up; 2^64 recursion steps
#: reach round-off for any spectral radius representable below 1
DOUBLING_MAX_SQUARINGS = 64

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
    lap_pinv : ndarray
        (Jp, Jp) pseudoinverse of lap_scaled, pinv((c/2) L) (x) I_p.
    rh : ndarray
        (J, p, p) stack of the regressor covariances R_hj.
    rh_lam_inv : ndarray
        (Jp, Jp) steady-state mean of the inverse data matrices,
        (1 - lam) * bdiag(R_hj^{-1}).
    core, error_map : ndarray
        (Jp, Jp) core C = P - RL of the fluctuation transition, and the top
        block U1 = -RL of its factor U: the map from V z to the error.
    coupling_spectrum : ndarray
        (Jp,) ascending eigenvalues mu of lap_scaled @ rh_lam_inv, all
        real and >= 0 up to round-off, of which a connected network has
        exactly p zeros. Every stability figure is read from them: the
        mean transition has eigenvalues 1 - mu, and the fluctuation
        transition 1 - mu at all but the p smallest (see
        `check_mean_stability` and `check_mse_stability`).

    Derived on first access and read by no command: the (2Jp, 2Jp)
    transitions of E[beta] and of z, ``mean_transition`` and
    ``inner_transition`` = [U, U], and the data-noise injection into z,
    ``data_input`` = [R; 0]. They go once ROADMAP item 1 frees
    perfbench/checks.py.
    """

    topology: object
    p: int
    lam: float
    c: float
    lap_scaled: np.ndarray
    lap_pinv: np.ndarray
    rh: np.ndarray
    rh_lam_inv: np.ndarray
    core: np.ndarray
    error_map: np.ndarray
    coupling_spectrum: np.ndarray

    @cached_property
    def mean_transition(self):
        return np.block([[self.error_map, -self.rh_lam_inv],
                         [self.lap_scaled, np.eye(self.core.shape[0])]])

    @cached_property
    def inner_transition(self):
        u = np.vstack([self.error_map, self.core - self.error_map])    # V U = C
        return np.hstack([u, u])

    @cached_property
    def data_input(self):
        return np.vstack([self.rh_lam_inv, np.zeros_like(self.rh_lam_inv)])

    @property
    def step_bound(self):
        """`mean_stability_bound`, read off the coupling spectrum: mu scales with
        c and reaches mu_max = 2 at the bound, so the bound is 2c / mu_max (inf
        on a network with no links)."""
        mu_max = float(self.coupling_spectrum[-1])
        return 2.0 * self.c / mu_max if mu_max > 0.0 else float("inf")


def _coupling_spectrum(lap, rh_inv):
    """Ascending eigenvalues of lap @ bdiag(rh_inv) for a symmetric lap and
    a (K, p, p) SPD stack rh_inv. With G G^T = bdiag(rh_inv) (Cholesky),
    eig(AB) = eig(BA) makes them those of the symmetric G^T lap G, so one
    symmetric eigensolve gives them, real and sorted."""
    g = bdiag(np.linalg.cholesky(rh_inv))
    return np.linalg.eigvalsh(g.T @ lap @ g)


def build_averaged_system(topology, model, lam, c):
    """Assemble the averaged error-system matrices.

    Requires lam < 1 (the averaged inverse data matrix must have a finite
    limit) and c > 0.
    """
    model.check_topology(topology)
    if not 0.0 < lam < 1.0:
        raise AssemblyError(
            f"steady-state analysis needs a forgetting factor in (0, 1), got {lam}"
        )
    if not c > 0:
        raise AssemblyError(f"consensus step c must be positive, got {c}")
    p = model.p
    # lap is L_J (x) I_p, so its pseudoinverse and P are those of L_J, times I_p
    lap_j = 0.5 * c * laplacian(topology)
    pinv_j = pinv(lap_j)
    lap = kron_eye(lap_j, p)
    rh_inv = np.linalg.inv(model.rh)
    rh_lam_inv = (1.0 - lam) * bdiag(rh_inv)
    error_map = -rh_lam_inv @ lap
    return AveragedSystem(
        topology=topology, p=p, lam=lam, c=c, lap_scaled=lap,
        lap_pinv=kron_eye(pinv_j, p), rh=model.rh, rh_lam_inv=rh_lam_inv,
        core=kron_eye(lap_j @ pinv_j, p) + error_map, error_map=error_map,
        coupling_spectrum=(1.0 - lam) * _coupling_spectrum(lap, rh_inv),
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
    model.check_topology(topology)
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1], got {lam}")
    if lam == 1.0 or not topology.adjacency.any():
        return float("inf")
    lap = kron_eye(laplacian(topology), model.p)
    return 4.0 / ((1.0 - lam) * float(_coupling_spectrum(lap, np.linalg.inv(model.rh))[-1]))


@dataclass(frozen=True)
class MeanStabilityReport:
    """Eigenstructure summary of the mean transition."""

    unit_eigen_count: int       # eigenvalues 1 - mu, mu zero to round-off
    expected_unit_count: int    # p for a connected network
    max_other_modulus: float    # largest |eigenvalue| outside the unit cluster

    @property
    def stable(self):
        """Mean error converges on the consensus-relevant subspace."""
        return (
            self.unit_eigen_count == self.expected_unit_count
            and self.max_other_modulus < 1.0
        )


def check_mean_stability(system):
    """Count the unit eigenvalues of the mean transition and bound the rest.

    A healthy mean transition has exactly p unit eigenvalues (the
    consensus-invariant directions of a connected network) and all other
    eigenvalues strictly inside the unit circle. It is [-R; I] [L, I], and
    eig(UV) = eig(VU) plus Jp zeros, so its spectrum is that of I - LR: the
    1 - mu of `AveragedSystem.coupling_spectrum`, and zeros, which bound
    nothing. LR is similar to a symmetric matrix, so the unit eigenvalues
    are semisimple and need no check of their own. A mu counts as zero
    within Jp eps of the largest |mu|, the round-off of the symmetric
    eigensolve, so an ill-conditioned R_h's slow modes are not miscounted.
    """
    mu = system.coupling_spectrum
    unit = np.abs(mu) <= mu.size * np.finfo(np.float64).eps * np.abs(mu).max(initial=0.0)
    return MeanStabilityReport(
        unit_eigen_count=int(np.sum(unit)),
        expected_unit_count=system.p,
        max_other_modulus=float(np.abs(1.0 - mu[~unit]).max(initial=0.0)),
    )


@dataclass(frozen=True)
class MseStabilityReport:
    rho: float  # spectral radius of the fluctuation transition

    @property
    def stable(self):
        return self.rho < 1.0


def _fluctuation_radius(system):
    """rho of the fluctuation transition (see `check_mse_stability`)."""
    return float(np.abs(1.0 - system.coupling_spectrum[system.p:]).max(initial=0.0))


def check_mse_stability(system):
    """Mean-square stability reduces to specrad(inner_transition) < 1, and
    the nonzero eigenvalues of U V are those of the core V U = P - RL. On
    the range of L that core acts as I - RL; on the p-dimensional null space
    of L (a connected network) it is zero. So rho is the largest |1 - mu|
    over all but the p smallest mu of `AveragedSystem.coupling_spectrum`."""
    return MseStabilityReport(rho=_fluctuation_radius(system))


# ---------------------------------------------------------------------------
# noise covariances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseCovariances:
    """Driving-noise second moments of the fluctuation recursion.

    ``r_eps_inf`` is the stationary covariance of the per-sensor data
    noise h_j eps_j accumulated with forgetting. ``r_eta_mix`` (Jp, Jp) is
    the covariance of each sensor's estimate-exchange noise aggregate (c/4
    times the noise on every reception of its broadcast less the noise on
    everything it hears): (c/4)^2 (W (x) I_p), W the (J, J) Laplacian whose
    link {i, j} weighs sigma2_eta_i + sigma2_eta_j. ``r_eta_bar`` (Jp,) is
    the diagonal of the per-sensor multiplier-exchange noise covariance,
    (deg_j / 4) sigma2_eta_j per entry. They enter z through [R; 0] and
    [-R; L^+], which V folds to R and L^+ - R, so ``link_forcing``, their
    (Jp, Jp) covariance in V z, is R diag(r_eta_bar) R + (L^+ - R) r_eta_mix
    (L^+ - R)^T. ``feedthrough`` is the instantaneous link-noise covariance
    that adds to the estimation-error covariance. Their (2Jp, 2Jp)
    covariances in z, ``r_eta_bar_lam`` and ``r_eta_lam``, are derived from
    ``system`` on first access and read by no command; they go once ROADMAP
    item 1 frees perfbench/checks.py.
    """

    lam: float
    sigma2_eps: np.ndarray
    r_eps_inf: np.ndarray
    r_eta_mix: np.ndarray
    r_eta_bar: np.ndarray
    link_forcing: np.ndarray
    feedthrough: np.ndarray
    system: AveragedSystem = field(repr=False, compare=False)

    @cached_property
    def r_eta_bar_lam(self):
        b = self.system.data_input
        return (b * self.r_eta_bar) @ b.T

    @cached_property
    def r_eta_lam(self):
        g = np.vstack([-self.system.rh_lam_inv, self.system.lap_pinv])
        return g @ self.r_eta_mix @ g.T


def noise_covariances(system, model):
    """Assemble the noise second moments for one model on one system. The
    model may change the noise levels, but its rh must be the system's."""
    top = system.topology
    if model.J != top.J or model.p != system.p:
        raise ModelError(
            f"model has J = {model.J}, p = {model.p} but the averaged system has "
            f"J = {top.J}, p = {system.p}"
        )
    if not np.array_equal(model.rh, system.rh):
        raise ModelError("model's rh is not the rh the averaged system was built from")
    lam, r = system.lam, system.rh_lam_inv
    r_eps_inf = bdiag(model.rh * model.sigma2_eps[:, None, None]) / (1.0 - lam * lam)
    sigma2_eta = model.sigma2_eta
    # (J, J) link weights sigma2_eta_i + sigma2_eta_j, and their Laplacian W
    weights = top.adjacency * (sigma2_eta[:, None] + sigma2_eta)
    r_eta_mix = (system.c / 4.0) ** 2 * kron_eye(np.diag(weights.sum(axis=1)) - weights, model.p)
    r_eta_bar = np.repeat((top.degrees / 4.0) * sigma2_eta, model.p)
    lift = system.lap_pinv - r
    # an overflowing forcing is reported by steady_state_solve, which refuses the
    # system or loses finiteness, so numpy's warnings here are noise
    with np.errstate(over="ignore", invalid="ignore"):
        link_forcing = (r * r_eta_bar) @ r + lift @ r_eta_mix @ lift.T
        feedthrough = r @ (np.diag(r_eta_bar) + r_eta_mix) @ r
    return NoiseCovariances(
        lam=lam, sigma2_eps=np.array(model.sigma2_eps, dtype=np.float64),
        r_eps_inf=r_eps_inf, r_eta_mix=r_eta_mix, r_eta_bar=r_eta_bar,
        link_forcing=link_forcing, feedthrough=feedthrough, system=system,
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
    stacked estimation errors. S and X of `steady_state_solve`
    (``core_covariance``, ``data_cross``) lift, with ``noise``, to the (2Jp,
    2Jp) state covariance ``r_z`` = F + U S U^T, derived on first access,
    read by no command, and gone once ROADMAP item 1 frees
    perfbench/checks.py.
    """

    rho: float
    r_y1: np.ndarray
    msd: np.ndarray
    emse: np.ndarray
    mse: np.ndarray
    core_covariance: np.ndarray = field(default=None, repr=False, compare=False)
    data_cross: np.ndarray = field(default=None, repr=False, compare=False)
    noise: NoiseCovariances = field(default=None, repr=False, compare=False)

    @cached_property
    def r_z(self):
        b = self.noise.system.data_input
        u = self.noise.system.inner_transition[:, :b.shape[1]]
        cross = u @ self.data_cross @ b.T
        r_z = (u @ (self.noise.link_forcing + self.core_covariance) @ u.T
               + b @ self.noise.r_eps_inf @ b.T + cross + cross.T)
        return 0.5 * (r_z + r_z.T)

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


def steady_state_solve(system, noise):
    """Stationary covariance and mean-square metrics of the error system.

    Solves R = A R A^T + F, F the stationary forcing, at (Jp, Jp) only:
    A^k = U C^(k-1) V makes R = F + U S U^T with S = C S C^T + V F V^T. With
    Q = ``link_forcing`` and X = (I - lam C)^{-1} lam R r_eps_inf, the cross
    covariance of V z with the data noise (V (I - lam A)^{-1} = (I - lam
    C)^{-1} V), V F V^T = C Q C^T + R r_eps_inf R + C X R + (C X R)^T. S is
    solved by doubling (squared Smith iteration): repeat S <- S + C S C^T
    and C <- C^2, so each pass doubles the recursion terms S sums, until the
    added term is at round-off relative to S. The error covariance is the
    top-left block of R plus the feedthrough, r_y1 = U1 (Q + S) U1^T +
    R r_eps_inf R + U1 X R + (U1 X R)^T + feedthrough. Refuses systems whose
    fluctuation transition is not a contraction, and raises DivergenceError
    rather than return a covariance that did not converge within
    DOUBLING_MAX_SQUARINGS.
    """
    rho = _fluctuation_radius(system)
    if rho >= 1.0:
        raise StabilityError(f"error dynamics are not mean-square stable: spectral radius "
                             f"{rho:.6g} of the fluctuation transition is >= 1")
    a, u1, r, q = system.core, system.error_map, system.rh_lam_inv, noise.link_forcing
    r_eps = r @ noise.r_eps_inf
    data = r_eps @ r
    # the finiteness check below reports overflow, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linalg.solve(np.eye(a.shape[0]) - noise.lam * a, noise.lam * r_eps)
        cross = a @ x @ r
        s = a @ q @ a.T + data + cross + cross.T
        for squarings in range(DOUBLING_MAX_SQUARINGS + 1):
            added = a @ s @ a.T
            s = s + added
            total_norm = float(np.linalg.norm(s))
            if not np.isfinite(total_norm):
                raise DivergenceError(
                    f"doubling solve lost finiteness after {squarings} squarings "
                    f"(spectral radius {rho:.6f})", squarings, rho
                )
            if np.linalg.norm(added) <= np.finfo(np.float64).eps * total_norm:
                break
            a = a @ a
        else:
            raise DivergenceError(
                f"doubling solve did not converge in {DOUBLING_MAX_SQUARINGS} "
                f"squarings (spectral radius {rho:.6f})", DOUBLING_MAX_SQUARINGS, rho
            )
        cross = u1 @ x @ r
        r_y1 = u1 @ (q + s) @ u1.T + data + cross + cross.T
    r_y1 = 0.5 * (r_y1 + r_y1.T) + noise.feedthrough
    j, p = system.topology.J, system.p
    at = np.arange(j)
    # (J, p, p) stacks of the per-sensor diagonal blocks
    blocks = r_y1.reshape(j, p, j, p)[at, :, at]
    emse = np.trace(system.rh @ blocks, axis1=1, axis2=2)
    return SteadyStateReport(
        rho=rho, r_y1=r_y1, msd=np.trace(blocks, axis1=1, axis2=2), emse=emse,
        mse=emse + noise.sigma2_eps, core_covariance=s, data_cross=x, noise=noise,
    )
