"""End-to-end verification gates.

Everything here runs the real pipelines at realistic sizes: the consensus
oracle against the pooled solution, the kernel against direct inversion,
the eigenstructure of the averaged error system, the stationary solve
against closed-form and iterated fixed points, and full Monte Carlo
ensembles against the analytical predictions on the two benchmark
scenarios. The Monte Carlo fixtures are the expensive part
(a few minutes total on one core); they are module-scoped and shared
across tests.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from drls.analysis import (
    build_averaged_system,
    check_mean_stability,
    check_mse_stability,
    mean_stability_bound,
    noise_covariances,
    steady_state_solve,
    to_db,
)
from drls.errors import RunFailure
from drls.estimators import (
    CentralizedRls,
    DrlsState,
    admom_step_flops,
    ama_step_flops,
    rls_kernel_step,
)
from drls.harness import (
    ExperimentConfig,
    averaged_system,
    build_model,
    build_topology,
    compare_theory,
    run_ensemble,
    steady_state_empirical,
)
from drls.signals import iid_scenario, SnapshotStream
from drls.topology import from_edges, random_geometric

# Gaussian-regressor benchmark: 10 sensors, short regressors
IID_BENCH = dict(
    topology_kind="geometric", topology_j=10, topology_radius=0.5,
    topology_seed=7, scenario_kind="iid", scenario_p=2, scenario_seed=7,
    scenario_sigma2_eta=0.1, algorithm="drls_ama", lam=0.95, c=0.1,
    delta=100.0, t_samples=3000, runs=200, burn_in=2700, master_seed=0,
)

# AR-regressor benchmark: 15 sensors, radius 0.3, shift regressors (p=4).
# Link noise through the near-singular early inverse makes the transient
# decay at the slowest network mode, so the horizon is long and the tail
# window starts late.
AR_BENCH = dict(
    topology_kind="geometric", topology_j=15, topology_radius=0.3,
    topology_seed=24, scenario_kind="ar", scenario_seed=2,
    scenario_sigma2_eta=0.1, algorithm="drls_ama", lam=0.95, c=0.1,
    delta=100.0, t_samples=16000, runs=200, burn_in=14400, master_seed=2,
)

AR_TAIL = AR_BENCH["t_samples"] - AR_BENCH["burn_in"]

# 6 sensors where the averaged model calls steps mean-square stable that the
# simulation diverges at; lam near 1 and a small delta keep the transient short
EDGE_SETUP = dict(
    topology_kind="geometric", topology_j=6, topology_radius=0.7, topology_seed=2,
    scenario_kind="iid", scenario_p=2, scenario_seed=3, lam=0.99, delta=0.01,
    t_samples=6000, runs=10, master_seed=5,
)

_timings = {}


def _timed(key, fn, *args, **kw):
    start = time.monotonic()
    out = fn(*args, **kw)
    _timings[key] = time.monotonic() - start
    return out


@pytest.fixture(scope="module")
def iid_bench_compare():
    config = ExperimentConfig(**IID_BENCH)
    return _timed("iid_bench", compare_theory, config, tol_db=1.0)


@pytest.fixture(scope="module")
def ar_bench_ensemble():
    config = ExperimentConfig(**AR_BENCH)
    return _timed("ar_bench", run_ensemble, config, collect_deviation=True)


@pytest.fixture(scope="module")
def ar_bench_compare(ar_bench_ensemble):
    config = ExperimentConfig(**AR_BENCH)
    return compare_theory(config, tol_db=1.5, ensemble=ar_bench_ensemble)


@pytest.fixture(scope="module")
def iid_ideal_ensemble():
    config = ExperimentConfig(**{**IID_BENCH, "scenario_sigma2_eta": 0.0, "runs": 60})
    return run_ensemble(config)


@pytest.fixture(scope="module")
def ar_ideal_ensemble():
    config = ExperimentConfig(**{**AR_BENCH, "scenario_sigma2_eta": 0.0, "runs": 20})
    return run_ensemble(config)


@pytest.fixture(scope="module")
def ar_admom_ensemble():
    config = ExperimentConfig(**{**AR_BENCH, "algorithm": "drls_admom", "runs": 20})
    return run_ensemble(config)


def _tail_emse_db(ensemble, window):
    return float(to_db(steady_state_empirical(ensemble.series.emse_global, window)))


# ---------------------------------------------------------------------------
# 1. batch consensus reaches the pooled solution
# ---------------------------------------------------------------------------

def test_batch_consensus_tracks_the_pooled_estimator(ewlse_centralized, frozen_consensus,
                                                     advance_one):
    """Frozen-data consensus converges to the pooled weighted LS solution
    on a complete 5-sensor network for at least one swept step size."""
    start = time.monotonic()
    lam, delta, p, horizon = 0.95, 100.0, 3, 50
    top = from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    model = iid_scenario(5, p, seed=50, sigma2_eta=0.0)
    hs, xs, _, _ = SnapshotStream(model, top, [50]).draws(horizon)
    hs, xs = hs[:, 0], xs[:, 0]
    local = DrlsState(top, p, lam, 0.0, delta)
    for h, x in zip(hs, xs):
        advance_one(local, h, x)
    pooled = ewlse_centralized(hs, xs, lam, phi0=lam * top.J / delta)

    best = np.inf
    for c in (0.01, 0.05, 0.1):
        s = frozen_consensus(local, top, c=c, iters=2000)
        rel = float(np.max(np.linalg.norm(s - pooled, axis=1))
                    / np.linalg.norm(pooled))
        best = min(best, rel)
    assert best < 1e-6
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. recursive kernel equals direct inversion of the weighted data matrix
# ---------------------------------------------------------------------------

def test_kernel_inverse_matches_weighted_data_matrix():
    """100 random steps x 20 sensors: the rank-one updated inverse times
    the directly accumulated matrix stays at the identity."""
    start = time.monotonic()
    rng = np.random.default_rng(123)
    lam, delta, p, sensors = 0.95, 100.0, 4, 20
    worst = 0.0
    for _ in range(sensors):
        pinv, psi = delta * np.eye(p), np.zeros(p)
        phi = np.eye(p) / delta       # the lam^t/delta regularizer at t=0
        for _ in range(100):
            h = rng.standard_normal(p)
            rls_kernel_step(pinv, psi, h, rng.standard_normal(()), lam)
            phi = lam * phi + np.outer(h, h)
            worst = max(worst, float(np.linalg.norm(pinv @ phi - np.eye(p))))
    assert worst < 1e-8
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 3 & 4. eigenstructure of the mean transition; noise-lift consistency
# ---------------------------------------------------------------------------

def _topology_sweep():
    """10 random connected networks with random SPD regressor profiles."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(10):
        j = int(rng.integers(3, 11))
        p = (1, 2, 4)[i % 3]
        top = random_geometric(j, 0.7, seed=int(rng.integers(0, 2**31)))
        rh = np.empty((j, p, p))
        for k in range(j):
            a = rng.standard_normal((p, p))
            rh[k] = a @ a.T + 0.5 * np.eye(p)
        model = replace(iid_scenario(j, p, seed=i), rh=rh)
        cases.append((top, model, p))
    return cases


def test_mean_transition_eigenstructure(full_mean_stability):
    for top, model, p in _topology_sweep():
        bound = mean_stability_bound(top, model, 0.95)
        system = build_averaged_system(top, model, 0.95, 0.5 * bound)
        report = check_mean_stability(system)
        assert report.unit_eigen_count == p
        assert report.max_other_modulus < 1.0
        # semisimplicity and the left unit-eigenvectors, which the package
        # takes as given, checked on the whole transition
        full = full_mean_stability(system)
        assert full.semisimple
        assert full.left_upper_norm < 1e-8
        assert full.left_null_residual < 1e-8


def test_mean_stability_flips_at_the_bound():
    """The bound and the eigenstructure are computed apart; they must agree
    on which side of the bound a step lies."""
    for top, model, _ in _topology_sweep():
        bound = mean_stability_bound(top, model, 0.95)
        inside = build_averaged_system(top, model, 0.95, 0.95 * bound)
        outside = build_averaged_system(top, model, 0.95, 1.05 * bound)
        assert check_mean_stability(inside).stable
        assert not check_mean_stability(outside).stable


def test_core_eigensolves_match_the_full_transitions(full_radius, full_mean_stability,
                                                     general_mean_stability_bound):
    """The stability checks read one symmetric spectrum; the whole (2Jp, 2Jp)
    transitions and a general eigensolve of the bound's coupling give the
    same answers on the sweep, on both sides of the bound, on the AR
    benchmark network and on a single sensor. Below the bound rho equals
    the mean transition's largest other modulus, so rho < 1 exactly when c
    is below it."""
    ar = ExperimentConfig(**AR_BENCH)
    ar_top = build_topology(ar)
    cases = [(ar_top, build_model(ar, ar_top), ar.lam, ar.c),
             (from_edges(1, []), iid_scenario(1, 2, seed=1), 0.95, 0.1)]
    for top, model, _ in _topology_sweep():
        bound = mean_stability_bound(top, model, 0.95)
        cases += [(top, model, 0.95, f * bound) for f in (0.1, 0.5, 0.95, 1.05, 3.0)]
    for top, model, lam, c in cases:
        system = build_averaged_system(top, model, lam, c)
        rho = check_mse_stability(system).rho
        assert abs(rho - full_radius(system)) <= 1e-10
        core, full = check_mean_stability(system), full_mean_stability(system)
        assert core.unit_eigen_count == full.unit_eigen_count == model.p
        assert full.semisimple and full.left_vectors_structured
        assert abs(core.max_other_modulus - full.max_other_modulus) <= 1e-10
        assert abs(rho - core.max_other_modulus) <= 1e-12
        bound = mean_stability_bound(top, model, lam)
        assert (rho < 1.0) == (c < bound)
        if top.edges():
            reference = general_mean_stability_bound(top, model, lam)
            assert abs(bound - reference) <= 1e-12 * reference

    # an ill-conditioned R_h (condition number 1e8): at 0.1 x bound the
    # slowest modes have mu near 5e-10 against mu_max = 0.2, and the p zero
    # mu are near 1e-17; zero is judged relative to mu_max, so the count is
    # p at every step below the bound
    top = random_geometric(8, 0.7, seed=5)
    rng = np.random.default_rng(3)
    rotations = np.linalg.qr(rng.standard_normal((top.J, 2, 2)))[0]
    rh = (rotations * [1e-4, 1e4]) @ rotations.transpose(0, 2, 1)
    assert np.linalg.cond(rh).max() == pytest.approx(1e8)
    model = replace(iid_scenario(top.J, 2, seed=1), rh=rh)
    bound = mean_stability_bound(top, model, 0.95)
    reference = general_mean_stability_bound(top, model, 0.95)
    assert abs(bound - reference) <= 1e-12 * reference
    for f in (0.1, 0.5, 0.95):
        system = build_averaged_system(top, model, 0.95, f * bound)
        assert abs(check_mse_stability(system).rho - full_radius(system)) <= 1e-10
        report = check_mean_stability(system)
        assert report.unit_eigen_count == model.p, f"at {f} x bound"
        assert report.stable


def test_link_noise_lift_exists_on_the_sweep():
    """The link-noise covariance lies in the range of the consensus
    coupling, so lap_pinv lifts it with no residual."""
    for top, model, p in _topology_sweep():
        system = build_averaged_system(top, model, 0.95, 0.1)
        r_eta_mix = noise_covariances(system, model).r_eta_mix
        lift_residual = np.linalg.norm(system.lap_scaled @ system.lap_pinv @ r_eta_mix - r_eta_mix)
        assert lift_residual <= 1e-13 * np.linalg.norm(r_eta_mix)
        proj = system.inner_transition[top.J * p:, :top.J * p]
        assert np.linalg.norm(proj @ proj - proj) < 1e-10


def _close(a, b):
    """a equals b within 1e-12 of |b| (Frobenius), or exactly when b is 0."""
    return np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), np.finfo(float).tiny)


def _heterogeneous_link_noise_cases():
    """The sweep networks, a 4-sensor star with a chord, one sensor, a
    complete graph and ideal links, each with receiver variances that
    differ between sensors (but the last)."""
    rng = np.random.default_rng(11)
    cases = [(top, model) for top, model, _ in _topology_sweep()]
    cases += [(from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)]), iid_scenario(4, 2, seed=5)),
              (from_edges(1, []), iid_scenario(1, 3, seed=6)),
              (random_geometric(6, 1.5, seed=1), iid_scenario(6, 2, seed=7))]
    cases = [(top, replace(model, sigma2_eta=rng.uniform(0.01, 0.5, top.J)))
             for top, model in cases]
    top = random_geometric(7, 0.6, seed=4)
    return cases + [(top, iid_scenario(top.J, 2, seed=8, sigma2_eta=0.0))]


def test_link_noise_covariances_match_the_dense_oracle(dense_link_mix, directed_links):
    """r_eta_mix, r_eta_lam and feedthrough, built from the (J, J) weighted
    Laplacian W, equal their forms through the dense (Jp, Dp) map of every
    directed link's noise, with each link's receiver variance, and a
    pseudoinverse of the whole (Jp, Jp) coupling; and W 1 = 0."""
    for top, model in _heterogeneous_link_noise_cases():
        c, p = 0.3, model.p
        system = build_averaged_system(top, model, 0.95, c)
        noise = noise_covariances(system, model)
        mix = dense_link_mix(top, p, c)
        r_eta = np.repeat(model.sigma2_eta[directed_links(top)[0]], p)
        r = system.rh_lam_inv
        link_input = np.vstack([-r @ mix, np.linalg.pinv(system.lap_scaled) @ mix])
        dense_mix = (mix * r_eta) @ mix.T
        assert _close(noise.r_eta_mix, dense_mix), top.J
        assert _close(noise.r_eta_lam, (link_input * r_eta) @ link_input.T), top.J
        assert _close(noise.feedthrough, r @ (np.diag(noise.r_eta_bar) + dense_mix) @ r), top.J
        ones = np.kron(np.ones((top.J, 1)), np.eye(p))
        assert np.abs(noise.r_eta_mix @ ones).max() <= 1e-14 * np.abs(noise.r_eta_mix).max()


# ---------------------------------------------------------------------------
# 5. the stationary solve agrees with both fixed-point references
# ---------------------------------------------------------------------------

def test_closed_form_and_iterated_fixed_points_agree(kron_lyapunov, iterated_lyapunov):
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for j, p in [(2, 1), (5, 2), (10, 2), (4, 3), (3, 4), (8, 3), (6, 4)]:
        top = random_geometric(j, 0.8, seed=int(rng.integers(0, 2**31)))
        model = iid_scenario(j, p, seed=j * 10 + p, sigma2_eta=0.1)
        system = build_averaged_system(top, model, 0.95, 0.1)
        noise = noise_covariances(system, model)
        solved = steady_state_solve(system, noise).r_z
        for route, reference in (("closed form", kron_lyapunov(system, noise)),
                                 ("iterated", iterated_lyapunov(system, noise))):
            rel = np.linalg.norm(solved - reference) / np.linalg.norm(reference)
            assert rel < 1e-6, f"{route} disagrees at J={j}, p={p}: {rel:.2e}"
    assert time.monotonic() - start < 30.0


def _analysis_sweep():
    """The networks of the benchmark's analysis sweep, as (topology, model,
    lam, c): the iid ones (J*p = 20, 24, 40, 80) and the AR benchmark's
    (J*p = 60)."""
    configs = [ExperimentConfig(**{**IID_BENCH, "topology_j": j, "topology_radius": 0.5,
                                   "topology_seed": seed, "scenario_p": p, "scenario_seed": 1})
               for j, p, seed in [(10, 2, 7), (12, 2, 12), (20, 2, 20), (20, 4, 20)]]
    configs.append(ExperimentConfig(**AR_BENCH))
    cases = []
    for config in configs:
        top = build_topology(config)
        cases.append((top, build_model(config, top), config.lam, config.c))
    return cases


def test_core_doubling_matches_the_full_doubling(full_doubling_solve, full_forcing):
    """The package doubles on the (Jp, Jp) core and lifts back; doubling on
    the whole (2Jp, 2Jp) transition gives the same covariance to round-off,
    and the covariance meets the whole Lyapunov equation. Cases: the
    networks of the benchmark's analysis sweep and a single sensor."""
    cases = [(from_edges(1, []), iid_scenario(1, 2, seed=1), 0.95, 0.1)] + _analysis_sweep()
    for top, model, lam, c in cases:
        system = build_averaged_system(top, model, lam, c)
        noise = noise_covariances(system, model)
        r_z = steady_state_solve(system, noise).r_z
        reference = full_doubling_solve(system, noise)
        rel = np.linalg.norm(r_z - reference) / np.linalg.norm(reference)
        assert rel <= 1e-12, f"J*p = {top.J * model.p}: {rel:.2e}"
        a = system.inner_transition
        residual = r_z - a @ r_z @ a.T - full_forcing(system, noise)
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(r_z)


def test_2jp_objects_are_derived_only_on_access(tmp_path, full_operators,
                                                full_link_covariances, full_doubling_solve):
    """A prediction and the stability checks, as `drls predict` and `drls
    stability` run them, compute no (2Jp, 2Jp) object: none is in the
    instance dict. Read afterwards, each equals the oracle built from the
    (Jp, Jp) primitives."""
    for top, model, lam, c in _analysis_sweep():
        system = build_averaged_system(top, model, lam, c)
        noise = noise_covariances(system, model)
        report = steady_state_solve(system, noise)
        report.to_csv(tmp_path / "prediction.csv")
        # and what `drls stability` reads
        check_mean_stability(system), check_mse_stability(system), system.step_bound
        derived = [(system, "mean_transition"), (system, "inner_transition"),
                   (system, "data_input"), (noise, "r_eta_bar_lam"), (noise, "r_eta_lam"),
                   (report, "r_z")]
        for obj, name in derived:
            assert name not in vars(obj), (top.J * model.p, name)
        full = full_operators(system)
        oracles = [full.mean_transition, full.inner_transition, full.data_input,
                   *full_link_covariances(system, noise), full_doubling_solve(system, noise)]
        for (obj, name), oracle in zip(derived, oracles):
            assert _close(getattr(obj, name), oracle), (top.J * model.p, name)


def test_error_covariance_is_the_top_block_of_the_full_solve(full_doubling_solve):
    """r_y1, solved at Jp, is the top-left (Jp, Jp) block of the whole
    (2Jp, 2Jp) stationary covariance plus the feedthrough: on the sweep
    networks with and without link noise, on one sensor and on a 4-sensor
    star with a chord."""
    cases = [(top, model) for top, model, _, _ in _analysis_sweep()]
    cases += [(top, replace(model, sigma2_eta=np.zeros(top.J))) for top, model in cases]
    cases += [(from_edges(1, []), iid_scenario(1, 3, seed=6)),
              (from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)]), iid_scenario(4, 2, seed=5))]
    for top, model in cases:
        system = build_averaged_system(top, model, 0.95, 0.1)
        noise = noise_covariances(system, model)
        jp = top.J * model.p
        reference = full_doubling_solve(system, noise)[:jp, :jp] + noise.feedthrough
        assert _close(steady_state_solve(system, noise).r_y1, reference), (top.J, model.p)


def test_step_bound_is_the_mean_stability_bound():
    """2c / mu_max from the system's own coupling spectrum is the bound that
    `mean_stability_bound` takes by a second eigensolve."""
    for top, model, lam, c in _analysis_sweep():
        bound = mean_stability_bound(top, model, lam)
        assert abs(build_averaged_system(top, model, lam, c).step_bound - bound) <= 1e-14 * bound
    one = build_averaged_system(from_edges(1, []), iid_scenario(1, 2, seed=1), 0.95, 0.1)
    assert one.step_bound == np.inf


# ---------------------------------------------------------------------------
# 6. prediction versus simulation on both benchmarks
# ---------------------------------------------------------------------------

def test_prediction_matches_simulation_iid(iid_bench_compare):
    deltas = {r.metric: r.delta_db for r in iid_bench_compare.global_rows}
    assert abs(deltas["emse"]) <= 1.0, deltas
    assert abs(deltas["msd"]) <= 1.0, deltas


def test_prediction_matches_simulation_ar(ar_bench_compare):
    deltas = {r.metric: r.delta_db for r in ar_bench_compare.global_rows}
    assert abs(deltas["emse"]) <= 1.5, deltas
    assert abs(deltas["msd"]) <= 1.5, deltas


def test_averaged_model_misses_divergence_below_the_bound():
    """At half the mean-stability bound the prediction holds; at 0.9 of it
    the averaged model still calls the step mean-square stable, but the
    simulation diverges. The model drops the fluctuation of the inverse data
    matrices about their mean, and this pins what that costs."""
    config = ExperimentConfig(**EDGE_SETUP)
    top = build_topology(config)
    model = build_model(config, top)
    bound = mean_stability_bound(top, model, config.lam)
    half = compare_theory(replace(config, c=0.5 * bound), tol_db=0.5, topology=top, model=model)
    msd = next(r for r in half.global_rows if r.metric == "msd")
    assert abs(msd.delta_db) <= 0.5
    near = replace(config, c=0.9 * bound)
    assert check_mse_stability(averaged_system(near, top, model)).stable
    with pytest.raises(RunFailure):
        run_ensemble(near, topology=top, model=model)


def test_benchmark_runtime_budget(iid_bench_compare, ar_bench_compare):
    assert _timings["iid_bench"] + _timings["ar_bench"] < 600.0, _timings


# ---------------------------------------------------------------------------
# 7. link noise strictly costs performance
# ---------------------------------------------------------------------------

def test_noise_penalty_in_the_prediction(iid_bench_compare, ar_bench_compare):
    for bench, report in (("iid", iid_bench_compare), ("ar", ar_bench_compare)):
        config = ExperimentConfig(**(IID_BENCH if bench == "iid" else AR_BENCH))
        noisy = report.prediction
        top = build_topology(config)
        model = build_model(config, top)
        ideal_model = replace(model, sigma2_eta=np.zeros(model.J))
        system = build_averaged_system(top, ideal_model, config.lam, config.c)
        ideal = steady_state_solve(system, noise_covariances(system, ideal_model))
        assert noisy.emse_global > ideal.emse_global, bench


def test_noise_penalty_in_the_simulation(iid_bench_compare, iid_ideal_ensemble,
                                         ar_bench_ensemble, ar_ideal_ensemble):
    iid_noisy = _tail_emse_db(iid_bench_compare.ensemble, 300)
    iid_ideal = _tail_emse_db(iid_ideal_ensemble, 300)
    assert iid_noisy > iid_ideal
    ar_noisy = _tail_emse_db(ar_bench_ensemble, AR_TAIL)
    ar_ideal = _tail_emse_db(ar_ideal_ensemble, AR_TAIL)
    assert ar_noisy > ar_ideal


# ---------------------------------------------------------------------------
# 8. the ensemble-mean estimate is unbiased in practice
# ---------------------------------------------------------------------------

def test_ensemble_mean_bias_stays_small():
    config = ExperimentConfig(**{**IID_BENCH, "t_samples": 2000, "burn_in": 1800})
    top = build_topology(config)
    model = build_model(config, top)
    assert config.c < mean_stability_bound(top, model, config.lam)
    result = run_ensemble(config, topology=top, model=model)
    bias = np.linalg.norm(result.final_estimate_mean - model.s0, axis=1)
    assert (bias < 0.05 * np.linalg.norm(model.s0)).all(), bias


# ---------------------------------------------------------------------------
# 9. degenerate setups collapse to the classical estimators
# ---------------------------------------------------------------------------

def test_single_sensor_equals_pooled_weighted_ls(ewlse_centralized, advance_one):
    top = from_edges(1, [])
    lam, delta = 0.95, 100.0
    state = DrlsState(top, 2, lam, c=0.1, delta=delta)
    central = CentralizedRls(top, 2, lam, 0.1, delta)
    rng = np.random.default_rng(31)
    hs, xs = [], []
    for _ in range(100):
        h = rng.standard_normal((1, 2))
        x = h[0] @ np.ones(2) + 0.1 * rng.standard_normal(1)
        hs.append(h)
        xs.append(x)
        advance_one(state, h, x)
        advance_one(central, h, x)
        batch = ewlse_centralized(np.asarray(hs), np.asarray(xs), lam,
                                  phi0=lam / delta)
        assert np.abs(state.s[0] - batch).max() < 1e-10
        assert np.abs(state.s - central.s).max() < 1e-10


def test_zero_coupling_equals_isolated_rls(ewlse_centralized, advance_one):
    """At c = 0 on ideal links each sensor solves its own weighted LS
    problem: the no-cooperation baseline that local_rls runs."""
    top = random_geometric(6, 0.7, seed=12)
    lam, delta = 0.95, 100.0
    net = DrlsState(top, 3, lam, c=0.0, delta=delta)
    rng = np.random.default_rng(12)
    hs, xs = rng.standard_normal((200, 6, 3)), rng.standard_normal((200, 6))
    for t, (h, x) in enumerate(zip(hs, xs)):
        advance_one(net, h, x)
        for j in range(top.J):
            alone = ewlse_centralized(hs[:t + 1, j:j + 1], xs[:t + 1, j:j + 1], lam,
                                      phi0=lam / delta)
            assert np.abs(net.s[j] - alone).max() < 1e-10


# ---------------------------------------------------------------------------
# 10. the augmented-Lagrangian variant: dearer per step, same accuracy
# ---------------------------------------------------------------------------

def test_per_step_cost_ratio_grows_with_regressor_length():
    analytic = [admom_step_flops(p, 4) / ama_step_flops(p, 4)
                for p in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(analytic, analytic[1:]))

    top = random_geometric(6, 0.6, seed=3)
    measured = []
    for p in (2, 4, 8, 16):
        common = dict(topology_kind="geometric", topology_j=6,
                      topology_radius=0.6, topology_seed=3,
                      scenario_kind="iid", scenario_p=p, scenario_seed=5,
                      t_samples=5, runs=1, master_seed=0)
        model = iid_scenario(6, p, seed=5)
        ama = run_ensemble(ExperimentConfig(algorithm="drls_ama", **common),
                           topology=top, model=model)
        adm = run_ensemble(ExperimentConfig(algorithm="drls_admom", **common),
                           topology=top, model=model)
        measured.append(adm.flops_per_run / ama.flops_per_run)
    assert all(b > a for a, b in zip(measured, measured[1:])), measured


def test_variants_reach_the_same_steady_state(ar_bench_ensemble,
                                              ar_admom_ensemble):
    ama_db = _tail_emse_db(ar_bench_ensemble, AR_TAIL)
    admom_db = _tail_emse_db(ar_admom_ensemble, AR_TAIL)
    assert abs(ama_db - admom_db) <= 1.0, (ama_db, admom_db)


# ---------------------------------------------------------------------------
# 11. the error norm stays inside the predicted probability ball
# ---------------------------------------------------------------------------

def test_error_norm_is_weakly_stochastically_bounded(ar_bench_ensemble,
                                                     ar_bench_compare):
    """A ball of 10x the predicted RMS error contains the stationary
    network error with empirical exceedance at most 1% (plus sampling
    slack), consistent with the Chebyshev reading of the prediction."""
    config = ExperimentConfig(**AR_BENCH)
    # the doubling solve's stationary network MSD, as compare_theory predicted it
    ball = 100.0 * float(ar_bench_compare.prediction.msd.sum())   # (10 * rms)^2

    deviations = ar_bench_ensemble.network_deviation[:, config.resolved_burn_in:]
    exceed = float((deviations >= ball).mean())
    n = deviations.size
    slack = 3.0 * np.sqrt(0.01 * 0.99 / n)
    assert exceed <= 0.01 + slack, (exceed, ball)
