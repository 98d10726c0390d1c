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
    mean_stability_bound,
    noise_covariances,
    steady_state_solve,
    to_db,
)
from drls.estimators import (
    CentralizedRls,
    DrlsState,
    LocalRls,
    admom_step_flops,
    ama_step_flops,
    rls_kernel_step,
)
from drls.harness import (
    ExperimentConfig,
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

def test_batch_consensus_tracks_the_pooled_estimator(ewlse_centralized, frozen_consensus):
    """Frozen-data consensus converges to the pooled weighted LS solution
    on a complete 5-sensor network for at least one swept step size."""
    start = time.monotonic()
    lam, delta, p, horizon = 0.95, 100.0, 3, 50
    top = from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    model = iid_scenario(5, p, seed=50, sigma2_eta=0.0)
    hs, xs, _, _ = SnapshotStream(model, top, [50]).draws(horizon)
    hs, xs = hs[:, 0], xs[:, 0]
    local = LocalRls(top, p, lam, 0.0, delta)
    for h, x in zip(hs, xs):
        local.step(h, x)
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
            pinv, psi = rls_kernel_step(pinv, psi, h, rng.standard_normal(()), lam)
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


def test_mean_transition_eigenstructure():
    for top, model, p in _topology_sweep():
        bound = mean_stability_bound(top, model, 0.95)
        system = build_averaged_system(top, model, 0.95, 0.5 * bound)
        report = check_mean_stability(system)
        assert report.unit_eigen_count == p
        assert report.semisimple
        assert report.max_other_modulus < 1.0
        assert report.left_upper_norm < 1e-8
        assert report.left_null_residual < 1e-8


def test_link_noise_lift_exists_on_the_sweep():
    for top, model, p in _topology_sweep():
        system = build_averaged_system(top, model, 0.95, 0.1)
        lift_residual = np.linalg.norm(
            system.lap_scaled @ system.lifted_mix - system.link_mix
        )
        assert lift_residual < 1e-10
        proj = system.inner_transition[top.J * p:, :top.J * p]
        assert np.linalg.norm(proj @ proj - proj) < 1e-10


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

def test_single_sensor_equals_pooled_weighted_ls(ewlse_centralized):
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
        state.step(h, x)
        central.step(h, x)
        batch = ewlse_centralized(np.asarray(hs), np.asarray(xs), lam,
                                  phi0=lam / delta)
        assert np.abs(state.s[0] - batch).max() < 1e-10
        assert np.abs(state.s - central.s).max() < 1e-10


def test_zero_coupling_equals_isolated_rls():
    top = random_geometric(6, 0.7, seed=12)
    net = DrlsState(top, 3, lam=0.95, c=0.0, delta=100.0)
    solo = LocalRls(top, 3, lam=0.95, c=0.0, delta=100.0)
    rng = np.random.default_rng(12)
    for _ in range(200):
        h = rng.standard_normal((6, 3))
        x = rng.standard_normal(6)
        net.step(h, x)
        solo.step(h, x)
        assert np.abs(net.s - solo.s).max() <= 1e-12


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
