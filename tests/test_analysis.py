from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from drls import analysis
from drls.analysis import (
    _metric_cells,
    _stationary_forcing,
    build_averaged_system,
    check_mean_stability,
    check_mse_stability,
    mean_stability_bound,
    noise_covariances,
    steady_state_solve,
    to_db,
)
from drls.errors import AssemblyError, DivergenceError, ModelError, StabilityError
from drls.signals import SensorEnsembleModel, iid_scenario
from drls.topology import from_edges, random_geometric


def _pair_system(c=4.0, lam=0.95, sigma2_eta=0.1, sigma2_eps=0.5):
    """Two sensors, one link, scalar parameter: everything is computable
    by hand."""
    top = from_edges(2, [(0, 1)])
    model = iid_scenario(2, 1, seed=0, sigma2_eta=sigma2_eta,
                         sigma2_eps=sigma2_eps)
    return top, model, build_averaged_system(top, model, lam, c)


def test_pair_oracle_coupling_and_mixing():
    _, _, system = _pair_system()
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(system.lap_scaled, 2.0 * lap)
    assert_allclose(system.rh_lam_inv, 0.05 * np.eye(2))
    # c/4 = 1 here, so the mixing maps are bare selection matrices: link 0 is
    # what sensor 0 hears from sensor 1, link 1 what sensor 1 hears from 0
    assert_allclose(system.recv_mix, np.eye(2))
    assert_allclose(system.bcast_mix, [[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(system.lifted_mix, -lap / 4.0, atol=1e-12)


def test_pair_oracle_transitions():
    _, _, system = _pair_system()
    lap2 = system.lap_scaled
    eye = np.eye(2)
    assert_allclose(system.mean_transition,
                    np.block([[-0.05 * lap2, -0.05 * eye], [lap2, eye]]))
    # fluctuation transition contracts at exactly 1 - (1-lam)(c/2)*2 = 0.8
    assert check_mse_stability(system).rho == pytest.approx(0.8, abs=1e-12)


def test_pair_oracle_mean_stability_bound():
    top, model, _ = _pair_system()
    assert mean_stability_bound(top, model, 0.95) == pytest.approx(40.0)
    assert mean_stability_bound(top, model, 1.0) == np.inf


def test_pair_oracle_mean_eigenstructure():
    _, _, system = _pair_system()
    report = check_mean_stability(system)
    assert report.unit_eigen_count == 1
    assert report.expected_unit_count == 1
    assert report.semisimple
    assert report.max_other_modulus == pytest.approx(0.8, abs=1e-9)
    assert report.left_upper_norm < 1e-10
    assert report.left_null_residual < 1e-10
    assert report.stable


def test_pair_oracle_noise_covariances():
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    assert_allclose(noise.r_eta, 0.1 * np.eye(2))
    assert_allclose(noise.r_eta_bar, 0.025 * np.eye(2))
    assert_allclose(noise.r_eps_inf, 0.5 / (1 - 0.95 ** 2) * np.eye(2))
    expected_feed = 0.05 ** 2 * np.array([[0.225, -0.2], [-0.2, 0.225]])
    assert_allclose(noise.feedthrough, expected_feed, atol=1e-14)


def test_intertwining_identity():
    """bdiag(I, lap) maps the fluctuation transition onto the mean one."""
    for seed, p in [(1, 1), (2, 2), (3, 3)]:
        top = random_geometric(6, 0.6, seed=seed)
        model = iid_scenario(top.J, p, seed=seed)
        system = build_averaged_system(top, model, 0.95, 0.1)
        jp = top.J * p
        lift = np.block([
            [np.eye(jp), np.zeros((jp, jp))],
            [np.zeros((jp, jp)), system.lap_scaled],
        ])
        left = lift @ system.inner_transition
        right = system.mean_transition @ lift
        assert np.abs(left - right).max() < 1e-10


def test_mixing_maps_agree_with_per_receiver_sums():
    """recv_mix/bcast_mix reproduce loop-computed noise aggregates of the
    noise rows as the simulation draws them (row k = what link_owner[k]
    hears from link_peer[k])."""
    top = random_geometric(7, 0.6, seed=4)
    p, c = 2, 0.4
    model = iid_scenario(top.J, p, seed=0)
    system = build_averaged_system(top, model, 0.95, c)
    rng = np.random.default_rng(0)
    eta = rng.standard_normal((top.n_links, p))

    heard = system.recv_mix @ eta.reshape(-1)
    echoed = system.bcast_mix @ eta.reshape(-1)
    for j in range(top.J):
        # everything sensor j hears
        mine = [k for k in range(top.n_links) if top.link_owner[k] == j]
        assert_allclose(heard[j * p:(j + 1) * p],
                        c / 4.0 * eta[mine].sum(axis=0), atol=1e-12)
        # every corruption of sensor j's own broadcast
        own = [k for k in range(top.n_links) if top.link_peer[k] == j]
        assert_allclose(echoed[j * p:(j + 1) * p],
                        c / 4.0 * eta[own].sum(axis=0), atol=1e-12)


def test_lift_and_projector_residuals():
    top = random_geometric(8, 0.55, seed=2)
    model = iid_scenario(top.J, 2, seed=2)
    system = build_averaged_system(top, model, 0.95, 0.1)
    diff = system.bcast_mix - system.recv_mix
    assert np.linalg.norm(system.lap_scaled @ system.lifted_mix - diff) < 1e-10
    proj = system.inner_transition[top.J * 2:, :top.J * 2]
    assert np.linalg.norm(proj @ proj - proj) < 1e-10


def test_build_rejects_degenerate_parameters():
    top = from_edges(2, [(0, 1)])
    model = iid_scenario(2, 1, seed=0)
    with pytest.raises(AssemblyError, match="forgetting factor"):
        build_averaged_system(top, model, 1.0, 0.1)
    with pytest.raises(AssemblyError, match="consensus step"):
        build_averaged_system(top, model, 0.95, 0.0)
    with pytest.raises(ModelError, match="sensors"):
        build_averaged_system(from_edges(3, [(0, 1), (1, 2)]), model, 0.95, 0.1)


def test_noise_covariances_use_receiver_profiles():
    """Block k of the stacked link-noise covariance belongs to the
    receiving end of directed link k."""
    top = from_edges(3, [(0, 1), (1, 2)])
    model = iid_scenario(3, 1, seed=0)
    r_eta = np.stack([(0.1 * (j + 1)) * np.eye(1) for j in range(3)])
    model = SensorEnsembleModel(
        p=1, s0=model.s0, rh=model.rh, sigma2_eps=model.sigma2_eps,
        r_eta=r_eta, regressor_kind="iid_gaussian",
    )
    system = build_averaged_system(top, model, 0.95, 0.1)
    noise = noise_covariances(system, model)
    expected = np.diag([0.1 * (int(top.link_owner[k]) + 1)
                        for k in range(top.n_links)])
    assert_allclose(noise.r_eta, expected)
    assert_allclose(np.diag(noise.r_eta_bar),
                    [d / 4.0 * 0.1 * (j + 1) for j, d in enumerate(top.degrees)])


def test_per_sensor_blocks_follow_their_sensor():
    """Every stacked block belongs to its own sensor or link: checked block
    by block against a loop, with R_hj, noise levels, R_eta_j and degrees
    that all differ between sensors."""
    top = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    j, p, lam = top.J, 2, 0.9
    rng = np.random.default_rng(5)
    a = rng.standard_normal((j, p, p))
    rh = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(p)
    r_eta = np.stack([(0.05 * (k + 1)) * np.eye(p) for k in range(j)])
    model = SensorEnsembleModel(
        p=p, s0=np.ones(p), rh=rh, sigma2_eps=np.array([1e-3, 4e-3, 2e-3, 8e-3]),
        r_eta=r_eta, regressor_kind="iid_gaussian",
    )
    system = build_averaged_system(top, model, lam, 0.1)
    noise = noise_covariances(system, model)
    report = steady_state_solve(system, noise)

    def block(m, k):
        return m[k * p:(k + 1) * p, k * p:(k + 1) * p]

    rh_inv = np.zeros((j * p, j * p))
    for k in range(j):
        assert_allclose(block(system.rh, k), rh[k], rtol=0, atol=0)
        assert_allclose(block(system.rh_lam_inv, k), (1 - lam) * np.linalg.inv(rh[k]))
        assert_allclose(block(noise.r_eps_inf, k),
                        rh[k] * model.sigma2_eps[k] / (1 - lam * lam))
        assert_allclose(block(noise.r_eta_bar, k), top.degrees[k] / 4.0 * r_eta[k])
        r_y1_k = block(report.r_y1, k)
        assert report.msd[k] == pytest.approx(np.trace(r_y1_k), rel=1e-12)
        assert report.emse[k] == pytest.approx(np.trace(rh[k] @ r_y1_k), rel=1e-12)
        rh_inv[k * p:(k + 1) * p, k * p:(k + 1) * p] = np.linalg.inv(rh[k])
    for k in range(top.n_links):
        assert_allclose(block(noise.r_eta, k), r_eta[top.link_owner[k]], rtol=0, atol=0)
    assert_allclose(report.mse, report.emse + model.sigma2_eps, rtol=1e-15)
    coupling = rh_inv @ np.kron(np.diag(top.degrees) - top.adjacency, np.eye(p))
    rho = np.max(np.abs(np.linalg.eigvals(coupling)))
    assert mean_stability_bound(top, model, lam) == pytest.approx(4.0 / ((1 - lam) * rho))


def test_steady_state_routes_agree(kron_lyapunov, iterated_lyapunov):
    top = random_geometric(5, 0.7, seed=3)
    model = iid_scenario(top.J, 2, seed=3, sigma2_eta=0.1)
    cases = [(top, model, build_averaged_system(top, model, 0.95, 0.1)), _pair_system()]
    for top, model, system in cases:
        noise = noise_covariances(system, model)
        report = steady_state_solve(system, noise)
        iterated = iterated_lyapunov(system, noise)
        for reference in (kron_lyapunov(system, noise), iterated):
            rel = np.linalg.norm(report.r_z - reference) / np.linalg.norm(reference)
            assert rel < 1e-6
        # the doubling solve meets its own equation to round-off
        a = system.inner_transition
        residual = report.r_z - a @ report.r_z @ a.T - _stationary_forcing(system, noise)
        assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(report.r_z)
        p = system.p
        jp = top.J * p
        r_y1 = iterated[:jp, :jp] + noise.feedthrough
        iterated_msd = [np.trace(r_y1[k:k + p, k:k + p]) for k in range(0, jp, p)]
        assert_allclose(report.msd, iterated_msd, rtol=1e-6)


def test_steady_state_report_consistency():
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    report = steady_state_solve(system, noise)
    assert_allclose(report.mse, report.emse + model.sigma2_eps)
    assert report.msd_global == pytest.approx(report.msd.mean())
    assert (report.msd > 0).all()
    # symmetric PSD stationary covariance
    assert_allclose(report.r_z, report.r_z.T, atol=1e-12)
    assert np.linalg.eigvalsh(report.r_z).min() > -1e-12
    assert report.rho == pytest.approx(0.8, abs=1e-9)


def test_steady_state_refuses_unstable_dynamics():
    top, model, system = _pair_system(c=45.0)
    noise = noise_covariances(system, model)
    with pytest.raises(StabilityError, match="spectral radius"):
        steady_state_solve(system, noise)


def test_steady_state_raises_when_doubling_does_not_converge(monkeypatch):
    """The pair system needs about seven squarings; capped at two, the
    solve must refuse rather than return a truncated covariance."""
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    monkeypatch.setattr(analysis, "DOUBLING_MAX_SQUARINGS", 2)
    with pytest.raises(DivergenceError, match="did not converge in 2 squarings"):
        steady_state_solve(system, noise)


def test_steady_state_raises_on_non_finite_covariance():
    """A nilpotent transition (rho = 0) with huge entries overflows the
    forcing; the solve reports it instead of returning infinities."""
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    blowup = replace(system, inner_transition=np.triu(np.full((4, 4), 1e200), 1))
    with pytest.raises(DivergenceError, match="lost finiteness"):
        steady_state_solve(blowup, noise)


def test_link_noise_raises_the_prediction():
    top = random_geometric(6, 0.6, seed=1)
    levels = []
    for sigma2_eta in (0.0, 0.1, 0.2):
        model = iid_scenario(top.J, 2, seed=1, sigma2_eta=sigma2_eta)
        system = build_averaged_system(top, model, 0.95, 0.1)
        report = steady_state_solve(system, noise_covariances(system, model))
        levels.append(report.emse_global)
    assert levels[0] < levels[1] < levels[2]


def test_covariance_trajectory_converges_to_the_fixed_point(iterated_lyapunov):
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    # the forward recursion from R(0) = 0 fails the test unless it converges
    r_z = iterated_lyapunov(system, noise)
    jp = top.J * system.p
    network_msd = float(np.trace(r_z[:jp, :jp] + noise.feedthrough))
    report = steady_state_solve(system, noise)
    assert network_msd == pytest.approx(float(np.trace(report.r_y1)), rel=1e-6)


def test_report_csv_schema(tmp_path):
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    report = steady_state_solve(system, noise)
    path = tmp_path / "prediction.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sensor_id,msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"
    assert len(lines) == 1 + top.J + 1
    assert lines[-1].startswith("global,")
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[1]) == pytest.approx(report.msd[0])
    assert float(cells[2]) == pytest.approx(to_db(report.msd[0]), abs=1e-6)


def test_to_db_floor():
    assert to_db(0.0) == pytest.approx(-3000.0)
    assert to_db(1.0) == 0.0
    assert to_db(100.0) == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# the metric-table cell kernel against ``%``
# ---------------------------------------------------------------------------

_CELLS_FORMAT = ",".join(["%.12e", "%.6f"] * 3) + "\n"


def _assert_proven_cells_match_percent(lin, db):
    """Every row the kernel proves is byte for byte what ``%`` prints;
    returns the proven mask."""
    lin, db = np.asarray(lin, np.float64), np.asarray(db, np.float64)
    cells, proven = _metric_cells(lin, db)
    for text, ok, x, v in zip(cells, proven, lin.tolist(), db.tolist()):
        if ok:
            want = _CELLS_FORMAT % (x[0], v[0], x[1], v[1], x[2], v[2])
            assert text[text != 0].tobytes().decode() == want, (x, v)
    return proven


def _assert_cells_match_percent(lin_values, db_values):
    """Each value in each column of a row of its own, beside cells the
    kernel always proves, so that whether the row is proven is whether that
    cell is; returns the proven masks of the linear and the dB cells."""
    def rows(values, filler):
        values = np.asarray(values, np.float64)
        out = np.full((3, values.size, 3), filler)
        out[[0, 1, 2], :, [0, 1, 2]] = values
        return out.reshape(-1, 3)

    lin = rows(lin_values, 1.0)
    db = rows(db_values, -20.0)
    return (_assert_proven_cells_match_percent(lin, np.full(lin.shape, -20.0)),
            _assert_proven_cells_match_percent(np.full(db.shape, 1.0), db))


def _ulp_neighbours(values, ulps=4):
    """Each value and its neighbours up to `ulps` units in the last place
    either side."""
    values = np.asarray(values, np.float64)
    out = [values]
    for direction in (np.inf, -np.inf):
        step = values
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


_CELL_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e57, 1e57),          # within the scaled range of ``%.12e``
    st.floats(-1e4, 1e4),            # within the integer digits of ``%.6f``
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 12), elements=_CELL_VALUES))
def test_metric_cells_match_percent_on_any_double(values):
    _assert_cells_match_percent(values, values)


def test_metric_cells_match_percent_on_adversarial_values():
    """Ties, near-ties, powers of ten and carries, each 1 to 4 ulps either
    side; the two-rounding cases at the end land one spacing past a
    half-integer on the wrong side, which only the tie margin catches."""
    half_points = [f"{d}.{m}5e{e}" for d, m in (("1", "234567890123"), ("4", "999999999999"),
                                                 ("9", "876543210987"))
                   for e in (-31, -20, -11, -7, -1, 0, 5, 12, 13, 22, 23, 34, 35, 56)]
    lin = _ulp_neighbours(
        [2.0**-20, 0.0078125, 1e300, -1e300, 1e-300, 5e-324, 1e-310, 0.0, -0.0, 1.0, -2.5]
        + [float(h) for h in half_points] + [-float(h) for h in half_points]
        + [float(f"1e{e}") for e in range(-33, 58)]
        + [float(f"9.9999999999995e{e}") for e in range(-33, 58)]
        + [float(f"9.9999999999994999e{e}") for e in (-20, 0, 7, 40)]
        + [7.9811712122065e-30, 6.7170356550975e-15, 8.2484670889375e+50,
           8.1408748639115e+50, 8.6858949059035e+56, -7.0880521943155e-15])
    db = _ulp_neighbours(
        [0.0078125, -0.0078125, 0.0000005, -0.0000005, 12.3456785, -57.0000005,
         -2999.9999995, 1234.5678905, 9999.9999995, -9999.9999994, 0.0, -0.0, -1e-9,
         1e-9, -3000.0, 3082.5, 1e-300, -1e300, 5e-324])
    for proven in _assert_cells_match_percent(lin, db):
        assert proven.mean() > 0.5 and not proven.all()
    cells, _ = _metric_cells(np.full((1, 3), 1.0), np.array([[-1e-9, -0.0, -3000.0]]))
    assert cells[0][cells[0] != 0].tobytes() == (
        b"1.000000000000e+00,-0.000000,1.000000000000e+00,-0.000000,"
        b"1.000000000000e+00,-3000.000000\n")


def test_metric_cells_prove_nearly_every_row_of_typical_data():
    """Rows the kernel cannot prove go to ``%``; on learning-curve-like
    data they must stay rare, or the kernel saves nothing."""
    lin = np.random.default_rng(3).lognormal(-6.0, 4.0, size=(20_000, 3))
    assert _assert_proven_cells_match_percent(lin, to_db(lin)).mean() > 0.99
