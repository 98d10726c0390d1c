from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from drls import analysis
from drls.analysis import (
    _metric_cells,
    build_averaged_system,
    check_mean_stability,
    check_mse_stability,
    mean_stability_bound,
    noise_covariances,
    steady_state_solve,
    to_db,
)
from drls.errors import AssemblyError, DivergenceError, ModelError, StabilityError
from drls.signals import SensorEnsembleModel, ar_scenario, iid_scenario
from drls.topology import from_edges, laplacian, random_geometric


def _pair_system(c=4.0, lam=0.95, sigma2_eta=0.1, sigma2_eps=0.5):
    """Two sensors, one link, scalar parameter: everything is computable
    by hand."""
    top = from_edges(2, [(0, 1)])
    model = replace(iid_scenario(2, 1, seed=0, sigma2_eta=sigma2_eta),
                    sigma2_eps=np.full(2, sigma2_eps))
    return top, model, build_averaged_system(top, model, lam, c)


def test_pair_oracle_coupling_and_mixing(dense_link_mix):
    top, model, system = _pair_system()
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(system.lap_scaled, 2.0 * lap)
    # lap @ lap = 2 lap, so pinv(2 lap) = lap / 8
    assert_allclose(system.lap_pinv, lap / 8.0, atol=1e-15)
    assert_allclose(system.rh_lam_inv, 0.05 * np.eye(2))
    # c/4 = 1 here, so the mixing map is a bare signed selection: link 0 is
    # what sensor 0 hears from sensor 1, link 1 what sensor 1 hears from 0,
    # and each sensor gets its broadcast's corruption less what it hears
    mix = dense_link_mix(top, 1, 4.0)
    assert_allclose(mix, [[-1.0, 1.0], [1.0, -1.0]], rtol=0, atol=0)
    assert_allclose(system.lap_pinv @ mix, -lap / 4.0, atol=1e-15)
    # both links carry variance 0.1, so the link {0, 1} weighs 0.2
    noise = noise_covariances(system, model)
    assert_allclose(noise.r_eta_mix, mix @ (0.1 * mix.T), rtol=1e-15)
    assert_allclose(noise.r_eta_mix, 0.2 * lap, rtol=1e-15)


def test_lap_scaled_structure():
    top = from_edges(2, [(0, 1)])
    system = build_averaged_system(top, iid_scenario(2, 2, seed=0), 0.95, 4.0)
    assert_allclose(system.lap_scaled, 2.0 * np.kron(laplacian(top), np.eye(2)))
    # PSD with nullspace of dimension exactly p
    w = np.linalg.eigvalsh(system.lap_scaled)
    assert (w > -1e-12).all()
    assert int(np.sum(np.abs(w) < 1e-10)) == 2


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


def test_pair_oracle_mean_eigenstructure(full_mean_stability):
    _, _, system = _pair_system()
    report = check_mean_stability(system)
    assert report.unit_eigen_count == 1
    assert report.expected_unit_count == 1
    assert report.max_other_modulus == pytest.approx(0.8, abs=1e-9)
    assert report.stable
    full = full_mean_stability(system)
    assert full.semisimple
    assert full.left_upper_norm < 1e-10
    assert full.left_null_residual < 1e-10


def test_pair_oracle_noise_covariances():
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    # (c/4)^2 = 1 times the Laplacian of the link {0, 1} weighed 0.1 + 0.1
    assert_allclose(noise.r_eta_mix, [[0.2, -0.2], [-0.2, 0.2]])
    assert_allclose(noise.r_eta_bar, [0.025, 0.025])
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


def test_mixing_maps_agree_with_per_receiver_sums(dense_link_mix, directed_links):
    """The dense oracle map reproduces loop-computed noise aggregates of the
    noise rows as the simulation draws them (row k = what owner[k] hears
    from peer[k] of the directed links): every corruption of a sensor's own
    broadcast, less everything it hears, so owner and peer are told apart. r_eta_mix
    is the covariance of those aggregates, summed link by link with each
    row's receiver variance."""
    top = random_geometric(7, 0.6, seed=4)
    p, c = 2, 0.4
    model = replace(iid_scenario(top.J, p, seed=0), sigma2_eta=0.05 * np.arange(1, top.J + 1))
    system = build_averaged_system(top, model, 0.95, c)
    owner, peer = directed_links(top)
    d = owner.size
    rng = np.random.default_rng(0)
    eta = rng.standard_normal((d, p))

    def aggregate(eta):
        out = np.zeros((top.J, p))
        for j in range(top.J):
            # everything sensor j hears
            mine = [k for k in range(d) if owner[k] == j]
            # every corruption of sensor j's own broadcast
            own = [k for k in range(d) if peer[k] == j]
            out[j] = c / 4.0 * (eta[own].sum(axis=0) - eta[mine].sum(axis=0))
        return out.reshape(-1)

    assert_allclose(dense_link_mix(top, p, c) @ eta.reshape(-1), aggregate(eta), atol=1e-12)
    expected = np.zeros((top.J * p, top.J * p))
    for k in range(d):
        for i in range(p):
            unit = np.zeros((d, p))
            unit[k, i] = 1.0
            a = aggregate(unit)
            expected += model.sigma2_eta[owner[k]] * np.outer(a, a)
    assert_allclose(noise_covariances(system, model).r_eta_mix, expected, rtol=1e-13, atol=1e-17)


def test_lift_and_projector_residuals(dense_link_mix):
    top = random_geometric(8, 0.55, seed=2)
    model = iid_scenario(top.J, 2, seed=2)
    system = build_averaged_system(top, model, 0.95, 0.1)
    # the link noise lies in the range of lap_scaled, so lap_pinv lifts it
    mix = dense_link_mix(top, 2, 0.1)
    assert np.linalg.norm(system.lap_scaled @ system.lap_pinv @ mix - mix) < 1e-10
    r_eta_mix = noise_covariances(system, model).r_eta_mix
    assert np.linalg.norm(system.lap_scaled @ system.lap_pinv @ r_eta_mix - r_eta_mix) < 1e-14
    proj = system.inner_transition[top.J * 2:, :top.J * 2]
    assert np.linalg.norm(proj @ proj - proj) < 1e-10


def test_build_rejects_degenerate_parameters():
    top = from_edges(2, [(0, 1)])
    model = iid_scenario(2, 1, seed=0)
    with pytest.raises(AssemblyError, match="forgetting factor"):
        build_averaged_system(top, model, 1.0, 0.1)
    with pytest.raises(AssemblyError, match="consensus step"):
        build_averaged_system(top, model, 0.95, 0.0)
    with pytest.raises(AssemblyError, match="c must be positive, got nan"):
        build_averaged_system(top, model, 0.95, float("nan"))
    with pytest.raises(ModelError, match="sensors"):
        build_averaged_system(from_edges(3, [(0, 1), (1, 2)]), model, 0.95, 0.1)


def test_mean_stability_bound_refuses_a_mismatched_model():
    """A model for another sensor count is refused by name, on a linked
    network and on one with no links alike."""
    model = iid_scenario(4, 2, seed=0)
    for top in (from_edges(1, []), from_edges(3, [(0, 1), (1, 2)])):
        with pytest.raises(ModelError, match=f"model has 4 sensors but topology has {top.J}$"):
            mean_stability_bound(top, model, 0.95)


def test_noise_covariances_refuse_a_mismatched_model():
    _, _, system = _pair_system()
    for model, got in ((iid_scenario(3, 1, seed=0), "J = 3, p = 1"),
                       (iid_scenario(2, 2, seed=0), "J = 2, p = 2")):
        with pytest.raises(ModelError) as info:
            noise_covariances(system, model)
        assert str(info.value) == f"model has {got} but the averaged system has J = 2, p = 1"


def test_noise_covariances_refuse_a_model_with_another_rh():
    """EMSE reads the system's R_h and the data noise the model's, so a
    model with another rh is refused; other noise levels are the model's to
    change."""
    top = random_geometric(6, 0.7, seed=2)
    model = iid_scenario(6, 2, seed=3)
    system = build_averaged_system(top, model, 0.95, 0.1)
    with pytest.raises(ModelError, match="model's rh is not the rh the averaged system "
                                         "was built from"):
        noise_covariances(system, replace(model, rh=4.0 * model.rh))
    quiet = replace(model, sigma2_eps=2.0 * model.sigma2_eps, sigma2_eta=np.zeros(6))
    assert noise_covariances(system, quiet).r_eta_bar.max() == 0.0


def test_noise_covariances_use_receiver_profiles():
    """Each link {i, j} carries the noise both receivers hear, so it weighs
    sigma2_eta_i + sigma2_eta_j in r_eta_mix; the multiplier-exchange noise
    of sensor j scales with its own degree and variance."""
    top = from_edges(3, [(0, 1), (1, 2)])
    model = iid_scenario(3, 1, seed=0)
    model = replace(model, sigma2_eta=0.1 * np.arange(1, 4))
    system = build_averaged_system(top, model, 0.95, 0.1)
    noise = noise_covariances(system, model)
    # links {0, 1} and {1, 2} weigh 0.1 + 0.2 and 0.2 + 0.3
    w = np.array([[0.3, -0.3, 0.0], [-0.3, 0.8, -0.5], [0.0, -0.5, 0.5]])
    assert_allclose(noise.r_eta_mix, (0.1 / 4.0) ** 2 * w, rtol=1e-14)
    assert_allclose(noise.r_eta_bar,
                    [d / 4.0 * 0.1 * (j + 1) for j, d in enumerate(top.degrees)])


@pytest.mark.parametrize("top, model", [
    (random_geometric(7, 0.6, seed=4), iid_scenario(7, 2, seed=1)),
    (random_geometric(6, 1.5, seed=1), ar_scenario(6, seed=2, sigma2_eta=0.0)),
], ids=["iid-links-on", "ar-complete-links-off"])
def test_noise_covariances_match_the_dense_diagonal_formulas(top, model):
    """The variance vector r_eta_bar stands for a diagonal covariance: each
    product with it equals the product with the dense diagonal, bit for
    bit. The link-noise aggregate enters through [-R; L^+], and r_eta_mix
    is (c/4)^2 times a Laplacian, widened by I_p."""
    system = build_averaged_system(top, model, 0.95, 0.1)
    noise = noise_covariances(system, model)
    jp = top.J * model.p
    assert noise.r_eta_mix.shape == (jp, jp)
    assert noise.r_eta_bar.shape == (jp,)
    r_eta_bar = np.diag(noise.r_eta_bar)
    b, r = system.data_input, system.rh_lam_inv
    g = np.vstack([-r, system.lap_pinv])
    assert_array_equal(noise.r_eta_lam, g @ noise.r_eta_mix @ g.T)
    assert_array_equal(noise.r_eta_bar_lam, b @ r_eta_bar @ b.T)
    assert_array_equal(noise.feedthrough, r @ (r_eta_bar + noise.r_eta_mix) @ r)
    w = noise.r_eta_mix[::model.p, ::model.p]
    assert_array_equal(noise.r_eta_mix, np.kron(w, np.eye(model.p)))
    assert_array_equal(w != 0, (laplacian(top) != 0) & (model.sigma2_eta > 0).any())


def test_per_sensor_blocks_follow_their_sensor():
    """Every stacked block belongs to its own sensor or link: checked block
    by block against a loop, with R_hj, noise levels, link-noise variances
    and degrees that all differ between sensors."""
    top = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    j, p, lam = top.J, 2, 0.9
    rng = np.random.default_rng(5)
    a = rng.standard_normal((j, p, p))
    rh = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(p)
    sigma2_eta = 0.05 * np.arange(1, j + 1)
    model = SensorEnsembleModel(
        s0=np.ones(p), rh=rh, sigma2_eps=np.array([1e-3, 4e-3, 2e-3, 8e-3]),
        sigma2_eta=sigma2_eta,
    )
    system = build_averaged_system(top, model, lam, 0.1)
    noise = noise_covariances(system, model)
    report = steady_state_solve(system, noise)

    def block(m, k, i=None):
        i = k if i is None else i
        return m[k * p:(k + 1) * p, i * p:(i + 1) * p]

    def entries(v, k):
        return v[k * p:(k + 1) * p]

    rh_inv = np.zeros((j * p, j * p))
    for k in range(j):
        assert_allclose(system.rh[k], rh[k], rtol=0, atol=0)
        assert_allclose(block(system.rh_lam_inv, k), (1 - lam) * np.linalg.inv(rh[k]))
        assert_allclose(block(noise.r_eps_inf, k),
                        rh[k] * model.sigma2_eps[k] / (1 - lam * lam))
        assert_allclose(entries(noise.r_eta_bar, k),
                        np.full(p, top.degrees[k] / 4.0 * sigma2_eta[k]))
        r_y1_k = block(report.r_y1, k)
        assert report.msd[k] == pytest.approx(np.trace(r_y1_k), rel=1e-12)
        assert report.emse[k] == pytest.approx(np.trace(rh[k] @ r_y1_k), rel=1e-12)
        rh_inv[k * p:(k + 1) * p, k * p:(k + 1) * p] = np.linalg.inv(rh[k])
    # block (k, i) of r_eta_mix: (c/4)^2 times minus the weight of the link
    # {k, i}, sigma2_eta_k + sigma2_eta_i, and on the diagonal the sum of k's
    # link weights
    for k in range(j):
        neighbours = np.flatnonzero(top.adjacency[k])
        for i in range(j):
            if i == k:
                weight = sum(sigma2_eta[k] + sigma2_eta[n] for n in neighbours)
            else:
                weight = -(sigma2_eta[k] + sigma2_eta[i]) if i in neighbours else 0.0
            assert_allclose(block(noise.r_eta_mix, k, i),
                            (0.1 / 4.0) ** 2 * weight * np.eye(p), rtol=1e-14, atol=0)
    assert_allclose(report.mse, report.emse + model.sigma2_eps, rtol=1e-15)
    coupling = rh_inv @ np.kron(np.diag(top.degrees) - top.adjacency, np.eye(p))
    rho = np.max(np.abs(np.linalg.eigvals(coupling)))
    assert mean_stability_bound(top, model, lam) == pytest.approx(4.0 / ((1 - lam) * rho))


def test_steady_state_routes_agree(kron_lyapunov, iterated_lyapunov, full_forcing):
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
        # the core doubling solve meets the whole (2Jp, 2Jp) equation to round-off
        a = system.inner_transition
        residual = report.r_z - a @ report.r_z @ a.T - full_forcing(system, noise)
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


def _with_core(system, core):
    """`system` with the fluctuation transition U V for U = [core; 0], so
    that its core V U is `core`."""
    return replace(system, core=core, error_map=core)


def test_steady_state_raises_when_doubling_does_not_converge(monkeypatch):
    """Core C = 0.99 I needs eleven squarings; capped at two, the
    solve must refuse rather than return a truncated covariance."""
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    slow = _with_core(system, 0.99 * np.eye(2))
    monkeypatch.setattr(analysis, "DOUBLING_MAX_SQUARINGS", 2)
    with pytest.raises(DivergenceError, match="did not converge in 2 squarings") as info:
        steady_state_solve(slow, noise)
    assert (info.value.squarings, info.value.rho) == (2, check_mse_stability(slow).rho)


def test_steady_state_raises_on_non_finite_covariance():
    """A nilpotent core (rho = 0) with huge entries overflows the forcing;
    the solve reports it instead of returning infinities."""
    top, model, system = _pair_system()
    noise = noise_covariances(system, model)
    core = np.zeros((2, 2))
    core[0, 1] = 1e200
    with pytest.raises(DivergenceError, match="lost finiteness after 0 squarings") as info:
        steady_state_solve(_with_core(system, core), noise)
    assert (info.value.squarings, info.value.rho) == (0, check_mse_stability(system).rho)


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
