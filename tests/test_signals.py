from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drls import signals
from drls.analysis import build_averaged_system, noise_covariances
from drls.errors import ModelError
from drls.estimators import AdmomState, DrlsState
from drls.signals import (
    SensorEnsembleModel,
    SnapshotStream,
    ar_scenario,
    ar_stationary_covariance,
    iid_scenario,
)
from drls.topology import from_edges, random_geometric


def test_ar_stationary_covariance_oracle():
    """Hand-computed Toeplitz covariance for rho=0.5, beta=0.8, var=2."""
    cov, = ar_stationary_covariance(0.5, np.array([0.8]), np.array([2.0]), 3)
    a = 0.4
    var = 0.5 * 2.0 / (1.0 - a * a)   # = 1/0.84
    assert var == pytest.approx(1.0 / 0.84)
    expected = var * np.array([
        [1.0, a, a * a],
        [a, 1.0, a],
        [a * a, a, 1.0],
    ])
    assert_allclose(cov, expected, rtol=1e-12)


def test_ar_stationary_covariance_rejects_unstable_pole():
    with pytest.raises(ModelError, match="sensor 1 = 1.0 is not stable"):
        ar_stationary_covariance(0.5, np.array([0.5, 2.0]), np.ones(2), 2)


def test_ar_stationary_covariance_stacks_the_per_sensor_matrices():
    """The (J,) form is the stack of the one-sensor Toeplitz matrices, each
    computed from that sensor's scalars, bit for bit."""
    rng = np.random.default_rng(4)
    for j, p, rho in ((1, 1, 0.5), (6, 4, 0.5), (9, 7, 0.13)):
        beta, sigma2_omega = rng.uniform(size=j), 2.0 * rng.uniform(size=j) + 1e-8
        stack = ar_stationary_covariance(rho, beta, sigma2_omega, p)
        lags = np.abs(np.arange(p)[:, None] - np.arange(p)[None, :])
        one_by_one = []
        for k in range(j):
            a = (1.0 - rho) * beta[k]
            one_by_one.append(rho * sigma2_omega[k] / (1.0 - a * a) * a ** lags)
        assert stack.shape == (j, p, p)
        assert np.array_equal(stack, np.stack(one_by_one))


def _tiny_model(**kw):
    base = dict(
        s0=np.ones(2),
        rh=np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
        sigma2_eps=np.full(3, 1e-3),
        sigma2_eta=np.zeros(3),
    )
    base.update(kw)
    return SensorEnsembleModel(**base)


def test_model_validation():
    with pytest.raises(ModelError, match=r"rh must have shape \(3, 3, 3\)"):
        _tiny_model(s0=np.ones(3))
    for s0 in (np.ones(0), np.ones((2, 1)), np.float64(1.0)):
        with pytest.raises(ModelError, match="s0 must be a"):
            _tiny_model(s0=s0)
    with pytest.raises(ModelError, match="rh"):
        _tiny_model(rh=np.zeros((3, 2, 3)))
    with pytest.raises(ModelError, match="sigma2_eps of sensor 1 .* >= 0"):
        _tiny_model(sigma2_eps=np.array([1e-3, -1e-3, 1e-3]))
    with pytest.raises(ModelError, match="sigma2_eps of sensor 1 .*finite"):
        _tiny_model(sigma2_eps=np.array([1e-3, np.nan, 1e-3]))
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ModelError, match=f"sigma2_eta of sensor 2 must be "
                                             f"finite and >= 0, got {bad}"):
            _tiny_model(sigma2_eta=np.array([0.1, 0.0, bad]))
    for shape in ((2,), (3, 2, 2)):
        with pytest.raises(ModelError, match=r"sigma2_eta must have shape \(3,\), one "
                                             r"variance per sensor"):
            _tiny_model(sigma2_eta=np.zeros(shape))
    with pytest.raises(ModelError, match="positive definite"):
        _tiny_model(rh=np.zeros((3, 2, 2)))
    ar = dict(ar_rho=0.5, ar_beta=np.array([0.1, 0.2, 0.3]), ar_sigma2_omega=np.ones(3))
    ar["rh"] = ar_stationary_covariance(0.5, ar["ar_beta"], ar["ar_sigma2_omega"], 2)
    _tiny_model(**ar)
    for name in ("ar_rho", "ar_beta", "ar_sigma2_omega"):
        with pytest.raises(ModelError, match="an AR model needs all of ar_rho, ar_beta "
                                             "and ar_sigma2_omega"):
            _tiny_model(**{name: ar[name]})
        with pytest.raises(ModelError, match="needs all"):
            _tiny_model(**{**ar, name: None})
    # a field that is not an array is named, whatever the value
    for name, value in (("sigma2_eps", 0.5), ("sigma2_eps", [1e-3, 1e-3, 1e-3]),
                        ("sigma2_eps", np.float64(0.5)), ("s0", [1.0, 1.0]),
                        ("rh", 1.0), ("sigma2_eta", 0.1)):
        with pytest.raises(ModelError, match=f"{name} must be a numpy array, got "
                                             f"{type(value).__name__}"):
            _tiny_model(**{name: value})
    for name in ("ar_beta", "ar_sigma2_omega"):
        with pytest.raises(ModelError, match=f"{name} must be a numpy array, got list"):
            _tiny_model(**{**ar, name: list(ar[name])})
    with pytest.raises(ModelError, match="ar_beta"):
        _tiny_model(**{**ar, "ar_beta": np.array([np.nan, 0.2, 0.3])})
    with pytest.raises(ModelError, match="ar_sigma2_omega"):
        _tiny_model(**{**ar, "ar_sigma2_omega": np.array([np.nan, 1.0, 1.0])})
    with pytest.raises(ModelError, match="s0 must be finite"):
        _tiny_model(s0=np.array([np.nan, 1.0]))
    for bad in (np.inf, np.nan):
        rh = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        rh[0, 0, 0] = bad
        with pytest.raises(ModelError, match="rh must be finite"):
            _tiny_model(rh=rh)
    with pytest.raises(ModelError, match=r"ar_beta must have shape \(3,\)"):
        _tiny_model(**{**ar, "ar_beta": np.array([0.1, 0.2])})
    with pytest.raises(ModelError, match=r"ar_sigma2_omega must have shape \(3,\)"):
        _tiny_model(**{**ar, "ar_sigma2_omega": np.ones(5)})


def test_rh_symmetry_is_held_to_a_few_ulps():
    """The stream's Cholesky reads one triangle of R_h and the analysis all
    of it, so an asymmetry above round-off of the largest entry is refused
    at every scale, and the round-off of an ill-conditioned Q D Q^T is not."""
    skewed = np.array([[1.0, 0.5 + 2e-6], [0.5, 1.0]])
    tiny = 1e-14 * np.array([[1.0, 0.6], [0.5, 1.0]])
    for rh in (skewed, tiny):
        with pytest.raises(ModelError, match=r"rh\[0\] must be symmetric"):
            _tiny_model(rh=np.broadcast_to(rh, (3, 2, 2)).copy())
    rotations = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 2, 2)))[0]
    rh = (rotations * [1e-4, 1e4]) @ rotations.transpose(0, 2, 1)
    assert (rh != rh.transpose(0, 2, 1)).any()
    _tiny_model(rh=rh)


def test_ar_model_refuses_a_covariance_that_is_not_its_own():
    """An AR model's rh is the stationary covariance of its AR parameters,
    exactly: the identity, a changed parameter or a rounding step is refused."""
    model = ar_scenario(4, seed=2)
    for changes in ({"rh": np.broadcast_to(np.eye(4), (4, 4, 4)).copy()},
                    {"ar_beta": 0.5 * model.ar_beta},
                    {"ar_sigma2_omega": 2.0 * model.ar_sigma2_omega},
                    {"ar_rho": 0.25},
                    {"rh": np.nextafter(model.rh, np.inf)}):
        with pytest.raises(ModelError, match="rh of an AR model must be ar_stationary_covariance"):
            replace(model, **changes)
    # changing what the AR parameters do not fix keeps the model valid
    replace(model, sigma2_eps=2.0 * model.sigma2_eps, sigma2_eta=np.zeros(4))


def test_iid_scenario_defaults():
    model = iid_scenario(5, 3, seed=9)
    assert model.J == 5
    assert model.p == 3
    assert model.ar_rho is None and model.ar_beta is None and model.ar_sigma2_omega is None
    assert_allclose(model.s0, 1.0)
    assert_allclose(model.rh, np.broadcast_to(np.eye(3), (5, 3, 3)))
    assert_array_equal(model.sigma2_eta, np.full(5, 0.1))
    assert (model.sigma2_eps < 1e-3).all() and (model.sigma2_eps >= 0).all()
    # the noise profile is the seed's uniform draw, deterministic
    again = iid_scenario(5, 3, seed=9)
    assert_allclose(again.sigma2_eps, model.sigma2_eps)


def test_iid_scenario_scalar_overrides():
    model = replace(iid_scenario(3, 2, seed=0, sigma2_eta=0.0, rh=4.0), sigma2_eps=np.full(3, 0.5))
    assert_allclose(model.rh, np.broadcast_to(4.0 * np.eye(2), (3, 2, 2)))
    assert_allclose(model.sigma2_eps, 0.5)
    assert_array_equal(model.sigma2_eta, np.zeros(3))


def test_ar_scenario_profile():
    model = ar_scenario(6, seed=3)
    assert model.p == 4
    assert model.ar_rho == 0.5
    assert ((model.ar_beta >= 0) & (model.ar_beta <= 1)).all()
    assert_array_equal(model.rh, ar_stationary_covariance(0.5, model.ar_beta,
                                                          model.ar_sigma2_omega, 4))


@pytest.mark.bitwise
def test_stream_determinism_and_seed_sensitivity():
    """Each run's draws follow from its own seed, whatever block it is in."""
    top = random_geometric(4, 0.9, seed=0)
    for model in (iid_scenario(4, 2, seed=1), ar_scenario(4, seed=1)):
        a = SnapshotStream(model, top, [5]).draws(3)
        b = SnapshotStream(model, top, [5]).draws(3)
        c = SnapshotStream(model, top, [6]).draws(3)
        block = SnapshotStream(model, top, [5, 6]).draws(3)
        for k in range(4):
            assert_array_equal(a[k], b[k])
            assert_array_equal(block[k][:, :1], a[k])
            assert_array_equal(block[k][:, 1:], c[k])
        assert not np.allclose(a[0], c[0])


@pytest.mark.bitwise
def test_draws_do_not_depend_on_the_chunking(monkeypatch):
    monkeypatch.setattr(signals, "DRAW_CHUNK_BYTES", 1)   # one step per chunk
    top = random_geometric(5, 0.8, seed=2)
    for model in (iid_scenario(5, 3, seed=3), ar_scenario(5, seed=3)):
        whole = SnapshotStream(model, top, [[1, r] for r in range(3)]).draws(8)
        stream = SnapshotStream(model, top, [[1, r] for r in range(3)])
        parts = zip(stream.draws(5), stream.draws(3))
        chunked = zip(*SnapshotStream(model, top, [[1, r] for r in range(3)]).chunks(8))
        for full, (first, rest), chunks in zip(whole, parts, chunked):
            assert_array_equal(np.concatenate([first, rest]), full)
            assert len(chunks) == 8
            assert_array_equal(np.concatenate(chunks), full)


def test_stream_rejects_mismatched_sizes():
    with pytest.raises(ModelError, match="sensors"):
        SnapshotStream(iid_scenario(3, 2, seed=0), random_geometric(4, 0.9, seed=0), [0])


def test_ideal_links_return_none():
    top = from_edges(2, [(0, 1)])
    model = iid_scenario(2, 2, seed=0, sigma2_eta=0.0)
    _, _, eta, eta_bar = SnapshotStream(model, top, [0]).draws(1)
    assert eta is None
    assert eta_bar is None


def test_chunks_are_sized_by_the_widest_array_drawn():
    """A chunk holds DRAW_CHUNK_BYTES of the widest array the stream draws:
    the J columns of the regressors on ideal links, however many links
    there are, and the min(D, 2J) unit-draw columns of eta on noisy ones."""
    top = random_geometric(15, 0.3, seed=1)
    links = top.degrees.sum()
    assert links > 2 * 15
    t, runs = 1000, 3
    model = ar_scenario(15, seed=1)
    for sigma2_eta, width in ((0.0, 15), (0.1, 2 * 15)):
        stream = SnapshotStream(replace(model, sigma2_eta=np.full(15, sigma2_eta)), top,
                                [[1, r] for r in range(runs)])
        size = signals.DRAW_CHUNK_BYTES // (8 * runs * model.p * width)
        assert sum(1 for _ in stream.chunks(t)) == -(-t // size)


def test_iid_moments():
    """Sample moments of the regressors and observation noise."""
    model = replace(iid_scenario(2, 2, seed=0), rh=np.array([np.eye(2), [[2.0, 0.6], [0.6, 1.0]]]),
                    sigma2_eps=np.array([0.5, 0.1]))
    top = from_edges(2, [(0, 1)])
    stream = SnapshotStream(model, top, [123])
    n = 60_000
    hs, xs, _, _ = stream.draws(n)
    hs, xs = hs[:, 0], xs[:, 0]
    resid = xs - hs @ model.s0
    for j in range(2):
        cov = hs[:, j, :].T @ hs[:, j, :] / n
        assert_allclose(cov, model.rh[j], atol=0.02 * np.max(model.rh[j]) + 0.01)
        assert np.abs(hs[:, j, :].mean(axis=0)).max() < 0.02
        assert resid[:, j].var() == pytest.approx(model.sigma2_eps[j], rel=0.05)


def test_ar_sample_covariance_matches_stationary_model():
    """The advertised Toeplitz rh is what the stream actually produces."""
    model = ar_scenario(3, seed=7)
    top = from_edges(3, [(0, 1), (1, 2)])
    stream = SnapshotStream(model, top, [11])
    n = 120_000
    hs = stream.draws(n)[0][:, 0]
    for j in range(3):
        cov = hs[:, j, :].T @ hs[:, j, :] / n
        scale = float(np.max(np.abs(model.rh[j])))
        assert_allclose(cov, model.rh[j], atol=0.05 * scale)
        # lag-1 autocorrelation of the scalar process is (1-rho)*beta
        r1 = cov[0, 1] / cov[0, 0]
        assert r1 == pytest.approx((1 - model.ar_rho) * model.ar_beta[j], abs=0.05)


def test_link_noise_layout_and_per_receiver_scale():
    """Each sensor's sums are over the links it hears, at its own variance:
    deg_j sigma2_eta_j per entry for what it hears, and, less the noise on
    its broadcasts, sigma2_eta of each neighbour on top."""
    model = replace(iid_scenario(3, 2, seed=0), sigma2_eta=0.05 + 0.2 * np.arange(3))
    top = from_edges(3, [(0, 1), (1, 2)])
    _, _, eta, eta_bar = SnapshotStream(model, top, [4]).draws(40_000)
    heard = top.degrees * model.sigma2_eta
    spread = heard + top.adjacency @ model.sigma2_eta
    for drawn, var in ((eta[:, 0, 0], heard), (eta[:, 0, 1], spread), (eta_bar[:, 0], heard)):
        assert_allclose(drawn.var(axis=(0, 2)), var, rtol=0.05)


def _unit_draws(seed, kind, shape):
    """A run's unit draws of one noise kind, rebuilt from its seed: the
    kind's child generator draws `shape` in time order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[kind])
    return rng.standard_normal(shape)


def _fold_covariance(top, var, fold_link_noise):
    """(2J, 2J) covariance of each sensor's sum_k eta_k and drift sum_k
    (eta_k - eta_flip(k)), folded link by link from per-link noise of
    variance var[owner] per entry: the oracle's fold of one link at a time."""
    owner = np.nonzero(top.adjacency)[0]
    links = owner.size
    # (D, D, 1): link k's noise alone, at its owner's sigma_eta
    one_link = (np.sqrt(var)[owner] * np.eye(links))[:, :, None]
    fold = fold_link_noise(top, one_link, one_link)[0].reshape(links, 2 * top.J).T
    return fold @ fold.T


def _linear_map(seed, eta, width):
    """The (2J, width) map F with eta = F xi at every step of one run's
    (n, 2, J, p) estimate-noise sums, xi the run's (n, width, p) unit draws,
    and the largest residual of that fit relative to eta's scale."""
    n, _, j, p = eta.shape
    xi = _unit_draws(seed, 2, (n, width, p))
    sums = eta.reshape(n, 2 * j, p).transpose(1, 0, 2).reshape(2 * j, n * p)
    units = xi.transpose(1, 0, 2).reshape(width, n * p)
    f = np.linalg.lstsq(units.T, sums.T, rcond=None)[0].T
    return f, np.abs(f @ units - sums).max() / np.abs(sums).max()


def test_link_noise_is_the_unit_draw_scaled_by_the_receiver(fold_link_noise):
    """Each run's estimate-noise sums are one fixed linear map F of its own
    min(D, 2J) unit draws per step, and F F^T is their law: the per-link
    fold's covariance to round-off, whose drift block is the averaged
    model's W (r_eta_mix / (c/4)^2). The multiplier-noise sums are each
    run's (n, J, p) unit draws scaled by sqrt(deg_j sigma2_eta_j), bit for
    bit, which is the law the averaged model states. Both follow from the
    run's seed alone, and the regressors and observations do not see sigma_eta."""
    top = random_geometric(5, 0.8, seed=2)
    var = np.array([0.3, 0.0, 1e-300, 2.5, 0.07])
    seeds = [[7, r] for r in range(2)]
    law = _fold_covariance(top, var, fold_link_noise)
    width = min(top.degrees.sum(), 2 * top.J)
    for unit in (iid_scenario(5, 3, seed=3, sigma2_eta=1.0),
                 ar_scenario(5, seed=3, sigma2_eta=1.0)):
        h1, x1, _, _ = SnapshotStream(unit, top, seeds).draws(6)
        model = replace(unit, sigma2_eta=var)
        h, x, eta, eta_bar = SnapshotStream(model, top, seeds).draws(6)
        assert_array_equal(h, h1)
        assert_array_equal(x, x1)
        maps = []
        for r, seed in enumerate(seeds):
            f, residual = _linear_map(seed, eta[:, r], width)
            assert residual < 1e-13
            maps.append(f)
            unit_bar = _unit_draws(seed, 3, (6, top.J, unit.p))
            assert_array_equal(eta_bar[:, r], np.sqrt(top.degrees * var)[:, None] * unit_bar)
        assert_allclose(maps[1], maps[0], rtol=0, atol=1e-13)
        assert_allclose(maps[0] @ maps[0].T, law, rtol=0, atol=1e-13 * law.max())
        # the drift block is W, and the last run's variance of sum_k eta_bar_k is 4 r_eta_bar
        system = build_averaged_system(top, model, 0.95, 0.1)
        noise = noise_covariances(system, model)
        w = noise.r_eta_mix[::unit.p, ::unit.p] / (system.c / 4.0) ** 2
        assert_allclose(law[top.J:, top.J:], w, rtol=1e-14, atol=1e-15 * w.max())
        r_eta_bar = noise.r_eta_bar[::unit.p]
        assert_allclose((eta_bar[0, -1, :, 0] / unit_bar[0, :, 0]) ** 2, 4.0 * r_eta_bar,
                        rtol=1e-14, atol=0)
    # the sample covariance of the sums, pooled over the p entries, is the law
    n = 20_000
    eta = SnapshotStream(replace(iid_scenario(5, 3, seed=3), sigma2_eta=var), top,
                         [11]).draws(n)[2][:, 0]
    pooled = eta.reshape(n, 2 * top.J, 3).transpose(1, 0, 2).reshape(2 * top.J, 3 * n)
    assert_allclose(pooled @ pooled.T / (3 * n), law, rtol=0, atol=0.03 * law.max())


@pytest.mark.bitwise
def test_a_silent_receiver_hears_exactly_zero():
    """A receiver with sigma2_eta = 0 hears no noise: its sum_k eta_k is
    exactly 0 in every run and step, while its drift carries the noise its
    neighbours hear on its broadcasts."""
    top = random_geometric(5, 0.8, seed=2)
    var = np.array([0.3, 0.0, 1e-300, 2.5, 0.07])
    assert top.degrees[1] > 0
    for unit in (iid_scenario(5, 3, seed=3), ar_scenario(5, seed=3)):
        stream = SnapshotStream(replace(unit, sigma2_eta=var), top, [[7, r] for r in range(4)])
        for _, _, eta, _ in stream.chunks(50):
            assert_array_equal(eta[:, :, 0, 1], 0.0)
            assert (eta[:, :, 1, 1] != 0).all()


def test_a_path_draws_as_many_unit_normals_as_links(fold_link_noise):
    """On a path, D = 2(J - 1) < 2J: the sums are a map of D unit draws per
    step whose Gram is the per-link fold's covariance, and both consensus
    recursions step on them."""
    j, p = 6, 2
    top = from_edges(j, [(k, k + 1) for k in range(j - 1)])
    links = top.degrees.sum()
    assert links == 2 * (j - 1)
    var = np.linspace(0.05, 0.3, j)
    model = replace(iid_scenario(j, p, seed=1), sigma2_eta=var)
    seeds = [[3, r] for r in range(2)]
    eta = SnapshotStream(model, top, seeds).draws(8)[2]
    f, residual = _linear_map(seeds[0], eta[:, 0], links)
    assert residual < 1e-13
    law = _fold_covariance(top, var, fold_link_noise)
    assert_allclose(f @ f.T, law, rtol=0, atol=1e-13 * law.max())
    for estimator in (DrlsState, AdmomState):
        state = estimator(top, p, 0.95, 0.1, 0.01)
        for h, x, eta, eta_bar in SnapshotStream(model, top, seeds).chunks(200):
            traj = state.advance(h, x, eta, eta_bar)
        assert np.isfinite(traj).all()
        assert np.abs(state.s - model.s0).max() < 0.5


@pytest.mark.bitwise
def test_link_sums_do_not_depend_on_the_block():
    """A run's sums are the bits it gets alone, wherever it sits in a large block."""
    top = random_geometric(8, 0.6, seed=4)
    model = iid_scenario(8, 2, seed=1)
    seeds = [[3, r] for r in range(40)]
    block = SnapshotStream(model, top, seeds).draws(4)[2:]
    for r in (0, 17, 39):
        alone = SnapshotStream(model, top, [seeds[r]]).draws(4)[2:]
        for in_block, own in zip(block, alone):
            assert_array_equal(in_block[:, r:r + 1], own)


def test_estimate_and_multiplier_noise_are_independent():
    model = iid_scenario(2, 2, seed=0, sigma2_eta=1.0)
    top = from_edges(2, [(0, 1)])
    stream = SnapshotStream(model, top, [9])
    _, _, eta, eta_bar = stream.draws(50_000)
    a = eta[:, 0, 0, 0, 0]
    b = eta_bar[:, 0, 0, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_ar_warmup_starts_near_stationary():
    model = ar_scenario(2, seed=5)
    top = from_edges(2, [(0, 1)])
    # pool the very first sample across many seeded runs; without warmup
    # its variance would be far below stationary
    first = SnapshotStream(model, top, range(3000)).draws(1)[0][0, :, :, 0]
    for j in range(2):
        assert first[:, j].var() == pytest.approx(model.rh[j][0, 0], rel=0.15)
