import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drls.errors import ModelError
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
    cov = ar_stationary_covariance(0.5, 0.8, 2.0, 3)
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
    with pytest.raises(ModelError, match="not stable"):
        ar_stationary_covariance(0.5, 2.0, 1.0, 2)


def _tiny_model(**kw):
    base = dict(
        p=2,
        s0=np.ones(2),
        rh=np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
        sigma2_eps=np.full(3, 1e-3),
        r_eta=np.zeros((3, 2, 2)),
        regressor_kind="iid_gaussian",
    )
    base.update(kw)
    return SensorEnsembleModel(**base)


def test_model_validation():
    with pytest.raises(ModelError, match="unknown regressor kind"):
        _tiny_model(regressor_kind="white")
    with pytest.raises(ModelError, match="s0"):
        _tiny_model(s0=np.ones(3))
    with pytest.raises(ModelError, match="rh"):
        _tiny_model(rh=np.zeros((3, 2, 3)))
    with pytest.raises(ModelError, match=">= 0"):
        _tiny_model(sigma2_eps=np.array([1e-3, -1e-3, 1e-3]))
    with pytest.raises(ModelError, match="finite"):
        _tiny_model(sigma2_eps=np.array([1e-3, np.nan, 1e-3]))
    with pytest.raises(ModelError, match="positive semidefinite"):
        _tiny_model(r_eta=np.broadcast_to(-0.5 * np.eye(2), (3, 2, 2)).copy())
    with pytest.raises(ModelError, match="finite and symmetric"):
        _tiny_model(r_eta=np.full((3, 2, 2), np.nan))
    with pytest.raises(ModelError, match="positive definite"):
        _tiny_model(rh=np.zeros((3, 2, 2)))
    with pytest.raises(ModelError, match="ar1_shift needs"):
        _tiny_model(regressor_kind="ar1_shift")
    ar = dict(regressor_kind="ar1_shift", ar_rho=0.5, ar_beta=np.array([0.1, 0.2, 0.3]),
              ar_sigma2_omega=np.ones(3))
    with pytest.raises(ModelError, match="ar_beta"):
        _tiny_model(**{**ar, "ar_beta": np.array([np.nan, 0.2, 0.3])})
    with pytest.raises(ModelError, match="ar_sigma2_omega"):
        _tiny_model(**{**ar, "ar_sigma2_omega": np.array([np.nan, 1.0, 1.0])})
    with pytest.raises(ModelError, match="s0 must be finite"):
        _tiny_model(s0=np.array([np.nan, 1.0]))


def test_with_link_noise_toggling():
    model = iid_scenario(4, 2, seed=0, sigma2_eta=0.25)
    ideal = model.with_link_noise(False)
    assert_allclose(ideal.r_eta, 0.0)
    assert_allclose(ideal.rh, model.rh)
    back = ideal.with_link_noise(True)   # stays zero; the profile is gone
    assert_allclose(back.r_eta, 0.0)


def test_iid_scenario_defaults():
    model = iid_scenario(5, 3, seed=9)
    assert model.J == 5
    assert model.regressor_kind == "iid_gaussian"
    assert_allclose(model.s0, 1.0)
    assert_allclose(model.rh, np.broadcast_to(np.eye(3), (5, 3, 3)))
    assert_allclose(model.r_eta, np.broadcast_to(0.1 * np.eye(3), (5, 3, 3)))
    assert (model.sigma2_eps < 1e-3).all() and (model.sigma2_eps >= 0).all()
    # the noise profile is the seed's uniform draw, deterministic
    again = iid_scenario(5, 3, seed=9)
    assert_allclose(again.sigma2_eps, model.sigma2_eps)


def test_iid_scenario_scalar_overrides():
    model = iid_scenario(3, 2, seed=0, sigma2_eta=0.0, rh=4.0, sigma2_eps=0.5)
    assert_allclose(model.rh, np.broadcast_to(4.0 * np.eye(2), (3, 2, 2)))
    assert_allclose(model.sigma2_eps, 0.5)
    assert_allclose(model.r_eta, 0.0)


def test_ar_scenario_profile():
    model = ar_scenario(6, seed=3)
    assert model.p == 4
    assert model.regressor_kind == "ar1_shift"
    assert model.ar_rho == 0.5
    assert ((model.ar_beta >= 0) & (model.ar_beta <= 1)).all()
    for k in range(6):
        assert_allclose(
            model.rh[k],
            ar_stationary_covariance(0.5, model.ar_beta[k], model.ar_sigma2_omega[k], 4),
            rtol=1e-12,
        )


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


def test_draws_do_not_depend_on_the_chunking():
    top = random_geometric(5, 0.8, seed=2)
    for model in (iid_scenario(5, 3, seed=3), ar_scenario(5, seed=3)):
        whole = SnapshotStream(model, top, [[1, r] for r in range(3)]).draws(8)
        stream = SnapshotStream(model, top, [[1, r] for r in range(3)])
        parts = zip(stream.draws(5), stream.draws(3))
        stepped = zip(*SnapshotStream(model, top, [[1, r] for r in range(3)]).steps(8))
        for full, (first, rest), one_by_one in zip(whole, parts, stepped):
            assert_array_equal(np.concatenate([first, rest]), full)
            assert_array_equal(np.stack(one_by_one), full)


def test_stream_rejects_mismatched_sizes():
    with pytest.raises(ModelError, match="sensors"):
        SnapshotStream(iid_scenario(3, 2, seed=0), random_geometric(4, 0.9, seed=0), [0])


def test_ideal_links_return_none():
    top = from_edges(2, [(0, 1)])
    model = iid_scenario(2, 2, seed=0, sigma2_eta=0.0)
    stream = SnapshotStream(model, top, [0])
    assert not stream.link_noise_active
    _, _, eta, eta_bar = stream.draws(1)
    assert eta is None
    assert eta_bar is None


def test_iid_moments():
    """Sample moments of the regressors and observation noise."""
    model = iid_scenario(2, 2, seed=0, rh=np.array([np.eye(2), [[2.0, 0.6], [0.6, 1.0]]]),
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
    """Row k of the noise is what link_owner[k] hears; its variance is the
    receiver's, not the transmitter's."""
    r_eta = np.stack([(0.05 + 0.2 * j) * np.eye(2) for j in range(3)])
    model = iid_scenario(3, 2, seed=0, rh=None)
    model = SensorEnsembleModel(
        p=2, s0=model.s0, rh=model.rh, sigma2_eps=model.sigma2_eps,
        r_eta=r_eta, regressor_kind="iid_gaussian",
    )
    top = from_edges(3, [(0, 1), (1, 2)])
    stream = SnapshotStream(model, top, [4])
    n = 40_000
    draws = stream.draws(n)[2][:, 0]
    for k in range(top.n_links):
        rx = int(top.link_owner[k])
        var = draws[:, k, :].var()
        assert var == pytest.approx(0.05 + 0.2 * rx, rel=0.05)


def test_estimate_and_multiplier_noise_are_independent():
    model = iid_scenario(2, 2, seed=0, sigma2_eta=1.0)
    top = from_edges(2, [(0, 1)])
    stream = SnapshotStream(model, top, [9])
    _, _, eta, eta_bar = stream.draws(50_000)
    a = eta[:, 0, 0, 0]
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
