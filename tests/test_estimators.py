import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drls.estimators import (
    AdmomState,
    CentralizedRls,
    DrlsState,
    LocalRls,
    admom_step_flops,
    ama_step_flops,
    centralized_step_flops,
    rls_kernel_step,
)
from drls.harness import ALGORITHMS
from drls.signals import SnapshotStream, iid_scenario
from drls.topology import from_edges, random_geometric

K5_EDGES = [(i, j) for i in range(5) for j in range(i + 1, 5)]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_init_oracle():
    """A fresh kernel holds pinv = delta * I (no data absorbed yet), psi = 0."""
    top = from_edges(2, [(0, 1)])
    for state_cls in (DrlsState, LocalRls):
        state = state_cls(top, 2, lam=0.95, c=0.1, delta=100.0)
        assert_allclose(state.pinv, np.broadcast_to(100.0 * np.eye(2), (2, 2, 2)))
        assert_allclose(state.psi, 0.0)


def test_kernel_single_step_scalar_oracle():
    """p=1, lam=1, delta=100, h=1: the inverse must become 100/101."""
    pinv, psi = rls_kernel_step(np.array([[100.0]]), np.zeros(1), np.array([1.0]),
                                np.array(2.0), 1.0)
    assert_allclose(pinv, [[100.0 / 101.0]], rtol=1e-14)
    assert_allclose(psi, [2.0])


def test_kernel_tracks_direct_inversion():
    """The rank-one update inverts lam*Phi + h h^T exactly."""
    rng = np.random.default_rng(0)
    lam, delta, p = 0.9, 50.0, 3
    pinv, psi = delta * np.eye(p), np.zeros(p)
    phi = np.eye(p) / delta
    for _ in range(60):
        h = rng.standard_normal(p)
        pinv, psi = rls_kernel_step(pinv, psi, h, rng.standard_normal(()), lam)
        phi = lam * phi + np.outer(h, h)
        assert np.linalg.norm(pinv @ phi - np.eye(p)) < 1e-10


@pytest.mark.parametrize("p", [1, 4, 8])
@pytest.mark.parametrize("lam, t_total", [(0.5, 1000), (0.999, 100_000), (1.0, 100_000)])
def test_kernel_stays_symmetric_positive_definite_at_the_edges(lam, t_total, p):
    """Over long horizons, near lam = 1 and at an R_h scale of 1e-6 the
    inverse stays exactly symmetric (the update subtracts an exact outer
    product) and positive definite, checked at ten checkpoints."""
    rng = np.random.default_rng(p)
    scale = np.sqrt(np.repeat([1.0, 1e-6], 2))[:, None]  # rh_scale per batch row
    pinv = np.broadcast_to(100.0 * np.eye(p), (len(scale), p, p)).copy()
    psi = np.zeros((len(scale), p))
    x = np.zeros(len(scale))
    every = t_total // 10
    for _ in range(10):
        h = rng.standard_normal((every,) + psi.shape) * scale
        for k in range(every):
            pinv, psi = rls_kernel_step(pinv, psi, h[k], x, lam)
        assert_array_equal(pinv, np.swapaxes(pinv, -1, -2))
        np.linalg.cholesky(pinv)  # raises LinAlgError unless positive definite


# ---------------------------------------------------------------------------
# pooled exponentially weighted LS
# ---------------------------------------------------------------------------

def test_ewlse_hand_oracles(ewlse_centralized):
    # one sample: (0.9^0 * 4 + phi0) s = 12
    s = ewlse_centralized(np.array([[[2.0]]]), np.array([[6.0]]), lam=0.9, phi0=1.0)
    assert_allclose(s, [2.4], rtol=1e-14)
    # two samples with forgetting and a matrix ridge
    hs = np.array([[[2.0]], [[1.0]]])
    xs = np.array([[6.0], [1.0]])
    s = ewlse_centralized(hs, xs, lam=0.5, phi0=np.array([[2.0]]))
    # phi = 0.5*4 + 1 + 0.5*2 = 4, b = 0.5*12 + 1 = 7
    assert_allclose(s, [1.75], rtol=1e-14)


def test_ewlse_shape_validation(ewlse_centralized):
    with pytest.raises(ValueError, match="regressors"):
        ewlse_centralized(np.zeros((4, 2)), np.zeros((4, 2)), 0.9, 1.0)


def test_ewlse_matches_recursive_kernel(ewlse_centralized):
    """J=1 recursive kernel and the batch solution agree at every horizon."""
    rng = np.random.default_rng(3)
    lam, delta, p = 0.95, 100.0, 3
    pinv, psi = delta * np.eye(p), np.zeros(p)
    hs, xs = [], []
    for _ in range(8):
        h = rng.standard_normal(p)
        x = rng.standard_normal(())
        hs.append(h)
        xs.append(x)
        pinv, psi = rls_kernel_step(pinv, psi, h, x, lam)
        batch = ewlse_centralized(
            np.asarray(hs)[:, None, :], np.asarray(xs)[:, None],
            lam, phi0=lam / delta,
        )
        assert_allclose(pinv @ psi, batch, atol=1e-10)


def test_centralized_state_matches_pooled_ewlse(ewlse_centralized):
    top = from_edges(3, [(0, 1), (1, 2)])
    model = iid_scenario(3, 2, seed=1, sigma2_eta=0.0)
    hs, xs, _, _ = SnapshotStream(model, top, [2]).draws(5)
    hs, xs = hs[:, 0], xs[:, 0]
    lam, delta = 0.9, 100.0
    state = CentralizedRls(top, 2, lam, 0.1, delta)
    for t in range(1, 6):
        state.step(hs[t - 1], xs[t - 1])
        batch = ewlse_centralized(hs[:t], xs[:t], lam, phi0=lam * top.J / delta)
        assert_allclose(state.s_c, batch, atol=1e-10)
        assert state.s.shape == (3, 2)
        assert_allclose(state.s[0], state.s[2])


# ---------------------------------------------------------------------------
# network recursions against plain-loop references
# ---------------------------------------------------------------------------

def _reference_ama(top, p, lam, c, delta, steps):
    """Per-sensor dict-and-loop reading of the single-time-scale recursion,
    with the inverse recomputed by direct matrix inversion each step."""
    J = top.J
    s = {j: np.zeros(p) for j in range(J)}
    v = {k: np.zeros(p) for k in range(top.n_links)}
    phi = {j: np.eye(p) / delta for j in range(J)}
    psi = {j: np.zeros(p) for j in range(J)}
    out = []
    for h, x, eta, eta_bar in steps:
        v_new = {}
        for k in range(top.n_links):
            j, q = int(top.link_owner[k]), int(top.link_peer[k])
            received = s[q] + eta[k]
            v_new[k] = v[k] + 0.5 * c * (s[j] - received)
        s_next = {}
        for j in range(J):
            phi[j] = lam * phi[j] + np.outer(h[j], h[j])
            psi[j] = lam * psi[j] + h[j] * x[j]
            agg = np.zeros(p)
            for k in range(int(top.link_start[j]), int(top.link_start[j + 1])):
                reverse = v_new[int(top.link_flip[k])] + eta_bar[k]
                agg += v_new[k] - reverse
            s_next[j] = np.linalg.inv(phi[j]) @ (psi[j] - 0.5 * agg)
        s, v = s_next, v_new
        out.append(np.stack([s[j] for j in range(J)]))
    return out


def _reference_admom(top, p, lam, c, delta, steps):
    """Loop reading of the augmented-Lagrangian variant."""
    J = top.J
    s = {j: np.zeros(p) for j in range(J)}
    v = {k: np.zeros(p) for k in range(top.n_links)}
    phi = {j: np.eye(p) / delta for j in range(J)}
    psi = {j: np.zeros(p) for j in range(J)}
    out = []
    for h, x, eta, eta_bar in steps:
        received = {}
        v_new = {}
        for k in range(top.n_links):
            j, q = int(top.link_owner[k]), int(top.link_peer[k])
            received[k] = s[q] + eta[k]
            v_new[k] = v[k] + 0.5 * c * (s[j] - received[k])
        s_next = {}
        for j in range(J):
            phi[j] = lam * phi[j] + np.outer(h[j], h[j])
            psi[j] = lam * psi[j] + h[j] * x[j]
            rhs = psi[j].copy()
            for k in range(int(top.link_start[j]), int(top.link_start[j + 1])):
                reverse = v_new[int(top.link_flip[k])] + eta_bar[k]
                rhs += 0.5 * c * (s[j] + received[k]) - 0.5 * (v_new[k] - reverse)
            deg = float(top.degrees[j])
            s_next[j] = np.linalg.solve(phi[j] + c * deg * np.eye(p), rhs)
        s, v = s_next, v_new
        out.append(np.stack([s[j] for j in range(J)]))
    return out


def _noisy_steps(top, p, n, seed):
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n):
        steps.append((
            rng.standard_normal((top.J, p)),
            rng.standard_normal(top.J),
            0.3 * rng.standard_normal((top.n_links, p)),
            0.3 * rng.standard_normal((top.n_links, p)),
        ))
    return steps


@pytest.mark.parametrize("state_cls, reference", [
    (DrlsState, _reference_ama),
    (AdmomState, _reference_admom),
])
def test_network_recursion_matches_loop_reference(state_cls, reference):
    top = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    p, lam, c, delta = 2, 0.9, 0.3, 50.0
    steps = _noisy_steps(top, p, 8, seed=17)
    expected = reference(top, p, lam, c, delta, steps)
    state = state_cls(top, p, lam, c, delta)
    for (h, x, eta, eta_bar), want in zip(steps, expected):
        state.step(h, x, eta=eta, eta_bar=eta_bar)
        assert_allclose(state.s, want, atol=1e-9)


@pytest.mark.parametrize("state_cls", [DrlsState, AdmomState, LocalRls, CentralizedRls])
def test_a_batch_of_runs_steps_each_run_alone(state_cls):
    """With a leading runs axis every run gets the bits of its own recursion."""
    top = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    runs = [_noisy_steps(top, 2, 6, seed=s) for s in (1, 2, 3)]
    batch = state_cls(top, 2, 0.9, 0.3, 50.0)
    alone = [state_cls(top, 2, 0.9, 0.3, 50.0) for _ in runs]
    for t in range(6):
        batch.step(*(np.stack(parts) for parts in zip(*(run[t] for run in runs))))
        for state, run in zip(alone, runs):
            state.step(*run[t])
    for r, state in enumerate(alone):
        assert_array_equal(batch.s[r], state.s)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("name, value", [
    ("lam", 0.0), ("lam", 1.5), ("lam", np.nan), ("delta", 0.0), ("delta", -1.0),
    ("delta", np.nan), ("c", -1.0), ("c", np.nan),
])
def test_every_estimator_refuses_bad_parameters(algorithm, name, value):
    reason = {"lam": "forgetting factor", "c": "consensus step c",
              "delta": "delta must be positive"}
    params = {"lam": 0.9, "c": 0.1, "delta": 100.0, name: value}
    with pytest.raises(ValueError, match=reason[name]):
        ALGORITHMS[algorithm](from_edges(2, [(0, 1)]), 2, **params)


def test_multiplier_antisymmetry_conserved_on_ideal_links():
    top = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    state = DrlsState(top, 2, lam=0.95, c=0.2, delta=100.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        state.step(rng.standard_normal((3, 2)), rng.standard_normal(3))
    assert np.abs(state.v + state.v[top.link_flip]).max() == 0.0


def test_multiplier_antisymmetry_drifts_under_noise():
    top = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    state = DrlsState(top, 2, lam=0.95, c=0.2, delta=100.0)
    for h, x, eta, eta_bar in _noisy_steps(top, 2, 5, seed=8):
        state.step(h, x, eta=eta, eta_bar=eta_bar)
    assert np.abs(state.v + state.v[top.link_flip]).max() > 1e-6


def test_zero_consensus_step_reduces_to_local_rls():
    """c=0 with ideal links must follow the exact same arithmetic path."""
    top = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    net = DrlsState(top, 3, lam=0.9, c=0.0, delta=100.0)
    solo = LocalRls(top, 3, lam=0.9, c=0.0, delta=100.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = rng.standard_normal((4, 3))
        x = rng.standard_normal(4)
        net.step(h, x)
        solo.step(h, x)
        assert np.abs(net.s - solo.s).max() <= 1e-12


def test_single_sensor_network_equals_centralized():
    top = from_edges(1, [])
    net = DrlsState(top, 2, lam=0.95, c=0.1, delta=100.0)
    central = CentralizedRls(top, 2, lam=0.95, c=0.1, delta=100.0)
    rng = np.random.default_rng(6)
    for _ in range(30):
        h = rng.standard_normal((1, 2))
        x = rng.standard_normal(1)
        net.step(h, x)
        central.step(h, x)
        assert np.abs(net.s - central.s).max() < 1e-10


# ---------------------------------------------------------------------------
# frozen-data consensus
# ---------------------------------------------------------------------------

def test_zero_data_step_at_unit_forgetting_leaves_the_kernel_unchanged():
    """At lam = 1 a datum h = 0, x = 0 adds nothing to the data matrix, so
    the kernel keeps every bit and the step is one consensus round alone."""
    top = from_edges(5, K5_EDGES)
    state = DrlsState(top, 3, lam=1.0, c=0.05, delta=100.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        state.step(rng.standard_normal((5, 3)), rng.standard_normal(5))
    pinv, psi = state.pinv, state.psi
    state.step(np.zeros((5, 3)), np.zeros(5))
    assert_array_equal(state.pinv, pinv)
    assert_array_equal(state.psi, psi)


def test_batch_consensus_reaches_the_pooled_solution(ewlse_centralized, frozen_consensus):
    top = from_edges(5, K5_EDGES)
    lam, delta, p = 0.95, 100.0, 3
    model = iid_scenario(top.J, p, seed=4, sigma2_eta=0.0)
    hs, xs, _, _ = SnapshotStream(model, top, [4]).draws(10)
    hs, xs = hs[:, 0], xs[:, 0]
    local = LocalRls(top, p, lam, 0.0, delta)
    for h, x in zip(hs, xs):
        local.step(h, x)
    pooled = ewlse_centralized(hs, xs, lam, phi0=lam * top.J / delta)
    s = frozen_consensus(local, top, c=0.05, iters=2000)
    rel = np.linalg.norm(s - pooled, axis=1) / np.linalg.norm(pooled)
    assert rel.max() < 1e-6
    disagreement = np.linalg.norm(s[top.link_owner] - s[top.link_peer], axis=1)
    assert disagreement.max() < 1e-6


# ---------------------------------------------------------------------------
# flop accounting
# ---------------------------------------------------------------------------

def test_flop_model_step_totals():
    """Each network estimator's per-step total is its per-sensor counts summed."""
    top = from_edges(3, [(0, 1), (1, 2)])
    for cls, count in ((DrlsState, ama_step_flops), (AdmomState, admom_step_flops)):
        state = cls(top, 2, lam=0.9, c=0.1, delta=10.0)
        assert state.step_flops == sum(count(2, int(d)) for d in top.degrees)
        assert state.step_flops == count(2, 1) + count(2, 2) + count(2, 1)


def test_baseline_flop_totals():
    """Isolated RLS does the AMA work without neighbors; the pooled
    estimator is charged its fusion-center count."""
    top = from_edges(3, [(0, 1), (1, 2)])
    local = LocalRls(top, 2, lam=0.9, c=0.1, delta=10.0)
    central = CentralizedRls(top, 2, lam=0.9, c=0.1, delta=10.0)
    assert local.step_flops == 3 * ama_step_flops(2, 0)
    assert central.step_flops == centralized_step_flops(2, 3)


def test_flop_ratio_grows_with_regressor_length():
    ratios = [admom_step_flops(p, 4) / ama_step_flops(p, 4) for p in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_random_topology_reference_spotcheck():
    top = random_geometric(6, 0.7, seed=9)
    steps = _noisy_steps(top, 3, 5, seed=21)
    expected = _reference_ama(top, 3, 0.95, 0.15, 100.0, steps)
    state = DrlsState(top, 3, lam=0.95, c=0.15, delta=100.0)
    for (h, x, eta, eta_bar), want in zip(steps, expected):
        state.step(h, x, eta=eta, eta_bar=eta_bar)
    assert_allclose(state.s, expected[-1], atol=1e-9)
    assert_array_equal(state.v.shape, (top.n_links, 3))
