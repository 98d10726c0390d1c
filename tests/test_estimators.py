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
from drls.signals import SnapshotStream, ar_scenario, iid_scenario
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
    pinv, psi = np.array([[100.0]]), np.zeros(1)
    rls_kernel_step(pinv, psi, np.array([1.0]), np.array([2.0]), 1.0)
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
        rls_kernel_step(pinv, psi, h, h * rng.standard_normal(()), lam)
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
    hx = np.zeros((len(scale), p))   # no observation: only the inverse matters here
    every = t_total // 10
    for _ in range(10):
        h = rng.standard_normal((every,) + psi.shape) * scale
        for k in range(every):
            rls_kernel_step(pinv, psi, h[k], hx, lam)
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
        rls_kernel_step(pinv, psi, h, h * x, lam)
        batch = ewlse_centralized(
            np.asarray(hs)[:, None, :], np.asarray(xs)[:, None],
            lam, phi0=lam / delta,
        )
        assert_allclose(pinv @ psi, batch, atol=1e-10)


def test_centralized_state_matches_pooled_ewlse(ewlse_centralized, advance_one):
    top = from_edges(3, [(0, 1), (1, 2)])
    model = iid_scenario(3, 2, seed=1, sigma2_eta=0.0)
    hs, xs, _, _ = SnapshotStream(model, top, [2]).draws(5)
    hs, xs = hs[:, 0], xs[:, 0]
    lam, delta = 0.9, 100.0
    state = CentralizedRls(top, 2, lam, 0.1, delta)
    for t in range(1, 6):
        advance_one(state, hs[t - 1], xs[t - 1])
        batch = ewlse_centralized(hs[:t], xs[:t], lam, phi0=lam * top.J / delta)
        assert_allclose(state.s[0], batch, atol=1e-10)
        assert state.s.shape == (3, 2)
        assert_allclose(state.s[0], state.s[2])


# ---------------------------------------------------------------------------
# network recursions against per-link loop references
# ---------------------------------------------------------------------------

def _reverse_links(links):
    """Index of the opposite direction of each directed link (owner, peer),
    looked up among `links`."""
    at = {(int(j), int(q)): k for k, (j, q) in enumerate(zip(*links))}
    return np.array([at[q, j] for j, q in at], dtype=np.int64)


def _per_link_multipliers(top, links, p, lam, c, delta, steps, estimate):
    """The per-link recursion the paper states, one multiplier per directed
    link, read by dict and loop with the inverse data matrix recomputed by
    direct inversion each step. ``estimate(j, phi_j, psi_j, s, agg_j,
    received_j)`` re-solves sensor j from its multiplier aggregate
    sum_k (v_k - v_flip(k) - eta_bar_k) and the estimates it received.
    Returns the estimates after every step and the last multipliers (D, p)."""
    owner = [int(j) for j in links[0]]
    peer = [int(q) for q in links[1]]
    flip = _reverse_links(links)
    d = len(owner)
    s = {j: np.zeros(p) for j in range(top.J)}
    v = {k: np.zeros(p) for k in range(d)}
    phi = {j: np.eye(p) / delta for j in range(top.J)}
    psi = {j: np.zeros(p) for j in range(top.J)}
    out = []
    for h, x, eta, eta_bar in steps:
        received = {k: s[peer[k]] + eta[k] for k in range(d)}
        v_new = {k: v[k] + 0.5 * c * (s[owner[k]] - received[k]) for k in range(d)}
        s_next = {}
        for j in range(top.J):
            phi[j] = lam * phi[j] + np.outer(h[j], h[j])
            psi[j] = lam * psi[j] + h[j] * x[j]
            mine = [k for k in range(d) if owner[k] == j]
            agg = sum((v_new[k] - (v_new[flip[k]] + eta_bar[k]) for k in mine), np.zeros(p))
            s_next[j] = estimate(j, phi[j], psi[j], s, agg, [received[k] for k in mine])
        s, v = s_next, v_new
        out.append(np.stack([s[j] for j in range(top.J)]))
    return out, np.array([v[k] for k in range(d)]).reshape(d, p)


def _reference_ama(top, links, p, lam, c, delta, steps):
    """Per-link reading of the single-time-scale recursion."""
    return _per_link_multipliers(
        top, links, p, lam, c, delta, steps,
        lambda j, phi, psi, s, agg, received: np.linalg.inv(phi) @ (psi - 0.5 * agg))


def _reference_admom(top, links, p, lam, c, delta, steps):
    """Per-link reading of the augmented-Lagrangian variant."""
    def estimate(j, phi, psi, s, agg, received):
        rhs = psi + sum((0.5 * c * (s[j] + r) for r in received), np.zeros(p)) - 0.5 * agg
        return np.linalg.solve(phi + c * len(received) * np.eye(p), rhs)
    return _per_link_multipliers(top, links, p, lam, c, delta, steps, estimate)


def _noisy_steps(top, p, n, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    d = top.degrees.sum()
    steps = []
    for _ in range(n):
        steps.append((
            rng.standard_normal((top.J, p)),
            rng.standard_normal(top.J),
            scale * rng.standard_normal((d, p)),
            scale * rng.standard_normal((d, p)),
        ))
    return steps


def _step(advance_one, state, top, fold, h, x, eta=None, eta_bar=None):
    """One step of `state` on per-link noise, folded per sensor by the oracle."""
    sums = () if eta is None else fold(top, eta, eta_bar)
    return advance_one(state, h, x, *sums)


def _imbalance(top, links, v):
    """The oracle's per-sensor multiplier imbalance (1/2) sum_k (v_k - v_flip(k))."""
    half = 0.5 * (v - v[_reverse_links(links)])
    return np.stack([half[links[0] == j].sum(axis=0) for j in range(top.J)])


@pytest.mark.parametrize("state_cls, reference", [
    (DrlsState, _reference_ama),
    (AdmomState, _reference_admom),
])
def test_network_recursion_matches_loop_reference(state_cls, reference, fold_link_noise,
                                                  directed_links, advance_one):
    """The per-sensor recursion on the folded noise follows the per-link one
    step by step, and its state b is the per-link multipliers' imbalance."""
    top = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    p, lam, c, delta = 2, 0.9, 0.3, 50.0
    steps = _noisy_steps(top, p, 8, seed=17)
    links = directed_links(top)
    expected, v = reference(top, links, p, lam, c, delta, steps)
    state = state_cls(top, p, lam, c, delta)
    for step, want in zip(steps, expected):
        assert_allclose(_step(advance_one, state, top, fold_link_noise, *step).s, want,
                        rtol=1e-12, atol=0)
    assert_allclose(state.b, _imbalance(top, links, v), rtol=1e-12, atol=1e-15)


def _relative_gap(advance_one, state, top, fold, steps, expected):
    """Largest per-step ||s - s_ref|| / ||s_ref|| over a run of `steps`."""
    gap = 0.0
    for step, want in zip(steps, expected):
        s = _step(advance_one, state, top, fold, *step).s
        gap = max(gap, np.linalg.norm(s - want) / np.linalg.norm(want))
    return gap


@pytest.mark.parametrize("state_cls, reference", [
    (DrlsState, _reference_ama),
    (AdmomState, _reference_admom),
])
def test_per_sensor_recursion_holds_the_per_link_one_over_a_long_horizon(
        state_cls, reference, fold_link_noise, directed_links, advance_one):
    """3000 steps of iid data on noisy links: the per-sensor recursion stays
    within 1e-12 of the per-link oracle, relative, at every step."""
    top = random_geometric(6, 0.7, seed=2)
    model = iid_scenario(top.J, 2, seed=3)
    h, x, _, _ = SnapshotStream(model, top, [5]).draws(3000)
    noise = np.sqrt(0.1) * np.random.default_rng(8).standard_normal((2, 3000, top.degrees.sum(), 2))
    steps = list(zip(h[:, 0], x[:, 0], *noise))
    expected, _ = reference(top, directed_links(top), 2, 0.95, 0.3, 0.01, steps)
    state = state_cls(top, 2, 0.95, 0.3, 0.01)
    assert _relative_gap(advance_one, state, top, fold_link_noise, steps, expected) <= 1e-12


def test_per_sensor_recursion_holds_the_per_link_one_on_ar_data(fold_link_noise, directed_links,
                                                                advance_one):
    """AR regressors make the data matrices ill-conditioned; the per-sensor
    recursion still stays within 1e-10 of the per-link oracle, relative."""
    top = random_geometric(6, 0.7, seed=2)
    model = ar_scenario(top.J, seed=3)
    h, x, _, _ = SnapshotStream(model, top, [5]).draws(4000)
    noise = np.sqrt(0.1) * np.random.default_rng(9).standard_normal((2, 4000, top.degrees.sum(), 4))
    steps = list(zip(h[:, 0], x[:, 0], *noise))
    expected, _ = _reference_ama(top, directed_links(top), 4, 0.95, 0.2, 100.0, steps)
    state = DrlsState(top, 4, 0.95, 0.2, 100.0)
    assert _relative_gap(advance_one, state, top, fold_link_noise, steps, expected) <= 1e-10


@pytest.mark.bitwise
@pytest.mark.parametrize("state_cls", [DrlsState, AdmomState, LocalRls, CentralizedRls])
def test_a_batch_of_runs_steps_each_run_alone(state_cls, fold_link_noise, advance_one):
    """With a leading runs axis every run gets the bits of its own recursion."""
    top = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    runs = [_noisy_steps(top, 2, 6, seed=s) for s in (1, 2, 3)]
    batch = state_cls(top, 2, 0.9, 0.3, 50.0)
    alone = [state_cls(top, 2, 0.9, 0.3, 50.0) for _ in runs]
    for t in range(6):
        _step(advance_one, batch, top, fold_link_noise,
              *(np.stack(parts) for parts in zip(*(run[t] for run in runs))))
        for state, run in zip(alone, runs):
            _step(advance_one, state, top, fold_link_noise, *run[t])
    for r, state in enumerate(alone):
        assert_array_equal(batch.s[r], state.s)


@pytest.mark.bitwise
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("sigma2_eta", [0.0, 0.1])
@pytest.mark.parametrize("runs", [None, 3])
def test_advance_over_a_chunk_is_its_one_step_chunks_bit_for_bit(algorithm, sigma2_eta, runs):
    """An n-step chunk gives the trajectory, and leaves the state, of n
    one-step chunks, to the bit: on a bare (J, p) state and on a batch of
    runs, on ideal and noisy links. The state keeps its own estimates."""
    top = random_geometric(6, 0.7, seed=2)
    model = iid_scenario(top.J, 3, seed=3, sigma2_eta=sigma2_eta)
    draws = SnapshotStream(model, top, [[5, r] for r in range(runs or 1)]).draws(12)
    if runs is None:
        draws = tuple(None if d is None else d[:, 0] for d in draws)
    whole, stepped = (ALGORITHMS[algorithm](top, 3, 0.95, 0.2, 10.0) for _ in range(2))
    traj = whole.advance(*draws)
    rows = [np.broadcast_to(stepped.s, traj.shape[1:]).copy()]
    for k in range(12):
        one = stepped.advance(*(None if d is None else d[k:k + 1] for d in draws))
        assert_array_equal(one[0], rows[-1])
        rows.append(one[1])
    assert_array_equal(traj, np.stack(rows))
    assert_array_equal(whole.s, stepped.s)
    assert_array_equal(whole.s, traj[-1])
    assert not np.shares_memory(whole.s, traj)
    kept = whole.s.copy()
    traj[...] = np.nan
    assert_array_equal(whole.s, kept)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_a_state_is_sized_once_and_refuses_a_chunk_of_another_leading_shape(algorithm):
    """The first chunk fixes the state's leading shape. A chunk of another
    is refused by name before it touches the state: a bare state is not
    re-broadcast into a batch of runs, nor a batch cut to fewer runs."""
    top = random_geometric(6, 0.7, seed=2)
    model = iid_scenario(top.J, 3, seed=3, sigma2_eta=0.1)
    draws = SnapshotStream(model, top, [[5, r] for r in range(3)]).draws(2)
    name = ALGORITHMS[algorithm].__name__
    for first, then, sized, got in [(0, slice(None), r"\(\)", r"\(3,\)"),
                                     (slice(None), slice(0, 2), r"\(3,\)", r"\(2,\)")]:
        state = ALGORITHMS[algorithm](top, 3, 0.95, 0.2, 10.0)
        state.advance(*(d[:, first] for d in draws))
        kept = state.s.copy()
        with pytest.raises(ValueError, match=rf"{name} is sized to leading shape {sized}, "
                                             rf"got a chunk of leading shape {got}"):
            state.advance(*(d[:, then] for d in draws))
        assert_array_equal(state.s, kept)


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


def test_multiplier_antisymmetry_conserved_on_ideal_links(directed_links):
    """In the per-link oracle, a link's multiplier is exactly the negative of
    its reverse's on ideal links."""
    top = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    links = directed_links(top)
    steps = [(h, x, 0.0 * eta, 0.0 * eta_bar) for h, x, eta, eta_bar in _noisy_steps(top, 2, 10, 5)]
    _, v = _reference_ama(top, links, 2, 0.95, 0.2, 100.0, steps)
    assert np.abs(v + v[_reverse_links(links)]).max() == 0.0
    assert np.abs(v).max() > 0.0


def test_multiplier_antisymmetry_drifts_under_noise(directed_links):
    top = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    links = directed_links(top)
    _, v = _reference_ama(top, links, 2, 0.95, 0.2, 100.0, _noisy_steps(top, 2, 5, seed=8))
    assert np.abs(v + v[_reverse_links(links)]).max() > 1e-6


def test_zero_consensus_step_reduces_to_local_rls(advance_one):
    """c=0 with ideal links must follow the exact same arithmetic path."""
    top = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    net = DrlsState(top, 3, lam=0.9, c=0.0, delta=100.0)
    solo = LocalRls(top, 3, lam=0.9, c=0.0, delta=100.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = rng.standard_normal((4, 3))
        x = rng.standard_normal(4)
        advance_one(net, h, x)
        advance_one(solo, h, x)
        assert_array_equal(net.s, solo.s)


def test_single_sensor_network_equals_centralized(advance_one):
    top = from_edges(1, [])
    net = DrlsState(top, 2, lam=0.95, c=0.1, delta=100.0)
    central = CentralizedRls(top, 2, lam=0.95, c=0.1, delta=100.0)
    rng = np.random.default_rng(6)
    for _ in range(30):
        h = rng.standard_normal((1, 2))
        x = rng.standard_normal(1)
        advance_one(net, h, x)
        advance_one(central, h, x)
        assert np.abs(net.s - central.s).max() < 1e-10


# ---------------------------------------------------------------------------
# frozen-data consensus
# ---------------------------------------------------------------------------

def test_zero_data_step_at_unit_forgetting_leaves_the_kernel_unchanged(advance_one):
    """At lam = 1 a datum h = 0, x = 0 adds nothing to the data matrix, so
    the kernel keeps every bit and the step is one consensus round alone."""
    top = from_edges(5, K5_EDGES)
    state = DrlsState(top, 3, lam=1.0, c=0.05, delta=100.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        advance_one(state, rng.standard_normal((5, 3)), rng.standard_normal(5))
    pinv, psi = state.pinv.copy(), state.psi.copy()
    advance_one(state, np.zeros((5, 3)), np.zeros(5))
    assert_array_equal(state.pinv, pinv)
    assert_array_equal(state.psi, psi)


def test_batch_consensus_reaches_the_pooled_solution(ewlse_centralized, frozen_consensus,
                                                     directed_links, advance_one):
    top = from_edges(5, K5_EDGES)
    lam, delta, p = 0.95, 100.0, 3
    model = iid_scenario(top.J, p, seed=4, sigma2_eta=0.0)
    hs, xs, _, _ = SnapshotStream(model, top, [4]).draws(10)
    hs, xs = hs[:, 0], xs[:, 0]
    local = LocalRls(top, p, lam, 0.0, delta)
    for h, x in zip(hs, xs):
        advance_one(local, h, x)
    pooled = ewlse_centralized(hs, xs, lam, phi0=lam * top.J / delta)
    s = frozen_consensus(local, top, c=0.05, iters=2000)
    rel = np.linalg.norm(s - pooled, axis=1) / np.linalg.norm(pooled)
    assert rel.max() < 1e-6
    owner, peer = directed_links(top)
    disagreement = np.linalg.norm(s[owner] - s[peer], axis=1)
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


def test_flop_model_counts_the_per_sensor_recursion():
    """Hand counts at p = 2: a sensor's own work, and 2p per neighbor for
    (L s)_j on top of a fixed 3p (AMA) or 8p (AD-MoM) imbalance update."""
    assert ama_step_flops(2, 0) == 32 + 14 + 1
    assert ama_step_flops(2, 3) == ama_step_flops(2, 0) + (2 * 3 + 3) * 2
    assert admom_step_flops(2, 0) == 5 + 20 + 8
    assert admom_step_flops(2, 3) == admom_step_flops(2, 0) + (2 * 3 + 8) * 2
    for count in (ama_step_flops, admom_step_flops):
        assert count(4, 5) - count(4, 4) == 2 * 4


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


def test_random_topology_reference_spotcheck(fold_link_noise, directed_links, advance_one):
    top = random_geometric(6, 0.7, seed=9)
    steps = _noisy_steps(top, 3, 5, seed=21)
    expected, _ = _reference_ama(top, directed_links(top), 3, 0.95, 0.15, 100.0, steps)
    state = DrlsState(top, 3, lam=0.95, c=0.15, delta=100.0)
    for step in steps:
        _step(advance_one, state, top, fold_link_noise, *step)
    assert_allclose(state.s, expected[-1], atol=1e-9)
    assert_array_equal(state.b.shape, (top.J, 3))
