import re
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drls import analysis, harness, signals
from drls.analysis import SteadyStateReport, to_db
from drls.errors import ConfigError, RunFailure
from drls.harness import (
    ALGORITHMS,
    ExperimentConfig,
    MetricSeries,
    build_model,
    build_topology,
    compare_theory,
    load_config,
    parse_config_text,
    run_ensemble,
    steady_state_empirical,
    step_size_warnings,
    write_global_csv,
    write_per_sensor_csv,
)
from drls.topology import from_edges, random_geometric, write_edge_list

FULL_CONFIG = """
# exercise every key once
topology.kind = geometric
topology.j = 6
topology.radius = 0.7
topology.seed = 3
scenario.kind = iid
scenario.p = 2
scenario.seed = 4
scenario.sigma2_eta = 0.05
scenario.rh_scale = 2.0
scenario.eps_scale = 0.5
algorithm = drls_ama
lambda = 0.9
c = 0.2
delta = 50.0
T = 40
runs = 3
burn_in = 20
master_seed = 11
threads = 1
"""


#: the geometric-only fields left unset, as an edge-list config needs them
_NO_GEOMETRY = dict(topology_j=None, topology_radius=None, topology_seed=None)


def _small_config(**kw):
    base = dict(
        topology_kind="geometric", topology_j=5, topology_radius=0.8,
        topology_seed=1, scenario_kind="iid", scenario_p=2, scenario_seed=1,
        algorithm="drls_ama", lam=0.95, c=0.1, delta=100.0,
        t_samples=50, runs=4, master_seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_full_config():
    config = parse_config_text(FULL_CONFIG)
    assert config.topology_j == 6
    assert config.topology_radius == 0.7
    assert config.scenario_rh_scale == 2.0
    assert config.scenario_eps_scale == 0.5
    assert config.lam == 0.9
    assert config.t_samples == 40
    assert config.burn_in == 20
    assert config.master_seed == 11


def test_parse_defaults():
    config = parse_config_text("")
    assert config.algorithm == "drls_ama"
    assert config.t_samples == 2000
    assert config.resolved_burn_in == 1800
    assert config.topology_j is config.topology_radius is config.topology_seed is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("what is this", "expected 'key = value'"),
        ("bogus = 3", "unknown key"),
        ("T = 10\nT = 20", "duplicate key"),
        ("T = ten", "expects an integer"),
        ("lambda = fast", "expects a number"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text, source="exp.cfg")


def test_every_config_key_is_documented():
    """The module docstring's key list and README's config table each name
    every key of the config fields once, and nothing else."""
    keys = sorted(f.metadata["key"] for f in fields(ExperimentConfig))
    listed = harness.__doc__.split("Recognized keys (defaults in parentheses):")[1]
    assert sorted(line.split()[0] for line in listed.strip().splitlines()) == keys
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Config keys\n")[1].split("\n## ")[0]
    assert sorted(re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)) == keys


def test_the_readme_library_example_runs_as_written(capsys):
    """README's "Library use" block runs unedited: it prints the predicted
    network EMSE and per-sensor MSD, then a passing comparison."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n")[1].split("\n## ")[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.split()
    assert float(out[0]) > 0   # the network EMSE, then the per-sensor MSD array
    assert out[-1] == "True"


def test_parse_errors_name_source_and_line():
    with pytest.raises(ConfigError, match=r"exp\.cfg:3"):
        parse_config_text("T = 10\n\nbogus = 1\n", source="exp.cfg")


def test_hash_opens_a_comment_only_after_whitespace(tmp_path):
    top = from_edges(3, [(0, 1), (1, 2)])
    path = tmp_path / "net#1.txt"
    write_edge_list(top, path)
    config = parse_config_text(
        f"# a path holding '#'\ntopology.kind = edgelist  # from a file\n"
        f"topology.path = {path}\t# the network\n"
    )
    assert config.topology_path == str(path)
    assert_array_equal(build_topology(config).adjacency, top.adjacency)


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(topology_kind="ring"), "topology.kind"),
        (dict(topology_kind="edgelist"), "topology.path"),
        (dict(scenario_kind="pink"), "scenario.kind"),
        (dict(scenario_kind="ar", scenario_p=2), "fixed regressor length"),
        (dict(scenario_kind="ar", scenario_p=None, scenario_rh_scale=2.0), "iid scenario only"),
        (dict(algorithm="sgd"), "unknown algorithm"),
        (dict(lam=0.0), "lambda"),
        (dict(c=-1.0), "c must be"),
        (dict(delta=0.0), "delta"),
        (dict(t_samples=0), "T must be"),
        (dict(runs=0), "runs"),
        (dict(threads=0), "threads"),
        (dict(burn_in=50), "burn_in"),
        (dict(c=float("nan")), "c must be finite"),
        (dict(c=float("inf")), "c must be finite"),
        (dict(delta=float("nan")), "delta must be finite"),
        (dict(scenario_sigma2_eta=float("nan")), "sigma2_eta must be finite"),
        (dict(scenario_eps_scale=float("nan")), "eps_scale must be finite"),
        (dict(scenario_sigma2_eta=-0.5), "sigma2_eta must be >= 0"),
        (dict(threads=2), "threads must be 1"),
        (dict(master_seed=-1), "master_seed must be >= 0"),
        (dict(topology_seed=-1), "topology.seed must be >= 0"),
        (dict(scenario_seed=-2), "scenario.seed must be >= 0"),
        (dict(scenario_p=-1), r"scenario.p must be >= 1, got -1"),
        (dict(scenario_p=0), r"scenario.p must be >= 1, got 0"),
        (dict(scenario_kind="ar", scenario_p=0), r"scenario.p must be >= 1, got 0"),
        (dict(scenario_rh_scale=-1.0), r"scenario.rh_scale must be positive, got -1.0"),
        (dict(scenario_rh_scale=0.0), r"scenario.rh_scale must be positive, got 0.0"),
        (dict(scenario_eps_scale=-0.5), r"scenario.eps_scale must be >= 0, got -0.5"),
        (dict(topology_path="net.txt"), "topology.path applies to topology.kind = edgelist"),
        *((dict(topology_kind="edgelist", topology_path="net.txt",
                **{**_NO_GEOMETRY, name: value}),
           f"{key} applies to topology.kind = geometric only, got topology.kind = edgelist")
          for name, key, value in (("topology_j", "topology.j", 10),
                                   ("topology_radius", "topology.radius", 0.45),
                                   ("topology_seed", "topology.seed", 0))),
    ],
)
def test_validate_errors(kw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        _small_config(**kw)


#: the keys that make `_small_config` a valid edge-list config
_EDGELIST = dict(topology_kind="edgelist", topology_path="net.txt", **_NO_GEOMETRY)


#: each declared rule: the config it is checked on, a field, the edge value it
#: accepts and the value just past the edge, with the message that refuses it
_RULE_EDGES = [
    ({}, "t_samples", 1, 0, "T must be >= 1, got 0"),
    ({}, "runs", 1, 0, "runs must be >= 1, got 0"),
    ({}, "scenario_p", 1, 0, "scenario.p must be >= 1, got 0"),
    ({}, "c", 0.0, -5e-324, "c must be >= 0, got -5e-324"),
    ({}, "scenario_sigma2_eta", 0.0, -5e-324, "scenario.sigma2_eta must be >= 0, got -5e-324"),
    ({}, "scenario_eps_scale", 0.0, -5e-324, "scenario.eps_scale must be >= 0, got -5e-324"),
    ({}, "topology_seed", 0, -1, "topology.seed must be >= 0, got -1"),
    ({}, "scenario_seed", 0, -1, "scenario.seed must be >= 0, got -1"),
    ({}, "master_seed", 0, -1, "master_seed must be >= 0, got -1"),
    ({}, "delta", 5e-324, 0.0, "delta must be positive, got 0.0"),
    ({}, "scenario_rh_scale", 5e-324, 0.0, "scenario.rh_scale must be positive, got 0.0"),
    ({}, "topology_path", None, "net.txt",
     "topology.path applies to topology.kind = edgelist only, got topology.kind = geometric"),
    (_EDGELIST, "topology_j", None, 5,
     "topology.j applies to topology.kind = geometric only, got topology.kind = edgelist"),
]


@pytest.mark.parametrize("base, name, edge, past, message", _RULE_EDGES,
                         ids=[name for _, name, *_ in _RULE_EDGES])
def test_each_rule_accepts_its_edge_and_refuses_the_value_past_it(base, name, edge, past,
                                                                  message):
    assert getattr(_small_config(**{**base, name: edge}), name) == edge
    with pytest.raises(ConfigError) as refused:
        _small_config(**{**base, name: past})
    assert str(refused.value) == message


def test_load_config_missing_file(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError, match="nope.cfg"):
        load_config(missing)


def test_load_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("T = 30\nmaster_seed = 5\n")
    config = load_config(path, master_seed=9)
    assert config.t_samples == 30
    assert config.master_seed == 9


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_topology_geometric_defaults_to_master_seed():
    explicit = build_topology(_small_config(topology_seed=0))
    implicit = build_topology(_small_config(topology_seed=None, master_seed=0))
    assert_array_equal(explicit.adjacency, implicit.adjacency)
    # unset, topology.j and topology.radius are 10 and 0.45
    unset = build_topology(ExperimentConfig(master_seed=4))
    assert_array_equal(unset.adjacency, random_geometric(10, 0.45, 4).adjacency)


def test_build_topology_edgelist(tmp_path):
    top = from_edges(3, [(0, 1), (1, 2)])
    path = tmp_path / "net.txt"
    write_edge_list(top, path)
    config = _small_config(topology_kind="edgelist", topology_path=str(path), **_NO_GEOMETRY)
    assert_array_equal(build_topology(config).adjacency, top.adjacency)


def test_build_model_iid_scaling():
    config = _small_config(scenario_rh_scale=3.0, scenario_eps_scale=0.5)
    base = build_model(_small_config(), build_topology(_small_config()))
    scaled = build_model(config, build_topology(config))
    assert_allclose(scaled.rh, 3.0 * base.rh)
    assert_allclose(scaled.sigma2_eps, 0.5 * base.sigma2_eps)


def test_build_model_ar_kind():
    config = _small_config(scenario_kind="ar", scenario_p=None)
    model = build_model(config, build_topology(config))
    assert model.ar_rho == 0.5
    assert model.p == 4


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_is_deterministic():
    config = _small_config()
    a = run_ensemble(config)
    b = run_ensemble(config)
    assert_array_equal(a.series.msd, b.series.msd)
    assert_array_equal(a.final_estimate_mean, b.final_estimate_mean)


def test_ensemble_seed_changes_results():
    a = run_ensemble(_small_config())
    b = run_ensemble(_small_config(master_seed=1))
    assert not np.array_equal(a.series.msd, b.series.msd)


@pytest.mark.bitwise
@pytest.mark.parametrize("scenario_kind, p", [("iid", 2), ("ar", None), ("iid", 3)])
def test_draw_chunk_does_not_change_the_bytes(tmp_path, monkeypatch, scenario_kind, p):
    """One step per draw chunk writes the same CSVs, deviations and final
    mean as the default chunk and as a small one; neither divides T."""
    config = _small_config(scenario_kind=scenario_kind, scenario_p=p, t_samples=333)
    results = {}
    for budget in (signals.DRAW_CHUNK_BYTES, 1, 4000):
        monkeypatch.setattr(signals, "DRAW_CHUNK_BYTES", budget)
        results[budget] = run_ensemble(config, collect_deviation=True)
    outputs = []
    for tag, result in results.items():
        g = tmp_path / f"{tag}_global.csv"
        s = tmp_path / f"{tag}_sensor.csv"
        write_global_csv(result.series, g)
        write_per_sensor_csv(result.series, s)
        outputs.append((g.read_bytes(), s.read_bytes(), result.network_deviation.tobytes(),
                        result.final_estimate_mean.tobytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_each_chunk_is_freed_before_the_next_is_drawn(monkeypatch):
    """The ensemble drops every array of a chunk's draws before it draws the
    next chunk, so no two chunks are alive at once."""
    draws = signals.SnapshotStream.draws
    previous, calls = [], []

    def tracked(stream, n):
        assert all(ref() is None for ref in previous), "the previous chunk is still alive"
        out = draws(stream, n)
        previous[:] = [weakref.ref(a) for a in out if a is not None]
        calls.append(n)
        return out

    monkeypatch.setattr(signals.SnapshotStream, "draws", tracked)
    monkeypatch.setattr(signals, "DRAW_CHUNK_BYTES", 4000)
    config = _small_config(t_samples=50)
    assert config.scenario_sigma2_eta > 0    # the link-noise draws are tracked too
    run_ensemble(config)
    assert len(previous) == 4 and len(calls) > 1


@pytest.mark.bitwise
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_each_run_is_independent_of_its_block(algorithm):
    """Run r of a larger ensemble follows exactly the run it is on its own."""
    block = run_ensemble(_small_config(algorithm=algorithm, runs=3), collect_deviation=True)
    alone = run_ensemble(_small_config(algorithm=algorithm, runs=1), collect_deviation=True)
    assert_array_equal(block.network_deviation[:1], alone.network_deviation)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_only_the_consensus_recursions_draw_link_noise(monkeypatch, algorithm):
    """On noisy links the baselines exchange nothing, so their streams draw
    no link noise; the consensus recursions get it with every chunk."""
    ideal = []

    class Recorded(signals.SnapshotStream):
        def draws(self, n):
            out = super().draws(n)
            ideal.append(out[2] is None and out[3] is None)
            return out

    monkeypatch.setattr(harness, "SnapshotStream", Recorded)
    monkeypatch.setattr(signals, "DRAW_CHUNK_BYTES", 4000)
    run_ensemble(_small_config(algorithm=algorithm, scenario_sigma2_eta=0.1))
    assert len(ideal) > 1
    assert set(ideal) == {algorithm in ("local_rls", "centralized")}


def test_ensemble_metric_shapes_and_deviation():
    config = _small_config(t_samples=30, runs=2)
    result = run_ensemble(config, collect_deviation=True)
    top = build_topology(config)
    assert result.series.msd.shape == (30, top.J)
    assert result.series.runs == 2
    assert result.network_deviation.shape == (2, 30)
    # network deviation is the per-run sensor sum, so its ensemble mean
    # matches the averaged learning curve
    assert_allclose(result.network_deviation.mean(axis=0),
                    result.series.msd.sum(axis=1), rtol=1e-12)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_counts_its_flops(algorithm):
    config = _small_config(algorithm=algorithm, t_samples=5, runs=1)
    top = build_topology(config)
    state = ALGORITHMS[algorithm](top, build_model(config, top).p, config.lam,
                                  config.c, config.delta)
    assert state.step_flops > 0
    assert run_ensemble(config).flops_per_run == 5 * state.step_flops
    assert not {"t", "flops", "delta"} & vars(state).keys()  # recursion state only


def test_centralized_noiseless_estimates_are_exact():
    """With no noise anywhere and a huge data weight the pooled estimator
    nails the parameter after p samples."""
    config = _small_config(
        algorithm="centralized", scenario_sigma2_eta=0.0, scenario_eps_scale=0.0,
        lam=1.0, delta=1e12, t_samples=10, runs=2,
    )
    result = run_ensemble(config)
    model = build_model(config, build_topology(config))
    assert (result.series.msd[model.p:] < 1e-20).all()


def test_mse_minus_emse_recovers_observation_noise():
    config = _small_config(t_samples=400, runs=60, topology_j=5,
                           scenario_sigma2_eta=0.05)
    result = run_ensemble(config)
    model = build_model(config, build_topology(config))
    window = 200
    gap = result.series.mse[-window:] - result.series.emse[-window:]
    for j in range(5):
        se = gap[:, j].std() / np.sqrt(window)
        assert abs(gap[:, j].mean() - model.sigma2_eps[j]) < 3 * se + 1e-6


def _poison_regressor(monkeypatch, step, run, sensor):
    """Make one regressor entry infinite: run `run`, sensor `sensor`, at
    0-based step `step` of the stream."""
    draws = signals.SnapshotStream.draws

    def poisoned(self, n):
        h, *rest = draws(self, n)
        start = getattr(self, "poison_start", 0)
        self.poison_start = start + n
        if start <= step < start + n:
            h[step - start, run, sensor] = np.inf
        return (h, *rest)

    monkeypatch.setattr(signals.SnapshotStream, "draws", poisoned)


def _pair_config(tmp_path, **kw):
    top = from_edges(2, [(0, 1)])
    path = tmp_path / "pair.txt"
    write_edge_list(top, path)
    return _small_config(topology_kind="edgelist", topology_path=str(path), **_NO_GEOMETRY,
                         scenario_p=1, c=5000.0, t_samples=400, **kw)


def test_a_one_sensor_network_with_noisy_links_simulates():
    """One sensor hears no link, so its link-noise sums have no unit draw
    behind them (w = 0 < J) and are exact zeros: with sigma2_eta > 0, D-RLS
    gives the isolated RLS bits of the no-cooperation baseline, and AD-MoM
    its curves to round-off."""
    results = {algorithm: run_ensemble(_small_config(topology_j=1, algorithm=algorithm,
                                                     scenario_sigma2_eta=0.1)).series
               for algorithm in ("local_rls", "drls_ama", "drls_admom")}
    local = results["local_rls"]
    for metric in ("msd", "emse", "mse"):
        assert_array_equal(getattr(results["drls_ama"], metric), getattr(local, metric))
        assert_allclose(getattr(results["drls_admom"], metric), getattr(local, metric),
                        rtol=1e-6)


def test_run_failure_on_divergent_configuration(tmp_path, monkeypatch):
    """The squared error overflows long before the estimate does, so the
    MSD is what is named."""
    config = _pair_config(tmp_path, runs=1)   # c is far above the mean-stability bound
    for budget in (signals.DRAW_CHUNK_BYTES, 4096, 1):
        monkeypatch.setattr(signals, "DRAW_CHUNK_BYTES", budget)
        with pytest.raises(RunFailure, match="run 0 .* MSD at step 58, first at sensor 0") as info:
            run_ensemble(config)
        assert (info.value.run, info.value.step, info.value.sensor) == (0, 58, 0)
        # batched, the lowest run that fails at the first failing step is named:
        # runs 0, 3 and 4 fail at step 58, runs 2 and 1 later
        with pytest.raises(RunFailure, match="run 0 .* MSD at step 58, first at sensor 0") as info:
            run_ensemble(replace(config, runs=5))
        assert (info.value.run, info.value.step, info.value.sensor) == (0, 58, 0)


def test_run_failure_on_an_overflowing_metric():
    """Estimates that stay finite can still square past the largest double:
    the first non-finite metric fails the run, naming it."""
    config = ExperimentConfig(c=1e6, t_samples=50, runs=2)
    # both runs fail at step 26, so the lower is named
    with pytest.raises(RunFailure, match="run 0 produced a non-finite MSD at step 26, "
                                         "first at sensor 0") as info:
        run_ensemble(config)
    failure = info.value
    assert (failure.run, failure.step, failure.sensor, failure.quantity) == (0, 26, 0, "MSD")
    assert all(type(v) is int for v in (failure.run, failure.step, failure.sensor))


@pytest.mark.parametrize("budget", [signals.DRAW_CHUNK_BYTES, 4096, 1])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_run_failure_names_the_first_failure_in_a_chunk(tmp_path, monkeypatch, algorithm,
                                                        budget):
    """Every algorithm loses finiteness at an infinite datum. The run, step
    and sensor are named wherever the step falls in a draw chunk, and the
    steps the chunk takes after it raise nothing else (no solver error).
    The consensus step is a stable one, so the datum is the only failure."""
    monkeypatch.setattr(signals, "DRAW_CHUNK_BYTES", budget)
    _poison_regressor(monkeypatch, step=99, run=3, sensor=1)
    # the pooled estimate is every sensor's, so it fails first at sensor 0
    sensor = 0 if algorithm == "centralized" else 1
    with pytest.raises(RunFailure, match=f"run 3 .* estimate at step 100, "
                                         f"first at sensor {sensor}") as info:
        run_ensemble(replace(_pair_config(tmp_path, algorithm=algorithm, runs=5), c=0.1))
    failure = info.value
    assert (failure.run, failure.step, failure.sensor, failure.quantity) == (3, 100, sensor,
                                                                            "estimate")


def test_steady_state_empirical():
    assert steady_state_empirical(np.array([9.0, 1.0, 3.0]), window=2) == pytest.approx(2.0)
    per_sensor = np.array([[9.0, 0.0], [1.0, 4.0], [3.0, 8.0]])
    tail = steady_state_empirical(per_sensor, window=2)
    assert tail.shape == (2,)
    assert_allclose(tail, [2.0, 6.0], rtol=0, atol=0)
    with pytest.raises(ValueError, match="window"):
        steady_state_empirical(np.zeros(3), window=4)
    with pytest.raises(ValueError, match="window"):
        steady_state_empirical(np.zeros((3, 2)), window=0)
    with pytest.raises(ValueError, match=r"\(T,\) or \(T, J\)"):
        steady_state_empirical(np.zeros((3, 2, 2)), window=2)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_theory_refuses_other_algorithms():
    with pytest.raises(ConfigError, match="drls_ama"):
        compare_theory(_small_config(algorithm="local_rls"))


def test_compare_theory_report(tmp_path):
    config = _small_config(t_samples=300, runs=20, burn_in=200)
    report = compare_theory(config, tol_db=30.0)
    top = build_topology(config)
    assert len(report.rows) == 3 * (top.J + 1)
    assert len(report.global_rows) == 3
    assert {r.metric for r in report.global_rows} == {"msd", "emse", "mse"}
    assert report.passed   # 30 dB tolerance is a formality
    for row in report.global_rows:
        assert row.delta_db == pytest.approx(row.empirical_db - row.predicted_db)

    path = tmp_path / "comparison.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "metric,scope,predicted_db,empirical_db,delta_db,pass"
    assert len(lines) == 1 + len(report.rows)
    assert lines[1].startswith("msd,global,")
    assert lines[1].endswith(",true")


def test_step_size_warning_is_for_drls_ama_at_or_above_its_bound():
    config = _small_config()
    top = build_topology(config)
    model = build_model(config, top)
    bound = analysis.mean_stability_bound(top, model, config.lam)
    assert step_size_warnings(replace(config, c=0.99 * bound), top, model) == ()
    for c in (bound, 2.0 * bound):
        assert step_size_warnings(replace(config, c=c), top, model) == (
            f"consensus step c = {c} is at or above the mean-stability bound "
            f"{bound:.6g}; the mean recursion may diverge",)
        for other in ("drls_admom", "local_rls", "centralized"):
            assert step_size_warnings(replace(config, c=c, algorithm=other), top, model) == ()


@pytest.mark.parametrize("kind", ["iid", "ar"])
def test_a_step_just_below_the_bound_finishes_or_fails_as_a_run(kind):
    """At c = 0.99 x the mean-stability bound an ensemble either finishes or
    raises RunFailure naming the run and step; numpy never errors or warns."""
    config = _small_config(topology_j=6, topology_radius=0.7, topology_seed=2,
                           scenario_kind=kind, scenario_p=None, scenario_seed=3,
                           t_samples=3000, runs=4, master_seed=5)
    top = build_topology(config)
    model = build_model(config, top)
    config = replace(config, c=0.99 * analysis.mean_stability_bound(top, model, config.lam))
    try:
        result = run_ensemble(config, topology=top, model=model)
    except RunFailure as exc:
        assert re.fullmatch(r"run \d produced a non-finite \w+ at step \d+, first at sensor \d: "
                            r"the recursion diverged", str(exc))
    else:
        assert np.isfinite(result.series.msd).all()


def test_compare_theory_reuses_a_provided_ensemble():
    config = _small_config(t_samples=200, runs=5, burn_in=150)
    ensemble = run_ensemble(config)
    report = compare_theory(config, ensemble=ensemble)
    assert report.ensemble is ensemble


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_global_csv_schema(tmp_path):
    config = _small_config(t_samples=12, runs=2)
    result = run_ensemble(config)
    path = tmp_path / "global.csv"
    write_global_csv(result.series, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"
    assert len(lines) == 13
    assert lines[1].split(",")[0] == "1"
    assert lines[-1].split(",")[0] == "12"
    msd_lin = float(lines[1].split(",")[1])
    assert msd_lin == pytest.approx(result.series.msd_global[0], rel=1e-10)


def test_per_sensor_csv_schema(tmp_path):
    config = _small_config(t_samples=6, runs=2)
    result = run_ensemble(config)
    top = build_topology(config)
    path = tmp_path / "per_sensor.csv"
    write_per_sensor_csv(result.series, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,sensor_id,msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"
    assert len(lines) == 1 + 6 * top.J
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    last = lines[-1].split(",")
    assert last[0] == "6" and last[1] == str(top.J - 1)


def _row_by_row(header, rows):
    """The metric-table bytes formatted one row and one to_db scalar at a
    time, as f-strings: the oracle for the block-wise writer."""
    lines = [header]
    for labels, msd, emse, mse in rows:
        lines.append(
            f"{','.join(map(str, labels))},{msd:.12e},{to_db(msd):.6f},"
            f"{emse:.12e},{to_db(emse):.6f},{mse:.12e},{to_db(mse):.6f}"
        )
    return "\n".join(lines) + "\n"


def _assert_table(path, expected):
    """Byte comparison that names the first differing line; a plain assert
    would diff megabytes of text."""
    got = path.read_bytes().decode()
    if got != expected:
        g, w = got.splitlines(), expected.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"{path.name} line {i + 1}: {g[i:i + 1]} != {w[i:i + 1]} "
                    f"({len(g)} against {len(w)} lines)")


def test_metric_tables_match_the_row_by_row_format(tmp_path):
    """All three metric tables write exactly the row-by-row bytes, across
    block edges and for the dB floor, a subnormal and a huge value, which
    the kernel leaves to ``%``: single rows, rows that open or close a
    block, and whole blocks; and a prediction table of a few rows."""
    block = analysis._CSV_BLOCK_ROWS
    t_total, j = 2 * block + 5, 3     # neither T nor T*J is a multiple of the block
    rng = np.random.default_rng(5)
    msd, emse, mse = rng.lognormal(-6.0, 4.0, size=(3, t_total, j))
    msd[4], emse[5], mse[6] = 0.0, 1e-310, 1e300      # also in the network means
    # zero network means from the last row of the first global block to the
    # first of the third; per sensor, whole blocks 3 to 5 and their edges
    msd[block - 1:2 * block + 1] = 0.0
    for edge in (block - 1, block, 2 * block, 3 * block - 1, 3 * block):
        msd.flat[edge], emse.flat[edge], mse.flat[edge] = 1e-310, 1e300, 0.0
    series = MetricSeries(msd=msd, emse=emse, mse=mse, runs=1)
    header = "msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"

    write_global_csv(series, tmp_path / "global.csv")
    means = series.msd_global, series.emse_global, series.mse_global
    expected = _row_by_row(f"t,{header}", (
        ((i + 1,), *(mean[i] for mean in means)) for i in range(t_total)))
    assert "-3000.000000" in expected
    _assert_table(tmp_path / "global.csv", expected)

    write_per_sensor_csv(series, tmp_path / "per_sensor.csv")
    expected = _row_by_row(f"t,sensor_id,{header}", (
        ((i + 1, k), msd[i, k], emse[i, k], mse[i, k])
        for i in range(t_total) for k in range(j)))
    _assert_table(tmp_path / "per_sensor.csv", expected)

    # the global row opens the second block; ten sensors make an 11-row table
    for sensors in (block + 1, 10):
        pm, pe, ps = rng.lognormal(-6.0, 4.0, size=(3, sensors))
        pm[0], pe[1], ps[2] = 0.0, 1e-310, 1e300
        report = SteadyStateReport(rho=0.5, r_y1=np.zeros((1, 1)), msd=pm, emse=pe, mse=ps)
        report.to_csv(tmp_path / "prediction.csv")
        rows = [((k,), pm[k], pe[k], ps[k]) for k in range(sensors)]
        rows.append((("global",), report.msd_global, report.emse_global, report.mse_global))
        _assert_table(tmp_path / "prediction.csv", _row_by_row(f"sensor_id,{header}", rows))
