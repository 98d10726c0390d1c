"""
Monte Carlo experiment harness: configs, ensembles, and theory comparison.

An experiment is described by a flat ``key = value`` config file (dotted
keys, ``#`` comments). One config pins the topology, the signal scenario,
the algorithm and its parameters, and the ensemble size; everything a run
consumes is derived deterministically from ``master_seed``, so the same
config byte-reproduces the same CSV outputs. All runs of an ensemble step
through one time loop along a leading runs axis, a draw chunk at a time:
the estimator steps through each chunk of the stream's draws, as drawn, in
one ``advance`` call, whose trajectory the chunk's metrics are taken from.
Each run keeps its own seeded streams and metrics are reduced in run order,
so the results are those of running every run on its own, and the draw
budget changes no byte.
A config is checked once, when it is built, so functions use it as given.

Recognized keys (defaults in parentheses):

topology.kind      geometric | edgelist (geometric)
topology.j         sensor count, geometric only (10)
topology.radius    connectivity radius, geometric only (0.45)
topology.seed      placement seed, geometric only (master_seed)
topology.path      edge-list file, edgelist only
scenario.kind      iid | ar (iid)
scenario.p         regressor length >= 1, iid only; ar is fixed at 4 (2)
scenario.seed      spatial-profile seed (master_seed)
scenario.sigma2_eta link-noise variance at every receiver, 0 = ideal links; not the baselines' (0.1)
scenario.rh_scale  positive scale of the identity regressor covariance, iid only (1.0)
scenario.eps_scale multiplies the drawn observation-noise profile, >= 0 (1.0)
algorithm          drls_ama | drls_admom | local_rls (D-RLS at c = 0) | centralized (drls_ama)
lambda             forgetting factor in (0, 1] (0.95)
c                  consensus step size; the baselines ignore it (0.1)
delta              inverse-data-matrix init scale (100.0)
T                  samples per run (2000)
runs               Monte Carlo runs (100)
burn_in            steps discarded by tail statistics (T - max(1, T // 10))
master_seed        root seed (0)
threads            must be 1; kept as the benchmark configs set it, ROADMAP item 1 (1)
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analysis import (
    build_averaged_system,
    mean_stability_bound,
    noise_covariances,
    steady_state_solve,
    to_db,
    write_metrics_csv,
)
from .errors import ConfigError, RunFailure
from .estimators import AdmomState, CentralizedRls, DrlsState
from .signals import SnapshotStream, ar_scenario, iid_scenario
from .topology import content_lines, random_geometric, read_edge_list, read_text

#: each algorithm's estimator, built from (topology, p, lam, c, delta)
ALGORITHMS = {
    "drls_ama": DrlsState,
    "drls_admom": AdmomState,
    # no cooperation: D-RLS with the consensus step switched off
    "local_rls": lambda topology, p, lam, c, delta: DrlsState(topology, p, lam, 0.0, delta),
    "centralized": CentralizedRls,
}
#: the baselines exchange nothing over the links, so they run on ideal ones
_BASELINES = ("local_rls", "centralized")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _key(key, default):
    """A config field and the key that sets it in a config file."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when it is built: an invalid one raises
    ConfigError. ``dataclasses.replace`` builds a new config, so it checks too.
    Each field's metadata names the config-file key that sets it."""

    topology_kind: str = _key("topology.kind", "geometric")
    topology_j: int | None = _key("topology.j", None)
    topology_radius: float | None = _key("topology.radius", None)
    topology_seed: int | None = _key("topology.seed", None)
    topology_path: str | None = _key("topology.path", None)
    scenario_kind: str = _key("scenario.kind", "iid")
    scenario_p: int | None = _key("scenario.p", None)
    scenario_seed: int | None = _key("scenario.seed", None)
    scenario_sigma2_eta: float = _key("scenario.sigma2_eta", 0.1)
    scenario_rh_scale: float = _key("scenario.rh_scale", 1.0)
    scenario_eps_scale: float = _key("scenario.eps_scale", 1.0)
    algorithm: str = _key("algorithm", "drls_ama")
    lam: float = _key("lambda", 0.95)
    c: float = _key("c", 0.1)
    delta: float = _key("delta", 100.0)
    t_samples: int = _key("T", 2000)
    runs: int = _key("runs", 100)
    burn_in: int | None = _key("burn_in", None)
    master_seed: int = _key("master_seed", 0)
    threads: int = _key("threads", 1)

    @property
    def resolved_burn_in(self):
        """Steps the tail statistics skip; defaults to all but the last 10%."""
        if self.burn_in is not None:
            return self.burn_in
        return self.t_samples - max(1, self.t_samples // 10)

    def __post_init__(self):
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if key.endswith("seed") and value is not None and value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")
        if self.topology_kind not in ("geometric", "edgelist"):
            raise ConfigError(f"topology.kind must be geometric or edgelist, got {self.topology_kind!r}")
        if self.topology_kind == "edgelist" and not self.topology_path:
            raise ConfigError("topology.kind = edgelist requires topology.path")
        if self.topology_kind != "edgelist" and self.topology_path is not None:
            raise ConfigError(f"topology.path applies to topology.kind = edgelist only, "
                              f"got topology.kind = {self.topology_kind}")
        for key in ("topology.j", "topology.radius", "topology.seed"):
            if self.topology_kind == "edgelist" and getattr(self, _FIELDS[key].name) is not None:
                raise ConfigError(f"{key} applies to topology.kind = geometric only, "
                                  f"got topology.kind = edgelist")
        if self.scenario_kind not in ("iid", "ar"):
            raise ConfigError(f"scenario.kind must be iid or ar, got {self.scenario_kind!r}")
        if self.scenario_p is not None and self.scenario_p < 1:
            raise ConfigError(f"scenario.p must be >= 1, got {self.scenario_p}")
        if self.scenario_sigma2_eta < 0:
            raise ConfigError(
                f"scenario.sigma2_eta must be >= 0, got {self.scenario_sigma2_eta}"
            )
        if self.scenario_rh_scale <= 0:
            raise ConfigError(f"scenario.rh_scale must be positive, got {self.scenario_rh_scale}")
        if self.scenario_eps_scale < 0:
            raise ConfigError(f"scenario.eps_scale must be >= 0, got {self.scenario_eps_scale}")
        if self.scenario_kind == "ar":
            if self.scenario_p is not None and self.scenario_p != 4:
                raise ConfigError("the ar scenario has a fixed regressor length of 4")
            if self.scenario_rh_scale != 1.0:
                raise ConfigError("scenario.rh_scale applies to the iid scenario only")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError(f"lambda must lie in (0, 1], got {self.lam}")
        if self.c < 0:
            raise ConfigError(f"c must be >= 0, got {self.c}")
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.t_samples < 1:
            raise ConfigError(f"T must be >= 1, got {self.t_samples}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.threads != 1:
            raise ConfigError(
                f"threads must be 1, got {self.threads}: every run of an ensemble "
                f"steps through one vectorised loop, so there are no workers to add"
            )
        if not 0 <= self.resolved_burn_in < self.t_samples:
            raise ConfigError(
                f"burn_in must lie in [0, T), got {self.resolved_burn_in} with T = {self.t_samples}"
            )


def _convert(f, value):
    """The text of a config value as its field's type: int, float or text."""
    key = f.metadata["key"]
    for number, noun in ((int, "an integer"), (float, "a number")):
        if f.type in (number, number | None):
            try:
                return number(value)
            except ValueError:
                raise ConfigError(f"{key} expects {noun}, got {value!r}")
    return value


_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def parse_config_text(text, source="<config>"):
    """Parse ``key = value`` lines into an ExperimentConfig."""
    values = {}
    for ln, line in content_lines(text):
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{ln}: unknown key {key!r}")
        f = _FIELDS[key]
        if f.name in values:
            raise ConfigError(f"{source}:{ln}: duplicate key {key!r}")
        values[f.name] = _convert(f, value)
    return ExperimentConfig(**values)


def load_config(path, **overrides):
    """Read a config file; keyword overrides win over file values."""
    config = parse_config_text(read_text(path, "config", ConfigError), source=path)
    if overrides:
        config = replace(config, **overrides)
    return config


def build_topology(config):
    if config.topology_kind == "edgelist":
        return read_edge_list(config.topology_path)
    j = config.topology_j if config.topology_j is not None else 10
    radius = config.topology_radius if config.topology_radius is not None else 0.45
    seed = config.topology_seed if config.topology_seed is not None else config.master_seed
    return random_geometric(j, radius, seed)


def build_model(config, topology):
    seed = config.scenario_seed if config.scenario_seed is not None else config.master_seed
    if config.scenario_kind == "iid":
        p = config.scenario_p if config.scenario_p is not None else 2
        model = iid_scenario(
            topology.J, p, seed, sigma2_eta=config.scenario_sigma2_eta,
            rh=config.scenario_rh_scale,
        )
    else:
        model = ar_scenario(topology.J, seed, sigma2_eta=config.scenario_sigma2_eta)
    if config.scenario_eps_scale != 1.0:
        model = replace(model, sigma2_eps=config.scenario_eps_scale * model.sigma2_eps)
    return model


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSeries:
    """Ensemble-mean learning curves, one row per time step."""

    msd: np.ndarray    # (T, J) E||s_j(t) - s0||^2
    emse: np.ndarray   # (T, J) a-priori excess error power
    mse: np.ndarray    # (T, J) a-priori residual power
    runs: int

    @property
    def msd_global(self):
        return self.msd.mean(axis=1)

    @property
    def emse_global(self):
        return self.emse.mean(axis=1)

    @property
    def mse_global(self):
        return self.mse.mean(axis=1)


@dataclass(frozen=True)
class EnsembleResult:
    series: MetricSeries
    final_estimate_mean: np.ndarray       # (J, p) ensemble mean of s(T)
    network_deviation: np.ndarray | None  # (runs, T) per-run sum_j ||s_j - s0||^2
    flops_per_run: int


def _run_sum(values, axis=0):
    """Sum over the runs `axis` in run order, serially from a zero total."""
    total = np.zeros(values.shape[:axis] + values.shape[axis + 1:])
    for run in np.moveaxis(values, axis, 0):
        total += run
    return total


def _refuse_non_finite(traj, per_run, start):
    """Raise RunFailure if a chunk starting after step `start` has a
    non-finite estimate (`traj`, (n + 1, runs, J, p)) or metric (`per_run`,
    (3, n, runs, J)), naming the earliest step, then the lowest run, its
    first sensor and the first quantity there."""
    finite = np.empty(per_run.shape[1:] + (4,), dtype=bool)  # (step, run, sensor, quantity)
    np.isfinite(traj[1:]).all(axis=-1, out=finite[..., 0])
    np.isfinite(per_run, out=np.moveaxis(finite[..., 1:], -1, 0))
    if not finite.all():
        step, run, sensor, what = np.argwhere(~finite)[0].tolist()
        raise RunFailure(run, start + step + 1, sensor, ('estimate', 'MSD', 'EMSE', 'MSE')[what])


def run_ensemble(config, topology=None, model=None, collect_deviation=False):
    """Average `config.runs` independent runs into learning curves.

    Every run steps through one time loop along a leading runs axis, a draw
    chunk at a time; the estimator's ``advance`` steps through a chunk, and
    the chunk's metrics are taken from the trajectory it returns. Run
    r draws from streams seeded with (master_seed, r) and metrics are summed
    over runs in run order, so each run's results are those it gives on its
    own. The baselines read no link noise, so their streams draw none. Any
    run whose estimate or metrics lose finiteness aborts the ensemble with
    RunFailure naming the step, the lowest such run, its first non-finite
    sensor and what went non-finite there.
    """
    if topology is None:
        topology = build_topology(config)
    if model is None:
        model = build_model(config, topology)

    if config.algorithm in _BASELINES:
        model = replace(model, sigma2_eta=np.zeros(model.J))
    runs, t_total = config.runs, config.t_samples
    stream = SnapshotStream(model, topology, [[config.master_seed, r] for r in range(runs)])
    state = ALGORITHMS[config.algorithm](topology, model.p, config.lam, config.c, config.delta)
    totals = np.empty((3, t_total, topology.J))  # msd, emse, mse summed over runs
    deviation = np.empty((runs, t_total)) if collect_deviation else None
    start = 0
    # divergence is detected by the explicit finiteness check below, so the
    # overflow warnings numpy would emit on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for h, x, eta, eta_bar in stream.chunks(t_total):
            n = len(h)
            # estimates before each step of the chunk and after its last
            traj = state.advance(h, x, eta, eta_bar)
            error = traj - model.s0
            per_run = np.empty((3,) + x.shape)   # msd, emse, mse of each (step, run, sensor)
            np.einsum("...ja,...ja->...j", error[1:], error[1:], out=per_run[0])
            np.einsum("...ja,...ja->...j", h, error[:-1], out=per_run[1])
            np.einsum("...ja,...ja->...j", h, traj[:-1], out=per_run[2])
            np.subtract(x, per_run[2], out=per_run[2])
            np.square(per_run[1:], out=per_run[1:])
            # every metric is a square, so >= 0 unless NaN: a finite total means
            # each is finite, and so is each estimate, or its MSD would not be
            if not np.isfinite(per_run.sum()):
                _refuse_non_finite(traj, per_run, start)
            totals[:, start:start + n] = _run_sum(per_run, axis=2)
            if collect_deviation:
                deviation[:, start:start + n] = per_run[0].sum(axis=-1).T
            start += n
            # freed before the next chunk is drawn, so two chunks are never alive at once
            del h, x, eta, eta_bar, traj, error, per_run

    msd, emse, mse = totals / float(runs)
    return EnsembleResult(
        series=MetricSeries(msd=msd, emse=emse, mse=mse, runs=runs),
        final_estimate_mean=_run_sum(state.s) / float(runs),
        network_deviation=deviation, flops_per_run=config.t_samples * state.step_flops,
    )


def steady_state_empirical(values, window):
    """Mean of the last `window` steps of a learning curve: a float for a
    (T,) network curve, a (J,) array for (T, J) per-sensor curves."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) or (T, J) series, got shape {values.shape}")
    if not 1 <= window <= values.shape[0]:
        raise ValueError(
            f"tail window must lie in [1, {values.shape[0]}], got {window}"
        )
    return values[-window:].mean(axis=0)


# ---------------------------------------------------------------------------
# theory-versus-simulation comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    metric: str      # msd | emse | mse
    scope: str       # "global" or a sensor id
    predicted_db: float
    empirical_db: float

    @property
    def delta_db(self):
        return self.empirical_db - self.predicted_db


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple
    tol_db: float
    prediction: object      # SteadyStateReport
    ensemble: EnsembleResult

    def row_pass(self, row):
        return abs(row.delta_db) <= self.tol_db

    @property
    def global_rows(self):
        return tuple(r for r in self.rows if r.scope == "global")

    @property
    def passed(self):
        """Every network-level metric within tolerance."""
        return all(self.row_pass(r) for r in self.global_rows)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("metric,scope,predicted_db,empirical_db,delta_db,pass\n")
            for r in self.rows:
                fh.write(
                    f"{r.metric},{r.scope},{r.predicted_db:.6f},"
                    f"{r.empirical_db:.6f},{r.delta_db:.6f},"
                    f"{str(self.row_pass(r)).lower()}\n"
                )


def averaged_system(config, topology, model):
    """The averaged error system of a config: the one gate to the model,
    which covers the single-time-scale AMA recursion only."""
    if config.algorithm != "drls_ama":
        raise ConfigError(
            f"the averaged error model covers algorithm drls_ama only, got {config.algorithm!r}"
        )
    return build_averaged_system(topology, model, config.lam, config.c)


def step_size_warnings(config, topology, model, system=None):
    """Warnings on the consensus step: one if a drls_ama step is at or above
    its mean-stability bound, read off the config's averaged `system` when
    given. Other algorithms have no such bound."""
    if config.algorithm != "drls_ama":
        return ()
    bound = system.step_bound if system else mean_stability_bound(topology, model, config.lam)
    if config.c < bound:
        return ()
    return (f"consensus step c = {config.c} is at or above the mean-stability "
            f"bound {bound:.6g}; the mean recursion may diverge",)


def compare_theory(config, tol_db=1.0, topology=None, model=None,
                   ensemble=None, system=None):
    """Predict steady-state metrics and measure them from an ensemble.

    Only the single-time-scale AMA recursion has a matching analytical
    model, so other algorithms are refused (`averaged_system`). So is a
    `tol_db` that is negative or not finite: no row can pass a negative or
    NaN tolerance, and every row passes an infinite one. Prediction
    instabilities raise StabilityError before any simulation runs. A step
    past the mean-stability bound is the caller's to report
    (`step_size_warnings`). `system`, when given, is the config's
    `averaged_system`.
    """
    if not (np.isfinite(tol_db) and tol_db >= 0.0):
        raise ConfigError(f"comparison tolerance must be a finite number of dB >= 0, got {tol_db}")
    if topology is None:
        topology = build_topology(config)
    if model is None:
        model = build_model(config, topology)

    if system is None:
        system = averaged_system(config, topology, model)
    noise = noise_covariances(system, model)
    prediction = steady_state_solve(system, noise)

    if ensemble is None:
        ensemble = run_ensemble(config, topology=topology, model=model)
    series = ensemble.series
    window = config.t_samples - config.resolved_burn_in

    rows = []
    for metric in ("msd", "emse", "mse"):
        pred_sensor = getattr(prediction, metric)
        emp_tail = steady_state_empirical(getattr(series, metric), window)
        rows.append(ComparisonRow(
            metric=metric, scope="global",
            predicted_db=float(to_db(pred_sensor.mean())),
            empirical_db=float(to_db(emp_tail.mean())),
        ))
        for k in range(topology.J):
            rows.append(ComparisonRow(
                metric=metric, scope=str(k),
                predicted_db=float(to_db(pred_sensor[k])),
                empirical_db=float(to_db(emp_tail[k])),
            ))
    return ComparisonReport(
        rows=tuple(rows), tol_db=tol_db, prediction=prediction, ensemble=ensemble,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_global_csv(series, path):
    """Network-mean learning curves, one row per time step."""
    write_metrics_csv(path, {"t": range(1, series.msd.shape[0] + 1)},
                      series.msd_global, series.emse_global, series.mse_global)


def write_per_sensor_csv(series, path):
    """Per-sensor learning curves, one row per (time step, sensor)."""
    t_total, j = series.msd.shape
    write_metrics_csv(path, {"t": range(1, t_total + 1), "sensor_id": range(j)},
                      series.msd, series.emse, series.mse)
