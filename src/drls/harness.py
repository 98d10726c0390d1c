"""
Monte Carlo experiment harness: configs, ensembles, and theory comparison.

An experiment is described by a flat ``key = value`` config file (dotted
keys, ``#`` comments). One config pins the topology, the signal scenario,
the algorithm and its parameters, and the ensemble size; everything a run
consumes is derived deterministically from ``master_seed``, so the same
config byte-reproduces the same CSV outputs. All runs of an ensemble step
through one time loop along a leading runs axis; each run keeps its own
seeded streams and metrics are reduced in run order, so the results are
those of running every run on its own.

Recognized keys (defaults in parentheses):

topology.kind      geometric | edgelist (geometric)
topology.j         sensor count for geometric (10)
topology.radius    connectivity radius for geometric (0.45)
topology.seed      placement seed (master_seed)
topology.path      edge-list file for edgelist
scenario.kind      iid | ar (iid)
scenario.p         regressor length, iid only; ar is fixed at 4 (2)
scenario.seed      spatial-profile seed (master_seed)
scenario.sigma2_eta link-noise variance at every receiver (0.1)
scenario.rh_scale  scales the identity regressor covariance, iid only (1.0)
scenario.eps_scale multiplies the drawn observation-noise profile (1.0)
algorithm          drls_ama | drls_admom | local_rls | centralized (drls_ama)
lambda             forgetting factor in (0, 1] (0.95)
c                  consensus step size (0.1)
delta              inverse-data-matrix init scale (100.0)
T                  samples per run (2000)
runs               Monte Carlo runs (100)
burn_in            steps discarded by tail statistics (T - max(1, T // 10))
link_noise         on | off (on)
master_seed        root seed (0)
threads            must be 1; kept so that existing configs parse (1)
"""

import math
import os
import re
from dataclasses import dataclass, replace

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
from .estimators import AdmomState, CentralizedRls, DrlsState, LocalRls
from .signals import SnapshotStream, ar_scenario, iid_scenario
from .topology import random_geometric, read_edge_list

ALGORITHMS = {
    "drls_ama": DrlsState,
    "drls_admom": AdmomState,
    "local_rls": LocalRls,
    "centralized": CentralizedRls,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    topology_kind: str = "geometric"
    topology_j: int = 10
    topology_radius: float = 0.45
    topology_seed: int | None = None
    topology_path: str | None = None
    scenario_kind: str = "iid"
    scenario_p: int | None = None
    scenario_seed: int | None = None
    scenario_sigma2_eta: float = 0.1
    scenario_rh_scale: float = 1.0
    scenario_eps_scale: float = 1.0
    algorithm: str = "drls_ama"
    lam: float = 0.95
    c: float = 0.1
    delta: float = 100.0
    t_samples: int = 2000
    runs: int = 100
    burn_in: int | None = None
    link_noise: bool = True
    master_seed: int = 0
    threads: int = 1

    @property
    def resolved_burn_in(self):
        """Steps the tail statistics skip; defaults to all but the last 10%."""
        if self.burn_in is not None:
            return self.burn_in
        return self.t_samples - max(1, self.t_samples // 10)

    def validate(self):
        for key, (attr, _) in _KEY_TABLE.items():
            value = getattr(self, attr)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.topology_kind not in ("geometric", "edgelist"):
            raise ConfigError(f"topology.kind must be geometric or edgelist, got {self.topology_kind!r}")
        if self.topology_kind == "edgelist" and not self.topology_path:
            raise ConfigError("topology.kind = edgelist requires topology.path")
        if self.scenario_kind not in ("iid", "ar"):
            raise ConfigError(f"scenario.kind must be iid or ar, got {self.scenario_kind!r}")
        if self.scenario_sigma2_eta < 0:
            raise ConfigError(
                f"scenario.sigma2_eta must be >= 0, got {self.scenario_sigma2_eta}"
            )
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
        return self


def _as_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {value!r}")


def _as_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {value!r}")


def _as_switch(key, value):
    if value == "on":
        return True
    if value == "off":
        return False
    raise ConfigError(f"{key} expects on or off, got {value!r}")


_KEY_TABLE = {
    "topology.kind": ("topology_kind", lambda k, v: v),
    "topology.j": ("topology_j", _as_int),
    "topology.radius": ("topology_radius", _as_float),
    "topology.seed": ("topology_seed", _as_int),
    "topology.path": ("topology_path", lambda k, v: v),
    "scenario.kind": ("scenario_kind", lambda k, v: v),
    "scenario.p": ("scenario_p", _as_int),
    "scenario.seed": ("scenario_seed", _as_int),
    "scenario.sigma2_eta": ("scenario_sigma2_eta", _as_float),
    "scenario.rh_scale": ("scenario_rh_scale", _as_float),
    "scenario.eps_scale": ("scenario_eps_scale", _as_float),
    "algorithm": ("algorithm", lambda k, v: v),
    "lambda": ("lam", _as_float),
    "c": ("c", _as_float),
    "delta": ("delta", _as_float),
    "T": ("t_samples", _as_int),
    "runs": ("runs", _as_int),
    "burn_in": ("burn_in", _as_int),
    "link_noise": ("link_noise", _as_switch),
    "master_seed": ("master_seed", _as_int),
    "threads": ("threads", _as_int),
}


def parse_config_text(text, source="<config>"):
    """Parse ``key = value`` lines into a validated ExperimentConfig."""
    fields = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        # '#' opens a comment at the start of a line or after whitespace only,
        # so a value such as a file path may contain one
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TABLE:
            raise ConfigError(f"{source}:{ln}: unknown key {key!r}")
        attr, conv = _KEY_TABLE[key]
        if attr in fields:
            raise ConfigError(f"{source}:{ln}: duplicate key {key!r}")
        fields[attr] = conv(key, value)
    return ExperimentConfig(**fields).validate()


def load_config(path, **overrides):
    """Read a config file; keyword overrides win over file values."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        config = parse_config_text(fh.read(), source=path)
    if overrides:
        config = replace(config, **overrides).validate()
    return config


def build_topology(config):
    if config.topology_kind == "edgelist":
        return read_edge_list(config.topology_path)
    seed = config.topology_seed if config.topology_seed is not None else config.master_seed
    return random_geometric(config.topology_j, config.topology_radius, seed)


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
    return model.with_link_noise(config.link_noise)


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


def _run_sum(values):
    """Sum over the leading runs axis in run order, as a serial loop adding
    each run to a zero total would."""
    return np.add.accumulate(values, axis=0)[-1] + 0.0


def run_ensemble(config, topology=None, model=None, collect_deviation=False):
    """Average `config.runs` independent runs into learning curves.

    Every run steps through one time loop along a leading runs axis. Run r
    draws from streams seeded with (master_seed, r) and metrics are summed
    over runs in run order, so each run's result and the averages are those
    of running it on its own. Any run that loses finiteness aborts the
    ensemble with RunFailure naming the lowest such run, the step and its
    first non-finite sensor.
    """
    config.validate()
    if topology is None:
        topology = build_topology(config)
    if model is None:
        model = build_model(config, topology)

    runs, t_total, j = config.runs, config.t_samples, topology.J
    stream = SnapshotStream(
        model, topology, [[config.master_seed, r] for r in range(runs)]
    )
    state = ALGORITHMS[config.algorithm](
        topology, model.p, config.lam, config.c, config.delta
    )
    msd = np.empty((t_total, j))
    emse = np.empty((t_total, j))
    mse = np.empty((t_total, j))
    deviation = np.empty((runs, t_total)) if collect_deviation else None
    s0 = model.s0
    # divergence is detected by the explicit finiteness check below, so the
    # overflow warnings numpy would emit on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (h, x, eta, eta_bar) in enumerate(stream.steps(t_total)):
            prior = state.s - s0
            emse_i = np.einsum("...ja,...ja->...j", h, prior) ** 2
            mse_i = (x - np.einsum("...ja,...ja->...j", h, state.s)) ** 2
            state.step(h, x, eta=eta, eta_bar=eta_bar)
            finite = np.isfinite(state.s).all(axis=-1)
            if not finite.all():
                run, sensor = np.argwhere(~finite)[0]
                raise RunFailure(
                    f"run {run} produced a non-finite estimate at step {i + 1}, "
                    f"first at sensor {sensor}: the recursion diverged"
                )
            post = state.s - s0
            msd_i = np.einsum("...ja,...ja->...j", post, post)
            msd[i], emse[i], mse[i] = _run_sum(msd_i), _run_sum(emse_i), _run_sum(mse_i)
            if collect_deviation:
                deviation[:, i] = msd_i.sum(axis=-1)

    n = float(runs)
    series = MetricSeries(msd=msd / n, emse=emse / n, mse=mse / n, runs=runs)
    return EnsembleResult(
        series=series, final_estimate_mean=_run_sum(state.s) / n,
        network_deviation=deviation, flops_per_run=state.flops,
    )


@dataclass(frozen=True)
class TailStats:
    mean: float
    std: float     # flatness diagnostic over the tail window
    window: int


def steady_state_empirical(values, window):
    """Mean and spread of the last `window` entries of a learning curve."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {values.shape}")
    if not 1 <= window <= values.shape[0]:
        raise ValueError(
            f"tail window must lie in [1, {values.shape[0]}], got {window}"
        )
    tail = values[-window:]
    return TailStats(mean=float(tail.mean()), std=float(tail.std()), window=window)


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
    warnings: tuple
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


def compare_theory(config, tol_db=1.0, topology=None, model=None,
                   ensemble=None):
    """Predict steady-state metrics and measure them from an ensemble.

    Only the single-time-scale AMA recursion has a matching analytical
    model, so other algorithms are refused. Prediction instabilities
    raise StabilityError before any simulation runs; a consensus step at
    or above the mean-stability bound is reported as a warning.
    """
    config.validate()
    if config.algorithm != "drls_ama":
        raise ConfigError(
            f"theory comparison covers algorithm drls_ama only, got {config.algorithm!r}"
        )
    if topology is None:
        topology = build_topology(config)
    if model is None:
        model = build_model(config, topology)

    system = build_averaged_system(topology, model, config.lam, config.c)
    warnings = []
    bound = mean_stability_bound(topology, model, config.lam)
    if config.c >= bound:
        warnings.append(
            f"consensus step c = {config.c} is at or above the mean-stability "
            f"bound {bound:.6g}; the mean recursion may diverge"
        )
    noise = noise_covariances(system, model)
    prediction = steady_state_solve(system, noise)

    if ensemble is None:
        ensemble = run_ensemble(config, topology=topology, model=model)
    series = ensemble.series
    window = config.t_samples - config.resolved_burn_in

    rows = []
    for metric in ("msd", "emse", "mse"):
        pred_sensor = getattr(prediction, metric)
        emp_series = getattr(series, metric)
        emp_tail = emp_series[-window:, :].mean(axis=0)
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
        rows=tuple(rows), tol_db=tol_db, warnings=tuple(warnings),
        prediction=prediction, ensemble=ensemble,
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
