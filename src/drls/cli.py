"""
Command-line front end.

Every subcommand reads local files, writes its CSV/text outputs under
--out (``stability`` only prints), and sets the exit code: 0 on success,
1 for configuration or usage problems, 2 for stability or numerical
refusals, 3 when a Monte Carlo run fails. Outputs are byte-deterministic
for a given config.

Subcommands:

    gen-topology   draw a random geometric network and save its edge list
    simulate       run a Monte Carlo ensemble, write learning curves
    predict        steady-state mean-square prediction for one config
    compare        prediction and simulation side by side
    stability      mean / mean-square stability report for one config
"""

import argparse
import errno
import os
import sys

from .analysis import (
    check_mean_stability,
    check_mse_stability,
    noise_covariances,
    steady_state_solve,
    to_db,
)
from .errors import (
    AssemblyError,
    ConfigError,
    DivergenceError,
    ModelError,
    RunFailure,
    StabilityError,
    TopologyError,
)
from .harness import (
    averaged_system,
    build_model,
    build_topology,
    compare_theory,
    load_config,
    run_ensemble,
    steady_state_empirical,
    step_size_warnings,
    write_global_csv,
    write_per_sensor_csv,
)
from .topology import algebraic_connectivity, random_geometric, write_edge_list

_USAGE_ERRORS = (ConfigError, TopologyError, ModelError)
_NUMERICAL_ERRORS = (StabilityError, AssemblyError, DivergenceError)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors surface as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _load(args):
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    return load_config(args.config, **overrides)


def _outdir(args):
    """Create the output directory; commands call this before any work."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {args.out}: {exc.strerror or exc}") from exc
    return args.out


def _unwritable(path, exc):
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _write(path, write, *args):
    """``write(*args, path)``; an output it cannot write is refused by name."""
    try:
        write(*args, path)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _check_writable(*paths):
    """Refuse, as `_write` would, an output that cannot be written, before
    the work that makes it: an existing file is opened for writing without
    truncation, and a new one needs a writable directory. No file is made."""
    for path in paths:
        try:
            if os.path.exists(path):
                os.close(os.open(path, os.O_WRONLY))
            elif not os.access(os.path.dirname(path), os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        except OSError as exc:
            raise _unwritable(path, exc) from exc


def _cmd_gen_topology(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    path = os.path.join(_outdir(args), "topology.txt")
    top = random_geometric(args.j, args.radius, args.seed)
    _write(path, write_edge_list, top)
    print(f"sensors: {top.J}")
    print(f"undirected links: {len(top.edges())}")
    if top.J > 1:  # one sensor has no second Laplacian eigenvalue
        print(f"algebraic connectivity: {algebraic_connectivity(top):.6f}")
    print(f"edge list written to {path}")
    return 0


def _warned_setup(config, averaged=False):
    """The network, model and, if `averaged`, averaged system of a config,
    after printing its step-size warnings on stderr, so they come before any
    work that may refuse. `averaged_system` refuses no config that warns."""
    topology = build_topology(config)
    model = build_model(config, topology)
    system = averaged_system(config, topology, model) if averaged else None
    for warning in step_size_warnings(config, topology, model, system):
        print(f"warning: {warning}", file=sys.stderr)
    return topology, model, system


def _cmd_simulate(args):
    config = _load(args)
    out = _outdir(args)
    topology, model, _ = _warned_setup(config)
    global_path = os.path.join(out, "global.csv")
    sensor_path = os.path.join(out, "per_sensor.csv")
    _check_writable(global_path, sensor_path)
    ensemble = run_ensemble(config, topology=topology, model=model)
    _write(global_path, write_global_csv, ensemble.series)
    _write(sensor_path, write_per_sensor_csv, ensemble.series)
    window = config.t_samples - config.resolved_burn_in
    print(f"algorithm: {config.algorithm}")
    print(f"runs: {config.runs}, samples per run: {config.t_samples}")
    for name, series in (
        ("MSD", ensemble.series.msd_global),
        ("EMSE", ensemble.series.emse_global),
        ("MSE", ensemble.series.mse_global),
    ):
        tail = steady_state_empirical(series, window)
        print(f"steady-state {name}: {to_db(tail):.3f} dB (tail of {window} steps)")
    print(f"learning curves written to {global_path} and {sensor_path}")
    return 0


def _cmd_predict(args):
    config = _load(args)
    path = os.path.join(_outdir(args), "prediction.csv")
    _, model, system = _warned_setup(config, averaged=True)
    noise = noise_covariances(system, model)
    report = steady_state_solve(system, noise)
    _write(path, report.to_csv)
    print(f"fluctuation spectral radius: {report.rho:.6f}")
    print(f"mean-stability bound on c: {system.step_bound:.6g} (config uses c = {config.c})")
    print(f"steady-state MSD:  {to_db(report.msd_global):.3f} dB")
    print(f"steady-state EMSE: {to_db(report.emse_global):.3f} dB")
    print(f"steady-state MSE:  {to_db(report.mse_global):.3f} dB")
    print(f"prediction written to {path}")
    return 0


def _cmd_compare(args):
    config = _load(args)
    out = _outdir(args)
    topology, model, system = _warned_setup(config, averaged=True)
    comparison_path, prediction_path, global_path = (
        os.path.join(out, name) for name in ("comparison.csv", "prediction.csv", "global.csv"))
    _check_writable(comparison_path, prediction_path, global_path)
    report = compare_theory(config, tol_db=args.tol_db, topology=topology, model=model,
                            system=system)
    _write(comparison_path, report.to_csv)
    _write(prediction_path, report.prediction.to_csv)
    _write(global_path, write_global_csv, report.ensemble.series)
    print("metric  scope   predicted_db  empirical_db  delta_db  pass")
    for row in report.global_rows:
        print(f"{row.metric:<7} {row.scope:<7} {row.predicted_db:>12.3f}  "
              f"{row.empirical_db:>12.3f}  {row.delta_db:>8.3f}  "
              f"{str(report.row_pass(row)).lower()}")
    print(f"comparison written to {comparison_path}")
    return 0


def _cmd_stability(args):
    config = _load(args)
    system = _warned_setup(config, averaged=True)[2]
    mean_report = check_mean_stability(system)
    mse_report = check_mse_stability(system)
    print(f"mean-stability bound on c: {system.step_bound:.6g} (config uses c = {config.c})")
    print(f"unit eigenvalues of the mean transition: {mean_report.unit_eigen_count} "
          f"(expected {mean_report.expected_unit_count})")
    print(f"largest remaining eigenvalue modulus: {mean_report.max_other_modulus:.6g}")
    print(f"fluctuation spectral radius: {mse_report.rho:.6g}")
    print(f"mean-stable: {str(mean_report.stable).lower()}")
    print(f"mean-square stable: {str(mse_report.stable).lower()}")
    return 0 if mean_report.stable and mse_report.stable else 2


def build_parser():
    parser = _Parser(
        prog="drls",
        description="Distributed RLS over noisy sensor networks: simulation "
                    "and steady-state analysis.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--out", default="out", help="output directory (default: out)")
    configured = _Parser(add_help=False)
    configured.add_argument("--seed", type=int, default=None,
                            help="override the config master seed")
    configured.add_argument("--config", required=True, help="experiment config file")

    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-topology", parents=[common],
                         help="draw a connected random geometric network")
    gen.add_argument("--seed", type=int, default=0, help="placement seed (default: 0)")
    gen.add_argument("--j", type=int, default=10, help="sensor count (default: 10)")
    gen.add_argument("--radius", type=float, default=0.45,
                     help="connectivity radius in the unit square (default: 0.45)")
    gen.set_defaults(func=_cmd_gen_topology)

    for name, func, parents, helptext in (
        ("simulate", _cmd_simulate, [common, configured], "run a Monte Carlo ensemble"),
        ("predict", _cmd_predict, [common, configured], "steady-state mean-square prediction"),
        ("stability", _cmd_stability, [configured], "mean and mean-square stability report"),
    ):
        cmd = sub.add_parser(name, parents=parents, help=helptext)
        cmd.set_defaults(func=func)

    cmp_cmd = sub.add_parser("compare", parents=[common, configured],
                             help="prediction and simulation side by side")
    cmp_cmd.add_argument("--tol-db", type=float, default=1.0,
                         help="pass/fail tolerance in dB (default: 1.0)")
    cmp_cmd.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
