"""
Distributed recursive least squares over noisy sensor networks.

The package simulates single-time-scale distributed RLS (and friends)
over connected ad hoc topologies with noisy inter-sensor links, and
predicts the steady-state mean-square performance of the same recursion
from an averaged error model. ``drls.harness`` ties both sides together
for Monte Carlo comparison; the ``drls`` console script is a thin front
end over the same functions.
"""

from .analysis import (
    AveragedSystem,
    MeanStabilityReport,
    MseStabilityReport,
    NoiseCovariances,
    SteadyStateReport,
    build_averaged_system,
    check_mean_stability,
    check_mse_stability,
    mean_stability_bound,
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
    SequencingError,
    StabilityError,
    TopologyError,
)
from .estimators import (
    AdmomState,
    CentralizedRls,
    DrlsState,
    LocalRls,
    admom_step_flops,
    ama_step_flops,
    rls_kernel_step,
)
from .harness import (
    ComparisonReport,
    ComparisonRow,
    EnsembleResult,
    ExperimentConfig,
    MetricSeries,
    build_model,
    build_topology,
    compare_theory,
    load_config,
    parse_config_text,
    run_ensemble,
    steady_state_empirical,
    write_global_csv,
    write_per_sensor_csv,
)
from .signals import (
    SensorEnsembleModel,
    SnapshotStream,
    ar_scenario,
    ar_stationary_covariance,
    iid_scenario,
)
from .topology import (
    Topology,
    algebraic_connectivity,
    from_edges,
    laplacian,
    random_geometric,
    read_edge_list,
    write_edge_list,
)

__version__ = "0.1.0"
