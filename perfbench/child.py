"""One workload in a fresh interpreter; started by ``run.py``, not by hand.

    python3 perfbench/child.py MODE --workload W --seed N --seconds S
        --trace 0|1 --outdir DIR --result FILE [--tiny]

MODE is ``setup`` (import and build, then stop: one set-up sample),
``run`` (set up, then whole rounds for S seconds, then the checks) or
``check`` (set up, one round, the checks). The result goes to FILE as JSON.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import speed

METER = speed.SpeedMeter().start()
_start = time.perf_counter()
import drls  # noqa: E402  (the import is part of the set-up being timed)
IMPORT_S = time.perf_counter() - _start

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SWEEP_SIZES = (20, 24, 40, 60, 80)

RUN_ENSEMBLE = "drls.harness.run_ensemble"
DRLS_INIT = "drls.estimators.DrlsState.__init__"
STEP = "drls.estimators.DrlsState.step"
SNAPSHOT = "drls.signals.SnapshotStream.snapshot"
LINK_NOISE = ("drls.signals.SnapshotStream.estimate_noise",
              "drls.signals.SnapshotStream.multiplier_noise")
CSV_WRITERS = ("drls.harness.write_global_csv", "drls.harness.write_per_sensor_csv",
               "drls.harness.ComparisonReport.to_csv", "drls.analysis.SteadyStateReport.to_csv")
ASSEMBLE = "drls.analysis.build_averaged_system"
STABILITY = ("drls.analysis.check_mean_stability", "drls.analysis.check_mse_stability",
             "drls.analysis.mean_stability_bound")
NOISE_COV = "drls.analysis.noise_covariances"
SOLVE = "drls.analysis.steady_state_solve"
ITERATE = "drls.analysis.covariance_recursion_iterate"
SPECTRAL_RADIUS = "drls.linalg.spectral_radius"
KRON = "drls.linalg.kron"
PINV = "drls.linalg.pinv"


def _state_bytes(state):
    """Bytes of the estimator's array state, computed from the array sizes."""
    return sum(v.nbytes for v in vars(state).values() if isinstance(v, np.ndarray))


def install(tr):
    """Wrap every layer boundary the per-layer metrics read."""
    tr.wrap(RUN_ENSEMBLE, on_result=lambda args, r: (
        r.flops_per_run, r.series.runs * r.series.msd.shape[0], r.series.msd.shape[0]))
    tr.wrap("drls.harness.compare_theory")
    tr.wrap("drls.signals.SnapshotStream.__init__")
    tr.wrap(SNAPSHOT)
    for name in LINK_NOISE:
        tr.wrap(name)
    tr.wrap(DRLS_INIT, on_result=lambda args, r: _state_bytes(args[0]))
    tr.wrap(STEP)
    for name in CSV_WRITERS + STABILITY:
        tr.wrap(name)
    tr.wrap(ASSEMBLE)
    tr.wrap(NOISE_COV)
    tr.wrap(SOLVE, memory=True)
    tr.wrap(ITERATE, on_result=lambda args, r: r.steps)
    for name in (SPECTRAL_RADIUS, KRON, PINV):
        tr.wrap(name)


def layer_metrics(tr, rounds, csv_bytes):
    """Per-layer metrics per round, from the aggregates of ``rounds`` traced rounds."""
    def per_round(*names):
        return sum(tr.total(n) for n in names) / rounds

    def us_per_call(*names):
        calls = sum(tr.calls(n) for n in names)
        return 1e6 * sum(tr.total(n) for n in names) / calls if calls else 0.0

    ensembles = tr.samples.get(RUN_ENSEMBLE, [])
    run_steps = sum(e[1] for e in ensembles)
    csv_write_s = per_round(*CSV_WRITERS)
    m = {
        "signals.snapshot_us": (us_per_call(SNAPSHOT), "us"),
        "signals.link_noise_us": (us_per_call(*LINK_NOISE), "us"),
        "estimators.step_us": (us_per_call(STEP), "us"),
        "estimators.step_calls": (tr.calls(STEP) / rounds, "count"),
        "estimators.flops_per_run_step": (
            ensembles[0][0] / ensembles[0][2] if ensembles else 0, "flop"),
        "estimators.state_bytes": (max(tr.samples.get(DRLS_INIT, [0])), "bytes_computed"),
        "harness.ensemble_s": (per_round(RUN_ENSEMBLE), "s"),
        "harness.run_steps": (run_steps / rounds, "count"),
        "harness.loop_self_us": (
            1e6 * tr.own(RUN_ENSEMBLE) / run_steps if run_steps else 0.0, "us"),
        "harness.csv_write_s": (csv_write_s, "s"),
        "harness.csv_bytes": (csv_bytes, "bytes"),
        "harness.csv_mb_per_s": (csv_bytes / 1e6 / csv_write_s if csv_write_s else 0.0, "MB/s"),
        "analysis.assemble_s": (per_round(ASSEMBLE), "s"),
        "analysis.stability_s": (per_round(*STABILITY), "s"),
        "analysis.noise_cov_s": (per_round(NOISE_COV), "s"),
        "analysis.solve_s": (per_round(SOLVE), "s"),
    }
    for jp in SWEEP_SIZES:
        m[f"analysis.solve_s.jp{jp}"] = (per_round(f"{SOLVE}@jp{jp}"), "s")
    m.update({
        "analysis.solve_iterations": (sum(tr.samples.get(ITERATE, [])) / rounds, "count"),
        "analysis.solve_peak_mb": (tr.peaks.get(SOLVE, 0) / 2**20, "MB"),
        "linalg.spectral_radius_calls": (tr.calls(SPECTRAL_RADIUS) / rounds, "count"),
        "linalg.eig_s": (per_round(SPECTRAL_RADIUS), "s"),
        "linalg.kron_s": (per_round(KRON), "s"),
        "linalg.pinv_s": (per_round(PINV), "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def _digest(paths):
    out = {}
    for path in paths:
        if os.path.exists(path):    # a failed operation may not have written it
            with open(path, "rb") as fh:
                out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Rounds:
    """Whole rounds of one workload, with the bytes of each round's outputs."""

    def __init__(self, work):
        self.work = work
        self.digests = []
        self.csv_bytes = 0
        self.raw_s = []
        self.kernel_s = []

    def run(self, budget_s, tr=None):
        """Rounds until ``budget_s`` has passed (at least one); their seconds
        at reference speed."""
        scaled = []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            outputs = self.work.round(tr)
            end = time.perf_counter()
            self.raw_s.append(end - start)
            self.kernel_s.append(METER.kernel_s(start, end))
            scaled.append(METER.scaled(start, end))
            self.digests.append(_digest(outputs))
            self.csv_bytes = sum(os.path.getsize(p) for p in self.digests[-1])
            if time.perf_counter() - begin >= budget_s:
                return scaled


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    work = workloads.WORKLOADS[args.workload](args.seed, args.outdir, args.tiny)
    topology_s = work.setup()
    ready_at = time.monotonic()
    result = {"ready_at": ready_at, "import_s": IMPORT_S, "topology_s": topology_s,
              "drls_file": drls.__file__}
    if args.mode == "setup":
        METER.stop()
        result["kernel_s"] = METER.kernel_s(0.0, time.perf_counter())
    else:
        rounds = Rounds(work)
        if args.mode == "check":
            result["wall_s"] = rounds.run(0.0)
        elif not args.trace:
            result["wall_s"] = rounds.run(args.seconds)
        else:
            # half the time untraced, half traced, so the overhead is measured
            result["wall_s"] = rounds.run(args.seconds / 2)
            tr = tracer.Tracer()
            install(tr)
            try:
                traced = rounds.run(args.seconds / 2, tr)
            finally:
                tr.remove()
            result["traced_wall_s"] = traced
            result["layers"] = layer_metrics(tr, len(traced), rounds.csv_bytes)
            result["layers"]["trace.overhead_s"] = {
                "value": statistics.median(traced) - statistics.median(result["wall_s"]),
                "unit": "s"}
            result["trace"] = tr.dump()
        METER.stop()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["raw_wall_s"] = rounds.raw_s
        result["kernel_s"] = rounds.kernel_s
        found = work.checks()
        same = all(d == rounds.digests[0] for d in rounds.digests)
        found.append(("every round wrote the same bytes", same,
                      f"{len(rounds.digests)} rounds"))
        result["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in found]
        result["notes"] = work.notes
        result["attempted"] = work.attempted
        result["failed"] = work.failed
        result["environment"] = environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
