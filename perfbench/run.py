"""Benchmark of the drls package: set-up, end-to-end and per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check --workload W --seed N
    python3 perfbench/run.py --self-test

A measuring run starts fresh interpreters with BLAS and OpenMP pinned to
one thread: several that only set up (for ``setup_s``), then one that sets
up, runs whole rounds of the workload for S seconds and checks the
outputs. It prints each metric by name and unit, and as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. ``--check`` runs one round of a workload and its checks.
``--self-test`` runs every workload and check at a tiny size. Outputs and
trace files go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ar-simulate", "iid-compare", "analysis-sweep")

#: set-up samples per run; setup_s is their median
SETUP_SAMPLES = 7
#: a run ends within this many seconds, or its children are killed
RUN_LIMIT_S = 170.0

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env():
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _spawn(mode, args, outdir, deadline, tag):
    """Run one child interpreter; returns its result and the monotonic time
    just before it was started."""
    result_path = os.path.join(outdir, f"{tag}.json")
    cmd = [sys.executable, CHILD, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", outdir, "--result", result_path]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child passed the {RUN_LIMIT_S:.0f} s limit and was stopped")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    expected = os.path.join(ROOT, "src", "drls")
    if os.path.dirname(os.path.abspath(result["drls_file"])) != expected:
        raise BenchError(f"imported drls from {result['drls_file']}, not from {expected}")
    return result, started


def _workdir(name):
    """A fresh output directory for one command."""
    if not os.path.isfile(os.path.join(ROOT, "src", "drls", "__init__.py")):
        raise BenchError(f"no drls sources under {os.path.join(ROOT, 'src')}")
    outdir = os.path.join(OUT, f"{name}-{os.getpid()}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    return outdir


def _drop_outputs(outdir):
    """Remove the workload's CSVs, which are large and read only by the checks."""
    for entry in os.listdir(outdir):
        path = os.path.join(outdir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)


def measure(args):
    """One benchmark run; returns the result object the command prints."""
    deadline = time.monotonic() + RUN_LIMIT_S
    outdir = _workdir(f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        probes = []
        for k in range(SETUP_SAMPLES):
            probe, started = _spawn("setup", args, outdir, deadline, f"setup-{k}")
            took = probe["ready_at"] - started
            probes.append({"setup_s": took * speed.REFERENCE_S / probe["kernel_s"],
                           "raw_setup_s": took, "kernel_s": probe["kernel_s"],
                           "import_s": probe["import_s"], "topology_s": probe["topology_s"]})
        run, _ = _spawn("run", args, outdir, deadline, "run")
    finally:
        _drop_outputs(outdir)

    def median(key):
        return statistics.median(p[key] for p in probes)

    if args.trace:
        metrics = dict(run["layers"])
        metrics["setup.import_s"] = {"value": median("import_s"), "unit": "s"}
        metrics["topology.build_s"] = {"value": median("topology_s"), "unit": "s"}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "probes": probes,
                       "untraced_wall_s": run["wall_s"], "traced_wall_s": run["traced_wall_s"],
                       **run["trace"]}, fh, indent=1)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(run["wall_s"]), "unit": "s"},
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"probes": probes, **{k: v for k, v in run.items() if k != "trace"}},
                  fh, indent=1)
    return {
        "correct": all(c["ok"] for c in run["checks"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }, run


def _print_checks(run):
    for c in run["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for note in run["notes"]:
        print(f"note {note}")


def report(result, run):
    env = run["environment"]
    print(f"environment: cpus {env['cpu_count']}, python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']}, threads {env['threads_env']}")
    print(f"rounds: {len(run['wall_s'])} untraced"
          + (f", {len(run['traced_wall_s'])} traced" if "traced_wall_s" in run else "")
          + f"; measured round seconds {[round(t, 3) for t in run['raw_wall_s']]}, "
          f"speed-kernel ms {[round(1e3 * k, 4) for k in run['kernel_s']]} "
          f"(reference {1e3 * speed.REFERENCE_S} ms)")
    _print_checks(run)
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def check(args):
    """One round of a workload and its checks, with no timing loop."""
    outdir = _workdir(f"check-{args.workload}-seed{args.seed}")
    try:
        run, _ = _spawn("check", args, outdir, time.monotonic() + RUN_LIMIT_S, "check")
    finally:
        _drop_outputs(outdir)
    _print_checks(run)
    print(f"attempted {run['attempted']}, failed {run['failed']}")
    return 0 if all(c["ok"] for c in run["checks"]) and not run["failed"] else 1


def self_test():
    """Every workload at a tiny size, traced and not: checks pass and every
    metric BENCHMARK.json names is reported."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace, tiny=True)
            result, run = measure(args)
            passed = (result["correct"] and result["failed"] == 0
                      and set(result["metrics"]) == names[trace])
            ok &= passed
            print(f"self-test {'ok  ' if passed else 'FAIL'} {workload} trace={trace}: "
                  f"{sum(c['ok'] for c in run['checks'])}/{len(run['checks'])} checks, "
                  f"metrics {sorted(names[trace] ^ set(result['metrics'])) or 'complete'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="one round and its checks")
    parser.add_argument("--self-test", action="store_true",
                        help="every workload and check at a tiny size")
    args = parser.parse_args(argv)
    args.tiny = False
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.check:
            return check(args)
        result, run = measure(args)
        report(result, run)
        return 0 if result["correct"] else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
