import os
import re
import subprocess
import sys

import numpy as np
import pytest

import drls
from drls import analysis
from drls.cli import main
from drls.topology import from_edges, read_edge_list, write_edge_list

SMALL_CONFIG = """
topology.j = 5
topology.radius = 0.8
topology.seed = 1
scenario.p = 2
scenario.seed = 1
T = 60
runs = 3
master_seed = 0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def test_gen_topology(tmp_path, capsys):
    out = tmp_path / "net"
    code = main(["gen-topology", "--j", "6", "--radius", "0.7",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    top = read_edge_list(out / "topology.txt")
    assert top.J == 6
    stdout = capsys.readouterr().out
    assert "algebraic connectivity" in stdout
    assert "sensors: 6" in stdout


def test_gen_topology_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-topology", "--seed", "5", "--out", str(a)]) == 0
    assert main(["gen-topology", "--seed", "5", "--out", str(b)]) == 0
    assert (a / "topology.txt").read_bytes() == (b / "topology.txt").read_bytes()


def test_gen_topology_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["gen-topology", "--seed", "-1", "--out", str(tmp_path / "net")]) == 1
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "net").exists()


def test_gen_topology_one_sensor(tmp_path, capsys):
    """One sensor is a valid network; it has no algebraic connectivity to print."""
    assert main(["gen-topology", "--j", "1", "--out", str(tmp_path)]) == 0
    assert "sensors: 1" in capsys.readouterr().out
    assert read_edge_list(tmp_path / "topology.txt").J == 1


def test_out_naming_a_file_exits_one_before_any_work(tmp_path, config_path, capsys,
                                                     monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["gen-topology", "--out", str(taken)]) == 1
    assert f"error: cannot create output directory {taken}" in capsys.readouterr().err

    def no_ensemble(*args, **kwargs):
        raise AssertionError("the ensemble ran before the output directory was made")

    monkeypatch.setattr("drls.cli.run_ensemble", no_ensemble)
    assert main(["simulate", "--config", config_path, "--out", str(taken)]) == 1
    assert f"error: cannot create output directory {taken}" in capsys.readouterr().err
    assert main(["predict", "--config", config_path, "--out", str(taken / "sub")]) == 1
    assert str(taken / "sub") in capsys.readouterr().err
    assert taken.read_text() == ""


def test_help_names_each_seed(capsys):
    """gen-topology's --seed places the sensors; elsewhere it overrides the
    config's master seed."""
    texts = {}
    for command in ("gen-topology", "simulate"):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        texts[command] = " ".join(capsys.readouterr().out.split())
    assert "--seed SEED placement seed (default: 0)" in texts["gen-topology"]
    assert "master seed" not in texts["gen-topology"]
    assert "--seed SEED override the config master seed" in texts["simulate"]


def test_python_m_drls_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(drls.__file__))
    proc = subprocess.run([sys.executable, "-m", "drls", "gen-topology", "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0 and "sensors: 10" in proc.stdout, proc.stderr


@pytest.mark.parametrize("command, name", [
    ("gen-topology", "topology.txt"), ("simulate", "global.csv"), ("simulate", "per_sensor.csv"),
    ("predict", "prediction.csv"), ("compare", "comparison.csv"), ("compare", "global.csv"),
])
def test_an_unwritable_output_exits_one_naming_it(tmp_path, config_path, command, name):
    """An output the command cannot write is refused like any other input:
    exit 1, the file named, no traceback."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    configured = [] if command == "gen-topology" else ["--config", config_path]
    src = os.path.dirname(os.path.dirname(drls.__file__))
    proc = subprocess.run([sys.executable, "-m", "drls", command, *configured, "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert f"error: cannot write {out / name}: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, name", [
    ("simulate", "global.csv"), ("simulate", "per_sensor.csv"), ("compare", "comparison.csv"),
    ("compare", "prediction.csv"), ("compare", "global.csv"),
])
def test_an_unwritable_output_is_refused_before_the_ensemble(tmp_path, config_path, capsys,
                                                             monkeypatch, command, name):
    """simulate and compare check every output before any ensemble step,
    and leave the outputs they could write as they were."""
    def no_ensemble(*args, **kwargs):
        raise AssertionError("the ensemble ran before the outputs were checked")

    monkeypatch.setattr("drls.cli.run_ensemble", no_ensemble)
    monkeypatch.setattr("drls.cli.compare_theory", no_ensemble)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    others = {"simulate": ["global.csv", "per_sensor.csv"],
              "compare": ["comparison.csv", "prediction.csv", "global.csv"]}[command]
    others.remove(name)
    (out / others[0]).write_text("kept\n")
    assert main([command, "--config", config_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out / name}: Is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == sorted([name, others[0]])
    assert (out / others[0]).read_text() == "kept\n"


def test_simulate_writes_learning_curves(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", config_path, "--out", str(out)])
    assert code == 0
    global_lines = (out / "global.csv").read_text().strip().splitlines()
    assert global_lines[0] == "t,msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"
    assert len(global_lines) == 61
    sensor_lines = (out / "per_sensor.csv").read_text().strip().splitlines()
    assert len(sensor_lines) == 1 + 60 * 5
    stdout = capsys.readouterr().out
    assert "steady-state MSD" in stdout


def test_threads_key_accepts_only_one(tmp_path, config_path, capsys):
    """`threads = 1` parses and changes no byte; any other count is refused
    with its reason, and there is no --threads flag."""
    a, b = tmp_path / "a", tmp_path / "b"
    one, two = tmp_path / "one.cfg", tmp_path / "two.cfg"
    one.write_text(SMALL_CONFIG + "threads = 1\n")
    two.write_text(SMALL_CONFIG + "threads = 2\n")
    assert main(["simulate", "--config", config_path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(one), "--out", str(b)]) == 0
    assert (a / "global.csv").read_bytes() == (b / "global.csv").read_bytes()
    capsys.readouterr()
    assert main(["simulate", "--config", str(two), "--out", str(b)]) == 1
    assert "threads must be 1" in capsys.readouterr().err
    assert main(["simulate", "--config", config_path, "--out", str(b),
                 "--threads", "1"]) == 1


def test_predict(tmp_path, config_path, capsys):
    out = tmp_path / "pred"
    code = main(["predict", "--config", config_path, "--out", str(out)])
    assert code == 0
    lines = (out / "prediction.csv").read_text().strip().splitlines()
    assert lines[0].startswith("sensor_id,")
    assert len(lines) == 1 + 5 + 1
    stdout = capsys.readouterr().out
    assert "fluctuation spectral radius" in stdout
    assert "mean-stability bound" in stdout


def test_compare(tmp_path, config_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", config_path, "--out", str(out),
                 "--tol-db", "50"])
    assert code == 0
    assert (out / "comparison.csv").exists()
    assert (out / "prediction.csv").exists()
    assert (out / "global.csv").exists()
    stdout = capsys.readouterr().out
    assert "metric" in stdout and "delta_db" in stdout


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_compare_refuses_a_tolerance_no_row_can_pass(tmp_path, config_path, capsys,
                                                    monkeypatch, tol):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("the ensemble ran before the tolerance was checked")

    monkeypatch.setattr("drls.harness.run_ensemble", no_ensemble)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", config_path, "--out", str(out), "--tol-db", tol]) == 1
    assert "comparison tolerance must be a finite number of dB >= 0" in capsys.readouterr().err
    assert not (out / "comparison.csv").exists()


def test_compare_tolerance_miss_still_exits_zero(tmp_path, config_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", config_path, "--out", str(out),
                 "--tol-db", "1e-9"])
    assert code == 0
    text = (out / "comparison.csv").read_text()
    assert ",false" in text


@pytest.mark.parametrize("algorithm", ["local_rls", "drls_admom", "centralized"])
@pytest.mark.parametrize("command", ["predict", "stability"])
def test_averaged_model_refuses_other_algorithms(tmp_path, capsys, command, algorithm):
    """The averaged model covers drls_ama only, so predict and stability
    refuse any other algorithm, as compare does, and write nothing."""
    path = tmp_path / "other.cfg"
    path.write_text(SMALL_CONFIG + f"algorithm = {algorithm}\n")
    out = tmp_path / "out"
    writes = [] if command == "stability" else ["--out", str(out)]
    assert main([command, "--config", str(path), *writes]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: the averaged error model covers algorithm drls_ama only, "
                            f"got {algorithm!r}\n")
    assert captured.out == ""
    assert not (out / "prediction.csv").exists()


def test_stability_stable_config(tmp_path, config_path, capsys):
    code = main(["stability", "--config", config_path])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean-stable: true" in stdout
    assert "mean-square stable: true" in stdout


def test_stability_unstable_config(tmp_path, capsys):
    path = tmp_path / "hot.cfg"
    path.write_text(SMALL_CONFIG + "c = 1000.0\n")
    code = main(["stability", "--config", str(path)])
    assert code == 2
    assert "mean-square stable: false" in capsys.readouterr().out


def test_one_sensor_network(tmp_path, capsys):
    """One sensor has no links, so nothing bounds c: predict, stability and
    compare all finish and report the bound as inf."""
    path = tmp_path / "one.cfg"
    path.write_text(SMALL_CONFIG.replace("topology.j = 5", "topology.j = 1"))
    for command in ("predict", "stability", "compare"):
        out = tmp_path / command
        writes = [] if command == "stability" else ["--out", str(out)]
        assert main([command, "--config", str(path), *writes]) == 0, command
        stdout = capsys.readouterr().out
        if command != "compare":
            assert "mean-stability bound on c: inf" in stdout
    assert len((out / "prediction.csv").read_text().splitlines()) == 1 + 1 + 1
    assert len((out / "comparison.csv").read_text().splitlines()) == 1 + 3 * 2


def test_predict_unstable_exits_two(tmp_path, capsys):
    path = tmp_path / "hot.cfg"
    path.write_text(SMALL_CONFIG + "c = 1000.0\n")
    code = main(["predict", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "spectral radius" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "ghost.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "ghost.cfg" in capsys.readouterr().err


def test_bad_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("turbo = on\n")
    code = main(["predict", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "bad.cfg:1" in err


def test_unreadable_config_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# r\xe9seau\nT = 60\n".encode("latin-1"))
    assert main(["predict", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert f"error: config file {path} is not UTF-8 text" in capsys.readouterr().err
    assert main(["predict", "--config", str(tmp_path), "--out", str(tmp_path)]) == 1
    assert f"error: cannot read config file {tmp_path}" in capsys.readouterr().err


_BAD_EDGE_LISTS = {
    "zero": ("0\n", "need at least one sensor, got J=0"),
    "negative": ("-1\n", "need at least one sensor, got J=-1"),
    "out-of-range": ("3\n0 1\n0 5\n", "edge 1 = (0, 5) out of range for J=3"),
    "duplicate": ("3\n0 1\n0 1\n1 2\n", "duplicate edge (0, 1)"),
    "disconnected": ("4\n0 1\n2 3\n", "graph is not connected"),
}


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", *_BAD_EDGE_LISTS])
def test_unreadable_edge_list_exits_one(tmp_path, capsys, kind):
    net = tmp_path / "net.txt"
    if kind == "directory":
        net.mkdir()
    elif kind == "not-utf8":
        net.write_bytes(b"\xff\xfe2\n0 1\n")
    elif kind != "missing":
        net.write_text(_BAD_EDGE_LISTS[kind][0])
    path = tmp_path / "net.cfg"
    path.write_text(f"topology.kind = edgelist\ntopology.path = {net}\n")
    assert main(["predict", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(net) in err
    if kind in _BAD_EDGE_LISTS:
        assert err == f"error: {net}: {_BAD_EDGE_LISTS[kind][1]}\n"


def test_usage_error_exits_one(config_path, capsys):
    assert main([]) == 1
    assert main(["simulate"]) == 1   # --config is required
    capsys.readouterr()
    # stability writes nothing, so it takes no output directory
    assert main(["stability", "--config", config_path, "--out", "out"]) == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_divergent_run_exits_three(tmp_path, capsys):
    net = tmp_path / "pair.txt"
    write_edge_list(from_edges(2, [(0, 1)]), net)
    path = tmp_path / "diverge.cfg"
    path.write_text(
        f"topology.kind = edgelist\ntopology.path = {net}\n"
        "scenario.p = 1\nc = 5000.0\nT = 400\nruns = 1\n"
    )
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_simulate_warns_on_a_step_above_the_mean_stability_bound(tmp_path):
    """A drls_ama run whose c is past the bound diverges yet stays finite:
    simulate says so on stderr, exits 0, and leaks no numpy warning. Run
    as a child process, so stderr is what a user sees."""
    path = tmp_path / "fast.cfg"
    path.write_text("topology.j = 6\ntopology.radius = 0.7\ntopology.seed = 3\n"
                    "T = 80\nruns = 3\nc = 50\n")
    src = os.path.dirname(os.path.dirname(drls.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "drls", "simulate", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("warning: consensus step c = 50.0 is at or above the "
                                  "mean-stability bound "), proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_compare_warns_before_a_refused_prediction(tmp_path, capsys):
    """compare says c is past the mean-stability bound before any work, so
    the warning stands even when the prediction then refuses the config."""
    path = tmp_path / "slow.cfg"
    path.write_text("lambda = 0.99\nscenario.rh_scale = 1e-6\nc = 0.1\nT = 50\nruns = 2\n")
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    warning, error = capsys.readouterr().err.splitlines()
    assert warning == ("warning: consensus step c = 0.1 is at or above the mean-stability "
                       "bound 4.86885e-05; the mean recursion may diverge")
    assert error.startswith("error: error dynamics are not mean-square stable")


#: a huge radius or modulus as ``:.6g`` prints it, six significant digits
_HUGE = r"\d\.\d{5}e\+\d{3}"


@pytest.mark.parametrize("command", ["predict", "compare", "stability"])
def test_an_overflowing_noise_assembly_leaks_no_numpy_warning(tmp_path, capsys, command):
    """A regressor covariance so small that the noise forcing overflows: the
    step-size warning and the stability refusal are all stderr holds, and
    the huge spectral radius reads in six significant digits."""
    path = tmp_path / "tiny.cfg"
    path.write_text("scenario.rh_scale = 1e-300\nT = 20\nruns = 2\n")
    out = [] if command == "stability" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", str(path)] + out) == 2
    captured = capsys.readouterr()
    warning, *error = captured.err.splitlines()
    assert warning == ("warning: consensus step c = 0.1 is at or above the mean-stability "
                       "bound 9.7377e-300; the mean recursion may diverge")
    if command == "stability":
        assert error == []
        lines = captured.out.splitlines()
        assert re.fullmatch(rf"largest remaining eigenvalue modulus: {_HUGE}", lines[2])
        assert re.fullmatch(rf"fluctuation spectral radius: {_HUGE}", lines[3])
    else:
        (refusal,) = error
        assert re.fullmatch(r"error: error dynamics are not mean-square stable: spectral radius "
                            rf"{_HUGE} of the fluctuation transition is >= 1", refusal)


def test_predict_and_stability_warn_before_any_refusal(tmp_path, capsys):
    """predict and stability print the step-size warning that simulate and
    compare print, before the prediction refuses the config."""
    path = tmp_path / "hot.cfg"
    path.write_text(SMALL_CONFIG + "c = 100\n")
    warning = "warning: consensus step c = 100.0 is at or above the mean-stability bound "
    assert main(["predict", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    first, error = capsys.readouterr().err.splitlines()
    assert first.startswith(warning)
    assert error.startswith("error: ")
    assert main(["stability", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(warning) and len(captured.err.splitlines()) == 1
    assert "mean-square stable: false" in captured.out


@pytest.mark.parametrize("c, warned", [("0.1", False), ("100", True)])
def test_predict_and_stability_take_the_coupling_spectrum_once(tmp_path, capsys, monkeypatch,
                                                               c, warned):
    """The step-size warning reads the averaged system's bound, so predict,
    stability and compare each take one symmetric eigensolve; the warning
    still comes first."""
    calls = []
    spectrum = analysis._coupling_spectrum
    monkeypatch.setattr(analysis, "_coupling_spectrum",
                        lambda *args: calls.append(1) or spectrum(*args))
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG + f"c = {c}\n")
    for argv in (["predict", "--config", str(path), "--out", str(tmp_path / "out")],
                 ["stability", "--config", str(path)],
                 ["compare", "--config", str(path), "--out", str(tmp_path / "cmp")]):
        calls.clear()
        main(argv)
        assert len(calls) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("warning: consensus step c = ") == warned, err


def test_link_noise_key_is_unknown(tmp_path, capsys):
    """Ideal links are scenario.sigma2_eta = 0; the old on/off switch is refused."""
    path = tmp_path / "old.cfg"
    path.write_text(SMALL_CONFIG + "link_noise = off\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}:10: unknown key 'link_noise'\n"
    assert not (tmp_path / "out").exists()


def test_topology_path_without_edgelist_exits_one(tmp_path, capsys):
    """A path that nothing would read is refused, not ignored."""
    path = tmp_path / "net.cfg"
    path.write_text("topology.path = /nonexistent/net.txt\nT = 50\nruns = 1\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: topology.path applies to topology.kind = edgelist only")


@pytest.mark.parametrize("line", ["topology.j = 50", "topology.radius = 0.1",
                                  "topology.seed = 3"])
def test_geometric_keys_with_edgelist_exit_one(tmp_path, capsys, line):
    """An edge list fixes the network, so a placement key would be ignored:
    it is refused by key, before any output."""
    net = tmp_path / "net.txt"
    write_edge_list(from_edges(4, [(0, 1), (1, 2), (2, 3)]), net)
    path = tmp_path / "net.cfg"
    path.write_text(f"topology.kind = edgelist\ntopology.path = {net}\n{line}\nT = 50\nruns = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == (
        f"error: {key} applies to topology.kind = geometric only, got topology.kind = edgelist\n")
    assert not out.exists()


def test_regressor_length_below_one_exits_one(tmp_path, capsys):
    path = tmp_path / "short.cfg"
    path.write_text(SMALL_CONFIG.replace("scenario.p = 2", "scenario.p = -1"))
    assert main(["predict", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: scenario.p must be >= 1, got -1\n"


def test_overflowing_metric_exits_three_before_any_csv(tmp_path, capsys):
    """Finite estimates whose squared error overflows fail the run: nothing
    is written, rather than learning curves holding inf."""
    path = tmp_path / "overflow.cfg"
    path.write_text("c = 1e6\nT = 50\nruns = 2\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "warning: consensus step c = 1000000.0 is at or above the mean-stability bound "
        "9.7377; the mean recursion may diverge\n"
        "error: run 0 produced a non-finite MSD at step 26, first at sensor 0: "
        "the recursion diverged\n")
    assert list(out.iterdir()) == []


def test_config_seed_holds_without_the_flag(tmp_path):
    """Without --seed, the config's master_seed stays in force."""
    path = tmp_path / "seeded.cfg"
    path.write_text(SMALL_CONFIG.replace("master_seed = 0", "master_seed = 5"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(b), "--seed", "5"]) == 0
    assert (a / "global.csv").read_bytes() == (b / "global.csv").read_bytes()


def test_seed_override_changes_results(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", config_path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", config_path, "--out", str(b),
                 "--seed", "99"]) == 0
    assert (a / "global.csv").read_bytes() != (b / "global.csv").read_bytes()
