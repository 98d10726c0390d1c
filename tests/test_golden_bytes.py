"""
The byte contract: the same config writes the same CSV bytes.

Each case runs one small config through the CLI and compares the SHA-256 of
every CSV it writes with a digest pinned here. The cases span both regressor
kinds, links on and off, p = 1 and p = 5, all four algorithms, a complete
graph, and every table `compare` writes. A digest that moves means an output
byte moved: a change that means to move one says why in CHANGES.md before the
digest is updated.
"""

import hashlib

import pytest

from drls.cli import main

pytestmark = pytest.mark.bitwise

BASE = """
topology.j = 6
topology.radius = 0.7
topology.seed = 2
scenario.seed = 3
T = 300
runs = 4
master_seed = 5
"""

# case name -> (command, config lines that add to or override BASE, {csv name: sha256})
CASES = {
    "iid-p1-links-on-drls_ama": (
        "simulate", "scenario.p = 1\nalgorithm = drls_ama\n", {
            "global.csv": "2e9fa41ad899fc8ef1a323e8a49250a1d52e4279f83e6c4b231f46235f25ca5d",
            "per_sensor.csv": "93475f0edde77f23d7782a3e06badc9f629428a58cb738d6ae76e255330784cb",
        }),
    "iid-p5-links-on-drls_ama": (
        "simulate", "scenario.p = 5\nalgorithm = drls_ama\n", {
            "global.csv": "8950dc2fb0138e2e40f5bddcd8b40d9c3786c4c5480739381a5f342d42624402",
            "per_sensor.csv": "a7e0efaa00f80eb9b876f87a6946b9d343384d1e4f8c793433e50161fdc7f433",
        }),
    "iid-p5-links-off-local_rls": (
        "simulate", "scenario.p = 5\nalgorithm = local_rls\nscenario.sigma2_eta = 0\n", {
            "global.csv": "389f75babbf49a415896302fa6743f8d2885d09b4840b860a31fbe6c1f19c222",
            "per_sensor.csv": "2056c6c06137522b1f1cd494c8362abe3597a7408b82a387efb80ecdf4aefb10",
        }),
    "ar-links-on-drls_ama": (
        "simulate", "scenario.kind = ar\nalgorithm = drls_ama\n", {
            "global.csv": "869a95e0ef24b968a614e4012b4e893f8dbb6cc51c981ba5a133e48d4863520c",
            "per_sensor.csv": "7c60d152beb09c16e731537d0c0759946c8743745a818c063f2862601b3eab70",
        }),
    "ar-links-off-drls_ama": (
        "simulate", "scenario.kind = ar\nalgorithm = drls_ama\nscenario.sigma2_eta = 0\n", {
            "global.csv": "893d9bbec71bd5a0422f3cb0cfa0f30665961504002333ad78f14681caa4c44a",
            "per_sensor.csv": "c4b53d80b70f8096bce9c36440687295151db7eed0d89ff8371db28bcd6311ab",
        }),
    "ar-links-on-local_rls": (
        "simulate", "scenario.kind = ar\nalgorithm = local_rls\n", {
            "global.csv": "ac5b85007cbffbcda5e4005ad25146599b8b59fe95e4b965c9e9384c1e6a5456",
            "per_sensor.csv": "fddaeb1f8e0c304a4cb95f4511fa532a938f2a5f7fdb67987ca0cb54270f66fe",
        }),
    "iid-p2-links-on-drls_admom": (
        "simulate", "scenario.p = 2\nalgorithm = drls_admom\n", {
            "global.csv": "3c03858cb0c896723810a2cf6aecbe8ea51a67dccb99ef5c104e4dfe247ebaa9",
            "per_sensor.csv": "7755446cad9077b6954b9ba40bca720efa4ec84162c30fb170ee6bf571ff22b6",
        }),
    "ar-links-on-centralized": (
        "simulate", "scenario.kind = ar\nalgorithm = centralized\n", {
            "global.csv": "5e1bcba07b727886e35059869526cdabbc5abd8eb790053fd3bf0851bbd733bd",
            "per_sensor.csv": "e3d4c5f9cbd721eaca7a5b6c9f41140854748f0f1fc23d4846d95e9b77abff94",
        }),
    "iid-p2-predict": (
        "predict", "scenario.p = 2\n", {
            "prediction.csv": "883ffc9363abfc88cca3384878759f0c23daeb6b17cd11f46492dc445c20affc",
        }),
    "ar-predict": (
        "predict", "scenario.kind = ar\n", {
            "prediction.csv": "941ab43d182149751d13c1b016c70e7e7c9b3eb6d4ebdb7034226e327ed68883",
        }),
    "iid-p2-links-off-predict": (
        "predict", "scenario.p = 2\nscenario.sigma2_eta = 0\n", {
            "prediction.csv": "10b37010b65d420357fcad60cf0dac256c0e2bb5993c59bed9e38bb2938cfcda",
        }),
    "complete-p5-predict": (
        "predict", "topology.radius = 1.5\nscenario.p = 5\n", {
            "prediction.csv": "e9a1573f4d628bbbadfe91522c03b3f46d2b1522c978db7760a7f1a083a96303",
        }),
    "iid-p2-compare": (
        "compare", "scenario.p = 2\ndelta = 0.01\n", {
            "comparison.csv": "008d28a1b188ea809e6f8f93958c5edaf7f6c95ef53ae80cb353f8d48247d4ab",
            "global.csv": "54d94ff6f5334a9c0cf0971f38d1eb9f94cc8b5f655434f1d5e4e0bcd3183f98",
            "prediction.csv": "883ffc9363abfc88cca3384878759f0c23daeb6b17cd11f46492dc445c20affc",
        }),
}


def _digests(tmp_path, command, extra):
    keys = dict(line.split(" = ") for line in (BASE + extra).splitlines() if line)
    config = tmp_path / "case.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", CASES)
def test_csv_bytes_are_pinned(tmp_path, name):
    command, extra, expected = CASES[name]
    assert _digests(tmp_path, command, extra) == expected


def test_an_edge_list_of_the_geometric_network_writes_the_same_bytes(tmp_path):
    """`gen-topology` saves the network BASE draws; `simulate` read through
    that edge list writes the CSV bytes of the geometric run."""
    net = tmp_path / "net"
    assert main(["gen-topology", "--j", "6", "--radius", "0.7", "--seed", "2",
                 "--out", str(net)]) == 0
    rest = "".join(f"{line}\n" for line in BASE.splitlines()
                   if line and not line.startswith("topology."))
    configs = {"geometric": BASE,
               "edgelist": f"topology.kind = edgelist\ntopology.path = {net / 'topology.txt'}\n"
                           + rest}
    written = {}
    for route, text in configs.items():
        config, out = tmp_path / f"{route}.cfg", tmp_path / route
        config.write_text(text)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        written[route] = {name: (out / name).read_bytes()
                          for name in ("global.csv", "per_sensor.csv")}
    assert written["edgelist"] == written["geometric"]
