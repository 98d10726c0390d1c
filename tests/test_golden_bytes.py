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
            "global.csv": "c2f6a726fb306f0bd9f3fb14b5d4a76d1f646b8d076bbf700bd5e02051a40a87",
            "per_sensor.csv": "832987733567e3aae9190d95b323af695c285265170aa031e6db05ae1d68052b",
        }),
    "iid-p5-links-on-drls_ama": (
        "simulate", "scenario.p = 5\nalgorithm = drls_ama\n", {
            "global.csv": "65f1c32765073d8cdac40a378e4bf3818dddb3b238d5f3bc1528e1d1fe753c8d",
            "per_sensor.csv": "0e26963c1e5a338a6ef3b4684f24a1f6feeaf00631c302e046b664cea8090916",
        }),
    "iid-p5-links-off-local_rls": (
        "simulate", "scenario.p = 5\nalgorithm = local_rls\nscenario.sigma2_eta = 0\n", {
            "global.csv": "389f75babbf49a415896302fa6743f8d2885d09b4840b860a31fbe6c1f19c222",
            "per_sensor.csv": "2056c6c06137522b1f1cd494c8362abe3597a7408b82a387efb80ecdf4aefb10",
        }),
    "ar-links-on-drls_ama": (
        "simulate", "scenario.kind = ar\nalgorithm = drls_ama\n", {
            "global.csv": "1d30e1ff72fbf6fd96427d976e76b66a6cb8b884745dfb00c0f346c5ba278ee2",
            "per_sensor.csv": "3d42a92e236c1da67532e69aa516f4dc986423767375b247bfb7ebe2142ce0b2",
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
            "global.csv": "7d9b35a7b17f59116445eccacffe84981e30ff596fa96fe487e6670344af470c",
            "per_sensor.csv": "b5d23a208fd4e6b9ccb5f0293c90c3bf812e01e7118afd9d2d3a54dfd1555c08",
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
            "comparison.csv": "b0160b1c1a9dae61d4d6361ae98b661ec8440cbd16ae9dc642dd7bf6e4a4bb0c",
            "global.csv": "69e15e5859231c0dce4f977079d4deafd907e7334723dddc5ff8d2ecdac6b1b2",
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
