"""
The byte contract: the same config writes the same CSV bytes.

Each case runs one small config through the CLI and compares the SHA-256 of
every CSV it writes with a digest pinned here. The cases span both regressor
kinds, links on and off, p = 1 and p = 5, all four algorithms, a complete
graph, and every table `compare` writes. A digest that moves means an output
byte moved: a change that means to move one says why in CHANGES.md before the
digest is updated.

The bytes hold for one OpenBLAS kernel family: numpy's bundled OpenBLAS picks
its kernels for the CPU at run time, and OPENBLAS_CORETYPE forces another.
Seven digests hold under every family; the others are pinned for the
SkylakeX, Haswell, Sandybridge and Nehalem families, read from the library
itself. A family with no pinned digest fails the case that needs one.
"""

import ctypes
import functools
import glob
import hashlib
import os

import numpy as np
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

# case name -> (command, config lines that add to or override BASE, {csv name: sha256});
# a digest that some OpenBLAS kernel family moves is pinned per family, {family: sha256}
CASES = {
    "iid-p1-links-on-drls_ama": (
        "simulate", "scenario.p = 1\nalgorithm = drls_ama\n", {
            "global.csv": "c2f6a726fb306f0bd9f3fb14b5d4a76d1f646b8d076bbf700bd5e02051a40a87",
            "per_sensor.csv": {
                "SkylakeX": "832987733567e3aae9190d95b323af695c285265170aa031e6db05ae1d68052b",
                "Haswell": "3c5553b27f264e2d5527a7186533765ca25e80efada1d69d8aa0910bffc5134c",
                "Sandybridge": "8571beae3e274247bac13114f019f2fad89d1062944d21cc1e136f83d09b65a2",
                "Nehalem": "64271dcd44aef1b057a059c0ba140e1363fc1a3754262481b467cc039146b22d",
            },
        }),
    "iid-p5-links-on-drls_ama": (
        "simulate", "scenario.p = 5\nalgorithm = drls_ama\n", {
            "global.csv": {
                "SkylakeX": "65f1c32765073d8cdac40a378e4bf3818dddb3b238d5f3bc1528e1d1fe753c8d",
                "Haswell": "839922ccbdd33edfa628fcc50abcf37e53b76552aaddd9a24781bccb29e6da12",
                "Sandybridge": "50c56d564de9a6572a024f1c2aaf44285df6acf93773167d04e67e0f67cc11b5",
                "Nehalem": "48459e4c7aee7a009273f621e4370ef936d8ac842f9cec2c4874ad44b838f7d2",
            },
            "per_sensor.csv": {
                "SkylakeX": "0e26963c1e5a338a6ef3b4684f24a1f6feeaf00631c302e046b664cea8090916",
                "Haswell": "07a9730e1d8f53ea97ae667a729543e2af9c06eb505bf42aecc3eb62d940fb29",
                "Sandybridge": "c003f82373a831fe62a6d5cc3efe5956fc79e07f099fc2ee976d68045cd42eba",
                "Nehalem": "82f60d7583db80922f254db80ae50af6bc87de2fa06c59b871ea90b94a476362",
            },
        }),
    "iid-p5-links-off-local_rls": (
        "simulate", "scenario.p = 5\nalgorithm = local_rls\nscenario.sigma2_eta = 0\n", {
            "global.csv": {
                "SkylakeX": "389f75babbf49a415896302fa6743f8d2885d09b4840b860a31fbe6c1f19c222",
                "Haswell": "389f75babbf49a415896302fa6743f8d2885d09b4840b860a31fbe6c1f19c222",
                "Sandybridge": "9fac1ab99dfd6f28b852c039f7a38c11af4d42751e14bed310a2032a1a913c66",
                "Nehalem": "9fac1ab99dfd6f28b852c039f7a38c11af4d42751e14bed310a2032a1a913c66",
            },
            "per_sensor.csv": {
                "SkylakeX": "2056c6c06137522b1f1cd494c8362abe3597a7408b82a387efb80ecdf4aefb10",
                "Haswell": "2056c6c06137522b1f1cd494c8362abe3597a7408b82a387efb80ecdf4aefb10",
                "Sandybridge": "7271d331bc090d444073064b0c3f5c6a4b7391d07b2dbac9b02d3e0c847e38ee",
                "Nehalem": "7271d331bc090d444073064b0c3f5c6a4b7391d07b2dbac9b02d3e0c847e38ee",
            },
        }),
    "ar-links-on-drls_ama": (
        "simulate", "scenario.kind = ar\nalgorithm = drls_ama\n", {
            "global.csv": {
                "SkylakeX": "1d30e1ff72fbf6fd96427d976e76b66a6cb8b884745dfb00c0f346c5ba278ee2",
                "Haswell": "1d30e1ff72fbf6fd96427d976e76b66a6cb8b884745dfb00c0f346c5ba278ee2",
                "Sandybridge": "ab1d091531f7e3150e1959e814e5d4dfcbe24bfdde87f97dd3d4d8f5283a657c",
                "Nehalem": "ab1d091531f7e3150e1959e814e5d4dfcbe24bfdde87f97dd3d4d8f5283a657c",
            },
            "per_sensor.csv": {
                "SkylakeX": "3d42a92e236c1da67532e69aa516f4dc986423767375b247bfb7ebe2142ce0b2",
                "Haswell": "09a8ced0ecb8c1160b4a6ca8f25d7fe46c1a8aec91776bf5c8a4fe39905528b9",
                "Sandybridge": "33b46374085b0e602266030ba907e3080a9e250687dab5fdf3a16501ba2088dd",
                "Nehalem": "894f4971642c66bd3e4c7e0044a6ea1dd4a0f3ef3647154dadf6534481289b92",
            },
        }),
    "ar-links-off-drls_ama": (
        "simulate", "scenario.kind = ar\nalgorithm = drls_ama\nscenario.sigma2_eta = 0\n", {
            "global.csv": {
                "SkylakeX": "893d9bbec71bd5a0422f3cb0cfa0f30665961504002333ad78f14681caa4c44a",
                "Haswell": "893d9bbec71bd5a0422f3cb0cfa0f30665961504002333ad78f14681caa4c44a",
                "Sandybridge": "21a189503a74e65adab39c091737215ae6e140e73575e6e1a638662a35a121b9",
                "Nehalem": "21a189503a74e65adab39c091737215ae6e140e73575e6e1a638662a35a121b9",
            },
            "per_sensor.csv": {
                "SkylakeX": "c4b53d80b70f8096bce9c36440687295151db7eed0d89ff8371db28bcd6311ab",
                "Haswell": "c4b53d80b70f8096bce9c36440687295151db7eed0d89ff8371db28bcd6311ab",
                "Sandybridge": "8ed22a6f9956b6a58e233bc2a576d9bc37bc5c5d381c5d517b833f4e4d3decfe",
                "Nehalem": "c243069d6600c5caf636bc51a9c23744ae88ebddee84ebaf502737207cbaa378",
            },
        }),
    "ar-links-on-local_rls": (
        "simulate", "scenario.kind = ar\nalgorithm = local_rls\n", {
            "global.csv": {
                "SkylakeX": "ac5b85007cbffbcda5e4005ad25146599b8b59fe95e4b965c9e9384c1e6a5456",
                "Haswell": "ac5b85007cbffbcda5e4005ad25146599b8b59fe95e4b965c9e9384c1e6a5456",
                "Sandybridge": "aaf98b349c1d726f02ebf7a7e8bb75aa2422252da01f182aacfb50db9945fe1b",
                "Nehalem": "aaf98b349c1d726f02ebf7a7e8bb75aa2422252da01f182aacfb50db9945fe1b",
            },
            "per_sensor.csv": {
                "SkylakeX": "fddaeb1f8e0c304a4cb95f4511fa532a938f2a5f7fdb67987ca0cb54270f66fe",
                "Haswell": "fddaeb1f8e0c304a4cb95f4511fa532a938f2a5f7fdb67987ca0cb54270f66fe",
                "Sandybridge": "124d9751b10178b34f37ede0b33328f7ac7f597ed5b369747a0f902263af1b62",
                "Nehalem": "124d9751b10178b34f37ede0b33328f7ac7f597ed5b369747a0f902263af1b62",
            },
        }),
    "iid-p2-links-on-drls_admom": (
        "simulate", "scenario.p = 2\nalgorithm = drls_admom\n", {
            "global.csv": {
                "SkylakeX": "7d9b35a7b17f59116445eccacffe84981e30ff596fa96fe487e6670344af470c",
                "Haswell": "f72862039d240081c17398ddfce3f63fe1492d8845ea216c1935a722894f7764",
                "Sandybridge": "bed75de686c01d90ba654b232a9d8dadda0dfa25c2a9515ff1b23efab57c1101",
                "Nehalem": "a7b4a47fc6ea6a03ba1ca9f6e250fd0b52086922fd8949f5728c0ed6d0ac295d",
            },
            "per_sensor.csv": {
                "SkylakeX": "b5d23a208fd4e6b9ccb5f0293c90c3bf812e01e7118afd9d2d3a54dfd1555c08",
                "Haswell": "bd44c6e51d8fc8de2ad3bf2980204be040c4d40e80e62447be99c2161c9796d9",
                "Sandybridge": "4af289c8b36db2975ebe324d48072e1281374d7206e839a1f4d43a70c3d4ddfb",
                "Nehalem": "d666220292f26ec1d287b3505b6c539e9192292cdab1c0b370f1b7804ca6f9c8",
            },
        }),
    "ar-links-on-centralized": (
        "simulate", "scenario.kind = ar\nalgorithm = centralized\n", {
            "global.csv": {
                "SkylakeX": "5e1bcba07b727886e35059869526cdabbc5abd8eb790053fd3bf0851bbd733bd",
                "Haswell": "e873fc623479cde7f212c5b88709c7d1207cb5eeb0626f9e52082a5403d2919a",
                "Sandybridge": "18569a214c0609bdf7d28874a841c94a64050f299d235b8d82f3b015417a1367",
                "Nehalem": "7104dfa1dd0803c0f3d4be6fdffd6982419c20452a3d50adb6addd484c78b095",
            },
            "per_sensor.csv": {
                "SkylakeX": "e3d4c5f9cbd721eaca7a5b6c9f41140854748f0f1fc23d4846d95e9b77abff94",
                "Haswell": "41bf31e7e5206d49dc9cb47b50f3d9ac49824532f44f97a55c6f76651bd56fc9",
                "Sandybridge": "1d249ea86a91ca4118fabf116d70fa5ecdb699d72e5500015af049255b8bf260",
                "Nehalem": "69f6b543b1a6f422a96d611737cb4bda65cf34f09b7703eeaab9df48a9d059bd",
            },
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
            "global.csv": {
                "SkylakeX": "69e15e5859231c0dce4f977079d4deafd907e7334723dddc5ff8d2ecdac6b1b2",
                "Haswell": "a98bf2864b2505618c3022fb740b01341f7bf1f4e78ec54738e5705410133435",
                "Sandybridge": "69e15e5859231c0dce4f977079d4deafd907e7334723dddc5ff8d2ecdac6b1b2",
                "Nehalem": "69e15e5859231c0dce4f977079d4deafd907e7334723dddc5ff8d2ecdac6b1b2",
            },
            "prediction.csv": "883ffc9363abfc88cca3384878759f0c23daeb6b17cd11f46492dc445c20affc",
        }),
}


@functools.cache
def _kernel_family():
    """The kernel family numpy's bundled OpenBLAS runs, as OpenBLAS names it:
    the CPU's, or the one OPENBLAS_CORETYPE forces."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if not libs:
        pytest.fail("no bundled scipy-openblas library next to numpy to read the "
                    "OpenBLAS kernel family from")
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _expected(name):
    """The digests case `name` pins under this process's kernel family."""
    expected = {}
    for csv, digest in CASES[name][2].items():
        if isinstance(digest, dict):
            family = _kernel_family()
            if family not in digest:
                pytest.fail(f"{name}/{csv} has no digest pinned for the OpenBLAS "
                            f"kernel family {family}")
            digest = digest[family]
        expected[csv] = digest
    return expected


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
    command, extra, _ = CASES[name]
    assert _digests(tmp_path, command, extra) == _expected(name)


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
