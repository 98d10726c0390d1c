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
Six digests hold under every family; the others are pinned for the
SkylakeX, Haswell, Sandybridge and Nehalem families, read from the library
itself. A family with no pinned digest fails the case that needs one.
``print_digests.py`` prints every case's digests under the current family.
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
            "global.csv": {
                "SkylakeX": "ad85576d0308cbe5ca5b32df46752dcfd600884720ce861e84ff80512a69085e",
                "Haswell": "ad85576d0308cbe5ca5b32df46752dcfd600884720ce861e84ff80512a69085e",
                "Sandybridge": "2c547e431eb171eaa16a6c6a1a3819e06fec3cc18ffb60c31243d3bdd42bdc15",
                "Nehalem": "2c547e431eb171eaa16a6c6a1a3819e06fec3cc18ffb60c31243d3bdd42bdc15",
            },
            "per_sensor.csv": {
                "SkylakeX": "65cc4dc24b0ea46ac927aa6d5fc7a4a19bb46358b99fea9540818479676278b5",
                "Haswell": "65cc4dc24b0ea46ac927aa6d5fc7a4a19bb46358b99fea9540818479676278b5",
                "Sandybridge": "568596b6f4baf7d69a6149fe0150f4b59f134b031e33385dc04a518a6b4c1e23",
                "Nehalem": "568596b6f4baf7d69a6149fe0150f4b59f134b031e33385dc04a518a6b4c1e23",
            },
        }),
    "iid-p5-links-on-drls_ama": (
        "simulate", "scenario.p = 5\nalgorithm = drls_ama\n", {
            "global.csv": {
                "SkylakeX": "fb7a1bb85decc4f0f15fa083f901c014122367ba05a6523815bfdcfa53ad1cda",
                "Haswell": "fb7a1bb85decc4f0f15fa083f901c014122367ba05a6523815bfdcfa53ad1cda",
                "Sandybridge": "25a3c581d3eddf847cf55a3c120e0c3a58a64e3fb331c69315066f13d3de2210",
                "Nehalem": "574ba3686d5ca2823b345730b85e4f0a45bd65251eb90772fc26b3626699527a",
            },
            "per_sensor.csv": {
                "SkylakeX": "93c022781ed0d88dfe0e5c170ae93aa28448ab9c42007e54ea497e04e63942d3",
                "Haswell": "93c022781ed0d88dfe0e5c170ae93aa28448ab9c42007e54ea497e04e63942d3",
                "Sandybridge": "6f2a8000669a2e0d70b1659ffb44b6f89e0fa42827264e26308a9656f7ac9163",
                "Nehalem": "50e529eaabbc426ae9c0ea2a0924e112b73f937f81a969e2c6b26865436d26e8",
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
                "SkylakeX": "7e4d7d44ac5ebd59d09571b0fac1279d7cdf6844bae98ba5a7a3ba3005a830f1",
                "Haswell": "7e4d7d44ac5ebd59d09571b0fac1279d7cdf6844bae98ba5a7a3ba3005a830f1",
                "Sandybridge": "93853403c7185ec9afb3926d4b810e8a25914f324c4ab9d16a1d84e0c6f2b5b8",
                "Nehalem": "2735bf0e07d0f7560195a697265df016d2560da2d7d12bbf5f710043ad1453c9",
            },
            "per_sensor.csv": {
                "SkylakeX": "ca9e78b598aebc836462d1628367fa00ec4c057dcae16464f37d1276e7e7b48c",
                "Haswell": "ca9e78b598aebc836462d1628367fa00ec4c057dcae16464f37d1276e7e7b48c",
                "Sandybridge": "620916cdbfa0a528c92466646124b63bd2eb52d912282074747906a0e2f7c9a8",
                "Nehalem": "bd7015d4d54f7b0925c1f171a862d9f685ab26fb92202490b21c6edb8a38ce8c",
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
                "SkylakeX": "af8ef7ef1a2d7347f579f4daf1a0293eb33511a011a0d77a88ada4c21c24a63e",
                "Haswell": "e3e7eb99e33d0f71a0939b87c0922d723da4a6ceda6d838d8f78d53ac57976aa",
                "Sandybridge": "401526e5cfac80be06b1a9dae1892e7c6aad423b03f0ee209f792a00236c733d",
                "Nehalem": "401526e5cfac80be06b1a9dae1892e7c6aad423b03f0ee209f792a00236c733d",
            },
            "per_sensor.csv": {
                "SkylakeX": "c4c2bcb1fa415fed47873d99f48c30827eb2568a63460a6f7c5169cf0bb3ed19",
                "Haswell": "0efb9cd3ac85f113eb0f0690963d2edc672cabcd08d13d47c6f83ccbc81d9db6",
                "Sandybridge": "68915d83e49af3e012f60a53a73aecaf6bb0ec9c1f31cfc1d1231dce395c1fff",
                "Nehalem": "5c705f0f17793e5d37ed40cdfa4ccbca33eaca258cdde4443f90f6ac74288300",
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
            "comparison.csv": "98799043930a00e5b56321e2d5f9dedd41bc29989a0432583e4f7b0fa260756d",
            "global.csv": {
                "SkylakeX": "5cce8bb5eea727ecb917c0196e25929cfd3cd3d64bb7c6db40cf7bfe878bf6ab",
                "Haswell": "5cce8bb5eea727ecb917c0196e25929cfd3cd3d64bb7c6db40cf7bfe878bf6ab",
                "Sandybridge": "937388c4c8d623a93298b07c787a741b60e982c0db537c571ddc2d375ed72838",
                "Nehalem": "aa1b62fe2354f1c0d45020b9dc8751b92644e6ebce0b23043e3bcd2de6f1832d",
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
