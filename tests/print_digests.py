"""Print the digests of every golden case under this process's OpenBLAS kernel family.

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/print_digests.py

Runs each case of ``test_golden_bytes.CASES`` through the CLI and prints one
line per CSV: the case, the CSV, its SHA-256, and a mark when that differs
from the digest pinned for the family (or none is pinned for it). The CSVs
go to a temporary directory that is removed afterwards; the script edits no
table and writes no other file. It exits 1 when any digest differs. pytest
does not collect it, and CI does not run it: re-pinning stays a reviewed edit
of ``CASES``.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from test_golden_bytes import CASES, _digests, _kernel_family


def main():
    family = _kernel_family()
    print(f"OpenBLAS kernel family: {family}")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, extra, pinned) in CASES.items():
            case = Path(tmp) / name
            case.mkdir()
            # the CLI's own report lines would interleave with the digests
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                digests = _digests(case, command, extra)
            for csv, digest in digests.items():
                want = pinned.get(csv)
                if isinstance(want, dict):
                    want = want.get(family)
                mark = ("" if digest == want else
                        f"  differs from {want}" if want else f"  none pinned for {family}")
                differ += bool(mark)
                print(f"{name}/{csv} {digest}{mark}")
    print(f"{differ} digest(s) differ from the pinned table")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
