"""The CLI never imports numpy.ma.

np.unique and the set routines built on it import numpy.ma, about 15 ms of
start-up, so the table validation and the checkers use boolean masks and
flatnonzero instead. Each run is a fresh interpreter, so nothing imported by
another test can hide the import.
"""

import os
import subprocess
import sys

import classprod
from classprod import build_group

SRC = os.path.dirname(os.path.dirname(os.path.abspath(classprod.__file__)))

PROBE = """
import contextlib, io, sys
from classprod import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CLASSPROD_MAX_ORDER", None)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_check_all_does_not_import_numpy_ma():
    assert run_cli("check", "all", "--group", "es:3^2", "--json") == ["0", "False"]


def test_catalog_scan_does_not_import_numpy_ma(tmp_path):
    for i, spec in enumerate(("sym:4", "es:3", "prod(q8,cyclic:3)")):
        g = build_group(spec)
        n = g.order
        shift = [(x + 1) % n for x in range(n)]  # the identity moves to index 1
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[shift[a]][shift[b]] = shift[g.mul(a, b)]
        rows = "".join(" ".join(map(str, row)) + "\n" for row in table)
        (tmp_path / f"{i}.cayley").write_text(f"{n}\n{rows}")
    assert run_cli("scan", "--catalog", str(tmp_path), "--no-builtins", "--json") == ["0", "False"]
