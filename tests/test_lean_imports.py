"""The CLI never imports numpy.ma, and each verb imports only the modules it runs.

np.unique and the set routines built on it import numpy.ma, about 15 ms of
start-up, so the table validation and the checkers use boolean masks and
flatnonzero instead. Each run is a fresh interpreter, so nothing imported by
another test can hide the import.
"""

import os
import subprocess
import sys

import pytest

import classprod
from classprod import build_group, save_cayley

SRC = os.path.dirname(os.path.dirname(os.path.abspath(classprod.__file__)))

PROBE = """
import contextlib, io, sys
from classprod import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def run_cli(*argv):
    return run_python(PROBE, *argv)


def run_python(code, *argv, env=()):
    env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CLASSPROD_MAX_ORDER", None)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
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


# Each verb compiles only the modules it runs: scan.py and verify.py load on
# first use, through the package's module __getattr__ or a verb's own import.

LAZY_NAMES = {
    "scan": (
        "BUILTIN_SPECS", "Catalog", "CatalogEntry", "ScanRow", "ingest", "open_question_scan",
        "scan_group", "scan_homogeneous", "summarize", "write_jsonl",
    ),
    "verify": (
        "STATEMENT_IDS", "VerifierReport", "check_all", "check_center_intersection",
        "check_direct_product_eta", "check_nilpotent_odd", "check_product_formula",
        "check_quotient_eta", "check_size2", "check_subgroup_implies_normal",
        "check_supersolvable_pow2", "check_theorem_a", "check_theorem_b",
        "equal_centralizer_pairs", "run_statement",
    ),
}

LOADED_PROBE = """
import contextlib, io, sys
from classprod import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in ("classprod.scan", "classprod.verify") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["classes", "--group", "q8"], []),
        (["build", "--group", "sym:4", "--json"], []),
        (["construct", "--n", "3"], []),
        (["check", "all", "--group", "sym:3"], ["classprod.verify"]),
        (["product", "--group", "q8", "-a", "i", "-b", "i"], []),
        (["scan", "--json"], ["classprod.scan"]),
        (["scan", "--mode", "open-question"], ["classprod.scan"]),
    ],
    ids=["classes", "build", "construct", "check", "product", "scan", "scan-open-question"],
)
def test_a_verb_loads_only_the_modules_it_runs(argv, loaded):
    assert run_python(LOADED_PROBE, *argv) == ["0", *loaded]


def test_a_catalog_scan_with_out_does_not_load_verify(tmp_path):
    save_cayley(build_group("sym:3"), str(tmp_path / "s3.cayley"))
    out = tmp_path / "rows.jsonl"
    argv = ["scan", "--catalog", str(tmp_path), "--out", str(out), "--json"]
    assert run_python(LOADED_PROBE, *argv) == ["0", "classprod.scan"]
    assert out.read_text()


def test_each_lazy_name_is_its_submodules_own_object():
    probe = """
import importlib, sys
import classprod
print(*sorted(m for m in ("classprod.scan", "classprod.verify") if m in sys.modules))
for module, names in %r.items():
    for name in names:
        space = {}
        exec(f"from classprod import {name}", space)
        assert space[name] is getattr(importlib.import_module("classprod." + module), name), name
    space = {}
    exec("from classprod import *", space)
    assert all(space[name] is getattr(sys.modules["classprod." + module], name) for name in names)
    assert space[module] is sys.modules["classprod." + module]
print("ok")
""" % (LAZY_NAMES,)
    assert run_python(probe) == ["ok"]  # `import classprod` alone loads neither module


def test_the_package_lists_its_lazy_names_and_refuses_unknown_ones():
    names = [n for module in LAZY_NAMES.values() for n in module]
    assert len(names) == 25
    assert set(names) <= set(dir(classprod))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        classprod.no_such_name
    from classprod import scan, verify

    assert (scan.__name__, verify.__name__) == ("classprod.scan", "classprod.verify")


def test_scan_and_verify_share_one_criterion_kernel():
    from classprod import classalg, scan, verify

    assert scan._theorem_a_criterion is verify._theorem_a_criterion is classalg._theorem_a_criterion
    assert scan._is_two_power is verify._is_two_power is classalg._is_two_power


def test_check_help_reads_the_statement_ids_only_when_shown():
    probe = """
import contextlib, io, sys
from classprod import cli
cli._build_parser()
print("classprod.verify" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.suppress(SystemExit):
    cli.main(["check", "--help"])
from classprod.verify import STATEMENT_IDS
print(f"'all' or one of: {', '.join(STATEMENT_IDS)}" in out.getvalue(), len(STATEMENT_IDS))
"""
    assert run_python(probe, env={"COLUMNS": "300"}) == ["False", "True", "10"]
