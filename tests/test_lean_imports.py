"""The CLI never imports numpy.ma, and each verb imports only the modules it runs.

np.unique and the set routines built on it import numpy.ma, about 15 ms of
start-up, so the table validation, the checkers and the scan's output use
boolean masks, flatnonzero and sort-and-compare instead. Each run is a fresh
interpreter, so nothing imported by another test can hide the import. The
module fixture starts every child up front, at most os.cpu_count() at a
time, and each test asserts on its own child's output.
"""

import os
import subprocess
import sys
from typing import Dict, NamedTuple, Tuple

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

# Each verb compiles only the modules it runs: scan.py and verify.py load on
# first use, through the package's module __getattr__ or a verb's own import.

LOADED_PROBE = """
import contextlib, io, sys
from classprod import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in ("classprod.scan", "classprod.verify") if m in sys.modules))
"""

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

LAZY_PROBE = """
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

HELP_PROBE = """
import contextlib, io, sys
from classprod import cli
cli._build_parser()
print("classprod.verify" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.suppress(SystemExit):
    cli.main(["check", "--help"])
from classprod.verify import STATEMENT_IDS
print(f"'all' or one of: {', '.join(STATEMENT_IDS)}" in out.getvalue(), len(STATEMENT_IDS))
"""

VERBS = {
    "classes": (["classes", "--group", "q8"], []),
    "build": (["build", "--group", "sym:4", "--json"], []),
    "construct": (["construct", "--n", "3"], []),
    "check": (["check", "all", "--group", "sym:3"], ["classprod.verify"]),
    "product": (["product", "--group", "q8", "-a", "i", "-b", "i"], []),
    "scan": (["scan", "--json"], ["classprod.scan"]),
    "scan-open-question": (["scan", "--mode", "open-question"], ["classprod.scan"]),
}


def write_shifted_catalog(path):
    """Three tables whose identity sits at index 1, so ingest relabels them."""
    path.mkdir()
    for i, spec in enumerate(("sym:4", "es:3", "prod(q8,cyclic:3)")):
        g = build_group(spec)
        n = g.order
        shift = [(x + 1) % n for x in range(n)]  # the identity moves to index 1
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[shift[a]][shift[b]] = shift[g.mul(a, b)]
        rows = "".join(" ".join(map(str, row)) + "\n" for row in table)
        (path / f"{i}.cayley").write_text(f"{n}\n{rows}")


class Children(NamedTuple):
    root: str  # the directory of the children's input and output files
    results: Dict[str, Tuple[int, str, str]]  # case -> (exit status, stdout, stderr)

    def stdout(self, case):
        status, out, err = self.results[case]
        assert status == 0, err
        return out.split()


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    root = tmp_path_factory.mktemp("children")
    write_shifted_catalog(root / "shifted")
    (root / "s3").mkdir()
    save_cayley(build_group("sym:3"), str(root / "s3" / "s3.cayley"))
    cases = {
        "check-all": (PROBE, ["check", "all", "--group", "es:3^2", "--json"]),
        "catalog-scan": (PROBE, ["scan", "--catalog", str(root / "shifted"), "--no-builtins", "--json"]),
        "scan-out": (PROBE, ["scan", "--json", "--out", str(root / "builtins.jsonl")]),
        "catalog-scan-out": (LOADED_PROBE, ["scan", "--catalog", str(root / "s3"), "--out", str(root / "rows.jsonl"), "--json"]),
        "lazy-names": (LAZY_PROBE, []),
        "check-help": (HELP_PROBE, []),
        **{f"verb-{name}": (LOADED_PROBE, argv) for name, (argv, _) in VERBS.items()},
    }
    env = dict(os.environ, COLUMNS="300", PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CLASSPROD_MAX_ORDER", None)
    results, running = {}, []

    def finish(case, child):
        out, err = child.communicate()
        results[case] = (child.returncode, out, err)

    for case, (code, argv) in cases.items():
        if len(running) == (os.cpu_count() or 1):
            finish(*running.pop(0))
        child = subprocess.Popen(
            [sys.executable, "-c", code, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        running.append((case, child))
    for case, child in running:
        finish(case, child)
    return Children(str(root), results)


def test_check_all_does_not_import_numpy_ma(children):
    assert children.stdout("check-all") == ["0", "False"]


def test_catalog_scan_does_not_import_numpy_ma(children):
    assert children.stdout("catalog-scan") == ["0", "False"]


def test_scan_with_out_does_not_import_numpy_ma(children):
    assert children.stdout("scan-out") == ["0", "False"]
    assert os.path.getsize(os.path.join(children.root, "builtins.jsonl"))


@pytest.mark.parametrize("verb", VERBS)
def test_a_verb_loads_only_the_modules_it_runs(children, verb):
    assert children.stdout(f"verb-{verb}") == ["0", *VERBS[verb][1]]


def test_a_catalog_scan_with_out_does_not_load_verify(children):
    assert children.stdout("catalog-scan-out") == ["0", "classprod.scan"]
    with open(os.path.join(children.root, "rows.jsonl")) as fh:
        assert fh.read()


def test_each_lazy_name_is_its_submodules_own_object(children):
    assert children.stdout("lazy-names") == ["ok"]  # `import classprod` alone loads neither module


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


def test_check_help_reads_the_statement_ids_only_when_shown(children):
    assert children.stdout("check-help") == ["False", "True", "10"]
