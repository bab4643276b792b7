"""Only the CLI front end freezes the collector's view of its imports.

classprod.cli calls gc.freeze() once, when it is imported, so that a CLI
run's collections, the one at interpreter exit too, skip the objects numpy
and the package made at import. The library leaves the collector as it was,
main() freezes nothing more, and what is made after the import is still
collected. Each test runs in a fresh interpreter, since a freeze lasts for
the life of the process.
"""

import os
import subprocess
import sys

import classprod

SRC = os.path.dirname(os.path.dirname(os.path.abspath(classprod.__file__)))


def run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CLASSPROD_MAX_ORDER", None)
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_the_library_freezes_nothing():
    out = run("import gc, classprod, classprod.scan, classprod.verify; print(gc.get_freeze_count(), gc.isenabled())")
    assert out == "0 True"


def test_the_cli_import_freezes_and_leaves_the_collector_on():
    count, enabled = run("import gc, classprod.cli; print(gc.get_freeze_count(), gc.isenabled())").split()
    assert int(count) > 0 and enabled == "True"


def test_main_freezes_nothing_more():
    out = run(
        "import contextlib, gc, io\n"
        "from classprod import cli\n"
        "frozen = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['classes', '--group', 'q8']), cli.main(['check', 'all', '--group', 'sym:3'])]\n"
        "print(*codes, gc.get_freeze_count() == frozen)"
    )
    assert out == "0 0 True"


def test_a_group_made_after_the_cli_import_is_collected():
    out = run(
        "import gc\n"
        "from classprod import FiniteGroup, cli, cyclic\n"
        "count = lambda: sum(isinstance(x, FiniteGroup) for x in gc.get_objects())\n"
        "before = count()\n"
        "g = cyclic(12)\n"
        "seen = any(x is g for x in gc.get_objects())\n"
        "del g\n"
        "print(seen, count() - before)"
    )
    assert out == "True 0"
