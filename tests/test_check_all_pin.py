"""Byte-identity pin for `check all --json` on every built-in group.

One sha256 over the stdout and exit code of `check all --group S --json`
for each entry of BUILTIN_SPECS and three direct products, in that order.
Any change to a report's verdict, pair count, witnesses, clauses or notes
on these groups moves the digest.
"""

import hashlib

from classprod import cli
from classprod.scan import BUILTIN_SPECS

PRODUCTS = ("prod(q8,es:3)", "prod(sym:3,cyclic:3)", "prod(dihedral:4,dihedral:4)")
DIGEST = "5ca191529e6942a1685c971dabf4d22d14ce9efc343ec6f3c8ef93eb2c327d2a"


def test_check_all_json_digest_over_the_catalog(capsys):
    h = hashlib.sha256()
    for spec in BUILTIN_SPECS + PRODUCTS:
        code = cli.main(["check", "all", "--group", spec, "--json"])
        h.update(capsys.readouterr().out.encode())
        h.update(f"\n{code}\n".encode())
    assert h.hexdigest() == DIGEST
