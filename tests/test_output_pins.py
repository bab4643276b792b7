"""Byte-identity pins for the two CLI outputs the class-support kernel feeds.

The digests are the stdout sha256 values that bench/workloads.py records
for the check-es3sq and scan-catalog workloads.
"""

import hashlib

import pytest

from classprod import cli

PINS = {
    ("check", "all", "--group", "es:3^2", "--json"):
        "f0a981c303e24375bb15793f0c7f3d2233663e03be5890bc2773b8617f45357d",
    ("scan", "--json"):
        "4c6906a230d590a4cfdbe882fd29ae435afbc25a66566bb65b5f9d992bde6c74",
}


@pytest.mark.parametrize("argv", list(PINS), ids=" ".join)
def test_stdout_digest(argv, capsys):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]
