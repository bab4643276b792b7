"""Byte-identity pins for CLI outputs the class-support kernel feeds.

The check and scan digests are the stdout sha256 values that
bench/workloads.py records for the check-es3sq and scan-catalog workloads;
the product digests pin the criterion that `product` reads from theorem A's
kernel on one pair.
"""

import hashlib

import pytest

from classprod import cli

PINS = {
    ("check", "all", "--group", "es:3^2", "--json"):
        "f0a981c303e24375bb15793f0c7f3d2233663e03be5890bc2773b8617f45357d",
    ("scan", "--json"):
        "4c6906a230d590a4cfdbe882fd29ae435afbc25a66566bb65b5f9d992bde6c74",
    ("product", "--group", "es:3^2", "-a", "((1,0,0),(1,0,0))", "-b", "((2,0,0),(2,0,0))", "--json"):
        "c734b2794eae686e23a0cd3b2a4af4ba57c26e0d82694f1d82da3cedd7c61ec3",
    ("product", "--group", "q8", "-a", "i", "-b", "i", "--json"):
        "599190c0eb60efa10d010ed6a48ad6e239ff9e3dc73a702c1b81cc7de05383de",
}


@pytest.mark.parametrize("argv", list(PINS), ids=" ".join)
def test_stdout_digest(argv, capsys):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]
