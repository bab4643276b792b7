"""Byte-identity pins for checker and class-table runs at the order cap.

The sha256 of stdout, with the exit code, of `check theorem-a` on the
order-4096 group, whose report has in-particular discrepancy witnesses and
a truncated witness list, and of `check product-formula` on the order-3375
group, over its 101,761 representative pairs. Both digests were recorded
from the per-pair checkers that the batched ones replaced.

`classes --json` is pinned on three groups at the cap: the order-3375
group (319 classes), the order-4096 product of dihedral groups, and the
abelian order-4096 group, whose 4,096 classes are all singletons. These
digests were recorded from the class table built by one conjugation gather
per class, before classes became orbits of the generators.
"""

import hashlib

import pytest

from classprod import cli

PINS = {
    ("check", "theorem-a", "--group", "prod(dihedral:8,dihedral:8,dihedral:8)", "--json"):
        "e701282e52c42be88b8d760d59beae5ec7e20959ffa2e4941b85e6a3515f04ae",
    ("check", "product-formula", "--group", "prod(es:3,es:5)", "--json"):
        "60faf7dcecebbbd8e4b00bf6b3a437c6c74037cea9c5aab0dbd520f3c54002ab",
    ("classes", "--group", "prod(es:3,es:5)", "--json"):
        "c563dc61669ec77fa34903b5916679ca95f781234a071d404ae64b6597cc75b4",
    ("classes", "--group", "prod(dihedral:8,dihedral:8,dihedral:8)", "--json"):
        "0a7cd8b3f4563dfdebf0e7721286c8512d1b31dd0b6a9c99d3fa0174e653b49d",
    ("classes", "--group", "prod(cyclic:64,cyclic:64)", "--json"):
        "7c3d584c6a863a298e188768790345eabb4a11f2854ea4193755d774c3911282",
}


@pytest.mark.parametrize("argv", list(PINS), ids=" ".join)
def test_stdout_digest_at_the_cap(argv, capsys, monkeypatch):
    monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]
