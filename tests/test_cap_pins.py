"""Byte-identity pins for two checker runs at the order cap.

The sha256 of stdout, with the exit code, of `check theorem-a` on the
order-4096 group, whose report has in-particular discrepancy witnesses and
a truncated witness list, and of `check product-formula` on the order-3375
group, over its 101,761 representative pairs. Both digests were recorded
from the per-pair checkers that the batched ones replaced.
"""

import hashlib

import pytest

from classprod import cli

PINS = {
    ("check", "theorem-a", "--group", "prod(dihedral:8,dihedral:8,dihedral:8)", "--json"):
        "e701282e52c42be88b8d760d59beae5ec7e20959ffa2e4941b85e6a3515f04ae",
    ("check", "product-formula", "--group", "prod(es:3,es:5)", "--json"):
        "60faf7dcecebbbd8e4b00bf6b3a437c6c74037cea9c5aab0dbd520f3c54002ab",
}


@pytest.mark.parametrize("argv", list(PINS), ids=" ".join)
def test_stdout_digest_at_the_cap(argv, capsys, monkeypatch):
    monkeypatch.delenv("CLASSPROD_MAX_ORDER", raising=False)
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]
