"""Byte-identity pins for the scan outputs over the built-in catalog.

The sha256 of stdout and of the JSON Lines file, for `scan --json --out`
with and without `--all-pairs` (2,180 and 80,492 rows), and of stdout for
`scan --json --mode open-question`. The digests were recorded from the
scan that walked the centralizer buckets one representative at a time.
`scan --json` stdout is pinned in test_output_pins.py. A one-file catalog,
the table of prod(q8,es:3) alone, is pinned under `--all-pairs --out`
(9,282 rows), as recorded before a lone group's columns skipped the merge.
"""

import hashlib

import pytest

from classprod import build_group, cli, save_cayley


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "flags,stdout_digest,jsonl_digest",
    [
        (
            ["--all-pairs"],
            "51bad8e1f8853eb7ebeb01dfa4b70b04903e4012b4d21950e9c542396aff29b0",
            "f18c9f40b9b3829789ef749e2efbd2c5a3e6716d0caa70432a92dc0811799832",
        ),
        (
            [],
            "4c6906a230d590a4cfdbe882fd29ae435afbc25a66566bb65b5f9d992bde6c74",
            "f044e1c8adfd439e4bef2e754031a046a654db772250fbf8d30cf5fa24aec06f",
        ),
    ],
    ids=["all-pairs", "equal-centralizers"],
)
def test_scan_stdout_and_jsonl_digests(flags, stdout_digest, jsonl_digest, tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    code = cli.main(["scan", "--json", "--out", str(out), *flags])
    assert code == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest
    assert sha256(out.read_bytes()) == jsonl_digest


def test_open_question_stdout_digest(capsys):
    code = cli.main(["scan", "--json", "--mode", "open-question"])
    assert code == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "fa58ec560a6cf85dc14c31c8a623c82d4b601214399ddebdc5d4dd961eedd596"
    )


def test_one_file_catalog_all_pairs_digests(tmp_path, capsys):
    (tmp_path / "one").mkdir()
    save_cayley(build_group("prod(q8,es:3)"), str(tmp_path / "one" / "g.cayley"))
    out = tmp_path / "one.jsonl"
    argv = ["scan", "--catalog", str(tmp_path / "one"), "--no-builtins", "--all-pairs", "--json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "2f544b5ffd8363c274b93cb2f54135d0702a5a910d955c763b033929306dd663"
    )
    assert sha256(out.read_bytes()) == "ce6c65c73b2da9c250018b05bbdd6903b10b99689efd2dd7461ca7115a3e969e"
