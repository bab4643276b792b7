"""The benchmark's four workloads: CLI arguments, generated inputs, output checks.

Each workload spends most of its time in a different layer of classprod;
NOTES.md says which and why. The program only ever sees generated inputs.
Only ingest-cayley uses the seed: it picks the relabelings of the tables.

    python3 bench/workloads.py SEED DIR

writes the ingest-cayley catalog for SEED into DIR and prints the summary
counts the CLI must report. prepare() runs it as a child process, so the
benchmark's own process never imports classprod.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Named groups whose Cayley tables ingest-cayley relabels, orders 120..720.
INGEST_SPECS: Tuple[str, ...] = (
    "sym:6",
    "alt:6",
    "prod(dihedral:6,es:3)",
    "prod(q8,es:3)",
    "es:5",
    "sym:5",
)
PLANTED_SPEC = "sym:4"  # relabeled, then two entries of one row swapped
PLANTED_NAME = "07-planted.cayley"
PLANTED_ERROR = "NotAssociative"


@dataclass(frozen=True)
class Prepared:
    """One workload made ready for a seed: CLI arguments and an output check.

    check(returncode, stdout) returns None when the output is correct, or a
    one-line reason.
    """

    argv: Tuple[str, ...]
    check: Callable[[int, bytes], Optional[str]]


def _digest_check(expected: str) -> Callable[[int, bytes], Optional[str]]:
    def check(returncode: int, stdout: bytes) -> Optional[str]:
        if returncode != 0:
            return f"exit code {returncode}"
        got = hashlib.sha256(stdout).hexdigest()
        if got != expected:
            return f"stdout sha256 {got} != {expected}"
        return None

    return check


# sha256 of stdout, recorded from the untraced CLI under PYTHONHASHSEED 0 and
# 123 (identical). `--json` output is required to stay byte-identical.
FIXED: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "scan-catalog": (
        ("scan", "--json"),
        "4c6906a230d590a4cfdbe882fd29ae435afbc25a66566bb65b5f9d992bde6c74",
    ),
    "check-es3sq": (
        ("check", "all", "--group", "es:3^2", "--json"),
        "f0a981c303e24375bb15793f0c7f3d2233663e03be5890bc2773b8617f45357d",
    ),
    "classes-3375": (
        ("classes", "--group", "prod(es:3,es:5)", "--json"),
        "c563dc61669ec77fa34903b5916679ca95f781234a071d404ae64b6597cc75b4",
    ),
}

NAMES: Tuple[str, ...] = ("scan-catalog", "check-es3sq", "ingest-cayley", "classes-3375")


def prepare(name: str, seed: int, workdir: str, env: Dict[str, str]) -> Prepared:
    """Generate the inputs of workload `name` for `seed` under `workdir`."""
    if name in FIXED:
        argv, digest = FIXED[name]
        return Prepared(argv, _digest_check(digest))
    if name == "ingest-cayley":
        catalog = os.path.join(workdir, "catalog")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), str(seed), catalog],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        expected = json.loads(proc.stdout)
        planted = os.path.join(catalog, PLANTED_NAME)
        return Prepared(
            ("scan", "--catalog", catalog, "--no-builtins", "--json"),
            lambda rc, out: check_ingest(rc, out, expected, planted),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# -- ingest-cayley -------------------------------------------------------------


def _classprod():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import classprod

    return classprod


def _relabel(table, rng: random.Random):
    """The table under a random bijection s of the indices: T'[s a][s b] = s(T[a][b])."""
    import numpy as np

    n = len(table)
    new_of_old = list(range(n))
    rng.shuffle(new_of_old)
    s = np.asarray(new_of_old, dtype=np.int64)
    old_of_new = np.argsort(s)
    return s[table[old_of_new][:, old_of_new]]


def _is_associative(t) -> bool:
    return all((t[t[a]] == t[a][t]).all() for a in range(len(t)))


def _plant(table, rng: random.Random):
    """Swap two non-identity entries of a non-identity row until associativity breaks."""
    import numpy as np

    n = len(table)
    e = int(next(i for i in range(n) if (table[i] == np.arange(n)).all()))
    others = [i for i in range(n) if i != e]
    while True:
        out = table.copy()
        a = rng.choice(others)
        b, c = rng.sample(others, 2)
        out[a, b], out[a, c] = table[a, c], table[a, b]
        if not _is_associative(out):
            return out


def _write_table(path: str, table) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)}\n")
        for row in table.tolist():
            fh.write(" ".join(map(str, row)) + "\n")


def ingest_file_name(index: int, spec: str) -> str:
    return f"{index:02d}-{re.sub(r'[^A-Za-z0-9]+', '_', spec).strip('_')}.cayley"


def write_ingest_catalog(seed: int, directory: str) -> Dict[str, str]:
    """Write the seeded .cayley files; returns file name -> source spec.

    Same seed, same bytes. The identity moves off index 0 whenever the
    shuffle moves it, which exercises the relabel path of the loader.
    """
    cp = _classprod()
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    names: Dict[str, str] = {}
    for i, spec in enumerate(INGEST_SPECS, start=1):
        group = cp.build_group(spec, max_order=cp.DEFAULT_MAX_ORDER)
        name = ingest_file_name(i, spec)
        _write_table(os.path.join(directory, name), _relabel(group.np_table(), rng))
        names[name] = spec
    planted = cp.build_group(PLANTED_SPEC, max_order=cp.DEFAULT_MAX_ORDER)
    _write_table(
        os.path.join(directory, PLANTED_NAME), _plant(_relabel(planted.np_table(), rng), rng)
    )
    return names


def expected_ingest_summary(names: Dict[str, str]) -> dict:
    """Summary counts the CLI must report: scan_group on the source groups.

    Row counts, class sizes and flags are invariant under relabeling, so
    they match the named groups even though indices and ids differ.
    """
    cp = _classprod()
    by_group: Dict[str, int] = {}
    by_size: Dict[int, int] = {}
    by_flag: Dict[str, int] = {}
    for name, spec in names.items():
        rows = cp.scan_group(cp.build_group(spec, max_order=cp.DEFAULT_MAX_ORDER))
        by_group[f"file:{name}"] = len(rows)
        for row in rows:
            by_size[row.class_size_a] = by_size.get(row.class_size_a, 0) + 1
            for flag, value in row.flags.items():
                by_flag[flag] = by_flag.get(flag, 0) + int(value)
    return {
        "total_rows": sum(by_group.values()),
        "by_group": by_group,
        "by_class_size": {str(k): v for k, v in by_size.items()},
        "by_flag": by_flag,
    }


def check_ingest(returncode: int, stdout: bytes, expected: dict, planted: str) -> Optional[str]:
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        summary = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(summary, dict):
        return "stdout is not a JSON object"
    for key, want in expected.items():
        got = summary.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            # summarize() lists every flag, zero or not; compare nonzero counts
            got = {k: v for k, v in got.items() if v}
            want = {k: v for k, v in want.items() if v}
        if got != want:
            return f"{key}: got {got}, expected {want}"
    failures = summary.get("ingest_failures")
    if (
        not isinstance(failures, list)
        or len(failures) != 1
        or failures[0].get("path") != planted
        or not str(failures[0].get("error", "")).startswith(PLANTED_ERROR + ":")
    ):
        return f"ingest_failures: expected only {planted} with {PLANTED_ERROR}, got {failures}"
    return None


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    print(json.dumps(expected_ingest_summary(write_ingest_catalog(int(sys.argv[1]), sys.argv[2]))))
