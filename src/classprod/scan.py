"""Catalog-wide scans for homogeneous class products.

A catalog is the built-in group list plus whatever .gens/.cayley files a
directory contributes. Scans emit one row per homogeneous product found;
the open-question mode filters those down to 2-power class sizes, the event
whose existence is unsettled. Row output is canonically sorted, so results
are byte-identical no matter how many workers produced them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classalg import (
    _centralizer_ids,
    _class_data,
    class_eta_matrix,
    equal_centralizer_arrays,
    is_nilpotent,
    is_prime_power,
    is_simple_nonabelian,
    is_supersolvable,
)
from .constructions import GroupSpec, build_group
from .errors import InternalContradiction
from .group import FiniteGroup, max_order_cap
from .verify import _is_two_power, _theorem_a_criterion

BUILTIN_SPECS: Tuple[str, ...] = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "cyclic:7",
    "cyclic:8",
    "cyclic:9",
    "cyclic:10",
    "cyclic:11",
    "cyclic:12",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "sym:3",
    "sym:4",
    "sym:5",
    "sym:6",
    "alt:4",
    "alt:5",
    "alt:6",
    "q8",
    "es:3",
    "es:5",
    "es:3^2",
)

_FLAG_NAMES = ("nilpotent", "supersolvable", "simple_nonabelian", "odd_order", "p_group")


@dataclass(frozen=True)
class CatalogEntry:
    spec_text: str
    spec: GroupSpec
    source: str  # "builtin" or the contributing file path
    # the group ingest() already built and validated; sequential scans reuse it
    group: Optional[FiniteGroup] = field(default=None, compare=False, repr=False)

    @property
    def canonical(self) -> str:
        return self.spec.canonical()


@dataclass
class Catalog:
    entries: List[CatalogEntry]
    failures: List[dict] = field(default_factory=list)
    order_cap: int = 0  # <= 0 means: resolve from the environment

    def __post_init__(self) -> None:
        if self.order_cap <= 0:
            self.order_cap = max_order_cap()

    @classmethod
    def builtin(cls, order_cap: Optional[int] = None) -> "Catalog":
        cap = max_order_cap() if order_cap is None else order_cap
        entries = [
            CatalogEntry(spec_text=s, spec=GroupSpec.parse(s), source="builtin")
            for s in BUILTIN_SPECS
        ]
        return cls(entries=entries, order_cap=cap)


def ingest(directory: str, include_builtins: bool = True, order_cap: Optional[int] = None) -> Catalog:
    """Catalog from a directory of .gens/.cayley files, plus the built-ins.

    Each file is built once up front and its entry keeps the group for a
    sequential scan; files that fail to parse, violate the group axioms, or
    exceed the order cap land in catalog.failures instead of aborting the
    ingest. Entries are deduplicated on canonical spec.
    """
    cap = max_order_cap() if order_cap is None else order_cap
    catalog = Catalog.builtin(order_cap=cap) if include_builtins else Catalog(entries=[], order_cap=cap)
    names = sorted(
        f for f in os.listdir(directory) if f.endswith(".gens") or f.endswith(".cayley")
    )
    seen = {e.canonical for e in catalog.entries}
    for name in names:
        path = os.path.join(directory, name)
        spec_text = f"file:{path}"
        try:
            spec = GroupSpec.parse(spec_text)
            group = build_group(spec, max_order=cap)
        except Exception as exc:  # collected, not fatal: bad files are data
            catalog.failures.append({"path": path, "error": f"{type(exc).__name__}: {exc}"})
            continue
        if spec.canonical() in seen:
            continue
        seen.add(spec.canonical())
        catalog.entries.append(
            CatalogEntry(spec_text=spec_text, spec=spec, source=path, group=group)
        )
    return catalog


@dataclass
class ScanRow:
    """One homogeneous product event: a^G b^G equal to a single class."""

    group_id: str
    group_order: int
    a_rep: int
    b_rep: int
    a_name: str
    b_name: str
    class_size_a: int
    class_size_b: int
    eta: int
    homogeneous: bool
    flags: Dict[str, bool]

    def sort_key(self) -> Tuple[int, str, int, int]:
        return (self.group_order, self.group_id, self.a_rep, self.b_rep)

    def to_dict(self) -> dict:
        return {
            "group_id": self.group_id,
            "group_order": self.group_order,
            "a_rep": self.a_rep,
            "b_rep": self.b_rep,
            "a_name": self.a_name,
            "b_name": self.b_name,
            "class_size_a": self.class_size_a,
            "class_size_b": self.class_size_b,
            "eta": self.eta,
            "homogeneous": self.homogeneous,
            "flags": {name: self.flags[name] for name in _FLAG_NAMES},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanRow":
        return cls(**{k: data[k] for k in (
            "group_id", "group_order", "a_rep", "b_rep", "a_name", "b_name",
            "class_size_a", "class_size_b", "eta", "homogeneous", "flags",
        )})

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def group_flags(group: FiniteGroup) -> Dict[str, bool]:
    return {
        "nilpotent": is_nilpotent(group),
        "supersolvable": is_supersolvable(group),
        "simple_nonabelian": is_simple_nonabelian(group),
        "odd_order": group.order % 2 == 1,
        "p_group": is_prime_power(group.order),
    }


def scan_group(group: FiniteGroup, require_equal_centralizers: bool = True) -> List[ScanRow]:
    """All homogeneous products in one group, audited, in index order.

    The first coordinate runs over class representatives only; every
    predicate involved is conjugation-covariant, so nothing is missed. The
    second runs over elements sharing the representative's centralizer, or
    over all elements when the flag is off. A hit with equal centralizers
    that fails theorem A's criterion means the scanner itself is broken.
    """
    flags = group_flags(group)
    data, eta = _class_data(group), class_eta_matrix(group)
    cid = data.class_id
    if require_equal_centralizers:  # the pairs first: far fewer than the hits over all b
        a, b = equal_centralizer_arrays(group)
        hit = eta[cid[a], cid[b]] == 1
        a, b = a[hit], b[hit]
    else:
        i, b = np.nonzero((eta == 1)[:, cid])  # class by class, b in index order
        a = data.reps[i]
    ids = _centralizer_ids(group)
    equal = ids[a] == ids[b]
    match, normal_ab, _ = _theorem_a_criterion(group, a[equal], b[equal])
    bad = np.flatnonzero(equal)[~(match & normal_ab)]
    if bad.size:
        raise InternalContradiction(
            f"homogeneous pair ({a[bad[0]]},{b[bad[0]]}) in {group.group_id} fails the "
            "commutator-set criterion; scanner and checker disagree"
        )
    fixed = dict(group_id=group.group_id, group_order=group.order, eta=1, homogeneous=True, flags=flags)
    return [
        ScanRow(a_rep=x, b_rep=y, a_name=group.name_of(x), b_name=group.name_of(y),
                class_size_a=size_a, class_size_b=size_b, **fixed)
        for x, y, size_a, size_b in zip(
            a.tolist(), b.tolist(), data.sizes[cid[a]].tolist(), data.sizes[cid[b]].tolist()
        )
    ]


def _scan_one(args: Tuple[str, bool, int], group: Optional[FiniteGroup] = None) -> List[ScanRow]:
    spec_text, require_equal, cap = args
    if group is None:  # built afresh, not through build_group's cache, so freed after its scan
        group = GroupSpec.parse(spec_text).build(max_order=cap)
    return scan_group(group, require_equal)


def pool_size(workers: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes worth starting: no more than there are tasks or CPUs.

    workers < 1 is rejected with ValueError. A result of 1 or less means
    the scan runs in-process.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, tasks, cpus or 1)


def scan_homogeneous(
    catalog: Catalog,
    require_equal_centralizers: bool = True,
    workers: int = 1,
) -> List[ScanRow]:
    """Scan every catalog group; canonical (order, id, a, b) row order.

    workers > 1 fans groups out to separate processes, at most one per group
    and per CPU; the merge re-sorts, so the result is identical to a
    sequential run. A sequential run reuses the groups ingest() built.
    """
    tasks = [(e.spec_text, require_equal_centralizers, catalog.order_cap) for e in catalog.entries]
    size = pool_size(workers, len(tasks), os.cpu_count())
    rows: List[ScanRow] = []
    if size > 1:
        # imported here: it pulls in multiprocessing, socket and subprocess on every run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            for chunk in pool.map(_scan_one, tasks):
                rows.extend(chunk)
    else:
        for entry, task in zip(catalog.entries, tasks):
            rows.extend(_scan_one(task, entry.group))
    rows.sort(key=ScanRow.sort_key)
    return rows


def open_question_scan(catalog: Catalog, workers: int = 1) -> List[ScanRow]:
    """Hunt for a homogeneous product over a class of 2-power size > 1.

    Any such group cannot be supersolvable; a hit carrying the
    supersolvable flag is an InternalContradiction, not a discovery. An
    empty result means no counterexample below the order cap, nothing more.
    """
    rows = scan_homogeneous(catalog, require_equal_centralizers=True, workers=workers)
    hits: List[ScanRow] = []
    for row in rows:
        if not _is_two_power(row.class_size_a):
            continue
        if row.flags["supersolvable"]:
            raise InternalContradiction(
                f"2-power homogeneous hit in supersolvable group {row.group_id}: "
                f"a={row.a_rep}, b={row.b_rep}, |a^G|={row.class_size_a}"
            )
        hits.append(row)
    return hits


def write_jsonl(rows: Sequence[ScanRow], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row.to_json_line() + "\n")


def read_jsonl(path: str) -> List[ScanRow]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(ScanRow.from_dict(json.loads(line)))
    return rows


def summarize(rows: Sequence[ScanRow], failures: Sequence[dict] = ()) -> dict:
    """Counts by group, class size, and flag, all deterministically ordered."""
    by_group: Dict[str, int] = {}
    by_size: Dict[int, int] = {}
    by_flag = {name: 0 for name in _FLAG_NAMES}
    for row in rows:
        by_group[row.group_id] = by_group.get(row.group_id, 0) + 1
        by_size[row.class_size_a] = by_size.get(row.class_size_a, 0) + 1
        for name in _FLAG_NAMES:
            if row.flags[name]:
                by_flag[name] += 1
    return {
        "total_rows": len(rows),
        "by_group": {k: by_group[k] for k in sorted(by_group)},
        "by_class_size": {str(k): by_size[k] for k in sorted(by_size)},
        "by_flag": by_flag,
        "ingest_failures": list(failures),
    }


def format_summary(summary: dict) -> str:
    lines = [f"rows: {summary['total_rows']}"]
    if summary["by_group"]:
        lines.append("by group:")
        width = max(len(k) for k in summary["by_group"])
        for k, v in summary["by_group"].items():
            lines.append(f"  {k:<{width}}  {v}")
    if summary["by_class_size"]:
        lines.append("by |a^G|:")
        for k, v in summary["by_class_size"].items():
            lines.append(f"  {k:>4}  {v}")
    lines.append("by flag:")
    for k, v in summary["by_flag"].items():
        lines.append(f"  {k:<18}  {v}")
    if summary["ingest_failures"]:
        lines.append("ingest failures:")
        for f in summary["ingest_failures"]:
            lines.append(f"  {f['path']}: {f['error']}")
    return "\n".join(lines)
