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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .classalg import (
    _centralizer_ids,
    _class_data,
    _is_two_power,
    _theorem_a_criterion,
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


@dataclass
class Catalog:
    entries: List[CatalogEntry]
    failures: List[dict] = field(default_factory=list)
    order_cap: Optional[int] = None  # None or <= 0 means: resolve from the environment

    def __post_init__(self) -> None:
        if self.order_cap is None or self.order_cap <= 0:
            self.order_cap = max_order_cap()

    @classmethod
    def builtin(cls, order_cap: Optional[int] = None) -> "Catalog":
        entries = [
            CatalogEntry(spec_text=s, spec=GroupSpec.parse(s), source="builtin")
            for s in BUILTIN_SPECS
        ]
        return cls(entries=entries, order_cap=order_cap)


def ingest(directory: str, include_builtins: bool = True, order_cap: Optional[int] = None) -> Catalog:
    """Catalog from a directory of .gens/.cayley files, plus the built-ins.

    Each file is built once up front, under the catalog's order cap, and its
    entry keeps the group for a sequential scan; files that fail to parse,
    violate the group axioms, or exceed the order cap land in
    catalog.failures instead of aborting the ingest.
    """
    catalog = Catalog.builtin(order_cap) if include_builtins else Catalog([], order_cap=order_cap)
    names = sorted(
        f for f in os.listdir(directory) if f.endswith(".gens") or f.endswith(".cayley")
    )
    for name in names:
        path = os.path.join(directory, name)
        spec_text = f"file:{path}"
        try:
            spec = GroupSpec.parse(spec_text)
            group = build_group(spec, max_order=catalog.order_cap)
        except Exception as exc:  # collected, not fatal: bad files are data
            catalog.failures.append({"path": path, "error": f"{type(exc).__name__}: {exc}"})
            continue
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


class _Head(NamedTuple):
    """What a run of rows has in common; flags in _FLAG_NAMES order."""

    group_id: str
    group_order: int
    eta: int
    homogeneous: bool
    flags: Tuple[bool, ...]


_CHUNK_ROWS = 1 << 13  # rows formatted per write


class _Hits(NamedTuple):
    """Scan rows as columns, in one fixed order.

    Row i belongs to heads[head[i]], pairs elements a[i] and b[i], named
    names[a_name[i]] and names[b_name[i]], of class sizes size_a[i] and
    size_b[i]. A group's scan makes one head and names only the elements
    that occur; ScanRow objects are made only by rows().
    """

    heads: List[_Head]
    names: List[str]
    head: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_name: np.ndarray
    b_name: np.ndarray
    size_a: np.ndarray
    size_b: np.ndarray

    @classmethod
    def of_rows(cls, rows: Sequence[ScanRow]) -> "_Hits":
        """The rows as columns, in the order given."""
        heads: Dict[_Head, int] = {}
        names: Dict[str, int] = {}
        cols = [
            (
                heads.setdefault(_Head(r.group_id, r.group_order, r.eta, r.homogeneous,
                                       tuple(r.flags[f] for f in _FLAG_NAMES)), len(heads)),
                r.a_rep, r.b_rep,
                names.setdefault(r.a_name, len(names)), names.setdefault(r.b_name, len(names)),
                r.class_size_a, r.class_size_b,
            )
            for r in rows
        ]
        return cls(list(heads), list(names), *np.array(cols, dtype=np.int64).reshape(-1, 7).T)

    def take(self, index: np.ndarray) -> "_Hits":
        return _Hits(self.heads, self.names, *(c[index] for c in self[2:]))

    def rows(self) -> List[ScanRow]:
        flags = [dict(zip(_FLAG_NAMES, h.flags)) for h in self.heads]
        heads, names = self.heads, self.names
        return [
            ScanRow(heads[h].group_id, heads[h].group_order, a, b, names[x], names[y],
                    size_a, size_b, heads[h].eta, heads[h].homogeneous, flags[h])
            for h, a, b, x, y, size_a, size_b in zip(*(c.tolist() for c in self[2:]))
        ]

    def summary(self, failures: Sequence[dict] = ()) -> dict:
        """Counts by group, class size, and flag, all deterministically ordered."""
        by_group: Dict[str, int] = {}
        by_flag = {name: 0 for name in _FLAG_NAMES}
        for h, count in zip(self.heads, np.bincount(self.head, minlength=len(self.heads)).tolist()):
            if count:
                by_group[h.group_id] = by_group.get(h.group_id, 0) + count
                for name, on in zip(_FLAG_NAMES, h.flags):
                    if on:
                        by_flag[name] += count
        sizes, counts = np.unique(self.size_a, return_counts=True)
        return {
            "total_rows": len(self.a),
            "by_group": {k: by_group[k] for k in sorted(by_group)},
            "by_class_size": {str(k): v for k, v in zip(sizes.tolist(), counts.tolist())},
            "by_flag": by_flag,
            "ingest_failures": list(failures),
        }

    def write(self, path: str) -> None:
        """One JSON line per row, each the row's ScanRow.to_json_line().

        A line is its head's opening, the row's own fields, and its head's
        closing. Each head's fixed fields and each name are JSON-encoded
        once, and a run of rows of one head is joined in one call.
        """
        dump = lambda value: json.dumps(value, separators=(",", ":"))  # noqa: E731
        ends = [
            (
                f'{{"group_id":{dump(h.group_id)},"group_order":{dump(h.group_order)},"a_rep":',
                f',"eta":{dump(h.eta)},"homogeneous":{dump(h.homogeneous)},'
                f'"flags":{dump(dict(zip(_FLAG_NAMES, h.flags)))}}}\n',
            )
            for h in self.heads
        ]
        fields = '%d,"b_rep":%d,"a_name":%s,"b_name":%s,"class_size_a":%d,"class_size_b":%d'
        names = np.array([dump(name) for name in self.names], dtype=object)
        # runs of one head, cut every _CHUNK_ROWS rows
        cuts = np.flatnonzero(self.head[1:] != self.head[:-1]) + 1
        edges = sorted({*cuts.tolist(), *range(0, len(self.a), _CHUNK_ROWS)}) + [len(self.a)]
        with open(path, "w", encoding="utf-8") as fh:
            for start, end in zip(edges, edges[1:]):
                run = slice(start, end)
                opening, closing = ends[self.head[start]]
                fh.write(opening + (closing + opening).join(map(fields.__mod__, zip(
                    self.a[run].tolist(), self.b[run].tolist(),
                    names[self.a_name[run]].tolist(), names[self.b_name[run]].tolist(),
                    self.size_a[run].tolist(), self.size_b[run].tolist(),
                ))) + closing)


def _merge(parts: Sequence[_Hits]) -> _Hits:
    """All parts' rows in canonical (order, id, a, b) order; ties keep part order.
    A lone part, one group's rows and so in order already, is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    heads: List[_Head] = []
    names: List[str] = []
    cols: List[List[np.ndarray]] = [[np.zeros(0, dtype=np.int64)] for _ in range(7)]
    for p in parts:
        shift = (len(heads), 0, 0, len(names), len(names), 0, 0)
        for col, c, k in zip(cols, p[2:], shift):
            col.append(c + k if k else c)
        heads += p.heads
        names += p.names
    merged = _Hits(heads, names, *map(np.concatenate, cols))
    keys = sorted({(h.group_order, h.group_id) for h in heads})
    place = {key: i for i, key in enumerate(keys)}  # one rank for heads of one (order, id)
    rank = np.array([place[h.group_order, h.group_id] for h in heads], dtype=np.int64)
    return merged.take(np.lexsort((merged.b, merged.a, rank[merged.head])))


def _group_hits(group: FiniteGroup, require_equal_centralizers: bool = True) -> _Hits:
    """scan_group's rows as columns; see there."""
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
    seen = np.zeros(group.order, dtype=bool)
    seen[a] = seen[b] = True
    slot = np.cumsum(seen) - 1  # an occurring element's place among the names
    head = _Head(group.group_id, group.order, 1, True, tuple(flags[f] for f in _FLAG_NAMES))
    return _Hits(
        [head], [group.name_of(x) for x in np.flatnonzero(seen).tolist()],
        np.zeros(len(a), dtype=np.int64), a, b, slot[a], slot[b],
        data.sizes[cid[a]], data.sizes[cid[b]],
    )


def scan_group(group: FiniteGroup, require_equal_centralizers: bool = True) -> List[ScanRow]:
    """All homogeneous products in one group, audited, in index order.

    The first coordinate runs over class representatives only; every
    predicate involved is conjugation-covariant, so nothing is missed. The
    second runs over elements sharing the representative's centralizer, or
    over all elements when the flag is off. A hit with equal centralizers
    that fails theorem A's criterion means the scanner itself is broken.
    """
    return _group_hits(group, require_equal_centralizers).rows()


def _scan_one(args: Tuple[GroupSpec, bool, int], group: Optional[FiniteGroup] = None) -> _Hits:
    spec, require_equal, cap = args
    if group is None:  # built afresh, not through build_group's cache, so freed after its scan
        group = spec.build(max_order=cap)
    return _group_hits(group, require_equal)


def pool_size(workers: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes worth starting: no more than there are tasks or CPUs.

    workers < 1 is rejected with ValueError. A result of 1 or less means
    the scan runs in-process.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, tasks, cpus or 1)


def _catalog_hits(catalog: Catalog, require_equal_centralizers: bool = True, workers: int = 1) -> _Hits:
    """scan_homogeneous's rows as columns; see there."""
    tasks = [(e.spec, require_equal_centralizers, catalog.order_cap) for e in catalog.entries]
    size = pool_size(workers, len(tasks), os.cpu_count())
    if size > 1:
        # imported here: it pulls in multiprocessing, socket and subprocess on every run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            parts = list(pool.map(_scan_one, tasks))
    else:
        parts = []
        for entry, task in zip(catalog.entries, tasks):
            parts.append(_scan_one(task, entry.group))
            if entry.group is not None:  # an ingested group keeps its table, not its class data
                entry.group._cache.clear()
    return _merge(parts)


def scan_homogeneous(
    catalog: Catalog,
    require_equal_centralizers: bool = True,
    workers: int = 1,
) -> List[ScanRow]:
    """Scan every catalog group; canonical (order, id, a, b) row order.

    workers > 1 fans groups out to separate processes, at most one per group
    and per CPU; the merge re-sorts, so the result is identical to a
    sequential run. A sequential run reuses the groups ingest() built and
    clears their caches once each is scanned.
    """
    return _catalog_hits(catalog, require_equal_centralizers, workers).rows()


def _two_power_hits(hits: _Hits) -> _Hits:
    """open_question_scan's filter and audit, on columns."""
    keep = _is_two_power(hits.size_a)
    flag = _FLAG_NAMES.index("supersolvable")
    supersolvable = np.array([bool(h.flags[flag]) for h in hits.heads], dtype=bool)
    bad = np.flatnonzero(keep & supersolvable[hits.head])
    if bad.size:
        i = bad[0]
        raise InternalContradiction(
            f"2-power homogeneous hit in supersolvable group {hits.heads[hits.head[i]].group_id}: "
            f"a={hits.a[i]}, b={hits.b[i]}, |a^G|={hits.size_a[i]}"
        )
    return hits.take(np.flatnonzero(keep))


def open_question_scan(catalog: Catalog, workers: int = 1) -> List[ScanRow]:
    """Hunt for a homogeneous product over a class of 2-power size > 1.

    Any such group cannot be supersolvable; a hit carrying the
    supersolvable flag is an InternalContradiction, not a discovery. An
    empty result means no counterexample below the order cap, nothing more.
    """
    return _two_power_hits(_catalog_hits(catalog, True, workers)).rows()


def write_jsonl(rows: Sequence[ScanRow], path: str) -> None:
    _Hits.of_rows(rows).write(path)


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
    return _Hits.of_rows(rows).summary(failures)


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
