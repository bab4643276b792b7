"""Span tracer for classprod, installed from outside the package.

run_traced() wraps the public functions of the group, constructions, perm,
classalg, verify and scan modules, runs the CLI, and writes the spans to a
JSON file. Every module-level binding of a wrapped function is replaced,
including the copies other modules made with `from .classalg import X`, and
Permutation.__mul__ is patched on the class. Nothing under src/ is edited.

Spans are kept in memory. Every span is folded into an aggregate keyed by
(name, parent name): calls, total time, self time (duration minus the time
covered by child spans). Spans of 1 ms or more are also kept one by one
with their start, end and parent. layer_metrics() turns the aggregates into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LONG_SPAN_S = 1e-3
LONG_SPAN_CAP = 100_000

STATEMENT_IDS: Tuple[str, ...] = (
    "theorem-a",
    "theorem-b",
    "product-formula",
    "subgroup-implies-normal",
    "quotient-monotonicity",
    "center-intersection",
    "size2-classes",
    "supersolvable-two-power",
    "nilpotent-odd-size",
    "direct-product-eta",
)

# The private builders behind two memoized public functions. Whichever public
# function happens to call them first pays for the whole table, so their time
# is reported under the public name whose data they build.
_BUILDERS = {
    "_class_data": "classalg.conjugacy_classes",
    "_centralizer_masks": "classalg.centralizer_buckets",
}

_CLASS_DATA = {
    "classalg." + n
    for n in (
        "conjugacy_classes",
        "_class_data",
        "class_id_of",
        "conjugacy_class",
        "centralizer",
        "_centralizer_masks",
        "centralizer_buckets",
        "commutator_set",
        "center",
        "is_abelian",
    )
}

_STRUCTURE = (
    "is_supersolvable",
    "is_simple_nonabelian",
    "normal_subgroups",
    "minimal_normal_subgroups",
)


def layer_of(name: str) -> str:
    if name == "cli":
        return "cli"
    module = name.split(".", 1)[0]
    if module in ("group", "constructions", "perm"):
        return "construction"
    if module == "classalg":
        return "class_data" if name in _CLASS_DATA else "class_algebra"
    if module == "verify":
        return "checkers"
    return module


LAYERS = ("construction", "class_data", "class_algebra", "checkers", "scan", "cli")

# Per-layer metric names and units, in report order. run.py copies this list
# into the result; BENCHMARK.json names the same metrics.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("group.close_from_generators.self_s", "s"),
    ("perm.mul.calls", "count"),
    ("group.from_cayley_table.self_s", "s"),
    ("group.load_cayley.self_s", "s"),
    ("constructions.build_group.calls", "count"),
    ("constructions.build_group.self_s", "s"),
    ("constructions.direct_product.self_s", "s"),
    ("group.table_mb", "MiB"),
    ("classalg.conjugacy_classes.self_s", "s"),
    ("classalg.centralizer_buckets.self_s", "s"),
    ("classalg.commutator_set.self_s", "s"),
    ("classalg.commutator_set.calls", "count"),
    ("classalg.commutator_set.repeat_ratio", "ratio"),
    ("classalg.class_product.self_s", "s"),
    ("classalg.class_product.calls", "count"),
    ("classalg.class_product.repeat_ratio", "ratio"),
    ("classalg.set_product.self_s", "s"),
    ("classalg.set_product.calls", "count"),
    ("classalg.set_product.steps", "count"),
    ("classalg.decompose.self_s", "s"),
    ("classalg.decompose.calls", "count"),
    ("classalg.quotient.self_s", "s"),
    ("classalg.quotient.calls", "count"),
    ("classalg.is_normal.self_s", "s"),
    ("classalg.is_nilpotent.self_s", "s"),
    ("classalg.structure.self_s", "s"),
    *((f"verify.{sid}.self_s", "s") for sid in STATEMENT_IDS),
    ("verify.pairs_checked", "count"),
    ("scan.scan_group.self_s", "s"),
    ("scan.rows", "count"),
    ("cli.self_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("host.slice_s", "s"),
)


class Tracer:
    """Spans, counters and input-repeat bookkeeping for one traced run."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # open spans: [name, start, child_time]
        self.agg: Dict[Tuple[str, str], List[float]] = {}  # -> [calls, total_s, self_s]
        self.long_spans: List[Tuple[str, str, float, float]] = []
        self.counters: Dict[str, int] = {}
        self.seen: Dict[str, set] = {}
        self.groups: list = []  # every FiniteGroup built; keeps ids unique
        self.hook_s = 0.0

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn inside a span; after(args, result) runs outside every span."""
        stack, agg, long_spans = self.stack, self.agg, self.long_spans

        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                pname = parent[0] if parent is not None else ""
                if parent is not None:
                    parent[2] += dur
                rec = agg.get((name, pname))
                if rec is None:
                    rec = agg[(name, pname)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if dur >= LONG_SPAN_S and len(long_spans) < LONG_SPAN_CAP:
                    long_spans.append((name, pname, frame[1], end))
            if after is not None:
                after(args, result)
                hook = perf_counter() - end
                self.hook_s += hook
                if parent is not None:
                    parent[2] += hook
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def note_key(self, name: str, key) -> None:
        """Count a repeat of `name` when its input `key` was seen before."""
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.count(name + ".repeats", 1)
        else:
            seen.add(key)

    def document(self, wall_s: float) -> dict:
        return {
            "wall_s": wall_s,
            "hook_s": self.hook_s,
            "aggregates": [
                {"name": n, "parent": p, "calls": int(r[0]), "total_s": r[1], "self_s": r[2]}
                for (n, p), r in sorted(self.agg.items())
            ],
            "long_spans": [
                {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.long_spans
            ],
            "counters": dict(sorted(self.counters.items())),
            "table_bytes": sum(_table_bytes(g) for g in self.groups),
        }


def _table_bytes(group) -> int:
    rows = sum(len(r) * r.itemsize for r in group.table)
    np_table = group._cache.get("np_table")
    return rows + (np_table.nbytes if np_table is not None else 0)


def _hooks(tracer: Tracer, classalg) -> Dict[str, Callable]:
    """Bookkeeping that needs a call's arguments or result, by span name."""
    class_data = classalg._class_data  # taken before install() rebinds it

    def class_product(args, result):
        a, b = args[0], args[1]
        class_id = class_data(a.group)[1]
        key = (id(a.group), class_id[a.index], class_id[b.index])
        tracer.note_key("classalg.class_product", key)

    def commutator_set(args, result):
        tracer.note_key("classalg.commutator_set", (id(args[0].group), args[0].index))

    def set_product(args, result):
        tracer.count("classalg.set_product.steps", len(args[0]) * len(args[1]))

    def scan_group(args, result):
        tracer.count("scan.rows", len(result))

    def statement(args, report):
        tracer.count("verify.pairs_checked", report.pairs_checked)

    return {
        "classalg.class_product": class_product,
        "classalg.commutator_set": commutator_set,
        "classalg.set_product": set_product,
        "scan.scan_group": scan_group,
        "verify": statement,
    }


def install(tracer: Tracer) -> None:
    """Wrap the package's layers in place; every binding is replaced."""
    from classprod import classalg, constructions, group, perm, scan, verify

    hooks = _hooks(tracer, classalg)
    wrappers = {}  # id(original) -> wrapper
    for mod in (group, constructions, classalg, scan):
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and not (mod is classalg and attr in _BUILDERS):
                continue
            name = f"{short}.{attr}"
            wrappers[id(fn)] = tracer.wrap(name, fn, hooks.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "classprod" or mod_name.startswith("classprod.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(mod, attr, wrapper)

    # One span per statement: the verify layer's own time under that statement.
    for sid in STATEMENT_IDS:
        verify._AGGREGATORS[sid] = tracer.wrap(
            f"verify.{sid}", verify._AGGREGATORS[sid], hooks["verify"]
        )

    perm.Permutation.__mul__ = tracer.wrap("perm.mul", perm.Permutation.__mul__)

    init = group.FiniteGroup.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.groups.append(self)

    group.FiniteGroup.__init__ = recording_init


def run_traced(main: Callable[[Sequence[str]], int], argv: Sequence[str], out: str) -> int:
    tracer = Tracer()
    install(tracer)
    traced_main = tracer.wrap("cli", main)
    start = perf_counter()
    try:
        return traced_main(list(argv))
    finally:
        wall = perf_counter() - start
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.document(wall), fh)


def layer_metrics(doc: dict) -> Dict[str, float]:
    """Per-layer metric values from one trace document.

    trace.overhead_s and host.slice_s are left to the caller.
    """
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for rec in doc["aggregates"]:
        name = rec["name"]
        calls[name] = calls.get(name, 0) + rec["calls"]
        self_s[name] = self_s.get(name, 0.0) + rec["self_s"]
    for private, public in _BUILDERS.items():
        builder = "classalg." + private
        self_s[public] = self_s.get(public, 0.0) + self_s.pop(builder, 0.0)
        calls.pop(builder, None)
    counters = doc["counters"]

    def repeat_ratio(name: str) -> float:
        n = calls.get(name, 0)
        return counters.get(name + ".repeats", 0) / n if n else 0.0

    layers = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layers[layer_of(name)] += value

    out: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric.startswith("layer."):
            value = layers[metric.split(".")[1]]
        elif metric == "group.table_mb":
            value = doc["table_bytes"] / 2**20
        elif metric == "classalg.structure.self_s":
            value = sum(self_s.get("classalg." + n, 0.0) for n in _STRUCTURE)
        elif metric == "trace.wall_s":
            value = doc["wall_s"]
        elif metric in ("trace.overhead_s", "host.slice_s"):
            continue  # measured by run.py, outside the traced child
        elif metric.endswith(".repeat_ratio"):
            value = repeat_ratio(metric[: -len(".repeat_ratio")])
        elif metric.endswith(".self_s"):
            value = self_s.get(metric[: -len(".self_s")], 0.0)
        elif metric.endswith(".calls"):
            value = calls.get(metric[: -len(".calls")], 0)
        else:
            value = counters.get(metric, 0)
        out[metric] = value
    return out
