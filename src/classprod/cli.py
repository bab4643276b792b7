"""Command-line front end.

Verbs: build, classes, product, check, scan, construct. Data output goes to
stdout and is deterministic (no timestamps); diagnostics go to stderr.
Exit codes: 0 ok (including vacuous results and the discrepancy banner),
1 a checked statement failed, 2 bad spec/selector/arguments, 3 the
equal-centralizer requirement was violated under --require-equal-centralizers.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

import numpy as np

from .classalg import (
    _class_data,
    _theorem_a_criterion,
    center,
    centralizer,
    class_product,
    commutator_set,
    commutator_set_ids,
    conjugacy_class,
    decompose,
    eta_of_product,
    is_normal,
    is_subgroup,
)
from .constructions import build_group, odd_eta1_witness
from .errors import ClassprodError, HypothesisViolated
from .group import Element, FiniteGroup, save_cayley

_WORD_TOKEN = re.compile(r"g([0-9]+)(?:\^(-?[0-9]+))?")


def _selector_int(digits: str, text: str) -> int:
    """An integer of the selector text, written in ASCII digits."""
    try:
        return int(digits)
    except ValueError:  # over int()'s limit on digits, so text is long: show its start
        size = len(digits.lstrip("-"))
        raise ValueError(f"element selector {text[:40]!r}... has an integer of {size} digits, too many") from None


def resolve_element(group: FiniteGroup, text: str) -> Element:
    """Selector -> element: a display name, an index, or a generator word.

    Names win over indices ('-1' in q8 is the central involution, not an
    index); whitespace inside names is ignored, so '(1, 0, 0)' works for the
    extraspecial triples. Generator words look like 'g0*g1^2' or 'g0^-1'.
    Indices and exponents are ASCII digits.
    """
    s = text.strip()
    keys = (s, s.replace(" ", ""))
    for key in keys:
        if key in group.named_elements:
            return Element(group, group.named_elements[key])
    for key in keys:
        i = group.index_of_name(key)
        if i is not None:
            return Element(group, i)
    if re.fullmatch(r"-?[0-9]+", s):
        idx = _selector_int(s, text)
        if not 0 <= idx < group.order:
            raise ValueError(f"index {idx} outside 0..{group.order - 1} for {group.group_id}")
        return Element(group, idx)
    if re.fullmatch(r"g[0-9]+(\^-?[0-9]+)?(\s*\*\s*g[0-9]+(\^-?[0-9]+)?)*", s):
        acc = 0
        for token in s.split("*"):
            m = _WORD_TOKEN.fullmatch(token.strip())
            assert m is not None
            gi = _selector_int(m.group(1), text)
            if gi >= len(group.generator_indices):
                raise ValueError(
                    f"{group.group_id} has {len(group.generator_indices)} generators; g{gi} undefined"
                )
            k = _selector_int(m.group(2), text) if m.group(2) else 1
            acc = group.mul(acc, group.power(group.generator_indices[gi], k))
        return Element(group, acc)
    raise ValueError(f"cannot resolve element selector {text!r} in {group.group_id}")


def _print_json(doc: object) -> None:
    """doc as indented JSON and a newline on stdout, written as it is encoded."""
    json.dump(doc, sys.stdout, indent=2)
    print()


def _print_table(headers: List[str], rows: List[List[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))


# -- verbs ------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    group = build_group(args.group)
    if args.out:
        save_cayley(group, args.out)
    info = {
        "group_id": group.group_id,
        "order": group.order,
        "classes": len(_class_data(group).reps),
        "center_size": len(center(group)),
        "generators": list(group.generator_indices),
    }
    if args.json:
        _print_json(info)
    else:
        print(
            f"{info['group_id']}: order {info['order']}, "
            f"{info['classes']} classes, center of size {info['center_size']}"
        )
        if args.out:
            print(f"table written to {args.out}", file=sys.stderr)
    return 0


def cmd_classes(args: argparse.Namespace) -> int:
    group = build_group(args.group)
    data = _class_data(group)
    if group.factors:  # a product's distinct [a,G] come from its factors'
        ids, holders = commutator_set_ids(group)
        rep_ids = ids[data.reps].tolist()
    else:  # one set per class: finding the distinct ones gathers every class's |C| x |C| block
        rep_ids, holders = list(range(len(data.reps))), data.reps.tolist()
    decided = {}  # each distinct [a,G] of a representative: its size, subgroup, normal
    for s in dict.fromkeys(rep_ids):
        comm = commutator_set(Element(group, holders[s]))
        decided[s] = (len(comm), is_subgroup(comm), is_normal(comm))
    entries = []
    for r, size, s in zip(data.reps.tolist(), data.sizes.tolist(), rep_ids):
        comm_size, closed, normal = decided[s]
        # |C(a)| = n / |a^G|: the class data checked this class equation
        entries.append(
            {
                "rep": r,
                "name": group.name_of(r),
                "size": size,
                "centralizer_order": group.order // size,
                "comm_set_size": comm_size,
                "comm_set_is_subgroup": closed,
                "comm_set_is_normal": normal,
            }
        )
    if args.json:
        _print_json({"group_id": group.group_id, "classes": entries})
    else:
        print(f"{group.group_id}: order {group.order}, {len(entries)} classes")
        _print_table(
            ["rep", "name", "size", "|C(a)|", "|[a,G]|", "subgroup", "normal"],
            [
                [
                    str(e["rep"]),
                    e["name"],
                    str(e["size"]),
                    str(e["centralizer_order"]),
                    str(e["comm_set_size"]),
                    "yes" if e["comm_set_is_subgroup"] else "no",
                    "yes" if e["comm_set_is_normal"] else "no",
                ]
                for e in entries
            ],
        )
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    group = build_group(args.group)
    a = resolve_element(group, args.elem_a)
    b = resolve_element(group, args.elem_b)
    if args.require_equal_centralizers and centralizer(a) != centralizer(b):
        print(
            f"error: centralizers of {a.name} and {b.name} differ in {group.group_id}",
            file=sys.stderr,
        )
        return 3
    product = class_product(a, b)
    parts = decompose(product)
    match, normal_ab, _ = _theorem_a_criterion(group, np.array([a.index]), np.array([b.index]))
    rhs_match, rhs_normal = bool(match[0]), bool(normal_ab[0])
    report = {
        "group_id": group.group_id,
        "a": {"index": a.index, "name": a.name, "class_size": conjugacy_class(a).size},
        "b": {"index": b.index, "name": b.name, "class_size": conjugacy_class(b).size},
        "product_size": len(product),
        "eta": parts.eta,
        "homogeneous": parts.eta == 1,
        "classes": [
            {"rep": c.representative.index, "name": c.representative.name, "size": c.size}
            for c in parts.classes
        ],
        "criterion": {
            "comm_sets_match": rhs_match,
            "comm_set_ab_is_normal": rhs_normal,
            "satisfied": rhs_match and rhs_normal,
        },
    }
    if args.json:
        _print_json(report)
    else:
        print(f"group {group.group_id}: a = {a.name} (#{a.index}), b = {b.name} (#{b.index})")
        print(
            f"|a^G| = {report['a']['class_size']}, |b^G| = {report['b']['class_size']}, "
            f"|a^G b^G| = {report['product_size']}, eta = {parts.eta}"
        )
        for c in parts.classes:
            print(f"  class of {c.representative.name} (#{c.representative.index}), size {c.size}")
        crit = "satisfied" if report["criterion"]["satisfied"] else "not satisfied"
        print(
            f"criterion [a,G]=[b,G]=[ab,G] normal: {crit} "
            f"(match={rhs_match}, normal={rhs_normal})"
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .verify import STATEMENT_IDS, run_statement

    group = build_group(args.group)
    if args.statement == "all":
        ids = list(STATEMENT_IDS)
    elif args.statement in STATEMENT_IDS:
        ids = [args.statement]
    else:
        print(
            f"error: unknown statement {args.statement!r}; "
            f"choose from: all, {', '.join(STATEMENT_IDS)}",
            file=sys.stderr,
        )
        return 2
    reports = [run_statement(group, sid) for sid in ids]
    if args.json:
        _print_json([r.to_dict() for r in reports])
    else:
        _print_table(
            ["statement", "verdict", "pairs", "clauses", "notes"],
            [
                [
                    r.statement_id,
                    r.verdict,
                    str(r.pairs_checked),
                    ", ".join(f"{k}={v}" for k, v in r.clause_verdicts.items()) or "-",
                    "; ".join(r.notes) or "-",
                ]
                for r in reports
            ],
        )
    failed = [r for r in reports if r.verdict == "fails"]
    discrepant = [r for r in reports if r.verdict == "discrepancy"]
    if failed:
        print(
            f"FAIL: {', '.join(r.statement_id for r in failed)} on {group.group_id}",
            file=sys.stderr,
        )
        return 1
    if discrepant:
        banner = sys.stderr if args.json else sys.stdout
        names = ", ".join(
            f"{r.statement_id} [{', '.join(k for k, v in r.clause_verdicts.items() if v == 'discrepancy')}]"
            for r in discrepant
        )
        print("=" * 60, file=banner)
        print(f"DISCREPANCY: sub-clause disagrees on {group.group_id}: {names}", file=banner)
        print("main claims hold; see witnesses in the report", file=banner)
        print("=" * 60, file=banner)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from .scan import Catalog, _catalog_hits, _two_power_hits, format_summary, ingest, pool_size

    pool_size(args.workers, tasks=1, cpus=1)  # reject workers < 1 before any file is built
    if args.catalog:
        catalog = ingest(args.catalog, include_builtins=not args.no_builtins)
    elif args.no_builtins:
        catalog = Catalog(entries=[])
    else:
        catalog = Catalog.builtin()
    if args.mode == "open-question":  # open_question_scan's hits, left as columns
        hits = _two_power_hits(_catalog_hits(catalog, workers=args.workers))
    else:
        hits = _catalog_hits(catalog, require_equal_centralizers=not args.all_pairs, workers=args.workers)
    if args.out:
        hits.write(args.out)
        print(f"{len(hits.a)} rows written to {args.out}", file=sys.stderr)
    summary = hits.summary(catalog.failures)
    if args.json:
        _print_json(summary)
    else:
        print(format_summary(summary))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    group, a = odd_eta1_witness(args.n)
    size = conjugacy_class(a).size
    e = eta_of_product(a, a)
    info = {
        "group_id": group.group_id,
        "order": group.order,
        "witness_index": a.index,
        "witness_name": a.name,
        "class_size": size,
        "eta_of_square": e,
    }
    if args.json:
        _print_json(info)
    else:
        print(
            f"{group.group_id}: order {group.order}; witness {a.name} (#{a.index}) "
            f"with |a^G| = {size}, eta(a^G a^G) = {e}"
        )
    return 0


# -- parser -----------------------------------------------------------------


class _StatementHelp(argparse.HelpFormatter):
    """Help for `check`: the statement argument's help ends with verify's
    statement ids, so verify is imported only when the help is shown."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        if action.dest != "statement":
            return action.help
        from .verify import STATEMENT_IDS

        return f"{action.help} {', '.join(STATEMENT_IDS)}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classprod",
        description="Conjugacy class products in finite groups: build, inspect, verify, scan.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_build = sub.add_parser("build", help="construct a group and print basic data")
    p_build.add_argument("--group", required=True, help="group spec, e.g. sym:4, q8, es:3, prod(es:3,es:5), file:g.gens")
    p_build.add_argument("--out", help="write the multiplication table to this .cayley file")
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_classes = sub.add_parser("classes", help="one row per conjugacy class")
    p_classes.add_argument("--group", required=True)
    p_classes.add_argument("--json", action="store_true")
    p_classes.set_defaults(func=cmd_classes)

    p_product = sub.add_parser("product", help="class product of two elements and its decomposition")
    p_product.add_argument("--group", required=True)
    p_product.add_argument("-a", "--elem-a", required=True, help="selector: name, index, or generator word (use --elem-a='-i' for names starting with a dash)")
    p_product.add_argument("-b", "--elem-b", required=True)
    p_product.add_argument("--require-equal-centralizers", action="store_true", help="exit 3 if C(a) != C(b)")
    p_product.add_argument("--json", action="store_true")
    p_product.set_defaults(func=cmd_product)

    p_check = sub.add_parser("check", help="run statement checkers against a group", formatter_class=_StatementHelp)
    p_check.add_argument("statement", help="'all' or one of:")
    p_check.add_argument("--group", required=True)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="scan a catalog for homogeneous class products")
    p_scan.add_argument("--catalog", help="directory of .gens/.cayley files to add to the built-ins")
    p_scan.add_argument("--mode", choices=("homogeneous", "open-question"), default="homogeneous")
    p_scan.add_argument("--out", help="write rows as JSON Lines to this path")
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.add_argument("--all-pairs", action="store_true", help="drop the equal-centralizer filter")
    p_scan.add_argument("--no-builtins", action="store_true")
    p_scan.add_argument("--json", action="store_true", help="print the summary as JSON")
    p_scan.set_defaults(func=cmd_scan)

    p_construct = sub.add_parser("construct", help="build the odd-n witness group and element")
    p_construct.add_argument("--n", type=int, required=True, help="odd class size to realize")
    p_construct.add_argument("--json", action="store_true")
    p_construct.set_defaults(func=cmd_construct)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ClassprodError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
