"""Conjugacy class products in finite groups.

Build concrete groups (permutation closures, Cayley tables, the stock
constructions), compute class products and their decompositions, check the
statements about homogeneous products, and scan whole catalogs for them.
"""

from importlib import import_module as _import_module

from .classalg import (
    ClassDecomposition,
    ConjugacyClass,
    ElementSet,
    QuotientMap,
    center,
    centralizer,
    centralizer_buckets,
    class_eta_matrix,
    class_id_array,
    class_product,
    commutator_set,
    conjugacy_class,
    conjugacy_classes,
    decompose,
    eta,
    eta_of_product,
    is_abelian,
    is_nilpotent,
    is_normal,
    is_prime_power,
    is_simple_nonabelian,
    is_subgroup,
    is_supersolvable,
    minimal_normal_subgroups,
    normal_closure,
    normal_subgroups,
    quotient,
    set_product,
    subgroup_generated,
)
from .constructions import (
    GroupSpec,
    alternating,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    es_power,
    extraspecial_p3,
    odd_eta1_witness,
    quaternion8,
    symmetric,
)
from .errors import (
    ClassprodError,
    EvenN,
    GroupMismatch,
    HypothesisViolated,
    InternalContradiction,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotInvariant,
    NotNormal,
    NotOddPrime,
    OrderExceeded,
    TrivialGroup,
)
from .group import (
    DEFAULT_MAX_ORDER,
    Element,
    FiniteGroup,
    cayley_rows,
    close_from_generators,
    commutator,
    conjugate,
    element_order,
    from_cayley_table,
    inv,
    load_cayley,
    load_gens,
    max_order_cap,
    mul,
    save_cayley,
)
from .perm import Permutation
# The scan and the checkers load on first use of one of their names, so a verb
# that runs neither does not compile them (PEP 562).
_LAZY = {
    **dict.fromkeys(
        ("BUILTIN_SPECS", "Catalog", "CatalogEntry", "ScanRow", "ingest", "open_question_scan",
         "scan_group", "scan_homogeneous", "summarize", "write_jsonl"),
        "scan",
    ),
    **dict.fromkeys(
        ("STATEMENT_IDS", "VerifierReport", "check_all", "check_center_intersection",
         "check_direct_product_eta", "check_nilpotent_odd", "check_product_formula",
         "check_quotient_eta", "check_size2", "check_subgroup_implies_normal",
         "check_supersolvable_pow2", "check_theorem_a", "check_theorem_b",
         "equal_centralizer_pairs", "run_statement"),
        "verify",
    ),
}
# `from classprod import *` reads only __all__, never __getattr__.
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAZY, "scan", "verify"]


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:  # also how `from classprod import scan` reaches the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
