"""No group outlives its last reference.

A group's caches hold only ints, bools, numpy arrays and containers of
those, never an object that points back at a group, so dropping a group
frees it by reference counting alone. The tests count FiniteGroup objects
with the cyclic collector switched off; FiniteGroup has __slots__ and no
__weakref__, so weak references cannot do the count.
"""

import gc

import numpy as np
import pytest

from classprod import (
    FiniteGroup,
    build_group,
    check_all,
    conjugacy_classes,
    cyclic,
    direct_product,
    minimal_normal_subgroups,
    normal_subgroups,
    save_cayley,
    scan_group,
    symmetric,
)
from classprod import classalg, verify


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def alive(pred=lambda g: True):
    return sum(1 for o in gc.get_objects() if isinstance(o, FiniteGroup) and pred(o))


def plain(value):
    """Whether a cache value is an int, bool or numpy array, or a container of those;
    None stands for a kernel row not yet built."""
    if isinstance(value, (bool, int, np.bool_, np.integer, np.ndarray)):
        return not isinstance(value, np.ndarray) or value.dtype != object
    if isinstance(value, (tuple, list)):
        return all(plain(v) for v in value)
    if isinstance(value, dict):
        return all(plain(k) and plain(v) for k, v in value.items())
    return value is None


def permutation_closure(tmp_path):
    return symmetric(4)


def cayley_file(tmp_path):
    path = str(tmp_path / "s4.cayley")
    save_cayley(symmetric(4), path)
    return build_group(f"file:{path}")


def product(tmp_path):
    return direct_product(symmetric(3), cyclic(3))


def quotient_group(tmp_path):
    g = symmetric(4)
    return classalg.quotient(g, minimal_normal_subgroups(g)[0]).quotient


@pytest.mark.parametrize("use", [conjugacy_classes, check_all, scan_group, normal_subgroups],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("make", [permutation_closure, cayley_file, product, quotient_group],
                         ids=lambda f: f.__name__)
def test_a_dropped_group_leaves_no_group_behind(make, use, tmp_path, no_cyclic_gc):
    before = alive()
    g = make(tmp_path)
    use(g)
    not_plain = sorted(k for k, v in g._cache.items() if not plain(v))
    del g
    assert alive() == before
    assert not_plain == []


def test_one_quotient_alive_at_a_time(monkeypatch, no_cyclic_gc):
    g = build_group("prod(dihedral:4,dihedral:4)")
    build = classalg._coset_group  # what quotient() and the checkers' quotients are built by
    seen = []

    def counting(group, n, named=False):
        seen.append(alive(lambda h: "/N" in h.group_id))
        return build(group, n, named)

    monkeypatch.setattr(classalg, "_coset_group", counting)
    before = alive(lambda h: "/N" in h.group_id)
    verify.run_statement(g, "quotient-monotonicity")
    assert len(seen) > 1
    assert seen == [before] * len(seen)
    assert alive(lambda h: "/N" in h.group_id) == before
