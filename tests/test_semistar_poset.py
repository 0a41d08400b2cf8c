"""The factorized ``semistar_poset`` against the order as first defined.

The reference below builds the ordered set the direct way: every element
of every support, sorted by (support, map images), and every pair compared,
with ``a <= b`` exactly when the support of ``a`` contains that of ``b`` and
every branch map of ``b`` lies pointwise above the one of ``a``.  The
factorized build must give the same elements in the same order, the same
up-sets and down-sets and the same ring-closing flags.
"""

import random
from itertools import product as cartesian

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import final_example, h_local, random_tree
from test_acceptance import _oracle_lattice
from test_differential import ORACLE_SHAPES
from semistar import EnumerationLimitError, Limits, Poset, count_semistar, semistar_poset
from semistar.engine import DEFAULT_LIMITS, SemistarElement, _branch_fstars
from semistar.posets import enum_hom
from semistar.spectrum import enumerate_supports

#: the oracle-lattice trees whose ordered sets the acceptance test builds
LATTICE_MAX_POSET = 250


def _pairwise_semistar_poset(t, limits):
    """(poset, elements, ring-closing flags) by comparing every pair."""
    fstars = _branch_fstars(t, limits)
    m = len(fstars)
    elements, lookups = [], []
    for support in enumerate_supports(m, max_branches=limits.max_branches):
        map_lists = []
        for i, fstar in enumerate(fstars):
            poset, _ = support.component_poset(i)
            map_lists.append(enum_hom(poset, fstar.poset) if poset.size else [None])
        for maps in cartesian(*map_lists):
            elements.append(SemistarElement(support, maps))
            lookups.append([
                None if g is None else dict(zip(support.component(i), g.image))
                for i, g in enumerate(maps)
            ])
    order = sorted(
        range(len(elements)),
        key=lambda k: (
            elements[k].support.sort_key(),
            tuple(() if g is None else g.image for g in elements[k].maps),
        ),
    )
    elements = [elements[k] for k in order]
    lookups = [lookups[k] for k in order]

    pairs = []
    ups = [[fstar.poset.up_mask(q) for q in range(fstar.size)] for fstar in fstars]
    inside = {}  # support -> the elements whose support it contains
    for a, ea in enumerate(elements):
        if ea.support not in inside:
            inside[ea.support] = [
                b for b, eb in enumerate(elements) if ea.support.masks >= eb.support.masks
            ]
        for b in inside[ea.support]:
            ok = True
            for i, look_b in enumerate(lookups[b]):
                if look_b is None:
                    continue
                look_a, up = lookups[a][i], ups[i]
                for mask, q in look_b.items():
                    if not up[look_a[mask]] >> q & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                pairs.append((a, b))
    poset = Poset.from_relation(len(elements), pairs)
    flags = {
        k
        for k, e in enumerate(elements)
        if e.support.contains_domain()
        and all(
            lookups[k][i][e.support.full_mask] in fstars[i].ring_closing for i in range(m)
        )
    }
    return poset, elements, flags


def _assert_matches_reference(t, limits=DEFAULT_LIMITS):
    sp = semistar_poset(t, limits)
    poset, elements, flags = _pairwise_semistar_poset(t, limits)
    assert sp.poset == poset  # the up-masks
    assert [sp.poset.down_mask(i) for i in range(sp.size)] == [
        poset.down_mask(i) for i in range(poset.size)
    ]
    assert list(sp.elements) == elements
    assert sp.ring_closing == flags


def test_matches_pairwise_order_on_the_oracle_lattice():
    built = 0
    for t in _oracle_lattice():
        if count_semistar(t) <= LATTICE_MAX_POSET:
            _assert_matches_reference(t)
            built += 1
    assert built == 274


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_matches_pairwise_order_on_random_trees(seed):
    t = random_tree(random.Random(seed), shapes=ORACLE_SHAPES)
    try:
        semistar_poset(t)
    except EnumerationLimitError:
        reject()
    _assert_matches_reference(t)


def test_matches_pairwise_order_on_flat_three_branches_weight_two():
    t = h_local([2, 2, 2], [1, 2, 2])
    limits = Limits(max_poset=3000)
    assert semistar_poset(t, limits).size == 2921
    _assert_matches_reference(t, limits)


def test_matches_pairwise_order_on_the_readme_tree():
    # the largest ordered set of the hasse benchmark: branch relations
    # between lists of hundreds of maps, which the oracle lattice never reaches
    t = final_example(2, 2, 2, (3, 1), (2, 1))
    assert semistar_poset(t).size == 1162
    _assert_matches_reference(t)
