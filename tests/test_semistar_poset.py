"""The factorized ``semistar_poset`` against the order as first defined.

The reference below builds the ordered set the direct way: every element
of every support, sorted by (support, map images), and every pair compared,
with ``a <= b`` exactly when the support of ``a`` contains that of ``b`` and
every branch map of ``b`` lies pointwise above the one of ``a``.  The
factorized build must give the same elements in the same order, the same
up-sets and down-sets and the same ring-closing flags.
"""

import copy
import pickle
import random
from array import array
from collections import Counter
from itertools import product as cartesian

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import final_example, h_local, random_tree
from test_acceptance import _oracle_lattice
from test_differential import ORACLE_SHAPES
from test_memo import run_workload
from semistar import (
    EnumerationLimitError,
    Limits,
    Poset,
    _memo,
    clear_caches,
    count_semistar,
    engine,
    fstar_poset,
    semistar_polynomial,
    semistar_poset,
)
from semistar.engine import DEFAULT_LIMITS, FlaggedPoset, SemistarElement
from semistar.posets import _closure, _CoverPoset, enum_hom
from semistar.spectrum import (
    branch_subtree,
    enumerate_supports,
    pair_table,
    support_table,
    validate_tree,
)

#: the oracle-lattice trees whose ordered sets the acceptance test builds
LATTICE_MAX_POSET = 250


def _branch_fstars(t, limits):
    """The branch posets from the public entry point, one branch tree per root child."""
    return [fstar_poset(branch_subtree(t, c), limits) for c in t.children(t.root_id)]


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


def _masks_held(p):
    """Whether ``p`` holds its up-masks, without closing a poset kept as covers."""
    try:
        object.__getattribute__(p, "_up")
    except AttributeError:
        return False
    return True


def _assert_closes_on_demand(sp):
    """The kept covers, closed when first read, against ``_closure`` and the covers of the masks."""
    los, his = sp.poset._covers
    assert list(los) == sorted(los) and list(zip(los, his)) == sorted(zip(los, his))
    above = [[] for _ in range(sp.size)]
    for lo, hi in zip(los, his):
        above[lo].append(hi)
    up, down = _closure(above)
    assert not _masks_held(sp.poset)  # nothing so far has read the order
    assert [sp.poset.up_mask(i) for i in range(sp.size)] == up
    assert [sp.poset.down_mask(i) for i in range(sp.size)] == down
    assert hash(sp.poset) == hash(tuple(up))
    assert sp.poset.covers() == Poset._unchecked(up, down).covers()


def _block_labels(sp):
    """The label of every element: its block's label, repeated."""
    ends = (*sp.offsets[1:], sp.size)
    return [label for label, a, b in zip(sp.block_labels, sp.offsets, ends) for _ in range(a, b)]


def _assert_matches_reference(t, limits=DEFAULT_LIMITS):
    clear_caches()
    sp = semistar_poset(t, limits)
    _assert_closes_on_demand(sp)
    poset, elements, flags = _pairwise_semistar_poset(t, limits)
    assert sp.poset == poset  # the up-masks
    assert [sp.poset.down_mask(i) for i in range(sp.size)] == [
        poset.down_mask(i) for i in range(poset.size)
    ]
    assert list(sp.elements) == elements
    assert sp.ring_closing == flags
    assert sp.poset.covers() == poset.covers()  # handed over, against the reduction
    assert _block_labels(sp) == [e.support.label(sp.branch_ids) for e in elements]


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


@pytest.mark.slow
def test_four_flat_leaves_of_weight_one_close_to_their_covers():
    t = h_local([1, 1, 1, 1])
    clear_caches()
    sp = semistar_poset(t, Limits(max_poset=3000))
    assert sp.size == 2480
    _assert_closes_on_demand(sp)


@pytest.mark.slow
def test_matches_pairwise_order_on_four_flat_leaves_of_weight_one():
    # one flagged point per branch: the set is the order of the 2 480 supports
    t = h_local([1, 1, 1, 1])
    limits = Limits(max_poset=3000)
    assert semistar_poset(t, limits).size == 2480
    _assert_matches_reference(t, limits)


def test_matches_pairwise_order_on_the_readme_tree():
    # the largest ordered set of the hasse benchmark: branch relations
    # between lists of hundreds of maps, which the oracle lattice never reaches
    t = final_example(2, 2, 2, (3, 1), (2, 1))
    assert semistar_poset(t).size == 1162
    _assert_matches_reference(t)


def test_hasse_sets_of_seeds_one_to_three_against_their_elements():
    # covers against the closure, flags and labels against the decoded elements
    from test_memo import _workload

    trees = [nodes for seed in (1, 2, 3) for nodes in _workload("hasse", seed).trees.values()]
    assert len(trees) == 15
    for nodes in trees:
        t = validate_tree({"nodes": nodes})
        clear_caches()
        sp = semistar_poset(t)
        dot, payload = sp.flagged.to_dot(), sp.flagged.to_json_dict()
        assert not _masks_held(sp.poset)  # exports read the covers alone
        assert payload["covers"] == [list(c) for c in sp.poset.covers()]
        assert dot.count("->") == len(payload["covers"])
        _assert_closes_on_demand(sp)
        fstars = _branch_fstars(t, DEFAULT_LIMITS)
        elements = sp.elements
        assert len(elements) == sp.size == count_semistar(t)
        assert sp.ring_closing == {
            k for k, e in enumerate(elements)
            if e.support.contains_domain()
            and all(g.image[0] in f.ring_closing for g, f in zip(e.maps, fstars))
        }
        assert _block_labels(sp) == [e.support.label(sp.branch_ids) for e in elements]
        bottom = sp.poset.unique_min()  # from the covers, against the masks
        assert bottom == Poset._unchecked(sp.poset.up_mask(i) for i in range(sp.size)).unique_min()
        assert elements[bottom].support.masks == frozenset(range(1 << len(sp.branch_ids)))
        assert sp.poset.unique_max() == 0 and elements[0].support.masks == frozenset({0})


def test_a_poset_kept_as_covers_checks_its_flags_as_strictly_as_one_of_masks():
    # 0 < 2 > 1 has two minima; in the chain 0 < 1 < 2, {0, 2} is no down-set
    for los, his, flags, message in [
        ([0, 1], [2, 2], {0, 1}, "unique minimum"),
        ([0, 1], [1, 2], {1}, "minimum must be ring-closing"),
        ([0, 1], [1, 2], {0, 2}, "down-set"),
        ([0, 1], [1, 2], {0, 3}, "out of range"),
    ]:
        kept = _CoverPoset(3, array("I", los), array("I", his))
        masked = Poset.from_covers(3, zip(los, his))
        for poset in (kept, masked):
            with pytest.raises(ValueError, match=message):
                FlaggedPoset(poset, frozenset(flags))
        assert not _masks_held(kept)
    kept = _CoverPoset(3, array("I", [0, 0]), array("I", [1, 2]))
    assert FlaggedPoset(kept, frozenset({0, 1})).poset.unique_min() == 0
    assert not _masks_held(kept)
    assert kept == Poset.from_covers(3, [(0, 1), (0, 2)]) and _masks_held(kept)


def test_values_copy_and_pickle_as_equal_values():
    t = final_example(2, 1)
    sp = semistar_poset(t)
    fstar = fstar_poset(branch_subtree(t, "P"))  # a poset of masks, flagged
    values = [t, sp, sp.flagged, sp.poset, fstar, fstar.poset, semistar_polynomial(t, ["P", "N"])]
    copies = (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)))
    for value in values:
        for make in copies:
            twin = make(value)
            assert type(twin) is type(value) and twin == value
    # a set kept as covers travels as its covers: neither it nor its copy is closed
    for make in copies:
        kept = _CoverPoset(sp.size, *sp.poset._covers)
        twin = make(kept)
        assert not _masks_held(kept) and not _masks_held(twin)
        assert twin.covers() == kept.covers() and twin == kept


def test_pair_table_is_the_brute_force_filter_in_its_order():
    for m, count in enumerate((0, 1, 9, 151, 10825)):
        table, supports = pair_table(m), enumerate_supports(m)
        assert table.families == tuple(sum(1 << s for s in support.masks) for support in supports)
        assert table.shapes is support_table(m).shapes  # one shape numbering per m
        by_size = {}
        for i, small in enumerate(supports):
            by_size.setdefault(len(small.masks), []).append(i)
        covering = [  # nested and one mask apart, in the order of the supports
            (j, i)
            for j, big in enumerate(supports)
            for i in by_size.get(len(big.masks) - 1, ())
            if supports[i].masks <= big.masks
        ]
        assert list(zip(table.big, table.small)) == covering and len(covering) == count
        if m == 4:
            continue  # the columns are checked up to three branches
        for b, column in enumerate(table.columns):
            assert [table.shapes[k] for k in column] == [s.component_poset(b)[0] for s in supports]
            assert set(column) == set(range(len(table.shapes)))
        for b, column in enumerate(table.pair_columns):
            assert len(column) == count and set(column) == set(range(len(table.pairs)))
            for (j, i), k in zip(covering, column):
                outer, inner, at = table.pairs[k]
                assert outer == supports[j].component_poset(b)[0]
                assert inner == supports[i].component_poset(b)[0]
                assert [supports[j].component(b)[p] for p in at] == list(supports[i].component(b))


def _pointwise_leq(f, g, target):
    return all(target.leq(p, q) for p, q in zip(f.image, g.image))


def test_each_map_factor_is_computed_once_per_shape(tmp_path, monkeypatch):
    calls = {"engine._map_covers": Counter(), "engine._restrictions": Counter()}
    for name, counter in calls.items():
        entry = _memo._MEMOS[name]

        def counted(*args, real=entry.func, counter=counter):
            counter[args] += 1
            return real(*args)

        monkeypatch.setattr(entry, "func", counted)
    clear_caches()
    run_workload(tmp_path, "hasse")
    monkeypatch.undo()
    clear_caches()
    assert all(counter and max(counter.values()) == 1 for counter in calls.values())
    # each against the pointwise order of the map lists, compared pair by pair
    for component, target, max_maps in calls["engine._map_covers"]:
        maps = engine._maps(component, target, max_maps)
        pairs = [
            (i, j)
            for i, f in enumerate(maps)
            for j, g in enumerate(maps)
            if f is None or _pointwise_leq(f, g, target)
        ]
        covers = engine._map_covers(component, target, max_maps)
        assert [(lo, hi) for lo, hi, _ in covers] == Poset.from_relation(len(maps), pairs).covers()
        for lo, hi, x in covers:
            moved = [k for k, (p, q) in enumerate(zip(maps[lo].image, maps[hi].image)) if p != q]
            assert moved == [x]
    for target, outer, inner, at, max_maps in calls["engine._restrictions"]:
        rows, cols = (engine._maps(c, target, max_maps) for c in (outer, inner))
        images = [() if g is None else g.image for g in cols]
        restricted = [tuple(f.image[p] for p in at) for f in rows]
        expected = []
        for r, f in enumerate(rows):
            fibre = [g for g, key in zip(rows, restricted) if key == restricted[r]]
            if not any(g is not f and _pointwise_leq(f, g, target) for g in fibre):
                expected.append((r, images.index(restricted[r])))
        assert engine._restrictions(target, outer, inner, at, max_maps) == tuple(expected)
