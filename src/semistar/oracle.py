"""Brute-force reference counts, kept independent of the fast engine.

Nothing here imports from :mod:`semistar.engine`, and no map counting is
shared with the dynamic programs in :mod:`semistar.posets`: supports are
found by filtering every candidate family, order-preserving maps by checking
every function, and the final counts by walking every tuple of maps.  Slow on
purpose; the value of this module is that it can only be wrong by being
wrong about the definitions.
"""

from __future__ import annotations

from itertools import product as cartesian

from ._memo import CACHE_ENTRIES, memo
from .errors import EnumerationLimitError
from .posets import Poset, chain, ordinal_sum, subposet
from .spectrum import (
    SpectrumTree,
    branch_subtree,
    quotient_subtree,
    standard_decomposition,
)

MAX_BRANCHES = 3
MAX_OMEGA = 4
MAX_FUNCTIONS = 10_000_000


def brute_count_hom(p: Poset, q: Poset, *, limit: int = MAX_FUNCTIONS) -> int:
    """Count order-preserving maps by trying every assignment in index order."""
    if p.size and q.size == 0:
        return 0
    if q.size ** p.size > limit:
        raise EnumerationLimitError(f"{q.size}^{p.size} functions exceed the limit")
    image = [0] * p.size

    def extend(k: int) -> int:
        if k == p.size:
            return 1
        total = 0
        for value in range(q.size):
            ok = True
            for j in range(k):
                if p.leq(j, k) and not q.leq(image[j], value):
                    ok = False
                    break
                if p.leq(k, j) and not q.leq(value, image[j]):
                    ok = False
                    break
            if ok:
                image[k] = value
                total += extend(k + 1)
        return total

    return extend(0)


def _brute_enum_maps(masks: tuple[int, ...], q: Poset) -> list[dict[int, int]]:
    """Every order-preserving map from a family of skeleton masks into q.

    Masks are ordered by reverse inclusion (bigger mask = smaller ring =
    lower element); candidates are filtered with a full pairwise check.
    """
    constraints = [
        (i, j)
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if i != j and a & b == b
    ]
    out = []
    for values in cartesian(range(q.size), repeat=len(masks)):
        if all(q.leq(values[i], values[j]) for i, j in constraints):
            out.append(dict(zip(masks, values)))
    return out


def _brute_support_families(m: int) -> list[frozenset[int]]:
    """All union-closed mask families containing the empty mask, by filtering."""
    nonempty = list(range(1, 1 << m))
    families = []
    for bits in range(1 << len(nonempty)):
        chosen = [s for k, s in enumerate(nonempty) if (bits >> k) & 1]
        if all((a | b) in chosen or (a | b) == 0 for a in chosen for b in chosen):
            families.append(frozenset(chosen) | {0})
    families.sort(key=lambda f: (len(f), tuple(sorted(f))))
    return families


def brute_supports(m: int, *, max_branches: int = MAX_BRANCHES) -> int:
    """Number of supports on m branches, from the filter-everything search."""
    if m > max_branches:
        raise EnumerationLimitError(f"brute support search limited to {max_branches} branches")
    return len(_brute_support_families(m))


def _component(family: frozenset[int], branch: int) -> tuple[int, ...]:
    return tuple(
        sorted((s for s in family if (s >> branch) & 1), key=lambda s: (-s.bit_count(), s))
    )


def _check_tree_bounds(t: SpectrumTree):
    big = [n.id for n in t.nodes if n.parent is not None and n.omega > MAX_OMEGA]
    if big:
        raise EnumerationLimitError(f"brute search limited to omega <= {MAX_OMEGA}: {big}")
    if len(standard_decomposition(t)) > MAX_BRANCHES:
        raise EnumerationLimitError(f"brute search limited to {MAX_BRANCHES} branches")


@memo(CACHE_ENTRIES)
def _brute_semistar_poset(t: SpectrumTree):
    """(poset, flag set) of all semistar operations, everything enumerated.

    Elements are pairs (family, one map-dict per met branch); the order
    reverses family inclusion and compares shared maps pointwise; the flags
    are the elements whose family holds the full mask and whose maps all
    send it to a starred target element.
    """
    if len(t.nodes) == 1:
        return chain(1), frozenset({0})
    branch_ids = standard_decomposition(t)
    m = len(branch_ids)
    full = (1 << m) - 1
    fstars = [_brute_fstar(branch_subtree(t, c)) for c in branch_ids]

    elements = []
    for family in _brute_support_families(m):
        map_lists = []
        for i, (fposet, _) in enumerate(fstars):
            masks = _component(family, i)
            map_lists.append(_brute_enum_maps(masks, fposet) if masks else [None])
        for combo in cartesian(*map_lists):
            elements.append((family, combo))

    def below(e1, e2) -> bool:
        fam1, maps1 = e1
        fam2, maps2 = e2
        if not fam1 >= fam2:
            return False
        for i in range(m):
            if maps2[i] is None:
                continue
            fposet = fstars[i][0]
            for mask, q2 in maps2[i].items():
                if not fposet.leq(maps1[i][mask], q2):
                    return False
        return True

    pairs = [
        (a, b)
        for a, e1 in enumerate(elements)
        for b, e2 in enumerate(elements)
        if below(e1, e2)
    ]
    poset = Poset.from_relation(len(elements), pairs)
    flags = frozenset(
        k
        for k, (family, combo) in enumerate(elements)
        if full in family
        and all(combo[i][full] in fstars[i][1] for i in range(m))
    )
    return poset, flags


@memo(CACHE_ENTRIES)
def _brute_fstar(branch: SpectrumTree):
    """(poset, flag set) of the fractional-star operations of one branch."""
    (child,) = standard_decomposition(branch)
    omega = branch.omega(child)
    if branch.is_leaf(child):
        return chain(omega), frozenset(range(branch.epsilon(child)))
    sub_poset, sub_flags = _brute_semistar_poset(quotient_subtree(branch, child))
    top = sub_poset.unique_max()
    if top is None or top in sub_flags:
        raise AssertionError("quotient semistar poset lost its all-to-field maximum")
    keep = [i for i in range(sub_poset.size) if i != top]
    flags = frozenset(keep.index(i) for i in sub_flags)
    return ordinal_sum(subposet(sub_poset, keep), chain(omega)), flags


def brute_semistar_count(t: SpectrumTree) -> tuple[int, int]:
    """(semistar count, domain-closing count) from brute map enumeration.

    Per support, the maps of each met branch are enumerated explicitly; the
    operations with that support are the tuples of such maps, so their
    number is the product of the list lengths, and the domain-closing ones
    are found by walking every tuple and testing the image of the domain.
    """
    if len(t.nodes) == 1:
        return 1, 1
    _check_tree_bounds(t)
    branch_ids = standard_decomposition(t)
    m = len(branch_ids)
    full = (1 << m) - 1
    fstars = [_brute_fstar(branch_subtree(t, c)) for c in branch_ids]

    total = 0
    closing = 0
    map_cache: dict[tuple[tuple[int, ...], int], list[dict[int, int]]] = {}
    for family in _brute_support_families(m):
        has_domain = full in family
        count = 1
        starred_lists = []
        for i, (fposet, fflags) in enumerate(fstars):
            masks = _component(family, i)
            if not masks:
                continue
            key = (masks, i)
            maps = map_cache.get(key)
            if maps is None:
                maps = _brute_enum_maps(masks, fposet)
                map_cache[key] = maps
            count *= len(maps)
            if has_domain:
                starred_lists.append([mp[full] in fflags for mp in maps])
        total += count
        if has_domain:
            closing += sum(map(all, cartesian(*starred_lists)))
    return total, closing
