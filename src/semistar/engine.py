"""Ordered sets and counts of closure operations from a labeled spectral tree.

Everything is assembled branch by branch.  A branch (a child ``c`` of the
root) is a record ``(base, flags, omega)``: its fractional-star operations
are ``base`` with a chain of length ``omega(c)`` stacked above, ``flags``
the ring-closing ones.  For a leaf the base is empty and the flags are the
bottom ``epsilon(c)`` chain elements.  Otherwise the base is the semistar
poset of the quotient tree (re-rooted at ``c``) minus its top, and the
flags are the quotient's ring-closing operations; their numbers come from
counting the quotient, and the base is built only when a count needs it.

The semistar operations are classified by their support, a union-closed
family of skeleton masks containing the quotient-field mask.  Those with a
fixed support are the tuples of order-preserving maps, one per branch met,
from the support component into that branch's fractional-star poset, and
comparison across supports reverses the support inclusion.  An operation
closes the domain when its support contains the domain and every branch
map sends the domain to a ring-closing element.

A count is a sum over supports of products of per-branch factors: the maps
of a component ``C`` into base plus an ``n``-chain split at the chain, into
the sum over down-sets ``D`` of ``|hom(D, base)|`` times Stanley's order
polynomial of ``C - D`` at ``n``.  Each factor is kept as integers ``e_k``
in the binomial basis, ``sum(e_k * C(n, k))``; the weight chain is never
built.  Counts and polynomials are one sum (:func:`_binomial_sum`): a
branch at its label is folded in as integers, a branch with a symbolic
weight or epsilon (affine, see :func:`smstar_polynomial`) is kept in the
binomial basis, and a count is the sum with none kept, its constant term
(:func:`_support_sum`).  The sum runs over one shape table per branch
count (``spectrum.support_table``: 2 480 supports but 38 shapes at four
branches, read from the support bitsets with no ``Support`` built), each
branch's factor taken once per shape and memoized on its record
(:class:`_Record`).  The tests check the counts against element
enumeration (``semistar_element_counts``), materialization
(``semistar_poset``), the brute-force oracle and interpolation.

The ordered set keeps the same product structure and is built from its
covers.  The operations of one support form a block, the product of the
branch map lists: inside it one branch map moves along a cover of its list's
pointwise order.  Across blocks ``(S, f)`` lies below its restriction ``(T,
f|T)`` to any smaller support, so it is covered in ``T`` only when ``S`` has
one mask more (``spectrum.pair_table``: 151 such pairs at three branches),
only by ``f|T``, and only if each branch map of ``f`` is maximal among those
with its restriction.  No two operations are compared: the covers, sorted
once, are the stored form of the set, closed into up- and down-masks only
when the order is read (a count's base reads it, ``hasse`` does not).  A
map list's covers and maximal maps depend only on the branch poset, the
shapes and how one sits in the other, so builds share them.  The pair
table holds the support bitsets in canonical order with the support
table's shapes, so counts and the ordered set number the shapes alike.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import product as cartesian
from math import prod
from operator import sub
from typing import Mapping, Sequence

from ._memo import (
    CACHE_ENTRIES,
    MAP_ENTRIES,
    POLY_ENTRIES,
    POSET_ENTRIES,
    SHAPE_ENTRIES,
    memo,
)
from .errors import EnumerationLimitError
from .polynomials import MultiPoly, binomial_value
from .posets import (
    DEFAULT_MAX_MAPS,
    OrderMap,
    Poset,
    chain,
    enum_hom,
    hom_coefficients,
    ordinal_sum,
    product,
    subposet,
    _CoverPoset,
    _iter_bits,
)
from .spectrum import (
    DEFAULT_MAX_BRANCHES,
    SpectrumTree,
    Support,
    enumerate_supports,
    pair_table,
    standard_decomposition,
    support_table,
    _family_label,
)


@dataclass(frozen=True)
class Limits:
    """Size guards; exceeding any of them raises, nothing is truncated."""

    max_branches: int = DEFAULT_MAX_BRANCHES
    max_maps: int = DEFAULT_MAX_MAPS
    max_poset: int = 2000


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class FlaggedPoset:
    """A poset with a marked down-set of ring-closing elements.

    The minimum (the identity operation) always closes the ring, and the
    marked set is closed downwards; both are checked on the covers if kept.
    """

    poset: Poset
    ring_closing: frozenset[int]

    def __post_init__(self):
        bottom = self.poset.unique_min()
        if bottom is None:
            raise ValueError("a flagged poset needs a unique minimum (the identity)")
        if bottom not in self.ring_closing:
            raise ValueError("the minimum must be ring-closing")
        for i in self.ring_closing:
            if not 0 <= i < self.poset.size:
                raise ValueError(f"flag {i} out of range")
        if not self.poset.is_down_set(self.ring_closing):
            raise ValueError("ring-closing elements must form a down-set")

    @property
    def size(self) -> int:
        return self.poset.size

    def to_dot(self, labels: Sequence[str] | None = None) -> str:
        """Hasse diagram with the ring-closing elements double-bordered."""
        return self.poset.to_dot(labels=labels, flagged=self.ring_closing)

    def to_json_dict(self) -> dict:
        payload = self.poset.to_json_dict()
        payload["ring_closing"] = sorted(self.ring_closing)
        return payload

    def write_dot(self, out, labels=None):
        """:meth:`to_dot` on the text stream ``out``, ``labels`` as runs ``(label, count)``."""
        self.poset.write_dot(out, labels, self.ring_closing)

    def write_json(self, out, labels=None):
        """:meth:`to_json_dict`, with ``"labels"`` from the runs if given, as JSON on ``out``."""
        self.poset.write_json(out, labels, self.ring_closing)


@dataclass(frozen=True)
class SemistarElement:
    """One semistar operation: a support plus one branch map per met branch.

    ``maps`` follows the branch order, ``None`` where the support component
    is empty: the support of the quotient field alone has no maps at all.
    """

    support: Support
    maps: tuple[OrderMap | None, ...]


@dataclass(frozen=True)
class SemistarPoset:
    """The full ordered set of semistar operations, one block of elements per support.

    The elements of one support come in a block; ``offsets`` holds the index
    of the first element of each block, ``families`` its support as a
    bitset over the skeleton masks, and ``block_maps`` its map list per
    branch, in the order of the elements.  An element is decoded from these
    only when it is read (:attr:`elements`); the block labels are made when
    first read and memoized (:attr:`block_labels`), as no count reads them.
    """

    flagged: FlaggedPoset
    branch_ids: tuple[str, ...]
    offsets: tuple[int, ...]
    families: tuple[int, ...]
    block_maps: tuple[tuple[tuple[OrderMap | None, ...], ...], ...]

    @property
    def block_labels(self) -> tuple[str, ...]:
        """The label of each block's support."""
        return _block_labels(self.families, self.branch_ids)

    @property
    def label_runs(self) -> tuple[tuple[str, int], ...]:
        """Each block's label with its number of elements, as the exports take them."""
        return tuple(zip(self.block_labels, map(sub, (*self.offsets[1:], self.size), self.offsets)))

    @property
    def elements(self) -> tuple[SemistarElement, ...]:
        """Every element, decoded from the blocks on each read (no build reads them)."""
        supports = [Support(len(self.branch_ids), frozenset(_iter_bits(f))) for f in self.families]
        pairs = zip(supports, self.block_maps)
        return tuple(SemistarElement(s, row) for s, maps in pairs for row in cartesian(*maps))

    @property
    def poset(self) -> Poset:
        return self.flagged.poset

    @property
    def ring_closing(self) -> frozenset[int]:
        return self.flagged.ring_closing

    @property
    def size(self) -> int:
        return self.flagged.poset.size


@memo(POSET_ENTRIES)
def _block_labels(families: tuple[int, ...], branch_ids: tuple[str, ...]) -> tuple[str, ...]:
    """The label of each support in ``families``; sets with the same supports share them."""
    return tuple(_family_label(family, branch_ids) for family in families)


def _check_size(size: int, limits: Limits, what: str = "semistar poset"):
    """The one guard on materialized posets, checked before anything is built."""
    if size > limits.max_poset:
        raise EnumerationLimitError(
            f"{what} would hold {size} elements, limit is {limits.max_poset}"
        )


class _Record:
    """What a branch's factors and base read: its node (``None`` for a leaf) and its quotient.

    The quotient's branches are the ``(id, omega, record)`` triples of the
    node's children; its counts size the base and flags (a leaf has no base
    and ``epsilon`` flags).  Records hash by identity; the memos of what
    does not depend on the weight are keyed by them.
    """

    __slots__ = ("node", "children", "base_size", "flag_count")

    def __init__(self, node: str | None, children: tuple, epsilon: int | None, limits: Limits):
        self.node, self.children = node, children
        if node is None:
            self.base_size, self.flag_count = 0, epsilon
        else:
            self.base_size = _support_sum(children, False, limits) - 1
            self.flag_count = _support_sum(children, True, limits)


@memo(CACHE_ENTRIES)
def _record(node: str | None, children: tuple, epsilon: int | None, limits: Limits) -> _Record:
    """The one record of equal subtrees; a leaf's key drops its id, so one per epsilon."""
    return _Record(node, children, epsilon, limits)


@memo(CACHE_ENTRIES)
def _branches(t: SpectrumTree, limits: Limits) -> tuple[tuple[str, int, _Record], ...]:
    """One ``(id, omega, record)`` triple per root child, in branch order."""
    return tuple(_triple(t, child, {}, limits) for child in t.children(t.root_id))


def _triple(t: SpectrumTree, top: str, epsilon: Mapping[str, int], limits: Limits):
    """The ``(id, omega, record)`` triple of node ``top``, its leaves in ``epsilon`` at that label.

    Every record of the subtree is made in one pass, children before their
    parents (breadth-first order, reversed), each from its children's
    triples: no quotient is copied, and no call nests deeper with the tree.
    """
    order = [top]
    for node_id in order:  # grows as it is read: breadth-first
        order.extend(t.children(node_id))
    triples = {}
    for node_id in reversed(order):
        node, children = t.node(node_id), tuple(triples[c] for c in t.children(node_id))
        label = epsilon.get(node_id, node.epsilon)
        record = _record(node_id if children else None, children, label, limits)
        triples[node_id] = (node_id, node.omega, record)
    return triples[top]


def _single_branch(branch: SpectrumTree, limits: Limits) -> tuple[str, int, _Record]:
    if len(standard_decomposition(branch)) != 1:
        raise ValueError("fractional-star posets are built per branch (one root child)")
    return _branches(branch, limits)[0]


@memo(POSET_ENTRIES)
def _base(record: _Record, limits: Limits) -> tuple[Poset, frozenset[int]]:
    """The base poset and its flags: the quotient's semistar poset minus its top."""
    if record.node is None:
        return Poset(()), frozenset(range(record.flag_count))
    _check_size(record.base_size + 1, limits, f"semistar poset of quotient {record.node!r}")
    sp = _semistar_poset(record.children, limits)
    # block 0 is the support {K} alone: element 0, the all-to-field operation, is the top
    assert sp.families[0] == 1 and sp.poset.unique_max() == 0 and 0 not in sp.ring_closing
    return subposet(sp.poset, range(1, sp.size)), frozenset(i - 1 for i in sp.ring_closing)


def fstar_poset(branch: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> FlaggedPoset:
    """Fractional-star operations of a single-branch tree, with star flags.

    The branch's base with a chain of length ``omega`` stacked above, as in
    the module docstring; the size is checked before any building.
    """
    return _fstar(_single_branch(branch, limits), limits)


@memo(POSET_ENTRIES)
def _fstar(branch: tuple[str, int, _Record], limits: Limits) -> FlaggedPoset:
    child, omega, record = branch
    _check_size(record.base_size + omega, limits, f"fractional-star poset of branch {child!r}")
    base, flags = _base(record, limits)
    return FlaggedPoset(ordinal_sum(base, chain(omega)), flags)


# -- counting ------------------------------------------------------------------


def _shifted(h: tuple[int, ...]) -> tuple[int, ...]:
    """``h(n - 1)`` in the basis C(n, k), by C(n - 1, k) = sum over j of (-1)^(k - j) C(n, j).

    Its coefficients satisfy ``f[j] = h[j] - f[j + 1]``, filled from the top.
    """
    out, f = [], 0
    for c in reversed(h):
        f = c - f
        out.append(f)
    return tuple(reversed(out))


def tildhom_count(
    component: Poset, d_index: int | None, branch: SpectrumTree, limits: Limits = DEFAULT_LIMITS
) -> tuple[int, ...]:
    """Maps of a support component into one branch, as a polynomial in its weight ``n``.

    Returned as integers ``e`` with the count ``sum(e[k] * C(n, k))``.  With
    no designated domain element this counts every order-preserving map into
    base plus an ``n``-chain (``(|base|, 1)`` for one point, no base built).
    Otherwise the domain, the component's minimum, goes to a starred element
    ``q`` and the rest into the up-set of ``q``: for an internal branch, a
    sum over the flags in the base of the maps into up-set plus chain; for a
    leaf, whose flags are the bottom ``epsilon`` chain elements,
    ``h(n) + (epsilon - 1) h(n - 1)``, ``h`` the order polynomial of the rest.
    """
    if d_index is not None and not 0 <= d_index < component.size:
        raise ValueError(f"domain index {d_index} out of range for {component.size} elements")
    return _tildhom(component, d_index, _single_branch(branch, limits)[2], limits)


def _tildhom(component: Poset, d_index: int | None, record: _Record, limits: Limits):
    """:func:`tildhom_count` of the branch with this record."""
    if d_index is None:
        if component.size == 1:
            return (record.base_size, 1)
        base, _ = _base(record, limits)
        return hom_coefficients(component, base, max_steps=limits.max_maps)
    if component.up_mask(d_index) != (1 << component.size) - 1:
        raise ValueError("the designated domain element must be the component minimum")
    rest = subposet(component, (i for i in range(component.size) if i != d_index))
    if record.node is None:
        h = hom_coefficients(rest, _base(record, limits)[0])
        return h if record.flag_count == 1 else tuple(a + b for a, b in zip(h, _shifted(h)))
    if not rest.size:
        return (record.flag_count,)
    base, flags = _base(record, limits)
    if rest.size == 1:  # one point maps to an up-set U or the chain: |U| + n
        return (sum(base.up_mask(q).bit_count() for q in flags), len(flags))
    total = [0] * (rest.size + 1)
    for q in sorted(flags):
        upper = subposet(base, _iter_bits(base.up_mask(q)))
        for k, c in enumerate(hom_coefficients(rest, upper, max_steps=limits.max_maps)):
            total[k] += c
    return tuple(total)


@memo(SHAPE_ENTRIES)
def _term(record: _Record, component: Poset, closing: bool, limits: Limits):
    """A branch's factor for one component shape, in C(n, k); ``(1,)`` if the support misses it.

    ``closing`` sends the component's element 0, its minimum, to a
    ring-closing element.  The factor does not depend on the weight, so it
    is keyed by the branch's record (:class:`_Record`): a leaf's factors
    are one set per epsilon.
    """
    if not component.size:
        return (1,)
    return _tildhom(component, 0 if closing else None, record, limits)


@memo(CACHE_ENTRIES)
def _support_sum(branches: tuple, closing: bool, limits: Limits) -> int:
    """The count: the constant term of :func:`_binomial_sum` with no branch symbolic.

    ``closing`` keeps the rows whose support contains the domain and sends
    the domain to ring-closing elements.  One integer per set of siblings.
    """
    return _binomial_sum(branches, closing, {}, limits)[()]


def count_semistar(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of semistar operations of a domain with this spectral tree.

    Sum over supports of the product, over branches met by the support, of
    the number of order-preserving maps of the support component into the
    branch's fractional-star poset.  The quotient-field-only support
    contributes the single all-to-field operation.
    """
    return _support_sum(_branches(t, limits), False, limits)


def count_fstar(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of fractional-star operations: the product of the branch sizes."""
    return prod(r.base_size + omega for _, omega, r in _branches(t, limits))


def count_smstar(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of semistar operations that close the domain itself."""
    return _support_sum(_branches(t, limits), True, limits)


def count_star(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of star operations: product of the branch ring-closing counts."""
    return prod(r.flag_count for _, _, r in _branches(t, limits))


def count_report(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> dict[str, int]:
    """All four cardinalities, in a stable key order, from one read of the branches."""
    branches = _branches(t, limits)
    return {
        "semistar": _support_sum(branches, False, limits),
        "fstar": prod(r.base_size + omega for _, omega, r in branches),
        "smstar": _support_sum(branches, True, limits),
        "star": prod(r.flag_count for _, _, r in branches),
    }


def semistar_element_counts(
    t: SpectrumTree, limits: Limits = DEFAULT_LIMITS
) -> tuple[int, int]:
    """(element count, ring-closing count) via explicit map enumeration.

    Independent of the counting programs in ``count_semistar`` and
    ``count_smstar``: every branch map is materialized and the ring-closing
    ones are found by inspection of the domain's image.
    """
    fstars = [_fstar(branch, limits) for branch in _branches(t, limits)]
    total = 0
    flagged = 0
    for support in enumerate_supports(len(fstars), max_branches=limits.max_branches):
        sizes = []
        starred = []
        for i, fstar in enumerate(fstars):
            poset, d_index = support.component_poset(i)
            if not poset.size:
                continue
            maps = enum_hom(poset, fstar.poset, max_maps=limits.max_maps)
            sizes.append(len(maps))
            if support.contains_domain():
                starred.append(sum(1 for m in maps if m.image[d_index] in fstar.ring_closing))
        total += prod(sizes)
        if support.contains_domain():
            flagged += prod(starred)
    return total, flagged


# -- the full ordered set ---------------------------------------------------------


@memo(MAP_ENTRIES)
def _maps(component: Poset, target: Poset, max_maps: int) -> tuple[OrderMap | None, ...]:
    """The maps of a component into a branch poset sorted by image, ``(None,)`` if it is empty."""
    if not component.size:
        return (None,)
    return tuple(sorted(enum_hom(component, target, max_maps=max_maps), key=lambda g: g.image))


@memo(MAP_ENTRIES)
def _map_covers(component: Poset, target: Poset, max_maps: int) -> tuple[tuple[int, ...], ...]:
    """The covers ``(lo, hi, x)`` of the pointwise order of :func:`_maps`, sorted.

    Map ``hi`` is map ``lo`` with the value at position ``x`` raised to a
    cover of it.  Every cover is one: of maps ``f < g``, raise ``f`` at a
    position ``x`` maximal among those where they differ, to a cover of
    ``f(x)`` below ``g(x)``; above ``x``, ``f`` is ``g``, so it stays monotone.
    """
    maps = _maps(component, target, max_maps)
    index = {() if g is None else g.image: j for j, g in enumerate(maps)}
    upper = [[] for _ in range(target.size)]
    for lo, hi in target.covers():
        upper[lo].append(hi)
    return tuple(sorted(
        (lo, index[moved], x)
        for lo, image in enumerate(index)
        for x, q in enumerate(image)
        for moved in (image[:x] + (p,) + image[x + 1 :] for p in upper[q])
        if moved in index
    ))


@memo(MAP_ENTRIES)
def _restrictions(target: Poset, outer: Poset, inner: Poset, at: tuple[int, ...], max_maps: int):
    """The maps of ``outer`` maximal among those of equal restriction, with that restriction.

    Pairs ``(r, c)``: map ``r`` of ``outer`` and its restriction ``c`` to
    ``inner``, whose mask ``k`` is outer mask ``at[k]``.  A map is maximal
    so when none of its covers moves a position outside ``at``.
    """
    index = {() if g is None else g.image: c for c, g in enumerate(_maps(inner, target, max_maps))}
    moved = {lo for lo, _, x in _map_covers(outer, target, max_maps) if x not in at}
    rows = enumerate(_maps(outer, target, max_maps))
    return tuple((r, index[tuple(g.image[p] for p in at)]) for r, g in rows if r not in moved)


def semistar_poset(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> SemistarPoset:
    """Materialize the ordered set of semistar operations, flags included.

    Elements are sorted by (support, map images): the identity is the
    minimum, the all-to-field operation the maximum, and ``a <= b`` exactly
    when the support of ``a`` contains that of ``b`` and every shared branch
    map of ``a`` is pointwise below.  In the block of one support an index is
    mixed-radix in the map indices.  The set is kept as its covers (see the
    module docstring); the masks are closed when the order is read.
    """
    return _semistar_poset(_branches(t, limits), limits)


@memo(POSET_ENTRIES)
def _semistar_poset(branches: tuple, limits: Limits) -> SemistarPoset:
    branch_ids = tuple(child for child, _, _ in branches)
    n = _support_sum(branches, False, limits)
    _check_size(n, limits)
    fstars = [_fstar(branch, limits) for branch in branches]
    table = pair_table(len(fstars), max_branches=limits.max_branches)
    # every shape occurs at every branch, so each of these lists is read
    shape_maps = [[_maps(p, f.poset, limits.max_maps) for p in table.shapes] for f in fstars]
    map_covers = [[_map_covers(p, f.poset, limits.max_maps) for p in table.shapes] for f in fstars]
    # per branch and shape, the maps sending entry 0, the domain when a support holds it, to
    # a ring-closing element (none for the empty shape, which no such support has)
    starred = [
        [[j for j, g in enumerate(maps) if g is not None and g.image[0] in f.ring_closing]
         for maps in branch]
        for f, branch in zip(fstars, shape_maps)
    ]
    full = (1 << len(fstars)) - 1
    first, offsets, radices, blocks, flags, keys = 0, [], [], [], set(), []
    for k, family in enumerate(table.families):  # in the order of the elements
        maps = tuple(branch[column[k]] for branch, column in zip(shape_maps, table.columns))
        offsets.append(first)
        radices.append([len(branch) for branch in maps])
        blocks.append(maps)
        if family >> full & 1:  # the support holds the domain
            # the flagged elements are mixed-radix in the flagged maps of each branch
            flagged = [0]
            for branch, column, width in zip(starred, table.columns, radices[-1]):
                flagged = [o * width + j for o in flagged for j in branch[column[k]]]
            flags.update(first + o for o in flagged)
        # inside the block one branch map moves, those after it varying fastest: the
        # elements at its map ``lo`` are runs of ``stride``, ``span`` apart, so the keys
        # of their covers are ranges, along the runs or across them, whichever is longer
        stride = block = prod(radices[-1])
        for covers, column, width in zip(map_covers, table.columns, radices[-1]):
            span, stride = stride, stride // width
            along, across = (n + 1, stride), (span * (n + 1), block // span)
            if along[1] < across[1]:
                along, across = across, along
            for lo, hi, _ in covers[column[k]]:
                start = (first + lo * stride) * (n + 1) + (hi - lo) * stride
                for run in range(start, start + across[0] * across[1], across[0]):
                    keys.extend(range(run, run + along[0] * along[1], along[0]))
        first += block
    assert first == n
    # across blocks, the maximal maps of each fibre go to their restrictions
    fibres = [[_restrictions(f.poset, *pair, limits.max_maps) for pair in table.pairs]
              for f in fstars]
    for big, small, *ids in zip(table.big, table.small, *table.pair_columns):
        pairs = [(0, 0)]
        for branch, pair, rows, cols in zip(fibres, ids, radices[big], radices[small]):
            pairs = [(a * rows + r, b * cols + c) for a, b in pairs for r, c in branch[pair]]
        corner = offsets[big] * n + offsets[small]
        keys.extend(corner + lo * n + hi for lo, hi in pairs)
    keys.sort()  # a cover (lo, hi) is the key lo * n + hi, so one sort orders them all
    los, his = array("I", [key // n for key in keys]), array("I", [key % n for key in keys])
    flagged = FlaggedPoset(_CoverPoset(n, los, his), frozenset(flags))
    return SemistarPoset(flagged, branch_ids, tuple(offsets), table.families, tuple(blocks))


def fstar_product(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> FlaggedPoset:
    """All fractional-star operations as a product of the branch posets.

    The componentwise order is a modeling choice (only the branch posets
    carry an intrinsic order); nothing downstream depends on it.
    """
    if len(t.nodes) == 1:
        return FlaggedPoset(chain(1), frozenset({0}))
    _check_size(count_fstar(t, limits), limits, "fractional-star product")
    fstars = [_fstar(branch, limits) for branch in _branches(t, limits)]
    acc = fstars[0]
    for nxt in fstars[1:]:
        combined = product(acc.poset, nxt.poset)
        flags = frozenset(a * nxt.size + b for a in acc.ring_closing for b in nxt.ring_closing)
        acc = FlaggedPoset(combined, flags)
    return acc


# -- symbolic counting polynomials ---------------------------------------------------

#: The count at epsilon 1 weighs ``2 - eps = 2 C(eps, 0) - C(eps, 1)``, that at 2 ``eps - 1``.
_AFFINE = {1: (2, -1), 2: (-1, 1)}


def _symbolic_branches(t: SpectrumTree, node_ids: Sequence[str]) -> list[str]:
    """The chosen root children in branch order."""
    roots = standard_decomposition(t)
    for node_id in node_ids:
        t.node(node_id)
        if node_id not in roots:
            raise ValueError(
                f"symbolic weight only at children of the root, {node_id!r} is not one"
            )
    return [c for c in roots if c in node_ids]


def semistar_polynomial(
    t: SpectrumTree,
    variables: Sequence[str],
    limits: Limits = DEFAULT_LIMITS,
) -> MultiPoly:
    """The semistar count as an exact polynomial in the chosen branch weights.

    The variables must be children of the root (named by node id); all other
    labels stay fixed.  This is the support sum of ``count_semistar`` with
    the chosen branches' factors left as polynomials in their weights, so
    the polynomial and the counts come from one computation.
    """
    if not variables:
        raise ValueError("need at least one symbolic node")
    return _polynomial(t, False, tuple(variables), (), limits)


def smstar_polynomial(
    t: SpectrumTree,
    omega_variables: Sequence[str],
    epsilon_variables: Sequence[str] = (),
    limits: Limits = DEFAULT_LIMITS,
) -> MultiPoly:
    """The domain-closing count as a polynomial in weights and epsilon labels.

    Weight variables must be children of the root; they stay symbolic in the
    support sum of ``count_smstar``.  Epsilon variables may sit at any leaf
    and are named ``eps_<id>``; each stays symbolic in the branch above it,
    in the same one support sum.  Epsilon is 1 or 2, so a branch's factor
    is affine in it: ``C(eps, 0) (2 f(1) - f(2)) + C(eps, 1) (f(2) - f(1))``
    in the binomial basis, ``f(e)`` the factor of the branch's record with
    that leaf at ``e`` (four records for two such leaves in one branch).  For
    a leaf branch that is ``C(eps, 0) (h - h') + C(eps, 1) h'`` with ``h`` the
    factor at epsilon 1 and ``h'`` its shift, as in :func:`tildhom_count`.
    No tree is relabelled.
    """
    if not omega_variables and not epsilon_variables:
        raise ValueError("need at least one symbolic node")
    return _polynomial(t, True, tuple(omega_variables), tuple(epsilon_variables), limits)


@memo(POLY_ENTRIES)
def _polynomial(
    t: SpectrumTree, closing: bool, omega_variables: tuple, epsilon_variables: tuple, limits: Limits
) -> MultiPoly:
    """The finished polynomial, one read-only value every caller shares."""
    weights = _symbolic_branches(t, omega_variables)
    eps_ids = sorted(set(epsilon_variables))
    clash = {f"eps_{node_id}" for node_id in eps_ids} & set(omega_variables + epsilon_variables)
    if clash:
        raise ValueError(f"variable name collision: {sorted(clash)}")
    leaves: dict[str, list[str]] = {}  # the symbolic leaves below each root child
    for node_id in eps_ids:
        if not t.is_leaf(node_id):
            raise ValueError(f"epsilon is symbolic only at leaves, {node_id!r} is not one")
        if node_id not in weights and t.omega(node_id) < 2:
            raise ValueError(
                f"leaf {node_id!r} needs weight >= 2 for a symbolic epsilon "
                "(the weight always dominates epsilon)"
            )
        child = node_id
        while t.node(child).parent != t.root_id:
            child = t.node(child).parent
        leaves.setdefault(child, []).append(node_id)
    branches, symbolic, names = _branches(t, limits), {}, []
    for child, _, _ in branches:
        mine = leaves.get(child, [])
        if child in weights or mine:
            labels = cartesian((1, 2), repeat=len(mine))
            records = tuple(_triple(t, child, dict(zip(mine, e)), limits)[2] for e in labels)
            symbolic[child] = (child in weights, records)
            names += ([child] if child in weights else []) + [f"eps_{v}" for v in mine]
    return MultiPoly.from_binomial(names, _binomial_sum(branches, closing, symbolic, limits))


def _binomial_sum(branches: tuple, closing: bool, symbolic: Mapping, limits: Limits) -> dict:
    """The support sum with the branches in ``symbolic`` kept as polynomials, in the binomial basis.

    The engine's one sum over the support table; a count is its constant
    term (:func:`_support_sum`).  ``symbolic`` maps a branch id to
    ``(weight, records)``: whether its weight stays a variable, and its
    records at each epsilon (1 or 2) of its symbolic leaves, in product
    order (its own record if it has none).  The answer is ``{(k_1, ...,
    k_s): c}`` for the sum of ``c * C(x_1, k_1) ... C(x_s, k_s)``, the
    variables of each symbolic branch in branch order, its weight before its
    epsilons.  In branch order, each branch takes its factor once per shape:
    a fixed branch is folded into the row products at its label, a symbolic
    one is kept.  The rows are then grouped by the shape ids of the kept
    branches and contracted, the last branch folded into each prefix of
    shape ids first, so a prefix's partial sum is expanded once for all the
    rows below it.
    """
    table = support_table(len(branches), max_branches=limits.max_branches)
    acc = list(table.closing) if closing else [1] * len(table.closing)
    kept = []
    for (child, omega, record), column in zip(branches, table.columns):
        if child in symbolic:
            weight, records = symbolic[child]
            at = None if weight else omega
            factors = ([_term(r, p, closing, limits) for r in records] for p in table.shapes)
            kept.append((column, [_affine(f, at) for f in factors]))
        else:
            terms = (_term(record, p, closing, limits) for p in table.shapes)
            values = [binomial_value(f, omega) for f in terms]
            acc = [a * values[s] for a, s in zip(acc, column)]
    if not kept:
        return {(): sum(acc)}
    groups: dict[tuple[int, ...], int] = {}
    for key, factor in zip(zip(*(column for column, _ in kept)), acc):
        if factor:
            groups[key] = groups.get(key, 0) + factor
    sums = {key: {(): factor} for key, factor in groups.items()}
    for _, pieces in reversed(kept):
        folded: dict[tuple[int, ...], dict] = {}
        for key, partial in sums.items():
            out = folded.setdefault(key[:-1], {})
            for k, a in pieces[key[-1]]:
                for e, c in partial.items():
                    out[k + e] = out.get(k + e, 0) + a * c
        sums = folded
    return sums.get((), {})


def _affine(factors: list, omega: int | None) -> list[tuple[tuple[int, ...], int]]:
    """One shape's factor of a symbolic branch, as pairs ``(indices, c)``, nonzero ``c`` only.

    ``factors`` holds the factor in C(n, k) of each of the branch's records,
    ``2 ** j`` for ``j`` symbolic epsilons.  The weight's index comes first,
    if it is symbolic (``omega`` is ``None``); otherwise the factor is taken
    at ``omega``.  Then come the indices of C(eps, 0) and C(eps, 1), each
    record weighed by :data:`_AFFINE`.
    """
    j = len(factors).bit_length() - 1
    total: dict[tuple[int, ...], int] = {}
    for values, f in zip(cartesian((1, 2), repeat=j), factors):
        if omega is None:
            parts = [((k,), c) for k, c in enumerate(f)]
        else:
            parts = [((), binomial_value(f, omega))]
        for ks in cartesian((0, 1), repeat=j):
            w = prod(_AFFINE[v][k] for v, k in zip(values, ks))
            for key, c in parts:
                total[key + ks] = total.get(key + ks, 0) + w * c
    return [(key, c) for key, c in total.items() if c]
