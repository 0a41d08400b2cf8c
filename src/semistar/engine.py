"""Ordered sets and counts of closure operations from a labeled spectral tree.

Everything is assembled branch by branch.  A branch (a child ``c`` of the
root) is kept as a record ``(base, flags, omega)``: its fractional-star
operations are ``base`` with a chain of length ``omega(c)`` stacked above,
and ``flags`` marks the ring-closing ones.  For a leaf the base is empty and
the flags are the bottom ``epsilon(c)`` chain elements.  Otherwise the base
is the semistar poset of the quotient tree (re-rooted at ``c``) minus its
top, the all-to-field closure, and the flags are the quotient's ring-closing
operations; their numbers come from counting the quotient, and the base is
built only when a count needs its order.

The semistar operations of the whole tree are classified by their support, a
union-closed family of skeleton masks containing the quotient-field mask.
The operations with a fixed support correspond to tuples of order-preserving
maps, one per branch meeting the support, from the support component into
that branch's fractional-star poset; comparison across supports reverses the
support inclusion.  An operation closes the domain exactly when its support
contains the domain and every branch map sends the domain to a ring-closing
element.

A count is a sum over supports of products of per-branch polynomials in the
branch weights, since maps of a component ``C`` into base plus an ``n``-chain
split at the chain: the sum over down-sets ``D`` of ``|hom(D, base)|`` times
Stanley's order polynomial of ``C - D`` at ``n``.  Every such factor is kept
as integers ``e_k`` in the binomial basis, ``sum(e_k * C(n, k))``, where order
polynomials have integer coefficients.  Evaluated at the labels the sum is a
count, in integers only; left symbolic in chosen branches it is a sum of
integer multiples of products of binomials.  A symbolic epsilon joins the
same basis: the count is affine in it, so the relabelled sums at epsilon 1
and 2 combine as ``C(eps, 0) (2 P(1) - P(2)) + C(eps, 1) (P(2) - P(1))``.
Every polynomial answer is one ``MultiPoly.from_binomial``, with no
polynomial arithmetic on the way.  The weight chain is never built to count.
A support's term depends only on its component shapes, so the sum runs over
one table per branch count (``spectrum.support_table``: 2 480 supports but
38 shapes at four branches): each branch's factor is taken once per shape
and multiplied into the rows column by column.  A factor reads the
branch's quotient and flag count but not its weight, so it is memoized on
that pair: every leaf with the same epsilon shares one factor per shape,
whatever its weight or id.  The sum itself is memoized per tree, closing
flag, symbolic branches and limits, so a warm count is a lookup.  The
table has two multiplicity columns, the supports of each row and those of
them that contain the domain, so the domain-closing sum reads the same
rows.  The table is read from the supports as integer bitsets over the
skeleton masks, so counts and polynomials build no ``Support``; only the
ordered set and element enumeration walk ``enumerate_supports``.  The tests
check the counts against element enumeration (``semistar_element_counts``),
materialization (``semistar_poset``), the brute-force oracle and
interpolation.

The ordered set keeps the same product structure and is built from its
covers.  The operations of one support form a block, the product of the
branch map lists: inside it one branch map moves along a cover of its list's
pointwise order.  Across blocks ``(S, f)`` lies below its restriction ``(T,
f|T)`` to any smaller support, so it is covered in ``T`` only when ``S`` has
one mask more (``spectrum.pair_table``: 151 such pairs at three branches),
only by ``f|T``, and only if each branch map of ``f`` is maximal among those
with its restriction.  The up- and down-masks are closed from the covers,
and no two operations are compared.  A map list's covers, and its maximal
maps with their restrictions, depend only on the branch poset, the shapes
and how one sits in the other, so they are memoized and shared by builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as cartesian
from math import prod
from types import MappingProxyType
from typing import Mapping, Sequence

from ._memo import CACHE_ENTRIES, MAP_ENTRIES, POSET_ENTRIES, SHAPE_ENTRIES, SUM_ENTRIES, memo
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
    _closure,
    _iter_bits,
)
from .spectrum import (
    DEFAULT_MAX_BRANCHES,
    SpectrumTree,
    Support,
    branch_subtree,
    enumerate_supports,
    pair_table,
    quotient_subtree,
    standard_decomposition,
    support_table,
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
    marked set is closed downwards, so both are enforced here.
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
        marked = sum(1 << i for i in self.ring_closing)
        if any(self.poset.down_mask(i) & ~marked for i in self.ring_closing):
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


@dataclass(frozen=True)
class SemistarElement:
    """One semistar operation: a support plus one branch map per met branch.

    ``maps`` is aligned with the branch order; entries are ``None`` exactly
    for the branches whose support component is empty.  The support holding
    only the quotient field gives the single all-to-field operation, with no
    maps at all.
    """

    support: Support
    maps: tuple[OrderMap | None, ...]


@dataclass(frozen=True)
class SemistarPoset:
    """The full ordered set of semistar operations with per-element labels.

    The elements of one support come in a block; ``offsets`` holds the index
    of the first element of each block, in the order of the elements.
    """

    flagged: FlaggedPoset
    elements: tuple[SemistarElement, ...]
    branch_ids: tuple[str, ...]
    offsets: tuple[int, ...]

    @property
    def poset(self) -> Poset:
        return self.flagged.poset

    @property
    def ring_closing(self) -> frozenset[int]:
        return self.flagged.ring_closing

    @property
    def size(self) -> int:
        return self.flagged.poset.size


def _check_size(size: int, limits: Limits, what: str = "semistar poset"):
    """The one guard on materialized posets, checked before anything is built."""
    if size > limits.max_poset:
        raise EnumerationLimitError(
            f"{what} would hold {size} elements, limit is {limits.max_poset}"
        )


@dataclass(frozen=True)
class _Reads:
    """What a branch's factors and base read: its quotient (``None`` for a leaf) and flag count.

    It compares and hashes by that pair alone, so branches with an equal
    pair share their factors and base: every leaf with the same epsilon,
    whatever its weight or id, and every internal branch over the same
    quotient.  ``tree`` is one such branch, the one a factor is computed
    from; ``tildhom_count`` reads only the pair and the limits from it.
    """

    quotient: SpectrumTree | None
    flag_count: int
    tree: SpectrumTree = field(compare=False)


class _Branch:
    """A root-child branch as ``(base, flags, omega)``, one record per branch and limits.

    Only the sizes are counted here; the base is built by :func:`_base` when
    a count needs its order.  Records hash by identity; the memos of what
    does not depend on the weight are keyed by ``reads``.
    """

    def __init__(self, branch: SpectrumTree, limits: Limits):
        child = standard_decomposition(branch)[0]
        self.tree, self.child, self.omega = branch, child, branch.omega(child)
        if branch.is_leaf(child):
            self.quotient, self.base_size = None, 0
            self.flag_count = branch.epsilon(child)
        else:
            self.quotient = quotient_subtree(branch, child)
            self.base_size = count_semistar(self.quotient, limits) - 1
            self.flag_count = count_smstar(self.quotient, limits)
        self.reads = _Reads(self.quotient, self.flag_count, branch)


@memo(CACHE_ENTRIES)
def _branches(t: SpectrumTree, limits: Limits) -> tuple[_Branch, ...]:
    ids = standard_decomposition(t)
    if len(ids) == 1:
        return (_Branch(t, limits),)
    # through the one-branch entries, so trees sharing a branch share its record
    return tuple(_branches(branch_subtree(t, child), limits)[0] for child in ids)


def _single_branch(branch: SpectrumTree, limits: Limits) -> _Branch:
    if len(standard_decomposition(branch)) != 1:
        raise ValueError("fractional-star posets are built per branch (one root child)")
    return _branches(branch, limits)[0]


@memo(POSET_ENTRIES)
def _base(reads: _Reads, limits: Limits) -> tuple[Poset, frozenset[int]]:
    """The base poset and its flags: the quotient's semistar poset minus its top."""
    quotient = reads.quotient
    if quotient is None:
        return Poset(()), frozenset(range(reads.flag_count))
    what = f"semistar poset of quotient {quotient.root_id!r}"
    _check_size(count_semistar(quotient, limits), limits, what)
    sp = semistar_poset(quotient, limits)
    top = sp.poset.unique_max()
    assert top is not None and sp.elements[top].support.masks == frozenset({0})
    assert top not in sp.ring_closing
    base = subposet(sp.poset, (i for i in range(sp.size) if i != top))
    return base, frozenset(i if i < top else i - 1 for i in sp.ring_closing)


def fstar_poset(branch: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> FlaggedPoset:
    """Fractional-star operations of a single-branch tree, with star flags.

    The branch's base with a chain of length ``omega`` stacked above: a chain
    with the bottom ``epsilon`` elements starred for a leaf child, else the
    quotient's semistar poset minus its top, starred where its operations
    close the ring.  The size is checked before any building.
    """
    return _fstar(_single_branch(branch, limits), limits)


@memo(POSET_ENTRIES)
def _fstar(record: _Branch, limits: Limits) -> FlaggedPoset:
    what = f"fractional-star poset of branch {record.child!r}"
    _check_size(record.base_size + record.omega, limits, what)
    base, flags = _base(record.reads, limits)
    return FlaggedPoset(ordinal_sum(base, chain(record.omega)), flags)


def _branch_fstars(t: SpectrumTree, limits: Limits) -> list[FlaggedPoset]:
    return [fstar_poset(record.tree, limits) for record in _branches(t, limits)]


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
    component: Poset,
    d_index: int | None,
    branch: SpectrumTree,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[int, ...]:
    """Maps of a support component into one branch, as a polynomial in its weight ``n``.

    The polynomial is returned as integers ``e`` in the binomial basis: the
    count is ``sum(e[k] * C(n, k))`` (``MultiPoly.from_binomial`` expands it).
    With no designated domain element this counts every order-preserving
    map into base plus an ``n``-chain (``|base| + n``, that is
    ``(|base|, 1)``, for one point, with no base built).  Otherwise the
    domain is the minimum of the component and must go to a starred element
    ``q``; the rest of the component maps into the up-set of ``q``.  For an
    internal branch the flags lie in the base, so the count sums the maps of
    the rest into up-set plus chain over the flags.  For a leaf the flags
    are the bottom ``epsilon`` chain elements, which gives
    ``h(n) + (epsilon - 1) h(n - 1)`` with ``h`` the order polynomial of the
    rest.
    """
    record = _single_branch(branch, limits)
    if d_index is None:
        if component.size == 1:
            return (record.base_size, 1)
        base, _ = _base(record.reads, limits)
        return hom_coefficients(component, base, max_steps=limits.max_maps)
    if component.up_mask(d_index) != (1 << component.size) - 1:
        raise ValueError("the designated domain element must be the component minimum")
    rest = subposet(component, (i for i in range(component.size) if i != d_index))
    if record.quotient is None:
        h = hom_coefficients(rest, _base(record.reads, limits)[0])
        return h if record.flag_count == 1 else tuple(a + b for a, b in zip(h, _shifted(h)))
    if not rest.size:
        return (record.flag_count,)
    base, flags = _base(record.reads, limits)
    if rest.size == 1:  # one point maps to an up-set U or the chain: |U| + n
        return (sum(base.up_mask(q).bit_count() for q in flags), len(flags))
    total = [0] * (rest.size + 1)
    for q in sorted(flags):
        upper = subposet(base, _iter_bits(base.up_mask(q)))
        for k, c in enumerate(hom_coefficients(rest, upper, max_steps=limits.max_maps)):
            total[k] += c
    return tuple(total)


@memo(SHAPE_ENTRIES)
def _term(reads: _Reads, component: Poset, closing: bool, limits: Limits):
    """A branch's factor for one component shape, in C(n, k); ``(1,)`` if the support misses it.

    ``closing`` sends the component's element 0, its minimum, to a
    ring-closing element.  The factor does not depend on the weight, so it
    is keyed by what the branch's maps read (:class:`_Reads`): a leaf's
    factors are one set per epsilon.
    """
    if not component.size:
        return (1,)
    return tildhom_count(component, 0 if closing else None, reads.tree, limits)


@memo(SUM_ENTRIES)
def _support_sum(
    t: SpectrumTree, closing: bool, symbolic: frozenset[str], limits: Limits
) -> Mapping[tuple[int, ...], int]:
    """Sum over supports of the product of the branch factors, in the binomial basis.

    The supports come as one shape table (a column of component shapes per
    branch, identical rows merged, every shape in every column), so each
    branch takes its factor once per shape.  ``closing`` counts a row by
    its supports containing the domain, the table's second multiplicity
    column, and sends the domain to ring-closing elements.  A branch at
    its label is folded into the row multiplicities one column at a time.
    The root children in ``symbolic`` stay polynomials in their weights:
    rows are grouped by their symbolic shapes and expanded into one dict
    ``{(k_1, ..., k_s): c}`` for the sum of ``c * C(n_1, k_1) ... C(n_s,
    k_s)``, indices in branch order.  A count is its ``()`` entry.  The sum
    is memoized, so it is returned as a read-only view that every caller
    shares.
    """
    records = _branches(t, limits)
    table = support_table(len(records), max_branches=limits.max_branches)
    acc, kept = list(table.closing if closing else table.multiplicity), []
    for record, column in zip(records, table.columns):
        factors = [_term(record.reads, component, closing, limits) for component in table.shapes]
        if record.child in symbolic:
            kept.append((column, [[(k, c) for k, c in enumerate(f) if c] for f in factors]))
        else:
            values = [binomial_value(f, record.omega) for f in factors]
            acc = [a * values[s] for a, s in zip(acc, column)]
    if not kept:
        return MappingProxyType({(): sum(acc)})
    groups: dict[tuple[int, ...], int] = {}
    for key, factor in zip(zip(*(column for column, _ in kept)), acc):
        if factor:
            groups[key] = groups.get(key, 0) + factor
    total: dict[tuple[int, ...], int] = {}
    for key, factor in groups.items():
        term = {(): factor}
        for s, (_, pieces) in zip(key, kept):
            term = {e + (k,): c * a for e, c in term.items() for k, a in pieces[s]}
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return MappingProxyType(total)


def count_semistar(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of semistar operations of a domain with this spectral tree.

    Sum over supports of the product, over branches met by the support, of
    the number of order-preserving maps of the support component into the
    branch's fractional-star poset.  The quotient-field-only support
    contributes the single all-to-field operation.
    """
    return _support_sum(t, False, frozenset(), limits)[()]


def count_fstar(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of fractional-star operations: the product of the branch sizes."""
    return prod(r.base_size + r.omega for r in _branches(t, limits))


def count_smstar(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of semistar operations that close the domain itself."""
    return _support_sum(t, True, frozenset(), limits)[()]


def count_star(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of star operations: product of the branch ring-closing counts."""
    return prod(r.flag_count for r in _branches(t, limits))


def count_report(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> dict[str, int]:
    """All four cardinalities, in a stable key order."""
    return {
        "semistar": count_semistar(t, limits),
        "fstar": count_fstar(t, limits),
        "smstar": count_smstar(t, limits),
        "star": count_star(t, limits),
    }


def semistar_element_counts(
    t: SpectrumTree, limits: Limits = DEFAULT_LIMITS
) -> tuple[int, int]:
    """(element count, ring-closing count) via explicit map enumeration.

    Independent of the counting programs in ``count_semistar`` and
    ``count_smstar``: every branch map is materialized and the ring-closing
    ones are found by inspection of the domain's image.
    """
    fstars = _branch_fstars(t, limits)
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
                starred.append(
                    sum(1 for m in maps if m.image[d_index] in fstar.ring_closing)
                )
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

    Elements are sorted by (support, map images).  The identity is the
    minimum, the all-to-field operation the maximum; comparisons hold
    exactly when the supports are reverse-included and every shared branch
    map is pointwise below.  The elements of one support (a block) are the
    product of the branch map lists, each sorted by image, so an element's
    index in its block is mixed-radix in its map indices.  The covers are
    built inside blocks and across the support pairs of
    :func:`spectrum.pair_table` (see the module docstring), then closed.
    """
    return _semistar_poset(t, limits)


@memo(POSET_ENTRIES)
def _semistar_poset(t: SpectrumTree, limits: Limits) -> SemistarPoset:
    branch_ids = standard_decomposition(t)
    _check_size(count_semistar(t, limits), limits)
    fstars = _branch_fstars(t, limits)
    table = pair_table(len(fstars), max_branches=limits.max_branches)
    # every shape occurs at every branch, so each of these lists is read
    shape_maps = [[_maps(p, f.poset, limits.max_maps) for p in table.shapes] for f in fstars]
    map_covers = [[_map_covers(p, f.poset, limits.max_maps) for p in table.shapes] for f in fstars]
    offsets, radices, elements, flags, above = [], [], [], set(), []
    for k, support in enumerate(table.supports):  # in the order of the elements
        maps = [branch[column[k]] for branch, column in zip(shape_maps, table.columns)]
        offsets.append(len(elements))
        radices.append([len(branch) for branch in maps])
        if support.contains_domain():  # then the domain is entry 0 of every map
            # the flagged elements are mixed-radix in the flagged maps of each branch
            flagged = [0]
            for f, branch in zip(fstars, maps):
                starred = [j for j, g in enumerate(branch) if g.image[0] in f.ring_closing]
                flagged = [o * len(branch) + j for o in flagged for j in starred]
            flags.update(len(elements) + o for o in flagged)
        elements.extend(SemistarElement(support, row) for row in cartesian(*maps))
        above.extend([] for _ in range(len(elements) - len(above)))
        # inside the block one branch map moves, those after it varying fastest
        first, stride = offsets[-1], len(elements) - offsets[-1]
        for covers, column, width in zip(map_covers, table.columns, radices[-1]):
            span, stride = stride, stride // width
            for lo, hi, _ in covers[column[k]]:
                for start in range(first + lo * stride, len(elements), span):
                    for e in range(start, start + stride):
                        above[e].append(e + (hi - lo) * stride)
    # across blocks, the maximal maps of each fibre go to their restrictions
    fibres = [[_restrictions(f.poset, *pair, limits.max_maps) for pair in table.pairs]
              for f in fstars]
    for big, small, *ids in zip(table.big, table.small, *table.pair_columns):
        pairs = [(0, 0)]
        for branch, pair, rows, cols in zip(fibres, ids, radices[big], radices[small]):
            pairs = [(a * rows + r, b * cols + c) for a, b in pairs for r, c in branch[pair]]
        for lo, hi in pairs:
            above[offsets[big] + lo].append(offsets[small] + hi)
    up, down = _closure(above)
    covers = tuple((lo, hi) for lo, his in enumerate(above) for hi in sorted(his))
    poset = Poset._unchecked(up, down, covers)
    top = poset.unique_max()
    assert top is not None and elements[top].support.masks == frozenset({0})
    return SemistarPoset(
        FlaggedPoset(poset, frozenset(flags)), tuple(elements), branch_ids, tuple(offsets)
    )


def fstar_product(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> FlaggedPoset:
    """All fractional-star operations as a product of the branch posets.

    Branch by branch there is a bijection; representing the whole set with
    the componentwise product order is a modeling choice (only the branch
    posets carry an intrinsic order), so nothing downstream depends on the
    order of this object -- counts use cardinalities only.
    """
    if len(t.nodes) == 1:
        return FlaggedPoset(chain(1), frozenset({0}))
    _check_size(count_fstar(t, limits), limits, "fractional-star product")
    fstars = _branch_fstars(t, limits)
    acc = fstars[0]
    for nxt in fstars[1:]:
        combined = product(acc.poset, nxt.poset)
        flags = frozenset(
            a * nxt.size + b for a in acc.ring_closing for b in nxt.ring_closing
        )
        acc = FlaggedPoset(combined, flags)
    return acc


# -- symbolic counting polynomials ---------------------------------------------------


def _symbolic_branches(t: SpectrumTree, node_ids: Sequence[str]) -> list[str]:
    """The chosen root children in branch order, the order of ``_support_sum``'s indices."""
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
    names = _symbolic_branches(t, variables)
    return MultiPoly.from_binomial(names, _support_sum(t, False, frozenset(names), limits))


def smstar_polynomial(
    t: SpectrumTree,
    omega_variables: Sequence[str],
    epsilon_variables: Sequence[str] = (),
    limits: Limits = DEFAULT_LIMITS,
) -> MultiPoly:
    """The domain-closing count as a polynomial in weights and epsilon labels.

    Weight variables must be children of the root; they stay symbolic in the
    support sum of ``count_smstar``.  Epsilon variables may sit at any leaf
    and are named ``eps_<id>``.  Since epsilon takes only the values 1 and 2,
    the count is affine in it: the polynomial is ``(2 - eps) P(1) + (eps - 1)
    P(2)`` in each epsilon variable, with ``P(e)`` the polynomial of the tree
    relabelled with that epsilon.  In the binomial basis that is ``C(eps, 0)
    (2 P(1) - P(2)) + C(eps, 1) (P(2) - P(1))``, so the relabelled sums are
    combined in integers, with an index 0 or 1 per epsilon, and the answer is
    one ``MultiPoly.from_binomial``.
    """
    if not omega_variables and not epsilon_variables:
        raise ValueError("need at least one symbolic node")
    names = _symbolic_branches(t, omega_variables)
    eps_ids = sorted(set(epsilon_variables))
    eps_names = {node_id: f"eps_{node_id}" for node_id in eps_ids}
    clash = set(eps_names.values()) & (set(omega_variables) | set(eps_ids))
    if clash:
        raise ValueError(f"variable name collision: {sorted(clash)}")
    for node_id in eps_ids:
        if not t.is_leaf(node_id):
            raise ValueError(f"epsilon is symbolic only at leaves, {node_id!r} is not one")
        if node_id not in omega_variables and t.omega(node_id) < 2:
            raise ValueError(
                f"leaf {node_id!r} needs weight >= 2 for a symbolic epsilon "
                "(the weight always dominates epsilon)"
            )

    symbolic = frozenset(names)
    # a symbolic weight's label is never read, so it may rise to admit epsilon 2
    omega = {v: 2 for v in eps_ids if v in symbolic and t.omega(v) < 2}
    # the weight of epsilon 1 is 2 - eps = 2 C(eps, 0) - C(eps, 1), that of 2 is eps - 1
    lagrange = {1: (2, -1), 2: (-1, 1)}
    total: dict[tuple[int, ...], int] = {}
    for values in cartesian((1, 2), repeat=len(eps_ids)):
        relabelled = t.with_labels(omega=omega, epsilon=dict(zip(eps_ids, values))) if values else t
        part = _support_sum(relabelled, True, symbolic, limits)
        for ks in cartesian((0, 1), repeat=len(values)):
            w = prod(lagrange[v][k] for v, k in zip(values, ks))
            for key, c in part.items():
                total[key + ks] = total.get(key + ks, 0) + w * c
    return MultiPoly.from_binomial(names + [eps_names[v] for v in eps_ids], total)
