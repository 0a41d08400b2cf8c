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
and multiplied into the rows column by column.  The table has two
multiplicity columns, the supports of each row and those of them that
contain the domain, so the domain-closing sum reads the same rows.  The
table is read from the supports as integer bitsets over the skeleton
masks, so counts and polynomials build no ``Support``; only the ordered set
and element enumeration walk ``enumerate_supports``.  The tests check the
counts against element enumeration (``semistar_element_counts``),
materialization (``semistar_poset``), the brute-force oracle and
interpolation.

The ordered set keeps the same product structure.  The operations of one
support form a block, the product of the branch map lists.  Between a
block and one of a smaller support, the order is the Kronecker product of
one relation per branch (each map on the larger component against the
maps above it on the smaller one), and the down-sets are the Kronecker
product of the transposes, so no two operations are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from math import prod
from typing import Sequence

from ._memo import memo
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
    _iter_bits,
)
from .spectrum import (
    DEFAULT_MAX_BRANCHES,
    SpectrumTree,
    Support,
    branch_subtree,
    enumerate_supports,
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
    """The full ordered set of semistar operations with per-element labels."""

    flagged: FlaggedPoset
    elements: tuple[SemistarElement, ...]
    branch_ids: tuple[str, ...]

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


class _Branch:
    """A root-child branch as ``(base, flags, omega)``, one record per branch and limits.

    Only the sizes are counted here; the base is built by :func:`_base` when
    a count needs its order.  Records hash by identity, so the memos keyed
    by them never compare trees.
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


@memo
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


@memo
def _base(record: _Branch, limits: Limits) -> tuple[Poset, frozenset[int]]:
    """The base poset and its flags: the quotient's semistar poset minus its top."""
    if record.quotient is None:
        return Poset(()), frozenset(range(record.flag_count))
    _check_size(record.base_size + 1, limits, f"semistar poset of quotient {record.child!r}")
    sp = semistar_poset(record.quotient, limits)
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


@memo
def _fstar(record: _Branch, limits: Limits) -> FlaggedPoset:
    what = f"fractional-star poset of branch {record.child!r}"
    _check_size(record.base_size + record.omega, limits, what)
    base, flags = _base(record, limits)
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
        base, _ = _base(record, limits)
        return hom_coefficients(component, base, max_steps=limits.max_maps)
    if component.up_mask(d_index) != (1 << component.size) - 1:
        raise ValueError("the designated domain element must be the component minimum")
    rest = subposet(component, (i for i in range(component.size) if i != d_index))
    if record.quotient is None:
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


@memo
def _term(record: _Branch, component: Poset, closing: bool, limits: Limits):
    """One branch's factor for one support, in C(n, k); ``(1,)`` if the support misses it.

    ``closing`` sends the component's element 0, its minimum, to a
    ring-closing element.
    """
    if not component.size:
        return (1,)
    return tildhom_count(component, 0 if closing else None, record.tree, limits)


def _support_sum(
    t: SpectrumTree, closing: bool, symbolic: frozenset[str], limits: Limits
) -> dict[tuple[int, ...], int]:
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
    k_s)``, indices in branch order.  A count is its ``()`` entry.
    """
    records = _branches(t, limits)
    table = support_table(len(records), max_branches=limits.max_branches)
    acc, kept = list(table.closing if closing else table.multiplicity), []
    for record, column in zip(records, table.columns):
        factors = [_term(record, component, closing, limits) for component in table.shapes]
        if record.child in symbolic:
            kept.append((column, [[(k, c) for k, c in enumerate(f) if c] for f in factors]))
        else:
            values = [binomial_value(f, record.omega) for f in factors]
            acc = [a * values[s] for a, s in zip(acc, column)]
    if not kept:
        return {(): sum(acc)}
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
    return total


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


def _relation(rows: list, row_at, cols: list, col_at, cone) -> tuple[int, ...]:
    """Per map ``r`` of ``rows``, the bitmask of the maps ``c`` of ``cols`` related to it.

    ``c`` is related to ``r`` when ``c(col_at[k])`` is in ``cone(r(row_at[k]))``
    at every position ``k``.  Position by position, the maps of ``cols`` are
    filed by their image there, and the column of an image ``q`` is the
    union of the files in ``cone(q)``.  With no position every map is
    related to every row (the lists are ``[None]`` there).
    """
    out = [(1 << len(cols)) - 1] * len(rows)
    for p, k in zip(row_at, col_at):
        files, present = {}, 0  # ``present``: the images that have a file
        for j, c in enumerate(cols):
            q = c.image[k]
            files[q] = files.get(q, 0) | 1 << j
            present |= 1 << q
        column = {}
        for q in {r.image[p] for r in rows}:
            column[q] = sum(files[i] for i in _iter_bits(cone(q) & present))
        out = [bits & column[r.image[p]] for bits, r in zip(out, rows)]
    return tuple(out)


def _kronecker(factors) -> list[int]:
    """The rows of the Kronecker product of ``(relation, transpose)`` factors, the first outermost.

    A relation has as many columns as its transpose has rows.  Row ``r`` of
    a factor and row ``s`` of the product of the ones after it, ``width``
    columns wide, give ``s`` copied to every ``width``-wide run whose bit is
    set in ``r``: ``r`` with bit ``j`` moved to bit ``j * width``, times ``s``.
    """
    rows, width = [1], 1
    for relation, transpose in reversed(factors):
        if width > 1:
            wide = str.maketrans({"0": "0" * width, "1": "0" * (width - 1) + "1"})
            relation = [int(bin(r)[2:].translate(wide), 2) for r in relation]
        rows = [w * s for w in relation for s in rows]
        width *= len(transpose)
    return rows


def semistar_poset(t: SpectrumTree, limits: Limits = DEFAULT_LIMITS) -> SemistarPoset:
    """Materialize the ordered set of semistar operations, flags included.

    Elements are sorted by (support, map images).  The identity is the
    minimum, the all-to-field operation the maximum; comparisons hold
    exactly when the supports are reverse-included and every shared branch
    map is pointwise below.  The elements of one support (a block) are the
    product of the branch map lists, each sorted by image, so an element's
    index in its block is mixed-radix in its map indices.  Between a block
    and one of a smaller support the order is the Kronecker product, over
    the branches, of one relation each: the maps on the larger component
    against the maps above them on the smaller one.  The down-sets are the
    Kronecker product of the transposes, so no pair of elements is compared.
    """
    return _semistar_poset(t, limits)


@memo
def _semistar_poset(t: SpectrumTree, limits: Limits) -> SemistarPoset:
    branch_ids = standard_decomposition(t)
    _check_size(count_semistar(t, limits), limits)
    fstars = _branch_fstars(t, limits)
    # shared by the blocks of this build: map lists, branch relations, their products
    lists, relations, products = {}, {}, {}

    def map_list(i: int, component: Poset) -> list:
        """The maps of a component into branch ``i``, sorted by image; ``[None]`` if empty."""
        if not component.size:
            return [None]
        if (i, component) not in lists:
            found = enum_hom(component, fstars[i].poset, max_maps=limits.max_maps)
            lists[i, component] = sorted(found, key=lambda g: g.image)
        return lists[i, component]

    def relation(i: int, big: tuple, small: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Branch ``i``'s relation between two ``(component, maps)``, and its transpose.

        The component of ``small`` lies inside that of ``big``; a map on
        ``big`` is related to the maps on ``small`` above it there.
        """
        key = (i, big[0], small[0])
        if key not in relations:
            (parts, outer), (inner_parts, inner) = big, small
            at, here = [parts.index(mask) for mask in inner_parts], range(len(inner_parts))
            fp = fstars[i].poset
            relations[key] = (
                _relation(outer, at, inner, here, fp.up_mask),
                _relation(inner, here, outer, at, fp.down_mask),
            )
        return relations[key]

    blocks, elements, flags = [], [], set()
    # in ``Support.sort_key`` order, which is the order of the elements
    for support in enumerate_supports(len(fstars), max_branches=limits.max_branches):
        branches = [
            (support.component(i), map_list(i, support.component_poset(i)[0]))
            for i in range(len(fstars))
        ]
        blocks.append((support.masks, len(elements), branches))
        if support.contains_domain():  # then the domain is entry 0 of every map
            # the flagged elements are mixed-radix in the flagged maps of each branch
            offsets = [0]
            for (_, maps), f in zip(branches, fstars):
                starred = [j for j, g in enumerate(maps) if g.image[0] in f.ring_closing]
                offsets = [o * len(maps) + j for o in offsets for j in starred]
            flags.update(len(elements) + o for o in offsets)
        elements.extend(
            SemistarElement(support, maps) for maps in cartesian(*(maps for _, maps in branches))
        )
    up, down = [0] * len(elements), [0] * len(elements)
    for (masks, a, bigs), (inside, b, smalls) in cartesian(blocks, repeat=2):
        if not inside <= masks:
            continue
        factors = tuple(map(relation, range(len(fstars)), bigs, smalls))
        if factors not in products:  # block pairs with equal relations share their rows
            products[factors] = _kronecker(factors), _kronecker([(d, u) for u, d in factors])
        ups, downs = products[factors]
        for k, row in enumerate(ups, a):
            up[k] |= row << b
        for k, row in enumerate(downs, b):
            down[k] |= row << a
    poset = Poset._unchecked(up, down)
    top = poset.unique_max()
    assert top is not None and elements[top].support.masks == frozenset({0})
    return SemistarPoset(FlaggedPoset(poset, frozenset(flags)), tuple(elements), branch_ids)


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
