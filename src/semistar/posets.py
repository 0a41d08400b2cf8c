"""Finite posets with exact enumeration and counting of order-preserving maps.

Elements of a poset are the integers ``0..size-1``.  The order is stored as
the full reachability relation, one bitmask per element, so order queries are
O(1); covering relations are derived on demand for Hasse exports, and a poset
built from its covers keeps them and closes them into masks (``_closure``)
when the order is first read.  The exports (``write_dot``, ``write_json``)
are written to a text stream from the covers, ``_CHUNK`` rows at a time.
All values are immutable and every operation is deterministic, so posets
can be shared freely across threads.

Counting of maps P -> Q works in three regimes:

- a chain target: the order polynomial of P evaluated at the chain length
  (its integer coefficients in the binomial basis are closed-form for a
  chain P, else from a dynamic program over the down-sets of P);
- a chain stacked on top of a base, Q = Q0 ⊕ chain(k): the hom coefficients
  of (P, Q0), a sum over the down-sets of P, evaluated at k;
- any other target: exhaustive backtracking, bounded by ``max_steps``.

Counting polynomials in the length ``n`` of a chain are kept as integer
coefficients ``e_k`` in the binomial basis ``C(n, k)`` (Stanley's order
polynomial: ``e_k`` is the number of order-preserving surjections onto a
k-chain), so no fraction arises; ``hom_polynomial`` converts at the end.

The one size bound, ``DEFAULT_MAX_SIZE`` elements, is checked where down-sets
are enumerated (``_down_set_masks``), since a poset may have 2^size of them;
chains are exempt, as the down-sets of a chain of ``N`` are its ``N + 1`` prefixes.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from io import StringIO
from itertools import groupby
from typing import Iterable, Sequence

from ._memo import CACHE_ENTRIES, SHAPE_ENTRIES, memo
from .errors import EnumerationLimitError
from .polynomials import MultiPoly, _multiset_coefficients, binomial_value

#: The most elements of a poset, other than a chain, whose down-sets are enumerated.
DEFAULT_MAX_SIZE = 20

#: Default cap on the number of maps materialized by an enumeration.
DEFAULT_MAX_MAPS = 10_000_000


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """An immutable finite partial order on ``0..size-1``.

    ``up_masks[i]`` is the bitmask of all ``j`` with ``i <= j`` (including
    ``i`` itself).  The constructor checks reflexivity, antisymmetry and
    transitivity and rejects anything that is not a partial order.
    """

    __slots__ = ("size", "_up", "_down", "_hash", "_covers")

    def __init__(self, up_masks: Sequence[int]):
        up = tuple(up_masks)
        size = len(up)
        full = (1 << size) - 1
        for i, mask in enumerate(up):
            if mask & ~full:
                raise ValueError(f"relation of element {i} mentions elements out of range")
            if not (mask >> i) & 1:
                raise ValueError(f"relation is not reflexive at element {i}")
        for i in range(size):
            for j in _iter_bits(up[i]):
                if j != i and (up[j] >> i) & 1:
                    raise ValueError(f"relation is not antisymmetric on {{{i}, {j}}}")
                if up[j] & ~up[i]:
                    raise ValueError(f"relation is not transitive through {i} <= {j}")
        self._finish(up)

    def _finish(self, up: tuple[int, ...], down=None, covers=None):
        if down is None:
            down = [0] * len(up)
            for i, mask in enumerate(up):
                while mask:
                    low = mask & -mask
                    down[low.bit_length() - 1] |= 1 << i
                    mask ^= low
        object.__setattr__(self, "size", len(up))
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_hash", hash(up))
        object.__setattr__(self, "_covers", covers)

    @classmethod
    def _unchecked(cls, up_masks, down_masks=None) -> "Poset":
        """For constructions that are partial orders by construction.

        ``down_masks``, when given, must be the transpose of ``up_masks``;
        it saves the one pass over every related pair.
        """
        obj = object.__new__(cls)
        obj._finish(tuple(up_masks), down_masks)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def __reduce__(self):
        """Copied and pickled as its masks, rebuilt unchecked."""
        return Poset._unchecked, (self._up, self._down)

    @classmethod
    def from_relation(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build from the full set of ordered pairs ``a <= b`` (reflexive pairs optional)."""
        up = [1 << i for i in range(size)]
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"pair ({a}, {b}) out of range")
            up[a] |= 1 << b
        return cls(up)

    @classmethod
    def from_covers(cls, size: int, covers: Iterable[tuple[int, int]]) -> "Poset":
        """Build from covering pairs ``(lo, hi)``, or any that generate the order (not a cycle)."""
        above = [[] for _ in range(size)]
        for lo, hi in covers:
            if not (0 <= lo < size and 0 <= hi < size):
                raise ValueError(f"cover ({lo}, {hi}) out of range")
            if lo != hi:
                above[lo].append(hi)
        return cls._unchecked(*_closure(above))

    # -- order queries -------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return (self._up[a] >> b) & 1 == 1

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def up_mask(self, a: int) -> int:
        return self._up[a]

    def down_mask(self, a: int) -> int:
        return self._down[a]

    def maximal_elements(self) -> list[int]:
        return [i for i in range(self.size) if self._up[i] == 1 << i]

    def minimal_elements(self) -> list[int]:
        return [i for i in range(self.size) if self._down[i] == 1 << i]

    def unique_max(self) -> int | None:
        full = (1 << self.size) - 1
        for i in range(self.size):
            if self._down[i] == full:
                return i
        return None

    def unique_min(self) -> int | None:
        """The minimum, if any: from the covers when kept, the one element with none below it."""
        if self._covers is not None:
            lowest = set(range(self.size)).difference(self._covers[1])
            return lowest.pop() if len(lowest) == 1 else None
        full = (1 << self.size) - 1
        for i in range(self.size):
            if self._up[i] == full:
                return i
        return None

    def is_down_set(self, elements: Iterable[int]) -> bool:
        """Whether every element below one of ``elements`` is one; from the covers when kept."""
        inside = set(elements)
        if self._covers is not None:
            return all(lo in inside for lo, hi in zip(*self._covers) if hi in inside)
        marked = sum(1 << i for i in inside)
        return not any(self._down[i] & ~marked for i in inside)

    def is_chain(self) -> bool:
        return sorted(m.bit_count() for m in self._up) == list(range(1, self.size + 1))

    def _cover_columns(self) -> tuple[array, array]:
        """The covering pairs as two sorted columns ``(los, his)``; kept, or derived once.

        The covers above ``i`` are found one at a time: a minimal element of
        what is left is one, and all above it is dropped.
        """
        if self._covers is None:
            los, his = array("I"), array("I")
            for i in range(self.size):
                rest, found = self._up[i] ^ (1 << i), []
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    lower = self._down[j] & rest ^ (1 << j)
                    while lower:  # descend to a minimal element of ``rest``
                        j = (lower & -lower).bit_length() - 1
                        lower = self._down[j] & rest ^ (1 << j)
                    found.append(j)
                    rest &= ~self._up[j]
                los.extend([i] * len(found))
                his.extend(sorted(found))
            object.__setattr__(self, "_covers", (los, his))
        return self._covers

    def covers(self) -> list[tuple[int, int]]:
        """All covering pairs ``(lo, hi)`` with nothing strictly between, sorted."""
        return list(zip(*self._cover_columns()))

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poset) and self._up == other._up

    def __hash__(self):
        return self._hash

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"Poset(size={self.size}, pairs={sum(m.bit_count() for m in self._up) - self.size})"

    # -- exports ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"size": self.size, "covers": [[lo, hi] for lo, hi in zip(*self._cover_columns())]}

    def to_dot(self, labels: Sequence[str] | None = None, flagged: Iterable[int] = ()) -> str:
        """Hasse diagram as DOT, ``labels`` naming the elements; flagged ones get a double border."""
        runs = None if labels is None else [(k, len(list(g))) for k, g in groupby(labels)]
        text = StringIO()
        self.write_dot(text, runs, flagged)
        return text.getvalue()

    def write_dot(self, out, labels: Iterable[tuple[str, int]] | None = None,
                  flagged: Iterable[int] = ()):
        """Write :meth:`to_dot` on the text stream ``out``, ``labels`` as runs ``(label, count)``.

        The runs name the elements in order; ``None`` names each by its
        index.  The node rows of ``_CHUNK`` elements are one template, each
        run's row repeated, formatted by one ``%``; so are the covers.
        """
        if labels is None:  # the index is the label: it fills two fields of the row
            rows, indices = [('  n%d [label="%d"%s];\n', self.size)], 2
        else:  # the label is part of the row, so its ``%`` signs are doubled
            rows, indices = [
                ('  n%d [label="' + _dot_escaped(label).replace("%", "%%") + '"%s];\n', count)
                for label, count in labels
            ], 1
            _check_named(sum(count for _, count in rows), self.size)
        marked = sorted(flagged)
        out.write("digraph hasse {\n  rankdir=BT;\n  node [shape=ellipse];\n")
        for (a, b), template in zip(_chunks(self.size), _repeated(rows)):
            extras = [""] * (b - a)
            for i in marked[bisect_left(marked, a):bisect_left(marked, b)]:
                extras[i - a] = ", peripheries=2"
            out.write(template % _interleaved(*[range(a, b)] * indices, extras))
        los, his = self._cover_columns()
        for a, b in _chunks(len(los)):
            out.write("  n%d -> n%d;\n" * (b - a) % _interleaved(los[a:b], his[a:b]))
        out.write("}")

    def write_json(self, out, labels: Iterable[tuple[str, int]] | None = None,
                   flagged: Iterable[int] | None = None):
        """Write ``json.dumps(payload, sort_keys=True)`` on the text stream ``out``.

        ``payload`` is :meth:`to_json_dict` with ``"labels"``, one per
        element from the runs ``(label, count)``, when ``labels`` is given,
        and ``"ring_closing"``, the sorted ``flagged``, when that is.  Each
        list is written ``_CHUNK`` items at a time.
        """
        if labels is not None:
            labels = [(json.dumps(label) + ", ", count) for label, count in labels]
            _check_named(sum(count for _, count in labels), self.size)
        los, his = self._cover_columns()
        out.write('{"covers": [')
        _write_items(out, (
            "[%d, %d], " * (b - a) % _interleaved(los[a:b], his[a:b]) for a, b in _chunks(len(los))
        ))
        if labels is not None:
            out.write('], "labels": [')
            _write_items(out, _repeated(labels))
        if flagged is not None:
            marked = sorted(flagged)
            out.write('], "ring_closing": [')
            _write_items(out, (
                "%d, " * (b - a) % tuple(marked[a:b]) for a, b in _chunks(len(marked))
            ))
        out.write(f'], "size": {self.size}}}')


#: The most elements or covers an export formats in one write.
_CHUNK = 4096


def _chunks(size: int):
    """``range(size)`` cut into pieces ``(a, b)`` of ``_CHUNK``, the last maybe shorter."""
    return ((a, min(a + _CHUNK, size)) for a in range(0, size, _CHUNK))


def _repeated(runs: Iterable[tuple[str, int]]):
    """Each text of the runs ``(text, count)`` repeated ``count`` times, joined per ``_CHUNK``."""
    texts, filled = [], 0
    for text, count in runs:
        while count:
            take = min(count, _CHUNK - filled)
            texts.append(text * take)
            count, filled = count - take, filled + take
            if filled == _CHUNK:
                yield "".join(texts)
                texts, filled = [], 0
    if texts:
        yield "".join(texts)


def _interleaved(*columns: Sequence) -> tuple:
    """The entries of the equal-length ``columns`` row by row, for one ``%`` over a template."""
    width = len(columns)
    values = [None] * (width * len(columns[0]))
    for c, column in enumerate(columns):
        values[c::width] = column
    return tuple(values)


def _write_items(out, pieces: Iterable[str]):
    """Write the pieces, each list items followed by ``", "``, without the last ``", "``."""
    last = ""
    for piece in pieces:
        out.write(last)
        last = piece
    out.write(last[:-2])


def _check_named(named: int, size: int):
    """Raise unless the label runs name exactly the ``size`` elements."""
    if named != size:
        raise ValueError(f"the labels name {named} elements, the poset has {size}")


class _CoverPoset(Poset):
    """A poset kept as its covers ``(los[k], his[k])``, sorted and acyclic, closed when read.

    An unset mask or hash slot reaches ``__getattr__``, which closes them
    once; the hook slows every attribute read, so plain posets lack it.
    """

    __slots__ = ()

    def __init__(self, size: int, los: array, his: array):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_covers", (los, his))

    def __reduce__(self):
        """Copied and pickled as its size and covers, so neither closes it."""
        return _CoverPoset, (self.size, *self._covers)

    def __getattr__(self, name):
        if name not in ("_up", "_down", "_hash"):
            raise AttributeError(name)
        los, his = self._covers
        starts = [bisect_left(los, i) for i in range(self.size + 1)]
        up, down = _closure([his[a:b] for a, b in zip(starts, starts[1:])])
        self._finish(tuple(up), down, self._covers)
        return object.__getattribute__(self, name)


def _dot_escaped(text: str) -> str:
    """``text`` for a quoted DOT string: each backslash and double quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _topological_order(above: Sequence[Sequence[int]]) -> list[int]:
    """Each element after all it lies over, the least ready first (Kahn); a cycle raises."""
    waiting = [0] * len(above)
    for his in above:
        for hi in his:
            waiting[hi] += 1
    ready = sum(1 << i for i, n in enumerate(waiting) if not n)  # a bitmask, least bit first
    order = []
    while ready:
        i = (ready & -ready).bit_length() - 1
        ready ^= 1 << i
        order.append(i)
        for hi in above[i]:
            waiting[hi] -= 1
            if not waiting[hi]:
                ready |= 1 << hi
    if len(order) < len(above):
        raise ValueError("the covering pairs form a cycle")
    return order


def _closure(above: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Up- and down-masks of the order generated by ``above[i]``, one pass each way."""
    order = _topological_order(above)
    up, down = [1 << i for i in range(len(above))], [1 << i for i in range(len(above))]
    for i in reversed(order):
        for hi in above[i]:
            up[i] |= up[hi]
    for i in order:
        for hi in above[i]:
            down[hi] |= down[i]
    return up, down


# -- basic constructions -------------------------------------------------------


def chain(n: int) -> Poset:
    """The total order on n elements (0 at the bottom); n = 0 is the empty poset."""
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    full = (1 << n) - 1
    return Poset._unchecked(
        [full & ~((1 << i) - 1) for i in range(n)], [(2 << i) - 1 for i in range(n)]
    )


def antichain(n: int) -> Poset:
    """n pairwise incomparable elements."""
    bits = [1 << i for i in range(n)]
    return Poset._unchecked(bits, bits)


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with every element of ``p`` below every element of ``q``."""
    qs = p.size
    above = ((1 << q.size) - 1) << qs
    below = (1 << qs) - 1
    up = [p.up_mask(i) | above for i in range(p.size)]
    up.extend(q.up_mask(j) << qs for j in range(q.size))
    down = [p.down_mask(i) for i in range(p.size)]
    down.extend(q.down_mask(j) << qs | below for j in range(q.size))
    return Poset._unchecked(up, down)


def product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on pairs; element (i, j) has index i*|q| + j.

    The up-set of (i, j) is the union, over ``a`` above ``i``, of the up-set
    of ``j`` shifted to row ``a`` (rows do not overlap, so the union is a
    sum); down-sets likewise.  The work follows the up-set sizes of ``p``.
    """
    n = q.size

    def masks(p_mask, q_mask) -> list[int]:
        rows = [[q_mask(j) << a * n for j in range(n)] for a in range(p.size)]
        out = []
        for i in range(p.size):
            above = list(_iter_bits(p_mask(i)))
            out.extend(sum(rows[a][j] for a in above) for j in range(n))
        return out

    return Poset._unchecked(masks(p.up_mask, q.up_mask), masks(p.down_mask, q.down_mask))


def subposet(p: Poset, elements: Iterable[int]) -> Poset:
    """The induced order on the given elements, re-indexed in ascending order.

    Each mask is compressed one run of consecutive kept elements at a time.
    """
    keep = sorted(set(elements))
    runs = []  # [first element, length, new index of the first element]
    for i, e in enumerate(keep):
        if runs and runs[-1][0] + runs[-1][1] == e:
            runs[-1][1] += 1
        else:
            runs.append([e, 1, i])

    def compress(mask: int) -> int:
        return sum((mask >> e & (1 << n) - 1) << i for e, n, i in runs)

    return Poset._unchecked(
        [compress(p.up_mask(e)) for e in keep], [compress(p.down_mask(e)) for e in keep]
    )


def _sub_from_mask(p: Poset, mask: int) -> Poset:
    return subposet(p, _iter_bits(mask))


# -- down-sets -------------------------------------------------------------------

@memo(SHAPE_ENTRIES)
def _down_set_masks(p: Poset) -> tuple[int, ...]:
    """All down-set bitmasks of ``p``, ascending; the one check of the size bound."""
    if p.size > DEFAULT_MAX_SIZE and not p.is_chain():
        raise EnumerationLimitError(
            f"down-set enumeration limited to {DEFAULT_MAX_SIZE} elements, poset has {p.size}"
        )
    strict_down = [p.down_mask(i) ^ (1 << i) for i in range(p.size)]
    seen = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for x in range(p.size):
            if not (s >> x) & 1 and strict_down[x] & ~s == 0:
                t = s | (1 << x)
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return tuple(sorted(seen))


def down_sets(p: Poset) -> list[frozenset[int]]:
    """Every subset closed downwards, from the empty set to all of ``p``.

    Deterministic order: by cardinality, then by sorted member tuple.  Raises
    :class:`EnumerationLimitError` above ``DEFAULT_MAX_SIZE`` elements unless
    ``p`` is a chain.
    """
    sets = [frozenset(_iter_bits(m)) for m in _down_set_masks(p)]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


# -- order-preserving maps --------------------------------------------------------


@dataclass(frozen=True)
class OrderMap:
    """An order-preserving map, stored as the image of each source element."""

    source: Poset
    target: Poset
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.source.size:
            raise ValueError("image length does not match source size")
        for i, q in enumerate(self.image):
            if not 0 <= q < self.target.size:
                raise ValueError(f"image of {i} out of range")
        for i in range(self.source.size):
            for j in _iter_bits(self.source.up_mask(i)):
                if not self.target.leq(self.image[i], self.image[j]):
                    raise ValueError(
                        f"map is not order-preserving: {i} <= {j} but "
                        f"{self.image[i]} !<= {self.image[j]}"
                    )

    def __call__(self, i: int) -> int:
        return self.image[i]

    @classmethod
    def _trusted(cls, source: Poset, target: Poset, image: tuple[int, ...]) -> "OrderMap":
        """Skip validation for maps that are order-preserving by construction."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "source", source)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "image", image)
        return obj


def _linear_extension(p: Poset) -> list[int]:
    """A deterministic linear extension (smallest index first among minima)."""
    return _topological_order([list(_iter_bits(p.up_mask(i) ^ 1 << i)) for i in range(p.size)])


def enum_hom(p: Poset, q: Poset, *, max_maps: int = DEFAULT_MAX_MAPS) -> list[OrderMap]:
    """All order-preserving maps p -> q, in a fixed deterministic order.

    The backtracking assigns along a linear extension, intersecting the
    up-sets of the images of the predecessors, so each produced map is
    order-preserving by construction.
    """
    ext = _linear_extension(p)
    preds = [[y for y in ext[:k] if p.lt(y, x)] for k, x in enumerate(ext)]
    full = (1 << q.size) - 1
    image = [0] * p.size
    out: list[OrderMap] = []

    def assign(k: int):
        if k == len(ext):
            if len(out) >= max_maps:
                raise EnumerationLimitError(f"more than {max_maps} maps")
            out.append(OrderMap._trusted(p, q, tuple(image)))
            return
        x = ext[k]
        candidates = full
        for y in preds[k]:
            candidates &= q.up_mask(image[y])
        for value in _iter_bits(candidates):
            image[x] = value
            assign(k + 1)

    assign(0)
    return out


# -- counting --------------------------------------------------------------------

@memo(SHAPE_ENTRIES)
def _chain_coeffs(p: Poset) -> tuple[int, ...]:
    """|hom(p, chain(n))| as ``e`` with the count ``sum(e[k] * C(n, k))``; ``|p| + 1`` entries.

    A map onto a k-chain is the same thing as a strict chain of ``k`` steps
    of down-sets from the empty set to all of ``p``, so ``e[k]`` counts
    those chains in the lattice of down-sets (Stanley, EC1 3.12).  With
    ``c_0`` the indicator of the empty set, ``c_k`` is the zeta transform
    of ``c_{k-1}`` over the down-sets less ``c_{k-1}`` itself, and ``e[k]``
    is its value at ``p``.  The zeta transform adds the elements in a
    linear extension: a down-set ``D`` takes the value of ``D - x``
    whenever ``x`` is maximal in ``D``.
    """
    if p.size == 0 or p.is_chain():
        return _multiset_coefficients(p.size)
    downs = _down_set_masks(p)  # ascending: the empty set first, all of ``p`` last
    index = {d: i for i, d in enumerate(downs)}
    steps = [
        (i, index[d ^ 1 << x])
        for x in _linear_extension(p)
        for i, d in enumerate(downs)
        if p.up_mask(x) & d == 1 << x
    ]
    c = [1] + [0] * (len(downs) - 1)
    coeffs = [0]
    for _ in range(p.size):
        h = list(c)
        for i, j in steps:
            h[i] += h[j]
        c = [a - b for a, b in zip(h, c)]
        coeffs.append(c[-1])
    return tuple(coeffs)


def _peel_chain_tail(q: Poset) -> tuple[Poset, int]:
    """Split q as (base, k) where q = base ⊕ chain(k) with k maximal; ``q`` itself when k = 0."""
    alive, tail = (1 << q.size) - 1, 0
    while alive:
        tops = [i for i in _iter_bits(alive) if q.down_mask(i) & alive == alive]
        if not tops:
            break
        alive ^= 1 << tops[0]
        tail += 1
    return (_sub_from_mask(q, alive) if tail else q), tail


def _backtrack_count(p: Poset, q: Poset, max_steps: int | None) -> int:
    """Exhaustive count for irregular targets (never materializes the maps)."""
    ext = _linear_extension(p)
    preds = [[y for y in ext[:k] if p.lt(y, x)] for k, x in enumerate(ext)]
    full = (1 << q.size) - 1
    image = {}
    steps = 0

    def count(k: int) -> int:
        nonlocal steps
        if k == len(ext):
            return 1
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise EnumerationLimitError(f"map counting exceeded {max_steps} steps")
        candidates = full
        for y in preds[k]:
            candidates &= q.up_mask(image[y])
        total = 0
        for value in _iter_bits(candidates):
            image[ext[k]] = value
            total += count(k + 1)
        image.pop(ext[k], None)
        return total

    return count(0)


@memo(CACHE_ENTRIES)
def _count(p: Poset, q: Poset, max_steps: int | None) -> int:
    """|hom(p, q)|, raising if one backtracking run takes more than ``max_steps`` steps."""
    if p.size == 0:
        return 1
    if q.size == 0:
        return 0
    q0, tail = _peel_chain_tail(q)
    if not tail:
        return _backtrack_count(p, q, max_steps)
    return binomial_value(hom_coefficients(p, q0, max_steps=max_steps), tail)


def count_hom(p: Poset, q: Poset, *, max_steps: int | None = None) -> int:
    """|hom(p, q)|, the number of order-preserving maps from p to q.

    Agrees with ``len(enum_hom(p, q))`` whenever both run.  Targets of the
    form (base ⊕ chain) are counted by splitting each map at the chain: the
    part landing in the base lives on a down-set of ``p`` and the rest is
    counted by the chain polynomial of the complementary up-set.  With
    ``max_steps``, a backtracking run longer than that raises.
    """
    return _count(p, q, max_steps)


def hom_coefficients(p: Poset, q: Poset, *, max_steps: int | None = None) -> tuple[int, ...]:
    """H(n) = |hom(p, q ⊕ chain(n))| as integers ``e`` with H(n) = sum of ``e[k] * C(n, k)``.

    Splitting each map at the chain gives
    H(n) = sum over down-sets D of p of |hom(D, q)| * (chain polynomial of p \\ D),
    so the coefficient vectors of the chain polynomials add up with integer
    weights.  There are ``|p| + 1`` entries; H has degree exactly |p| for
    nonempty p.  A chain ``p`` of any length is counted; any other ``p`` of
    more than ``DEFAULT_MAX_SIZE`` elements raises :class:`EnumerationLimitError`.
    """
    if not q.size:  # every map lands in the chain
        return _chain_coeffs(p)
    full = (1 << p.size) - 1
    total = [0] * (p.size + 1)
    for mask in _down_set_masks(p):
        lower = _count(_sub_from_mask(p, mask), q, max_steps)
        if lower:
            for k, e in enumerate(_chain_coeffs(_sub_from_mask(p, full & ~mask))):
                total[k] += lower * e
    return tuple(total)


def hom_polynomial(p: Poset, q: Poset, *, max_steps: int | None = None) -> MultiPoly:
    """The polynomial H(n) = |hom(p, q ⊕ chain(n))|, exact in ``n``.

    The coefficients of :func:`hom_coefficients`, in the monomial basis, under
    the same size bound.
    """
    e = hom_coefficients(p, q, max_steps=max_steps)
    return MultiPoly.from_binomial(("n",), {(k,): c for k, c in enumerate(e)})


# -- isomorphism testing (used by structural assertions and tests) ----------------


def _signatures(p: Poset) -> list[tuple[int, int, tuple, tuple]]:
    base = [(p.up_mask(i).bit_count(), p.down_mask(i).bit_count()) for i in range(p.size)]
    return [
        (
            base[i][0],
            base[i][1],
            tuple(sorted(base[j] for j in _iter_bits(p.up_mask(i)))),
            tuple(sorted(base[j] for j in _iter_bits(p.down_mask(i)))),
        )
        for i in range(p.size)
    ]


def are_isomorphic(p: Poset, q: Poset) -> bool:
    """Backtracking order-isomorphism test; intended for small posets."""
    if p.size != q.size:
        return False
    sp, sq = _signatures(p), _signatures(q)
    if sorted(sp) != sorted(sq):
        return False
    candidates = [[j for j in range(q.size) if sq[j] == sp[i]] for i in range(p.size)]
    order = sorted(range(p.size), key=lambda i: len(candidates[i]))
    match: dict[int, int] = {}
    used = set()

    def extend(k: int) -> bool:
        if k == p.size:
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for i2, j2 in match.items():
                if p.leq(i, i2) != q.leq(j, j2) or p.leq(i2, i) != q.leq(j2, j):
                    ok = False
                    break
            if ok:
                match[i] = j
                used.add(j)
                if extend(k + 1):
                    return True
                used.remove(j)
                del match[i]
        return False

    return extend(0)
