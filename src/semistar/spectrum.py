"""Labeled spectral trees of semilocal Prüfer domains.

A domain is modeled by the reduced tree of branching points of its prime
spectrum: a rooted tree in which the root stands for the zero ideal and the
leaves for the maximal ideals.  Every node carries a weight ``omega`` (the
number of fractional-star operations of the valuation slice between the node
and the branching point below it) and every leaf additionally carries
``epsilon`` in {1, 2} (the number of star operations of the localization at
that maximal ideal; 1 exactly when the maximal ideal is principal).

Homeomorphic irreducibility means no node other than the root may have
exactly one child.  The root may: a domain whose maximal ideals all share a
nonzero prime has a single branch.

The skeleton lattice of overrings is encoded by bitmasks over the branch
indices: the intersection of a set S of branch rings corresponds to the mask
of S, ring inclusion is *reverse* mask inclusion, and intersecting two rings
is a bitwise ``or``.  A support is then a union-closed family of masks
containing the empty mask (the quotient field).
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ._memo import CACHE_ENTRIES, memo
from .errors import EnumerationLimitError, SpectrumValidationError, UnknownNodeError
from .posets import Poset, _iter_bits

#: Default cap on the number of branches in support enumerations.
DEFAULT_MAX_BRANCHES = 4

IDEMPOTENT = "idempotent"
NONIDEMPOTENT = "nonidempotent"


@dataclass(frozen=True)
class TreeNode:
    id: str
    parent: str | None
    omega: int
    epsilon: int | None = None


class SpectrumTree:
    """A validated spectral tree.  Use :func:`validate_tree` or :func:`build_tree`."""

    __slots__ = ("nodes", "root_id", "_by_id", "_children", "_key", "_hash")

    def __init__(self, nodes: Sequence[TreeNode]):
        problems = _collect_problems(nodes)
        if problems:
            raise SpectrumValidationError(problems)
        by_id = {n.id: n for n in nodes}
        children: dict[str, list[str]] = {n.id: [] for n in nodes}
        root_id = None
        for n in nodes:
            if n.parent is None:
                root_id = n.id
            else:
                children[n.parent].append(n.id)
        for ids in children.values():
            ids.sort()
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "root_id", root_id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})
        # the nodes by id: equality and hash read them, so memo hits sort nothing
        object.__setattr__(self, "_key", tuple(sorted(self.nodes, key=lambda n: n.id)))
        object.__setattr__(self, "_hash", hash(self._key))

    def __setattr__(self, name, value):
        raise AttributeError("SpectrumTree is immutable")

    # -- access ---------------------------------------------------------------

    def node(self, node_id: str) -> TreeNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node with id {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def children(self, node_id: str) -> tuple[str, ...]:
        self.node(node_id)
        return self._children[node_id]

    def is_leaf(self, node_id: str) -> bool:
        return self.node(node_id).parent is not None and not self._children[node_id]

    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(n.id for n in self.nodes if self.is_leaf(n.id)))

    def subtree_ids(self, node_id: str) -> tuple[str, ...]:
        out = [node_id]
        stack = [node_id]
        while stack:
            for child in self.children(stack.pop()):
                out.append(child)
                stack.append(child)
        return tuple(sorted(out))

    def omega(self, node_id: str) -> int:
        return self.node(node_id).omega

    def epsilon(self, node_id: str) -> int:
        value = self.node(node_id).epsilon
        if value is None:
            raise ValueError(f"node {node_id!r} carries no epsilon label")
        return value

    def __eq__(self, other):
        return isinstance(other, SpectrumTree) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SpectrumTree({len(self.nodes)} nodes, root {self.root_id!r})"

    # -- relabeling -------------------------------------------------------------

    def with_labels(
        self,
        omega: Mapping[str, int] | None = None,
        epsilon: Mapping[str, int] | None = None,
    ) -> "SpectrumTree":
        """A copy with some omega/epsilon labels replaced; re-validated."""
        omega = dict(omega or {})
        epsilon = dict(epsilon or {})
        for key in list(omega) + list(epsilon):
            self.node(key)
        new_nodes = []
        for n in self.nodes:
            new_nodes.append(
                TreeNode(
                    n.id,
                    n.parent,
                    omega.get(n.id, n.omega),
                    epsilon.get(n.id, n.epsilon),
                )
            )
        return SpectrumTree(new_nodes)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        out = []
        for n in self.nodes:
            entry: dict = {"id": n.id, "parent": n.parent, "omega": n.omega}
            if n.epsilon is not None:
                entry["epsilon"] = n.epsilon
            out.append(entry)
        return {"nodes": out}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_dot(self) -> str:
        lines = ["digraph spectrum {", "  rankdir=BT;", "  node [shape=box];"]
        index = {n.id: k for k, n in enumerate(self.nodes)}
        for n in self.nodes:
            label = f"{n.id}\\nomega={n.omega}"
            if n.epsilon is not None:
                label += f", eps={n.epsilon}"
            lines.append(f'  n{index[n.id]} [label="{label}"];')
        for n in self.nodes:
            if n.parent is not None:
                lines.append(f"  n{index[n.parent]} -> n{index[n.id]};")
        lines.append("}")
        return "\n".join(lines)


def _coerce_nodes(data) -> list[TreeNode] | list[str]:
    """Raw JSON-ish input to TreeNode list, or a list of structural problems."""
    if isinstance(data, SpectrumTree):
        return list(data.nodes)
    if isinstance(data, Mapping):
        if "nodes" not in data:
            return ['input has no "nodes" entry']
        rows = data["nodes"]
    else:
        rows = data
    if not isinstance(rows, (list, tuple)):
        return ['"nodes" is not a list']
    problems = []
    nodes = []
    for k, row in enumerate(rows):
        if not isinstance(row, Mapping):
            problems.append(f"node #{k} is not an object")
            continue
        node_id = row.get("id")
        if not isinstance(node_id, str) or not node_id:
            problems.append(f"node #{k} has no usable id")
            continue
        parent = row.get("parent", "missing")
        if parent == "missing":
            problems.append(f"node {node_id!r} has no parent entry (use null for the root)")
            parent = None
        if parent is not None and not isinstance(parent, str):
            problems.append(f"node {node_id!r} has a non-string parent")
            parent = None
        omega = row.get("omega")
        if not isinstance(omega, int) or isinstance(omega, bool):
            problems.append(f"node {node_id!r} has no integer omega")
            omega = 1
        epsilon = row.get("epsilon")
        if epsilon is not None and (not isinstance(epsilon, int) or isinstance(epsilon, bool)):
            problems.append(f"node {node_id!r} has a non-integer epsilon")
            epsilon = None
        unknown = set(row) - {"id", "parent", "omega", "epsilon"}
        if unknown:
            problems.append(f"node {node_id!r} has unknown keys {sorted(unknown)}")
        nodes.append(TreeNode(node_id, parent, omega, epsilon))
    if problems:
        return problems
    return nodes


def _collect_problems(nodes: Sequence[TreeNode]) -> list[str]:
    problems = []
    ids = [n.id for n in nodes]
    if not nodes:
        return ["tree has no nodes"]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        problems.append(f"duplicate node ids: {dupes}")
        return problems
    by_id = {n.id: n for n in nodes}
    roots = [n for n in nodes if n.parent is None]
    if len(roots) != 1:
        problems.append(f"expected exactly one root (parent null), found {len(roots)}")
        return problems
    root = roots[0]
    for n in nodes:
        if n.parent is not None and n.parent not in by_id:
            problems.append(f"node {n.id!r} references missing parent {n.parent!r}")
    if any(n.parent is not None and n.parent not in by_id for n in nodes):
        return problems

    children: dict[str, list[str]] = {n.id: [] for n in nodes}
    for n in nodes:
        if n.parent is not None:
            children[n.parent].append(n.id)
    reached = {root.id}
    stack = [root.id]
    while stack:
        for child in children[stack.pop()]:
            if child not in reached:
                reached.add(child)
                stack.append(child)
    unreachable = sorted(set(ids) - reached)
    if unreachable:
        problems.append(f"not a tree: nodes unreachable from the root: {unreachable}")
        return problems

    if root.omega != 1:
        problems.append(f"root omega must be 1, got {root.omega}")
    if root.epsilon is not None:
        problems.append("the root carries no epsilon label")
    for n in nodes:
        if n.omega < 1:
            problems.append(f"node {n.id!r}: omega must be >= 1, got {n.omega}")
        kids = children[n.id]
        is_leaf = n.parent is not None and not kids
        if n.parent is not None and len(kids) == 1:
            problems.append(
                f"node {n.id!r} has exactly one child and is not the root "
                "(not a branching point)"
            )
        if is_leaf:
            if n.epsilon is None:
                problems.append(f"leaf {n.id!r} is missing its epsilon label")
            elif n.epsilon not in (1, 2):
                problems.append(f"leaf {n.id!r}: epsilon must be 1 or 2, got {n.epsilon}")
            elif n.omega < n.epsilon:
                problems.append(
                    f"leaf {n.id!r}: omega ({n.omega}) must be at least epsilon ({n.epsilon})"
                )
        elif n.parent is not None and n.epsilon is not None:
            problems.append(f"internal node {n.id!r} carries an epsilon label")
    return problems


def validate_tree(data) -> SpectrumTree:
    """Check a raw tree description and return it as a :class:`SpectrumTree`.

    ``data`` may be a parsed JSON object ``{"nodes": [...]}``, a bare node
    list, or an existing tree.  On failure a
    :class:`~semistar.errors.SpectrumValidationError` is raised whose
    ``problems`` attribute lists every violated invariant.
    """
    nodes = _coerce_nodes(data)
    if nodes and isinstance(nodes[0], str):
        raise SpectrumValidationError(nodes)
    return SpectrumTree(nodes)


def build_tree(rows: Iterable) -> SpectrumTree:
    """Convenience constructor from tuples ``(id, parent, omega[, epsilon])``."""
    nodes = []
    for row in rows:
        if isinstance(row, TreeNode):
            nodes.append(row)
        else:
            node_id, parent, omega = row[0], row[1], row[2]
            epsilon = row[3] if len(row) > 3 else None
            nodes.append(TreeNode(node_id, parent, omega, epsilon))
    return SpectrumTree(nodes)


def load_tree(path) -> SpectrumTree:
    """Read and validate a tree from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_tree(json.load(handle))


# -- standard decomposition and surgery ------------------------------------------


def standard_decomposition(t: SpectrumTree) -> tuple[str, ...]:
    """The branch roots: the children of the tree root, in id order.

    Each branch collects the maximal ideals of one dependence class, so the
    branches partition the leaves.
    """
    return t.children(t.root_id)


def branch_subtree(t: SpectrumTree, child_id: str) -> SpectrumTree:
    """The overring generated by one dependence class: root plus one branch."""
    if child_id not in standard_decomposition(t):
        raise UnknownNodeError(f"{child_id!r} is not a child of the root")
    keep = set(t.subtree_ids(child_id))
    root = t.node(t.root_id)
    nodes = [TreeNode(root.id, None, 1, None)]
    nodes.extend(n for n in t.nodes if n.id in keep)
    return SpectrumTree(nodes)


def quotient_subtree(t: SpectrumTree, node_id: str) -> SpectrumTree:
    """The tree of the quotient by the prime at ``node_id``: re-root there.

    The new root keeps its id but its omega resets to 1 (its slice collapses
    in the quotient) and it loses any epsilon label; all other labels are
    preserved.  The result is re-validated.
    """
    node = t.node(node_id)
    if node.parent is None:
        raise ValueError("cannot take the quotient at the root")
    keep = set(t.subtree_ids(node_id))
    nodes = [TreeNode(node.id, None, 1, None)]
    nodes.extend(n for n in t.nodes if n.id in keep and n.id != node_id)
    return SpectrumTree(nodes)


def derive_omega(segment: Sequence[str]) -> int:
    """Weight of a slice from the idempotency of the primes inside it.

    Each nonidempotent prime contributes 1 and each idempotent prime
    contributes 2, so the result is |nonidempotent| + 2 * |idempotent|.
    """
    if not segment:
        raise ValueError("empty segment")
    total = 0
    for flag in segment:
        if flag == NONIDEMPOTENT:
            total += 1
        elif flag == IDEMPOTENT:
            total += 2
        else:
            raise ValueError(f"unknown idempotency flag {flag!r}")
    return total


# -- skeleton and supports ---------------------------------------------------------


def _mask_label(mask: int, branch_ids: Sequence[str]) -> str:
    if mask == 0:
        return "K"
    if mask == (1 << len(branch_ids)) - 1:
        return "D"
    names = [branch_ids[i] for i in range(len(branch_ids)) if (mask >> i) & 1]
    return "T{" + ",".join(names) + "}"


@dataclass(frozen=True)
class Skeleton:
    """The lattice of all intersections of branch overrings.

    Elements are the 2^m masks over branch indices; the mask of S encodes
    the intersection of the branches in S.  Ring inclusion is reverse mask
    inclusion, so the full mask is the domain itself (the minimum) and the
    empty mask is the quotient field (the maximum).
    """

    branch_ids: tuple[str, ...]

    @property
    def branch_count(self) -> int:
        return len(self.branch_ids)

    @property
    def full_mask(self) -> int:
        return (1 << self.branch_count) - 1

    def elements(self) -> tuple[int, ...]:
        return tuple(range(1 << self.branch_count))

    def leq(self, a: int, b: int) -> bool:
        """Ring inclusion: the intersection over A sits inside the one over B iff A ⊇ B."""
        return a & b == b

    def meet(self, a: int, b: int) -> int:
        """Intersection of rings corresponds to union of branch sets."""
        return a | b

    def as_poset(self) -> Poset:
        """Poset indexed by mask value, ordered by ring inclusion."""
        n = 1 << self.branch_count
        pairs = [(a, b) for a in range(n) for b in range(n) if self.leq(a, b)]
        return Poset.from_relation(n, pairs)

    def label(self, mask: int) -> str:
        return _mask_label(mask, self.branch_ids)


def skeleton(t: SpectrumTree) -> Skeleton:
    return Skeleton(standard_decomposition(t))


def _component_sort_key(mask: int):
    return (-mask.bit_count(), mask)


@dataclass(frozen=True)
class Support:
    """A union-closed family of skeleton masks containing the empty mask.

    These are exactly the families of overrings on which a semistar
    operation can restrict to fractional-star operations: closed under
    intersection (mask union) and always containing the quotient field.
    """

    branch_count: int
    masks: frozenset[int]
    # computed once: the ordered set and element enumeration read components per branch
    _sorted: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _components: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        full = (1 << self.branch_count) - 1
        if 0 not in self.masks:
            raise ValueError("a support always contains the quotient field (empty mask)")
        for m in self.masks:
            if m & ~full:
                raise ValueError(f"mask {m} out of range for {self.branch_count} branches")
        for a in self.masks:
            for b in self.masks:
                if (a | b) not in self.masks:
                    raise ValueError(
                        f"family is not union-closed: {a} | {b} = {a | b} is missing"
                    )
        ordered = tuple(sorted(self.masks, key=_component_sort_key))
        components = tuple(
            tuple(m for m in ordered if (m >> b) & 1) for b in range(self.branch_count)
        )
        object.__setattr__(self, "_sorted", ordered)
        object.__setattr__(self, "_components", components)

    @property
    def full_mask(self) -> int:
        return (1 << self.branch_count) - 1

    def contains_domain(self) -> bool:
        return self.full_mask in self.masks

    def sorted_masks(self) -> tuple[int, ...]:
        return self._sorted

    def component(self, branch: int) -> tuple[int, ...]:
        """The masks of the family whose ring sits inside the given branch."""
        if not 0 <= branch < self.branch_count:
            raise ValueError(f"branch index {branch} out of range")
        return self._components[branch]

    def component_poset(self, branch: int) -> tuple[Poset, int | None]:
        """The component as a poset, plus the index of the domain if present.

        Elements follow :meth:`component` order, so the domain (full mask),
        when present, is the minimum and sits at index 0.
        """
        return _component_poset(self.component(branch), self.full_mask)

    def sort_key(self):
        """The canonical order of supports: size, then the masks in ascending order."""
        return (len(self.masks), tuple(sorted(self.masks)))

    def label(self, branch_ids: Sequence[str]) -> str:
        names = [_mask_label(m, branch_ids) for m in self.sorted_masks()]
        return "{" + ", ".join(names) + "}"


def _reverse_inclusion(masks: Sequence[int]) -> Poset:
    """The masks by index, ``a`` below ``b`` when ``a`` contains ``b`` (ring inclusion)."""
    return Poset._unchecked([sum(1 << j for j, b in enumerate(masks) if a & b == b) for a in masks])


@memo(CACHE_ENTRIES)
def _component_poset(masks: tuple[int, ...], full_mask: int) -> tuple[Poset, int | None]:
    d_index = masks.index(full_mask) if full_mask in masks else None
    return _reverse_inclusion(masks), d_index


class SupportTable:
    """The supports over ``m`` branches, reduced to the shapes of their components.

    A support enters a support sum only through its component posets, one
    per branch, so the sum needs just: ``shapes``, the distinct component
    posets; ``columns[i]``, each row's shape id at branch ``i``;
    ``multiplicity``, the number of supports with that row (identical rows
    are merged); and ``closing``, how many of those contain the domain.  A
    component is union-closed, so its union, which holds the most bits,
    sorts first: a shape's element 0 is its minimum, the domain when the
    support contains it.  Columns are ``bytes`` while the shape ids fit, so
    a table for four branches holds about 20 kB.

    The table is read from the family bitsets of :func:`_union_closed`, with
    no :class:`Support` built: a branch's component is the family's bitset
    masked by that branch.  A component is ordered as its link, the family
    over ``m - 1`` branches left when that branch's bit is taken out of
    each of its masks, so each distinct link is sorted into a poset once
    (at most 122 at four branches).  Rows and shape ids come in generation
    order, not in canonical support order; a sum over the table does not
    depend on it.
    """

    __slots__ = ("shapes", "columns", "multiplicity", "closing")

    def __init__(self, m: int):
        full = (1 << m) - 1
        families = _union_closed(m)
        ids: dict[Poset, int] = {}
        by_link: dict[int, int] = {}  # link bitset -> shape id
        columns = []
        for b, part in enumerate(_inside(m)):
            shape_of = {}  # component bitset -> shape id
            for component in dict.fromkeys(family & part for family in families):
                link = _link(component, b)
                if link not in by_link:
                    masks = tuple(sorted(_iter_bits(link), key=_component_sort_key))
                    by_link[link] = ids.setdefault(_reverse_inclusion(masks), len(ids))
                shape_of[component] = by_link[link]
            columns.append([shape_of[family & part] for family in families])
        keys = list(zip(*columns)) if m else [()] * len(families)
        rows = Counter(keys)
        closing = Counter(key for key, family in zip(keys, families) if family >> full & 1)
        self.shapes = tuple(ids)
        columns = ([row[i] for row in rows] for i in range(m))
        self.columns = tuple(bytes(c) if len(ids) <= 256 else array("I", c) for c in columns)
        self.multiplicity = array("I", rows.values())
        self.closing = array("I", (closing[row] for row in rows))


def _inside(m: int) -> tuple[int, ...]:
    """Per branch, the bitset of the masks over ``m`` branches that contain it."""
    return tuple(sum(1 << s for s in range(1 << m) if s >> b & 1) for b in range(m))


def _link(component: int, b: int) -> int:
    """A component of branch ``b`` with bit ``b`` taken out of each mask, as a bitset.

    Every mask of the component holds bit ``b``; the bits above it move
    down one place.  Taking out a bit every mask holds keeps both the
    inclusions and the sort order, so the link orders like the component.
    """
    low = (1 << b) - 1
    return sum(1 << (s & low | s >> 1 & ~low) for s in _iter_bits(component))


@memo(CACHE_ENTRIES)
def _union_closed(m: int) -> tuple[int, ...]:
    """The supports over ``m`` branches as bitsets over the masks, in generation order.

    Bit ``s`` of a family is set when mask ``s`` is in it.  A family splits
    at its last branch into ``A``, its masks without that branch, and ``B``,
    the masks with it, that bit removed.  ``A`` is a support over ``m - 1``
    branches and ``B`` is one with or without its empty mask (so ``B`` may
    be empty), and the family ``A | B << 2^(m-1)`` is union-closed exactly
    when ``a | b`` is in ``B`` for every ``a`` in ``A`` and ``b`` in ``B``.
    So each mask ``a`` gets one bitset over the candidates ``B``, marking
    those closed under ``| a``, and the ``B`` that fit an ``A`` are the
    ``and`` of the bitsets of its masks (Brinkmann & Deklerck, "Generation
    of union-closed sets and Moore families", J. Integer Sequences, 2018).
    """
    if m == 0:
        return (1,)
    smaller = _union_closed(m - 1)
    half = 1 << m - 1
    candidates = smaller + tuple(family ^ 1 for family in smaller)
    everything, inside = (1 << half) - 1, _inside(m - 1)
    closed = [0]
    for a in range(1, half):
        # per branch in ``a``: the masks without it move up by its bit, the ones with it stay
        steps = [(everything ^ part, 1 << j, part) for j, part in enumerate(inside) if a >> j & 1]
        fits = 0
        for k, family in enumerate(candidates):
            joined = family  # becomes the bitset of ``b | a`` over the masks ``b`` of the family
            for move, shift, stay in steps:
                joined = (joined & move) << shift | joined & stay
            if not joined & ~family:
                fits |= 1 << k
        closed.append(fits)
    shifted = [family << half for family in candidates]
    found = []
    for low in smaller:
        fits = (1 << len(candidates)) - 1
        for a in _iter_bits(low ^ 1):  # the empty mask of ``A`` constrains nothing
            fits &= closed[a]
        found.extend(low | shifted[k] for k in _iter_bits(fits))
    return tuple(found)


@memo(CACHE_ENTRIES)
def _supports(m: int) -> tuple[Support, ...]:
    """The supports over ``m`` branches as :class:`Support` objects, sorted canonically."""
    supports = (Support(m, frozenset(_iter_bits(family))) for family in _union_closed(m))
    return tuple(sorted(supports, key=Support.sort_key))


def _check_branches(m: int, max_branches: int) -> None:
    """The branch limit of support enumeration, for supports and tables alike."""
    if m < 0:
        raise ValueError("branch count must be nonnegative")
    if m > max_branches:
        raise EnumerationLimitError(
            f"support enumeration limited to {max_branches} branches, got {m}"
        )


def enumerate_supports(
    source: SpectrumTree | int, *, max_branches: int = DEFAULT_MAX_BRANCHES
) -> tuple[Support, ...]:
    """All supports over ``m`` branches, sorted canonically (:meth:`Support.sort_key`).

    The families come from :func:`_union_closed`, which builds those over
    ``m`` branches from those over ``m - 1``, each exactly once.
    """
    if isinstance(source, SpectrumTree):
        m = len(standard_decomposition(source))
    else:
        m = source
    _check_branches(m, max_branches)
    return _supports(m)


def support_table(m: int, *, max_branches: int = DEFAULT_MAX_BRANCHES) -> SupportTable:
    """The shape table of the supports over ``m`` branches (see :class:`SupportTable`).

    The branch limit is that of :func:`enumerate_supports`; no
    :class:`Support` is built.
    """
    _check_branches(m, max_branches)
    return _support_table(m)


@memo(CACHE_ENTRIES)
def _support_table(m: int) -> SupportTable:
    return SupportTable(m)


class PairTable:
    """The supports over ``m`` branches in canonical order, and which cover which.

    ``shapes`` are the distinct component posets, and ``columns[b]`` gives
    each support's shape id at branch ``b``.  Nested supports ``T < S`` have
    ``T`` plus a maximal mask of ``S - T`` between them, so ``S`` covers
    ``T`` exactly when it has one mask more.  ``big`` and ``small`` index
    ``supports`` by such pair, ``small < big``: 0, 1, 9 and 151 pairs for
    ``m = 0..3``, 10 825 for ``m = 4``.  ``pair_columns[b]`` gives each
    pair's id in ``pairs``, whose entries are ``(outer, inner, at)``: the
    component posets at ``b`` of the big and the small support, and the
    index in the outer component of each inner mask.  Relabelling the
    branches maps supports to supports, so every shape and pair id occur at
    every branch.
    """

    __slots__ = ("supports", "shapes", "columns", "big", "small", "pairs", "pair_columns")

    def __init__(self, m: int):
        self.supports = supports = _supports(m)
        families = [sum(1 << s for s in support.masks) for support in supports]
        index = {family: i for i, family in enumerate(families)}
        self.big, self.small = array("I"), array("I")
        for j, family in enumerate(families):
            # the family less one nonzero mask, where that is a support
            less = (index.get(family ^ 1 << s) for s in _iter_bits(family ^ 1))
            covered = sorted(i for i in less if i is not None)
            self.big.extend([j] * len(covered))
            self.small.extend(covered)
        shapes: dict[Poset, int] = {}
        pairs: dict[tuple, int] = {}  # (outer, inner, at) -> pair id
        self.columns, self.pair_columns = [], []
        for b in range(m):
            parts: dict[tuple, int] = {}  # the components at ``b``, numbered
            ids = [parts.setdefault(support.component(b), len(parts)) for support in supports]
            components, n = list(parts), len(parts)
            posets = [_component_poset(c, (1 << m) - 1)[0] for c in components]
            shape_ids = [shapes.setdefault(p, len(shapes)) for p in posets]
            self.columns.append(array("I", (shape_ids[k] for k in ids)))
            keys = [ids[j] * n + ids[i] for j, i in zip(self.big, self.small)]
            found = {}  # pair ids by ``outer * n + inner``
            for key in dict.fromkeys(keys):
                outer, inner = divmod(key, n)
                at = tuple(map(components[outer].index, components[inner]))
                found[key] = pairs.setdefault((posets[outer], posets[inner], at), len(pairs))
            self.pair_columns.append(array("I", map(found.__getitem__, keys)))
        self.shapes, self.pairs = tuple(shapes), tuple(pairs)


def pair_table(m: int, *, max_branches: int = DEFAULT_MAX_BRANCHES) -> PairTable:
    """The covering pairs of supports over ``m`` branches (see :class:`PairTable`).

    The branch limit is that of :func:`enumerate_supports`.
    """
    _check_branches(m, max_branches)
    return _pair_table(m)


@memo(CACHE_ENTRIES)
def _pair_table(m: int) -> PairTable:
    return PairTable(m)
