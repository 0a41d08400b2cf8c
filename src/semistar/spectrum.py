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
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Sequence

from ._memo import CACHE_ENTRIES, memo
from .errors import EnumerationLimitError, SpectrumValidationError, UnknownNodeError
from .posets import Poset, _iter_bits, _dot_escaped

#: Default cap on the number of branches in support enumerations.
DEFAULT_MAX_BRANCHES = 4

IDEMPOTENT = "idempotent"
NONIDEMPOTENT = "nonidempotent"


@dataclass(frozen=True, slots=True)
class TreeNode:
    id: str
    parent: str | None
    omega: int
    epsilon: int | None = None


#: The id of a node.
_node_id = attrgetter("id")


class SpectrumTree:
    """A validated spectral tree.  Use :func:`validate_tree` or :func:`build_tree`."""

    __slots__ = ("nodes", "root_id", "_by_id", "_children", "_key", "_hash")

    def __init__(self, nodes: Iterable[TreeNode], _json_rows: bool = False):
        problems, nodes = _read_rows(nodes, _json_rows)
        if not problems:
            problems, by_id, key, children = _check_nodes(nodes)
        if problems:
            raise SpectrumValidationError(problems)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "root_id", next(n.id for n in nodes if n.parent is None))
        object.__setattr__(self, "_by_id", by_id)
        # the child ids of each node that has any, sorted
        object.__setattr__(self, "_children", dict(zip(children, map(tuple, children.values()))))
        # the nodes by id: equality and hash read them, so memo hits sort nothing
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("SpectrumTree is immutable")

    def __reduce__(self):
        """Copied and pickled as its nodes, re-validated when rebuilt."""
        return SpectrumTree, (self.nodes,)

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
        return self._children.get(node_id, ())

    def is_leaf(self, node_id: str) -> bool:
        return self.node(node_id).parent is not None and node_id not in self._children

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
        return SpectrumTree([
            TreeNode(n.id, n.parent, omega.get(n.id, n.omega), epsilon.get(n.id, n.epsilon))
            for n in self.nodes
        ])

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
            label = f"{_dot_escaped(n.id)}\\nomega={n.omega}"
            if n.epsilon is not None:
                label += f", eps={n.epsilon}"
            lines.append(f'  n{index[n.id]} [label="{label}"];')
        for n in self.nodes:
            if n.parent is not None:
                lines.append(f"  n{index[n.parent]} -> n{index[n.id]};")
        lines.append("}")
        return "\n".join(lines)


#: The keys a node row may hold.
_NODE_KEYS = frozenset(("id", "parent", "omega", "epsilon"))


def _field_problems(problems: list[str], k: int, node: TreeNode, parent_entry: bool = True) -> bool:
    """Add to ``problems`` what is wrong with the fields of node ``k``; False for a bad id.

    Every way into a tree runs these checks: the id is a non-empty string,
    the parent a string or null, omega an integer and epsilon one or null,
    where a ``bool`` is no integer.  A node without a usable id is named by
    its index and nothing more is said of it.  ``parent_entry`` is False for
    a JSON row with no ``parent`` key.  A row whose fields have exactly
    these types passes one combined test; any other row is looked at field
    by field.
    """
    node_id, parent, omega, epsilon = node.id, node.parent, node.omega, node.epsilon
    if (
        type(node_id) is str and node_id and parent_entry
        and (parent is None or type(parent) is str)
        and type(omega) is int and (epsilon is None or type(epsilon) is int)
    ):
        return True
    if not isinstance(node_id, str) or not node_id:
        problems.append(f"node #{k} has no usable id")
        return False
    if not parent_entry:
        problems.append(f"node {node_id!r} has no parent entry (use null for the root)")
    elif parent is not None and not isinstance(parent, str):
        problems.append(f"node {node_id!r} has a non-string parent")
    if not isinstance(omega, int) or isinstance(omega, bool):
        problems.append(f"node {node_id!r} has no integer omega")
    if epsilon is not None and (not isinstance(epsilon, int) or isinstance(epsilon, bool)):
        problems.append(f"node {node_id!r} has a non-integer epsilon")
    return True


def _read_rows(rows: Iterable, json_rows: bool) -> tuple[list[str], tuple[TreeNode, ...]]:
    """The problems of the rows in order, and their nodes: the one row loop of every tree.

    A JSON row is a mapping with no unknown keys, another row a :class:`TreeNode`.
    """
    problems, nodes = [], []
    for k, row in enumerate(rows):
        if not json_rows and isinstance(row, TreeNode):
            node = row
            _field_problems(problems, k, node)
        elif json_rows and (type(row) is dict or isinstance(row, Mapping)):
            node = TreeNode(row.get("id"), row.get("parent"), row.get("omega"), row.get("epsilon"))
            if (_field_problems(problems, k, node, "parent" in row)
                    and not _NODE_KEYS.issuperset(row)):
                problems.append(f"node {node.id!r} has unknown keys {sorted(row.keys() - _NODE_KEYS)}")
        else:
            problems.append(f"node #{k} is not {'an object' if json_rows else 'a TreeNode'}")
            continue
        nodes.append(node)
    return problems, tuple(nodes)


def _check_nodes(nodes: Sequence[TreeNode]) -> tuple[list[str], dict, tuple, dict]:
    """The problems of ``nodes`` as a tree, then the nodes by id, the nodes sorted by
    id, and the sorted child ids of each parent.

    The nodes' fields are checked already (:func:`_read_rows`).  The
    structural checks stop at the first kind of problem found, leaving the
    index and the child lists incomplete.  A node reached from the root is
    reached once, as each has one parent, so the walk keeps no set.
    """
    problems: list[str] = []
    if not nodes:
        return ["tree has no nodes"], {}, (), {}
    by_id = dict(zip(map(_node_id, nodes), nodes))
    if len(by_id) != len(nodes):
        seen, dupes = set(), set()
        for n in nodes:
            (dupes if n.id in seen else seen).add(n.id)
        return [f"duplicate node ids: {sorted(dupes)}"], by_id, (), {}
    key = tuple(map(by_id.__getitem__, sorted(by_id)))
    roots, children, orphans = [], {}, False
    for n in key:  # in id order, so each child list comes out sorted
        parent = n.parent
        kids = children.get(parent)
        if kids is not None:
            kids.append(n.id)
        elif parent is None:
            roots.append(n)
        elif parent in by_id:
            children[parent] = [n.id]
        else:
            orphans = True
    if len(roots) != 1:
        return [f"expected exactly one root (parent null), found {len(roots)}"], by_id, key, {}
    if orphans:  # named in the order of the nodes
        return [
            f"node {n.id!r} references missing parent {n.parent!r}"
            for n in nodes if n.parent is not None and n.parent not in by_id
        ], by_id, key, children
    root = roots[0]
    order = [root.id]
    for node_id in order:  # grows as it is read
        order.extend(children.get(node_id, ()))
    if len(order) != len(nodes):
        unreachable = sorted(set(by_id).difference(order))
        return [f"not a tree: nodes unreachable from the root: {unreachable}"], by_id, key, children

    if root.omega != 1:
        problems.append(f"root omega must be 1, got {root.omega}")
    if root.epsilon is not None:
        problems.append("the root carries no epsilon label")
    for n in nodes:
        node_id, omega, epsilon = n.id, n.omega, n.epsilon
        if omega < 1:
            problems.append(f"node {node_id!r}: omega must be >= 1, got {omega}")
        if n.parent is None:
            continue
        kids = children.get(node_id)
        if kids is None:
            if epsilon is None:
                problems.append(f"leaf {node_id!r} is missing its epsilon label")
            elif epsilon not in (1, 2):
                problems.append(f"leaf {node_id!r}: epsilon must be 1 or 2, got {epsilon}")
            elif omega < epsilon:
                problems.append(
                    f"leaf {node_id!r}: omega ({omega}) must be at least epsilon ({epsilon})"
                )
            continue
        if len(kids) == 1:
            problems.append(
                f"node {node_id!r} has exactly one child and is not the root "
                "(not a branching point)"
            )
        if epsilon is not None:
            problems.append(f"internal node {node_id!r} carries an epsilon label")
    return problems, by_id, key, children


def validate_tree(data) -> SpectrumTree:
    """Check a raw tree description and return it as a :class:`SpectrumTree`.

    ``data`` may be a parsed JSON object ``{"nodes": [...]}``, a bare node
    list, or an existing tree.  On failure a
    :class:`~semistar.errors.SpectrumValidationError` is raised whose
    ``problems`` attribute lists every violated invariant.
    """
    if isinstance(data, SpectrumTree):
        return SpectrumTree(data.nodes)
    if isinstance(data, Mapping) and "nodes" not in data:
        raise SpectrumValidationError(['input has no "nodes" entry'])
    rows = data["nodes"] if isinstance(data, Mapping) else data
    if not isinstance(rows, (list, tuple)):
        raise SpectrumValidationError(['"nodes" is not a list'])
    return SpectrumTree(rows, _json_rows=True)


def build_tree(rows: Iterable) -> SpectrumTree:
    """Convenience constructor from tuples ``(id, parent, omega[, epsilon])``.

    A label left out is null, as in a JSON row: ``(id, parent)`` has no
    integer omega.  :class:`TreeNode` rows pass as they are; so does any
    other row that is not two to four entries, which the tree names.
    """
    return SpectrumTree(
        TreeNode(*row, *[None] * (4 - len(row)))
        if isinstance(row, (tuple, list)) and 2 <= len(row) <= 4 else row
        for row in rows
    )


def load_tree(path) -> SpectrumTree:
    """Read and validate a tree from a JSON file, as the command line reads one."""
    with open(path, "r", encoding="utf-8") as handle:
        return _read_tree(handle.read())


def _read_tree(text: str) -> SpectrumTree:
    """Parse and validate a tree from a JSON text; nesting too deep is a ``ValueError``."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input nests too deeply") from None
    return validate_tree(data)


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
                    raise ValueError(f"family is not union-closed: {a} | {b} = {a | b} is missing")

    @property
    def full_mask(self) -> int:
        return (1 << self.branch_count) - 1

    def contains_domain(self) -> bool:
        return self.full_mask in self.masks

    def component(self, branch: int) -> tuple[int, ...]:
        """The masks of the family whose ring sits inside the given branch."""
        if not 0 <= branch < self.branch_count:
            raise ValueError(f"branch index {branch} out of range")
        return tuple(sorted((m for m in self.masks if m >> branch & 1), key=_component_sort_key))

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
        return _family_label(sum(1 << m for m in self.masks), branch_ids)


def _family_label(family: int, branch_ids: Sequence[str]) -> str:
    """The label of the support whose masks are the bits of ``family``, the largest mask first."""
    masks = sorted(_iter_bits(family), key=_component_sort_key)
    return "{" + ", ".join(_mask_label(m, branch_ids) for m in masks) + "}"


def _family_key(family: int):
    """The canonical order of supports as bitsets: size, then the masks in ascending order."""
    return family.bit_count(), tuple(_iter_bits(family))


def _reverse_inclusion(masks: Sequence[int]) -> tuple[int, ...]:
    """The up-masks of the masks by index, ``a`` below ``b`` when ``a`` contains ``b``.

    That is ring inclusion.  These are a shape's :class:`Poset` up-masks.
    """
    up = []
    for a in masks:
        mask, bit = 0, 1
        for b in masks:
            if a & b == b:
                mask |= bit
            bit <<= 1
        up.append(mask)
    return tuple(up)


@memo(CACHE_ENTRIES)
def _component_poset(masks: tuple[int, ...], full_mask: int) -> tuple[Poset, int | None]:
    d_index = masks.index(full_mask) if full_mask in masks else None
    return Poset._unchecked(_reverse_inclusion(masks)), d_index


class SupportTable:
    """The supports over ``m`` branches, each read as the shapes of its components.

    Row ``k`` is the support ``families[k]``, a bitset of
    :func:`_union_closed`, in generation order (:class:`PairTable` puts the
    rows in canonical order).  A support enters a sum only through its
    component posets, so the sum needs ``shapes``, the distinct component
    posets, numbered as they first occur at branch 0 (every shape occurs at
    every branch); ``columns[i]``, each row's shape id at branch ``i``; and
    ``closing``, one byte per row, 1 when the support contains the domain.
    A shape's element 0 is its minimum (the union, with the most bits), the
    domain when the support contains it.

    The columns are read off the step of :func:`_extensions` that makes the
    rows, each a support ``A`` over ``m - 1`` branches joined to a candidate
    ``B``.  A branch's component is ordered as its link, the family over
    ``m - 1`` branches left when that bit is taken out of each mask.  The
    last branch links as ``B``; any other branch ``b`` as the link of ``A``
    at ``b`` or'ed with that of ``B`` moved past the masks without the last
    branch.  So each branch has one row of shape ids over the candidates
    per link of an ``A``, and a row of the table takes its entries from
    these at the candidates that fit its ``A``.  Each distinct link is
    read into up-masks once, each distinct set of up-masks made a poset
    once (38 at four branches), and no :class:`Support` is built.
    """

    __slots__ = ("families", "shapes", "columns", "closing")

    def __init__(self, m: int):
        if not m:
            self.families, self.shapes, self.columns, self.closing = (1,), (), (), b"\x01"
            return
        self.families, candidates, fitting, picks = _extensions(m)
        smaller, half = _union_closed(m - 1), 1 << m - 1
        order = sorted(range(half), key=_component_sort_key)  # a link's masks in order
        ups: dict[tuple[int, ...], int] = {}  # the up-masks of each shape -> its id
        by_link: dict[int, int] = {}  # link bitset -> shape id

        def shape(link: int) -> int:
            if link not in by_link:
                up = _reverse_inclusion([s for s in order if link >> s & 1])
                by_link[link] = ups.setdefault(up, len(ups))
            return by_link[link]

        def column(rows: dict, lows: list[int]) -> Iterable:
            """Per ``A``, the entries of the row of its link at the ``B`` that fit it."""
            return chain.from_iterable(pick(rows[x]) for pick, x in zip(picks, lows))

        # per branch, the link of the part of each ``A``, and the candidates by the link of
        # their part: a row links as the ``or`` of the two, and ``B`` less its empty mask
        # links as ``B``
        parts = []
        for b, part in enumerate(_inside(m - 1)):
            lows = [_link(family & part, b) for family in smaller]
            parts.append((lows, [low << (half >> 1) for low in lows + lows]))
        parts.append(([0] * len(smaller), candidates))
        lows, highs = parts[0]  # number the shapes as their links first occur at branch 0
        over, ys = itemgetter(*highs), dict.fromkeys(highs)
        links = {x: over({y: x | y for y in ys}) for x in dict.fromkeys(lows)}
        for link in dict.fromkeys(column(links, lows)):
            shape(link)
        columns = []
        for lows, highs in parts:
            with_y: dict[int, int] = {}  # the link of a ``B``'s part -> the candidates, a bitset
            for k, y in enumerate(highs):
                with_y[y] = with_y.get(y, 0) | 1 << k
            meets: dict[int, int] = {}  # the link of an ``A``'s part -> the ``B`` fitting one
            for x, fits in zip(lows, fitting):
                meets[x] = meets.get(x, 0) | fits
            over = itemgetter(*highs)  # a cell that no row reads is ``None``
            rows = {
                x: over({y: shape(x | y) if fits & ks else None for y, ks in with_y.items()})
                for x, fits in meets.items()
            }
            columns.append(array("I", column(rows, lows)))
        self.shapes = tuple(map(Poset._unchecked, ups))
        self.columns = tuple(columns)
        closes = [family >> half - 1 & 1 for family in candidates]
        self.closing = bytes(chain.from_iterable(pick(closes) for pick in picks))


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


#: Turns the digits of a ``bin`` string into flags for ``compress``.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


@memo(CACHE_ENTRIES)
def _extensions(m: int) -> tuple[tuple[int, ...], tuple[int, ...], list[int], list[itemgetter]]:
    """The supports over ``m`` branches, each a support ``A`` over ``m - 1`` joined to a ``B``.

    A family over ``m`` branches splits at its last branch into ``A``, its
    masks without that branch, and ``B``, the masks with it, that bit
    removed.  ``A`` is a support over ``m - 1`` branches and ``B`` is one
    with or without its empty mask (so ``B`` may be empty), and the family
    ``A | B << 2^(m-1)`` is union-closed exactly when ``a | b`` is in ``B``
    for every ``a`` in ``A`` and ``b`` in ``B``.  So each mask ``a`` gets
    one bitset over the candidates ``B``, marking those closed under
    ``| a``, and the ``B`` that fit an ``A`` are the ``and`` of the bitsets
    of its masks (Brinkmann & Deklerck, "Generation of union-closed sets
    and Moore families", J. Integer Sequences, 2018).  Returned are
    the families ``A | B << 2^(m-1)``, ``A`` in the order of
    ``_union_closed(m - 1)`` and then ``B`` in the order of the candidates;
    the candidates, each support over ``m - 1`` branches and then each less
    its empty mask; and, per ``A``, the bitset of the indices of the ``B``
    that fit it and an ``itemgetter`` of them.
    """
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
    fitting = []
    for low in smaller:
        fits = (1 << len(candidates)) - 1
        for a in _iter_bits(low ^ 1):  # the empty mask of ``A`` constrains nothing
            fits &= closed[a]
        fitting.append(fits)
    # the empty ``B`` and the one of the full mask alone fit every ``A``, so each getter
    # picks a tuple; they share one int object per candidate
    index = list(range(len(candidates)))
    picks = [
        itemgetter(*compress(index, bin(fits)[:1:-1].encode().translate(_DIGITS)))
        for fits in fitting
    ]
    shifted = [family << half for family in candidates]
    families = tuple(low | high for low, pick in zip(smaller, picks) for high in pick(shifted))
    return families, candidates, fitting, picks


def _union_closed(m: int) -> tuple[int, ...]:
    """The supports over ``m`` branches as bitsets over the masks, in generation order.

    Bit ``s`` of a family is set when mask ``s`` is in it.  Each family is
    a support over ``m - 1`` branches joined to a candidate that fits it
    (:func:`_extensions`), so each comes exactly once.  The one memoized
    step per ``m`` holds the tuple, which :class:`SupportTable` shares.
    """
    return _extensions(m)[0] if m else (1,)


@memo(CACHE_ENTRIES)
def _supports(m: int) -> tuple[Support, ...]:
    """The supports over ``m`` branches as :class:`Support` objects, sorted canonically."""
    families = sorted(_union_closed(m), key=_family_key)
    return tuple(Support(m, frozenset(_iter_bits(family))) for family in families)


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

    ``families`` holds the supports as bitsets in the order of
    :meth:`Support.sort_key`; ``shapes`` and ``columns`` are those of
    :func:`support_table`, its rows in that order.  ``T`` plus a maximal
    mask of ``S - T`` lies between nested supports ``T < S``, so ``S``
    covers ``T`` exactly when it has one mask more; ``big`` and ``small``
    index such pairs, ``small < big``: 0, 1, 9 and 151 for ``m = 0..3``,
    10 825 for ``m = 4``.  ``pair_columns[b]`` gives each pair's id in
    ``pairs``, whose entries are ``(outer, inner, at)``: the component
    posets at ``b`` of the big and the small support, and the index in the
    outer component of each inner mask, worked out once per distinct pair
    of component bitsets.  Relabelling the branches maps supports to
    supports, so every shape and pair id occurs at every branch.
    """

    __slots__ = ("families", "shapes", "columns", "big", "small", "pairs", "pair_columns")

    def __init__(self, m: int):
        table = _support_table(m)
        order = sorted(range(len(table.families)), key=lambda k: _family_key(table.families[k]))
        self.families = families = tuple(table.families[k] for k in order)
        index = {family: i for i, family in enumerate(families)}
        self.big, self.small = array("I"), array("I")
        for j, family in enumerate(families):
            # the family less one nonzero mask, where that is a support
            less = (index.get(family ^ 1 << s) for s in _iter_bits(family ^ 1))
            covered = sorted(i for i in less if i is not None)
            self.big.extend([j] * len(covered))
            self.small.extend(covered)
        self.shapes = table.shapes
        self.columns = [array("I", (column[k] for k in order)) for column in table.columns]
        pairs: dict[tuple, int] = {}  # (outer, inner, at) -> pair id
        self.pair_columns = []
        for part, column in zip(_inside(m), self.columns):
            parts: dict[int, int] = {}  # the component bitsets at this branch, numbered
            ids = [parts.setdefault(family & part, len(parts)) for family in families]
            components = [sorted(_iter_bits(c), key=_component_sort_key) for c in parts]
            n = len(parts)
            keys = [ids[j] * n + ids[i] for j, i in zip(self.big, self.small)]
            found = {}  # pair ids by ``outer * n + inner``
            for key, j, i in zip(keys, self.big, self.small):
                if key not in found:
                    outer, inner = divmod(key, n)
                    at = tuple(map(components[outer].index, components[inner]))
                    pair = (self.shapes[column[j]], self.shapes[column[i]], at)
                    found[key] = pairs.setdefault(pair, len(pairs))
            self.pair_columns.append(array("I", map(found.__getitem__, keys)))
        self.pairs = tuple(pairs)


def pair_table(m: int, *, max_branches: int = DEFAULT_MAX_BRANCHES) -> PairTable:
    """The covering pairs of supports over ``m`` branches (see :class:`PairTable`).

    The branch limit is that of :func:`enumerate_supports`.
    """
    _check_branches(m, max_branches)
    return _pair_table(m)


@memo(CACHE_ENTRIES)
def _pair_table(m: int) -> PairTable:
    return PairTable(m)
