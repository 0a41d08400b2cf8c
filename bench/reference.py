"""Answers computed apart from the engine, for checking every CLI output.

Four sources, none of which calls ``semistar.engine``:

- ``semistar.oracle`` at small labels (every weight at most 4, at most 3
  branches), which enumerates supports and maps by brute force;
- a reference for flat trees written here: union-closed families found by
  filtering all candidate families, and maps into a chain counted by
  recursion over up-sets, so it takes any weight;
- for a root with one internal child, the recursion
  ``semistar = semistar(Q) + omega`` and ``smstar = smstar(Q)`` over the
  quotient Q at that child (a one-branch tree has the supports {K} and
  {K, D} only), which answers the kept fault without building its
  58 610-element quotient poset;
- exact Lagrange interpolation, done here, from the small-label answers to
  large root-child weights, with the degree bounds 2^(m-1) (semistar) and
  2^(m-1) - 1 (smstar) for m branches.

Every tree is a plain node list as made by ``workloads.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

ORACLE_MAX_OMEGA = 4
ORACLE_MAX_BRANCHES = 3
FLAT_MAX_BRANCHES = 4

# -- trees as node lists ----------------------------------------------------------


def _root(nodes):
    return next(n["id"] for n in nodes if n["parent"] is None)


def _children(nodes, node_id):
    return sorted(n["id"] for n in nodes if n["parent"] == node_id)


def _by_id(nodes):
    return {n["id"]: n for n in nodes}


def root_children(nodes):
    return _children(nodes, _root(nodes))


def relabel(nodes, omega=None, epsilon=None):
    omega, epsilon = omega or {}, epsilon or {}
    out = []
    for n in nodes:
        n = dict(n)
        n["omega"] = omega.get(n["id"], n["omega"])
        if n["id"] in epsilon:
            n["epsilon"] = epsilon[n["id"]]
        out.append(n)
    return out


def quotient(nodes, node_id):
    """The tree re-rooted at ``node_id``: its omega resets to 1."""
    keep, stack = {node_id}, [node_id]
    while stack:
        for child in _children(nodes, stack.pop()):
            keep.add(child)
            stack.append(child)
    out = [{"id": node_id, "parent": None, "omega": 1}]
    out += [dict(n) for n in nodes if n["id"] in keep and n["id"] != node_id]
    return out


def _is_leaf(nodes, node_id):
    return not _children(nodes, node_id)


# -- flat trees ------------------------------------------------------------------------


@lru_cache(maxsize=None)
def union_closed_families(m: int) -> tuple[tuple[int, ...], ...]:
    """Every union-closed family of nonempty masks over m bits, by filtering.

    All 2^(2^m - 1) candidate families are tried; the quotient field (mask 0)
    belongs to every support and is left implicit.
    """
    masks = range(1, 1 << m)
    found = []
    for bits in range(1 << len(masks)):
        chosen = [s for k, s in enumerate(masks) if (bits >> k) & 1]
        members = {s for s in chosen}
        if all(a | b in members for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            found.append(tuple(chosen))
    return tuple(found)


@lru_cache(maxsize=None)
def _down_sets(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Down-sets of the masks under reverse inclusion, as index bitsets."""
    n = len(masks)
    below = [
        sum(1 << j for j in range(n) if masks[j] & masks[i] == masks[i] and j != i)
        for i in range(n)
    ]
    return tuple(
        s for s in range(1 << n)
        if all(below[i] & ~s == 0 for i in range(n) if (s >> i) & 1)
    )


@lru_cache(maxsize=None)
def maps_into_chain(masks: tuple[int, ...], n: int) -> int:
    """Order-preserving maps from the masks (a <= b iff a ⊇ b) into an n-chain.

    The elements sent to the top of the chain form an up-set; the rest map
    into an (n-1)-chain.  Counted level by level over the down-sets: N_n(S)
    is the sum of N_(n-1)(D) over the down-sets D inside S.
    """
    downs = _down_sets(masks)
    counts = {s: 1 if s == 0 else 0 for s in downs}
    for _ in range(n):
        counts = {s: sum(c for d, c in counts.items() if d & ~s == 0) for s in downs}
    return counts[(1 << len(masks)) - 1]


def flat_counts(omegas, epsilons) -> tuple[int, int]:
    """(semistar, smstar) of the flat tree with these leaf labels."""
    m = len(omegas)
    if m > FLAT_MAX_BRANCHES:
        raise ValueError(f"flat reference limited to {FLAT_MAX_BRANCHES} branches")
    full = (1 << m) - 1
    semistar = smstar = 0
    for family in union_closed_families(m):
        components = [
            tuple(sorted((s for s in family if (s >> i) & 1), key=lambda s: (-s.bit_count(), s)))
            for i in range(m)
        ]
        semistar += prod(maps_into_chain(c, w) for c, w in zip(components, omegas) if c)
        if full in family:
            # the domain is the minimum of each component; it must land on
            # one of the epsilon ring-closing bottom elements q, and the rest
            # maps into the (omega - q)-chain above q
            smstar += prod(
                sum(maps_into_chain(c[1:], w - q) for q in range(e))
                for c, w, e in zip(components, omegas, epsilons)
            )
    return semistar, smstar


# -- exact interpolation ---------------------------------------------------------------


def lagrange(evaluate, grids: dict[str, list[int]]) -> dict:
    """The polynomial through ``evaluate`` on the tensor grid.

    Returns ``{((var, exponent), ...): Fraction}`` with zero exponents and
    zero coefficients left out, the variables in sorted order.
    """
    names = sorted(grids)

    def basis(points, i):
        # coefficients (low degree first) of prod_{j != i} (x - x_j) / (x_i - x_j)
        coeffs = [Fraction(1)]
        for j, xj in enumerate(points):
            if j != i:
                scale = Fraction(1, points[i] - xj)
                shifted = [Fraction(0)] + coeffs
                coeffs = [(shifted[k] - xj * (coeffs[k] if k < len(coeffs) else 0)) * scale
                          for k in range(len(shifted))]
        return coeffs

    bases = {v: [basis(grids[v], i) for i in range(len(grids[v]))] for v in names}
    out: dict = {}
    for idx in product(*(range(len(grids[v])) for v in names)):
        value = evaluate({v: grids[v][i] for v, i in zip(names, idx)})
        if not value:
            continue
        for exps in product(*(range(len(grids[v])) for v in names)):
            coeff = Fraction(value)
            for v, i, e in zip(names, idx, exps):
                coeff *= bases[v][i][e]
            if coeff:
                key = tuple((v, e) for v, e in zip(names, exps) if e)
                out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c}


def evaluate_poly(poly: dict, point: dict) -> Fraction:
    return sum((c * prod(Fraction(point[v]) ** e for v, e in k) for k, c in poly.items()),
               Fraction(0))


def omega_grid_start(nodes, node_id, epsilon_symbolic=False) -> int:
    node = _by_id(nodes)[node_id]
    if _is_leaf(nodes, node_id):
        return 2 if epsilon_symbolic else max(1, node.get("epsilon") or 1)
    return 1


# -- counts ------------------------------------------------------------------------------


def _oracle_fits(nodes) -> bool:
    return (
        len(root_children(nodes)) <= ORACLE_MAX_BRANCHES
        and all(n["omega"] <= ORACLE_MAX_OMEGA for n in nodes if n["parent"] is not None)
    )


def _oracle(nodes) -> tuple[int, int]:
    from semistar import oracle
    from semistar.spectrum import validate_tree

    return oracle.brute_semistar_count(validate_tree({"nodes": nodes}))


def semistar_smstar(nodes) -> tuple[int, int]:
    """(semistar, smstar) of any tree the workloads make."""
    return _semistar_smstar(_freeze(nodes))


def _freeze(nodes):
    return tuple(tuple(sorted(n.items())) for n in nodes)


@lru_cache(maxsize=None)
def _semistar_smstar(frozen) -> tuple[int, int]:
    nodes = [dict(n) for n in frozen]
    if len(nodes) == 1:
        return 1, 1
    children = root_children(nodes)
    by_id = _by_id(nodes)
    if len(children) == 1 and not _is_leaf(nodes, children[0]):
        inner = semistar_smstar(quotient(nodes, children[0]))
        return inner[0] + by_id[children[0]]["omega"], inner[1]
    if _oracle_fits(nodes):
        return _oracle(nodes)
    if all(_is_leaf(nodes, c) for c in children) and len(children) <= FLAT_MAX_BRANCHES:
        return flat_counts([by_id[c]["omega"] for c in children],
                           [by_id[c]["epsilon"] for c in children])
    # large root-child weights: interpolate from small ones
    m = len(children)
    if m > 2 or any(n["omega"] > ORACLE_MAX_OMEGA for n in nodes
                    if n["parent"] is not None and n["id"] not in children):
        raise ValueError("no reference for this tree")
    big = [c for c in children if by_id[c]["omega"] > ORACLE_MAX_OMEGA]
    answers = []
    for which, degree in ((0, 2 ** (m - 1)), (1, 2 ** (m - 1) - 1)):
        grids = {}
        for c in big:
            start = omega_grid_start(nodes, c)
            grids[c] = list(range(start, start + degree + 1))
        poly = lagrange(lambda pt: semistar_smstar(relabel(nodes, omega=pt))[which], grids)
        value = evaluate_poly(poly, {c: by_id[c]["omega"] for c in big})
        if value.denominator != 1:
            raise ValueError(f"interpolated count {value} is not an integer")
        answers.append(value.numerator)
    return answers[0], answers[1]


def report(nodes) -> dict:
    """All four counts; fstar and star by recursion over the branches."""
    semistar, smstar = semistar_smstar(nodes)
    fstar, star = 1, 1
    if len(nodes) > 1:
        for c in root_children(nodes):
            branch = branch_counts(nodes, c)
            fstar *= branch[0]
            star *= branch[1]
    return {"semistar": semistar, "fstar": fstar, "smstar": smstar, "star": star}


def branch_counts(nodes, child) -> tuple[int, int]:
    """(size, ring-closing elements) of one branch's fractional-star order.

    A leaf gives the chain of length omega with epsilon starred elements;
    an internal child gives semistar(Q) - 1 + omega and smstar(Q).
    """
    node = _by_id(nodes)[child]
    if _is_leaf(nodes, child):
        return node["omega"], node["epsilon"]
    inner = semistar_smstar(quotient(nodes, child))
    return inner[0] - 1 + node["omega"], inner[1]
