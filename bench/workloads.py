"""Seeded workloads: labelled trees plus the CLI invocations run on them.

A workload is a fixed make-up of tree shapes and commands.  The seed draws
the labels of each shape within that shape's fixed range and the order of
the invocations, so two seeds give workloads of comparable cost.  Nothing
here imports ``semistar``: the trees are plain node lists, written to JSON
by the worker and read back through the command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("counts", "labels", "poly", "hasse")

#: The one invocation kept although it fails on every pass: ``count`` builds
#: the 58 610-element quotient poset of this tree and trips ``max_poset``.
FAULT_TREE = "fault_p2_3x3"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``argv`` with ``{tree}`` standing for the tree file."""

    tree: str
    argv: tuple[str, ...]

    def resolve(self, path: str) -> list[str]:
        return [path if a == "{tree}" else a for a in self.argv]

    @property
    def key(self) -> str:
        return " ".join(self.resolve(self.tree))


@dataclass(frozen=True)
class Workload:
    name: str
    trees: dict  # tree name -> list of node dicts
    invocations: tuple[Invocation, ...]


def _node(node_id, parent, omega, epsilon=None):
    node = {"id": node_id, "parent": parent, "omega": omega}
    if epsilon is not None:
        node["epsilon"] = epsilon
    return node


def _leaf(rng, node_id, parent, lo, hi):
    omega = rng.randint(lo, hi)
    return _node(node_id, parent, omega, rng.randint(1, min(2, omega)))


def flat(omegas, epsilons):
    """Root with one leaf branch per weight (an h-local domain)."""
    nodes = [_node("0", None, 1)]
    nodes += [_node(f"M{i + 1}", "0", w, e) for i, (w, e) in enumerate(zip(omegas, epsilons))]
    return nodes


def readme(p, n, leaves=((1, 1), (1, 1)), eps_n=1):
    """The README shape: an internal branch P over leaves, plus a leaf branch N."""
    nodes = [_node("0", None, 1), _node("P", "0", p)]
    nodes += [_node(f"M{i + 1}", "P", w, e) for i, (w, e) in enumerate(leaves)]
    nodes.append(_node("N", "0", n, eps_n))
    return nodes


def fault_tree():
    """P(omega=2) over three leaves of omega 3; independent of the seed."""
    return readme(2, 1, leaves=((3, 1),) * 3)[:-1]


def _flat_random(rng, m, lo, hi):
    leaves = [_leaf(rng, f"M{i + 1}", "0", lo, hi) for i in range(m)]
    return [_node("0", None, 1)] + leaves


def _count(tree):
    return Invocation(tree, ("count", "{tree}", "--format", "json"))


def _fstar_export(tree, branch):
    return Invocation(tree, ("hasse", "{tree}", "--target", f"fstar:{branch}", "--format", "json"))


def _poly_call(tree, kind, omega_vars, eps_vars=()):
    args = [a for v in omega_vars for a in ("--var", v)]
    args += [a for v in eps_vars for a in ("--eps-var", v)]
    return Invocation(tree, ("poly", "{tree}", kind, *args, "--format", "json"))


def _counts(rng):
    trees = {}
    levels = {1: (1, 1), 4: (3, 5), 16: (14, 18)}
    for m in range(1, 5):
        for level, (lo, hi) in levels.items():
            trees[f"flat{m}_w{level}"] = _flat_random(rng, m, lo, hi)

    def leaf(node_id, parent, hi=2):
        return _leaf(rng, node_id, parent, 1, hi)

    trees["readme"] = [
        _node("0", None, 1), _node("P", "0", rng.randint(1, 3)),
        leaf("M1", "P"), leaf("M2", "P"), leaf("N", "0", 3),
    ]
    trees["y2"] = [_node("0", None, 1), _node("P", "0", rng.randint(1, 3)),
                   leaf("M1", "P", 3), leaf("M2", "P", 3)]
    trees["y3_leaf"] = [_node("0", None, 1), _node("P", "0", rng.randint(1, 3)),
                        leaf("M1", "P", 1), leaf("M2", "P", 1), leaf("M3", "P", 1),
                        leaf("N", "0", 4)]
    trees["two_internal"] = [_node("0", None, 1),
                             _node("P", "0", rng.randint(1, 3)), leaf("M1", "P"), leaf("M2", "P"),
                             _node("Q", "0", rng.randint(1, 3)), leaf("M3", "Q"), leaf("M4", "Q")]
    trees["depth3"] = [_node("0", None, 1), _node("A", "0", rng.randint(1, 3)),
                       _node("B", "A", rng.randint(1, 2)), leaf("L1", "B", 1), leaf("L2", "B", 1),
                       leaf("L3", "A"), leaf("N", "0", 3)]
    trees[FAULT_TREE] = fault_tree()
    calls = [_count(name) for name in trees] + [_fstar_export("y2", "P")]
    return trees, calls


def _labels(rng):
    # cost grows with the square of the largest weights, so their ranges
    # are narrow: any seed costs about the same
    trees = {
        "leaf_s": flat([rng.randint(90, 110)], [rng.randint(1, 2)]),
        "leaf_m": flat([rng.randint(940, 960)], [rng.randint(1, 2)]),
        "leaf_l": flat([rng.randint(1880, 1900)], [rng.randint(1, 2)]),
        "pair": flat([rng.randint(290, 310), rng.randint(2, 4)], [rng.randint(1, 2), 1]),
        "readme_bigP": readme(rng.randint(490, 510), rng.randint(1, 3),
                              leaves=((1, 1),) * 3),
        "readme_bigN": readme(rng.randint(1, 3), rng.randint(490, 510),
                              eps_n=rng.randint(1, 2)),
    }
    calls = [_count(name) for name in trees] + [_fstar_export("leaf_s", "M1")]
    return trees, calls


def _poly(rng):
    # the labels of flat3 and flat4 move the cost (an epsilon of 2 adds a
    # tenth), so they are fixed; identical branches share one epsilon, for
    # the symmetry check
    eps = rng.randint(1, 2)
    trees = {
        "flat2": flat([rng.randint(2, 4), rng.randint(2, 4)], [eps, eps]),
        "flat3": flat([2, 2, 2], [1, 1, 1]),
        "flat4": flat([2, 2, 2, 2], [1, 1, 1, 1]),
        "readme": readme(rng.randint(1, 3), rng.randint(1, 3)),
    }
    calls = [
        _poly_call("flat2", "--semistar", ["M1", "M2"]),
        _poly_call("flat2", "--smstar", ["M1", "M2"], ["M1", "M2"]),
        _poly_call("flat3", "--semistar", ["M1", "M2"]),
        _poly_call("flat3", "--smstar", ["M1", "M2", "M3"], ["M3"]),
        _poly_call("flat4", "--semistar", ["M1"]),
        _poly_call("readme", "--semistar", ["P", "N"]),
        _poly_call("readme", "--smstar", ["P", "N"], ["N"]),
        _fstar_export("readme", "P"),
    ]
    return trees, calls


def _shuffled(rng, omegas):
    """The weights in seeded order, each leaf with a seeded epsilon."""
    omegas = list(omegas)
    rng.shuffle(omegas)
    return omegas, [rng.randint(1, min(2, w)) for w in omegas]


def _hasse(rng):
    # the size of each ordered set is fixed (61, 200, 731, 1162 and about
    # 200 elements); the seed places the heavier leaves and draws epsilon,
    # which moves only the ring-closing flags
    y3_leaves = list(zip(*_shuffled(rng, (1, 1, 2))))
    trees = {
        "flat3_61": flat([1, 1, 1], [1, 1, 1]),
        "flat3_200": flat(*_shuffled(rng, (1, 1, 2))),
        "flat3_731": flat(*_shuffled(rng, (1, 2, 2))),
        "readme_1162": readme(2, 2, leaves=tuple(zip(*_shuffled(rng, (3, 1)))),
                              eps_n=rng.randint(1, 2)),
        "y3": readme(rng.randint(2, 4), 1, leaves=y3_leaves)[:-1],
    }
    calls = []
    for name in trees:
        calls.append(Invocation(name, ("hasse", "{tree}", "--target", "semistar")))
        calls.append(Invocation(name, ("hasse", "{tree}", "--target", "semistar",
                                       "--format", "json")))
        calls.append(_count(name))
    calls.append(Invocation("readme_1162", ("hasse", "{tree}", "--target", "fstar:P")))
    calls.append(_fstar_export("y3", "P"))
    return trees, calls


_GENERATORS = {"counts": _counts, "labels": _labels, "poly": _poly, "hasse": _hasse}


def make_workload(name: str, seed: int) -> Workload:
    """The workload's trees and its invocations in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    trees, calls = _GENERATORS[name](rng)
    rng.shuffle(calls)
    return Workload(name, trees, tuple(calls))
