"""Shared tree builders and random generators for the test suite."""

import os
import random
import subprocess
import sys

import pytest

from semistar import Poset, _memo, build_tree, clear_caches
from semistar.posets import _iter_bits


def valuation(omega, epsilon):
    return build_tree([("0", None, 1), ("M", "0", omega, epsilon)])


def h_local(omegas, epsilons=None):
    if epsilons is None:
        epsilons = [1] * len(omegas)
    rows = [("0", None, 1)]
    rows += [(f"M{i + 1}", "0", w, e) for i, (w, e) in enumerate(zip(omegas, epsilons))]
    return build_tree(rows)


def y_tree(p_omega, leaf1, leaf2):
    (w1, e1), (w2, e2) = leaf1, leaf2
    return build_tree(
        [("0", None, 1), ("P", "0", p_omega), ("M1", "P", w1, e1), ("M2", "P", w2, e2)]
    )


def final_example(a, b, eps_n=1, leaf_omegas=(1, 1), leaf_epsilons=(1, 1)):
    """Root with an internal branch P over two leaves plus a leaf branch N."""
    return build_tree(
        [
            ("0", None, 1),
            ("P", "0", a),
            ("M1", "P", leaf_omegas[0], leaf_epsilons[0]),
            ("M2", "P", leaf_omegas[1], leaf_epsilons[1]),
            ("N", "0", b, eps_n),
        ]
    )


def random_poset(rng: random.Random, max_size: int = 5) -> Poset:
    n = rng.randint(0, max_size)
    covers = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]
    return Poset.from_covers(n, covers)


def random_tree(rng: random.Random, max_omega: int = 4, shapes=range(7)):
    """A random labeled tree drawn from a pool of tractable shapes.

    Shapes range over height 1..3 with up to three branches; leaf weights
    below internal nodes stay small, since a branch poset contains the full
    semistar poset of its quotient, which grows very fast in those weights.
    Shape 5 (two internal branches plus a leaf branch) is the hardest on
    brute-force paths; drop it when the oracle is in the loop.
    """
    rows = [("0", None, 1)]
    counter = [0]

    def leaf(parent, omega_cap=max_omega):
        counter[0] += 1
        omega = rng.randint(1, omega_cap)
        epsilon = rng.randint(1, min(2, omega))
        rows.append((f"n{counter[0]}", parent, omega, epsilon))

    def internal(parent, n_leaves, leaf_cap=2):
        counter[0] += 1
        name = f"n{counter[0]}"
        rows.append((name, parent, rng.randint(1, max_omega)))
        for _ in range(n_leaves):
            leaf(name, leaf_cap)
        return name

    shape = rng.choice(list(shapes))
    if shape == 0:  # valuation
        leaf("0")
    elif shape == 1:  # flat, 2 or 3 leaf branches
        for _ in range(rng.randint(2, 3)):
            leaf("0")
    elif shape == 2:  # single Y
        internal("0", rng.randint(2, 3))
    elif shape == 3:  # internal branch plus a leaf branch
        internal("0", 2)
        leaf("0")
    elif shape == 4:  # two internal branches
        internal("0", 2)
        internal("0", rng.randint(2, 3))
    elif shape == 5:  # two internal branches plus a leaf branch
        internal("0", 2)
        internal("0", 2)
        leaf("0")
    else:  # height 3: nested branching, optionally a leaf branch next to it
        counter[0] += 1
        name = f"n{counter[0]}"
        rows.append((name, "0", rng.randint(1, max_omega)))
        internal(name, 2, leaf_cap=1)
        leaf(name, 1)
        if rng.random() < 0.5:
            leaf("0")
    return build_tree(rows)


def iter_bits(mask):
    return list(_iter_bits(mask))


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fresh_env(**overrides):
    """The environment of this process for a new interpreter: ``src`` first on its path."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_fresh(script):
    """Run ``script`` in a new interpreter at the repository root, with empty caches."""
    return subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=fresh_env(), capture_output=True, text=True
    )


@pytest.fixture
def cache_bound(monkeypatch):
    """``cache_bound(n)`` empties every memo and bounds each to ``n`` entries for the test."""

    def bound(entries):
        for entry in _memo._MEMOS.values():
            monkeypatch.setattr(entry, "entries", entries)
        clear_caches()

    yield bound
    monkeypatch.undo()
    clear_caches()
