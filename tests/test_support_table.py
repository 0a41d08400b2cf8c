"""The support sum over shape tables against the per-support loop it replaced.

The reference below walks every support and every branch, takes each
branch factor from the support's own component poset, and groups supports
by their symbolic components.  It reads each factor as a ``MultiPoly``
(``tildhom_count`` through ``MultiPoly.from_binomial``) and expands the
groups in the monomial basis, so it also checks the engine's change of
basis, which expands in binomial indices and converts once.  For symbolic
epsilons it combines the relabelled trees as ``(2 - eps) P(1) + (eps - 1)
P(2)`` in ``MultiPoly`` arithmetic, apart from the engine's integer
combination.  Its four answers must equal those of the public entry points,
integers and polynomials alike.
"""

import ast
import contextlib
import random
from collections import Counter
from itertools import product as cartesian
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import final_example, h_local, random_tree, run_fresh, valuation, y_tree
from test_acceptance import _oracle_lattice
from test_differential import ORACLE_SHAPES
from semistar import (
    EnumerationLimitError,
    Limits,
    MultiPoly,
    Poset,
    build_tree,
    clear_caches,
    count_semistar,
    count_smstar,
    semistar_polynomial,
    smstar_polynomial,
)
from semistar import engine
from semistar.posets import _iter_bits
from semistar.spectrum import (
    Support,
    _union_closed,
    branch_subtree,
    enumerate_supports,
    support_table,
)


_FACTORS = {}  # (branch tree, component, domain index) -> (polynomial in n, value at omega)


def _per_support_sum(t, closing, symbolic):
    """The support sum as an integer, or as a ``MultiPoly`` in the weights of ``symbolic``."""
    ids = t.children(t.root_id)
    trees = [branch_subtree(t, child) for child in ids]
    names = [child if child in symbolic else None for child in ids]

    def branch_factor(i, component, d_index):
        key = (trees[i], component, d_index)
        if key not in _FACTORS:
            e = engine.tildhom_count(component, d_index, trees[i])
            poly = MultiPoly.from_binomial(("n",), {(k,): c for k, c in enumerate(e)})
            _FACTORS[key] = poly, poly.evaluate({"n": t.omega(ids[i])})
        return _FACTORS[key]

    groups = {}
    for support in enumerate_supports(len(ids)):
        if closing and not support.contains_domain():
            continue
        key, factor = [], 1
        for i in range(len(ids)):
            component, d_index = support.component_poset(i)
            if not closing:
                d_index = None
            if names[i] is not None:
                key.append((i, component, d_index))
            elif component.size:
                factor *= branch_factor(i, component, d_index)[1]
        key = tuple(key)
        groups[key] = groups.get(key, 0) + factor
    if not any(names):
        return sum(groups.values())
    total = {}  # exponent tuples hold one entry per symbolic branch, in branch order
    for key, factor in groups.items():
        term = {(): factor}
        for i, component, d_index in key:
            pieces = [(0, 1)]
            if component.size:
                poly, _ = branch_factor(i, component, d_index)
                pieces = [(f[0] if f else 0, a) for f, a in poly.terms.items()]
            term = {e + (k,): c * a for e, c in term.items() for k, a in pieces}
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return MultiPoly([names[i] for i, _, _ in key], total)


def _reference_smstar(t, omega_vars, eps_vars):
    """The domain-closing polynomial, one epsilon at a time in ``MultiPoly`` arithmetic."""
    eps_ids = sorted(set(eps_vars))
    omega = {v: 2 for v in eps_ids if v in omega_vars and t.omega(v) < 2}
    total = MultiPoly.zero()
    for values in cartesian((1, 2), repeat=len(eps_ids)):
        weight = MultiPoly.constant(1)
        for node_id, value in zip(eps_ids, values):
            eps = MultiPoly.variable(f"eps_{node_id}")
            weight = weight * (2 - eps if value == 1 else eps - 1)
        relabelled = t.with_labels(omega=omega, epsilon=dict(zip(eps_ids, values)))
        total = total + weight * _per_support_sum(relabelled, True, set(omega_vars))
    return total


def _answers(t, omega_vars, eps_vars):
    answers = [count_semistar(t), count_smstar(t)]
    if omega_vars:
        answers.append(semistar_polynomial(t, omega_vars))
    if omega_vars or eps_vars:
        answers.append(smstar_polynomial(t, omega_vars, eps_vars))
    return answers


def _reference_answers(t, omega_vars, eps_vars):
    answers = [_per_support_sum(t, False, set()), _per_support_sum(t, True, set())]
    if omega_vars:
        answers.append(_per_support_sum(t, False, set(omega_vars)))
    if omega_vars or eps_vars:
        answers.append(_reference_smstar(t, omega_vars, eps_vars))
    return answers


def _eps_choices(t, omega_vars):
    """Leaves whose epsilon may be symbolic: weight at least 2, or a symbolic weight."""
    return [v for v in t.leaves() if v in omega_vars or t.omega(v) >= 2]


def _assert_matches_reference(t, omega_vars=None, eps_vars=None):
    if omega_vars is None:
        omega_vars = list(t.children(t.root_id))[:2]
    if eps_vars is None:
        eps_vars = _eps_choices(t, omega_vars)[:1]
    assert _answers(t, omega_vars, eps_vars) == _reference_answers(t, omega_vars, eps_vars)


def test_reference_is_the_old_path_on_known_values():
    assert _per_support_sum(h_local([1, 1, 1]), False, set()) == 61
    assert _per_support_sum(h_local([1, 1, 1]), True, set()) == 45
    assert _per_support_sum(final_example(1, 1), False, set()) == 67
    a, b = MultiPoly.variable("M1"), MultiPoly.variable("M2")
    e1, e2 = MultiPoly.variable("eps_M1"), MultiPoly.variable("eps_M2")
    two_leaves = ["M1", "M2"]
    assert _reference_smstar(h_local([1, 1]), two_leaves, two_leaves) == (1 + e1 * a) * (1 + e2 * b)


def test_matches_per_support_sum_on_the_oracle_lattice():
    trees = 0
    for t in _oracle_lattice():
        _assert_matches_reference(t)
        trees += 1
    assert trees == 630


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_matches_per_support_sum_on_random_trees(seed):
    t = random_tree(random.Random(seed), shapes=ORACLE_SHAPES)
    try:
        count_semistar(t)
        count_smstar(t)
    except EnumerationLimitError:
        reject()
    _assert_matches_reference(t)


def test_matches_per_support_sum_on_four_branches():
    for omegas, epsilons in [([1, 2, 3, 2], [1, 2, 1, 2]), ([4, 1, 2, 3], [2, 1, 2, 1])]:
        t = h_local(omegas, epsilons)
        _assert_matches_reference(t, [], [])
        _assert_matches_reference(t, ["M2"], ["M3"])
        _assert_matches_reference(t, ["M1", "M4"], ["M4"])
        _assert_matches_reference(t, ["M1", "M4"], ["M1", "M3", "M4"])


def test_matches_per_support_sum_on_deeper_shapes():
    two_internal = build_tree(
        [
            ("0", None, 1),
            ("P", "0", 2), ("M1", "P", 1, 1), ("M2", "P", 2, 2),
            ("Q", "0", 1), ("M3", "Q", 2, 1), ("M4", "Q", 1, 1), ("M5", "Q", 1, 1),
        ]
    )
    depth_three = build_tree(
        [
            ("0", None, 1),
            ("A", "0", 2), ("B", "A", 1), ("M1", "B", 1, 1), ("M2", "B", 1, 1),
            ("M3", "A", 1, 1), ("N", "0", 3, 2),
        ]
    )
    for t in (two_internal, depth_three, final_example(2, 3, leaf_omegas=(2, 1))):
        _assert_matches_reference(t)
    _assert_matches_reference(y_tree(3, (2, 2), (1, 1)), ["P"], ["M1"])


def _rows_by_support(m, closing):
    """The table rows as shapes, built support by support from each ``Support``'s components."""
    rows = Counter()
    for support in enumerate_supports(m):
        if closing and not support.contains_domain():
            continue
        shapes = []
        for i in range(m):
            component, d_index = support.component_poset(i)
            # the domain, when the support holds it, is element 0 of each component
            assert d_index == (0 if support.contains_domain() else None)
            shapes.append(component)
        rows[tuple(shapes)] += 1
    return rows


def _rows_as_shapes(table, multiplicity):
    rows = Counter()
    ids = zip(*table.columns) if table.columns else [()] * len(multiplicity)
    for row, count in zip(ids, multiplicity):
        if count:
            rows[tuple(table.shapes[s] for s in row)] += count
    return rows


def test_tables_count_every_support_once():
    for m, (supports, closing) in enumerate([(1, 1), (2, 1), (7, 4), (61, 45), (2480, 2271)]):
        table = support_table(m)
        n = len(table.closing)
        assert n == supports == len(enumerate_supports(m)) == len(table.families)
        assert sum(table.closing) == closing
        assert set(table.closing) <= {0, 1}
        assert len(table.columns) == m
        assert all(len(c) == n for c in table.columns)
        assert all(s < len(table.shapes) for c in table.columns for s in c)
        # every branch meets every shape, so the support sum needs each shape's factor
        assert all(set(c) == set(range(len(table.shapes))) for c in table.columns)
        assert all(isinstance(shape, Poset) for shape in table.shapes)
        # the table reads family bitsets; the supports give the same rows one by one
        assert _rows_as_shapes(table, [1] * n) == _rows_by_support(m, False)
        assert _rows_as_shapes(table, table.closing) == _rows_by_support(m, True)
        supports = enumerate_supports(m)
        assert list(supports) == sorted(supports, key=Support.sort_key)
    # the distinct component shapes at four branches; the domain-closing rows use all
    # but the empty one
    table = support_table(4)
    closing_rows = [row for row, c in zip(zip(*table.columns), table.closing) if c]
    closing_shapes = {table.shapes[s] for row in closing_rows for s in row}
    assert (len(table.shapes), len(closing_shapes)) == (38, 37)
    assert all(shape.size for shape in closing_shapes)


def _reference_table(m):
    """The rows of the shape table as it was built from whole families, one cell at a time.

    Each family is masked by the branch, its masks linked (the branch bit
    taken out), sorted by size, larger first, then value, and read as the
    poset in which a mask lies below the masks it contains.  Gives the
    families, the closing bytes and per row the shape poset of each branch.
    """
    families = _union_closed(m)
    full = (1 << m) - 1
    rows = []
    for family in families:
        row = []
        for b in range(m):
            low = (1 << b) - 1
            link = [s & low | s >> 1 & ~low for s in _iter_bits(family) if s >> b & 1]
            masks = sorted(link, key=lambda s: (-s.bit_count(), s))
            up = [sum(1 << j for j, c in enumerate(masks) if a & c == c) for a in masks]
            row.append(Poset(up))
        rows.append(tuple(row))
    return families, bytes(family >> full & 1 for family in families), rows


def test_tables_match_the_reference_cell_by_cell():
    for m in range(5):
        table = support_table(m)
        families, closing, rows = _reference_table(m)
        assert table.families == families
        assert table.closing == closing
        cells = [
            tuple(table.shapes[column[k]] for column in table.columns)
            for k in range(len(table.families))
        ]
        assert cells == rows
        # the shapes are distinct, each is some cell's, and they are numbered as they first
        # occur branch by branch, row by row
        assert len(set(table.shapes)) == len(table.shapes)
        assert {s for column in table.columns for s in column} == set(range(len(table.shapes)))
        assert table.shapes == tuple(dict.fromkeys(row[b] for b in range(m) for row in rows))


def test_tables_and_supports_share_the_branch_limit():
    for supports_or_table in (enumerate_supports, support_table):
        with pytest.raises(
            EnumerationLimitError, match="^support enumeration limited to 4 branches, got 5$"
        ):
            supports_or_table(5)
        with pytest.raises(ValueError, match="^branch count must be nonnegative$"):
            supports_or_table(-1)


_COUNT_PATH_SCRIPT = (
    "import sys; sys.path.insert(0, 'tests')\n"
    "from conftest import h_local\n"
    "from semistar import cache_info, count_report, semistar_polynomial, smstar_polynomial\n"
    "t = h_local([1, 2, 3, 2])\n"
    "print(count_report(t)['semistar'])\n"
    "print(semistar_polynomial(t, ['M1', 'M3']).evaluate({'M1': 1, 'M3': 3}))\n"
    "print(smstar_polynomial(t, ['M2'], ['M4']).evaluate({'M2': 2, 'eps_M4': 1}))\n"
    "info = cache_info()\n"
    "print(*(info[f'spectrum.{name}'].misses for name in ('_supports', '_support_table')))\n"
)


def test_counts_and_polynomials_build_no_support():
    fresh = run_fresh(_COUNT_PATH_SCRIPT)
    assert fresh.returncode == 0, fresh.stderr
    t = h_local([1, 2, 3, 2])
    semistar, at_labels, smstar, supports_built = fresh.stdout.splitlines()
    assert int(semistar) == int(at_labels) == count_semistar(t)
    assert int(smstar) == count_smstar(t)
    assert supports_built == "0 1"  # one shape table, and not one Support


_FIVE_FLAT_LEAVES_SCRIPT = (
    "import sys, time; sys.path.insert(0, 'tests')\n"
    "from conftest import h_local\n"
    "from semistar import Limits, cache_info, count_semistar, count_smstar\n"
    "from semistar.spectrum import support_table\n"
    "limits = Limits(max_branches=5)\n"
    "t = h_local([1] * 5, [1] * 5)\n"
    "table = support_table(5, max_branches=5)\n"
    "print(len(table.closing), sum(table.closing))\n"
    "print(count_semistar(t, limits), count_smstar(t, limits))\n"
    "info = cache_info()\n"
    "print(*(info[name].misses - info[name].currsize for name in\n"
    "        ('engine._term', 'posets._chain_coeffs', 'posets._down_set_masks')))\n"
    "start = time.perf_counter()\n"
    "count_semistar(t, limits), count_smstar(t, limits)\n"
    "print(time.perf_counter() - start)\n"
)


@pytest.mark.slow
def test_five_flat_leaves_of_weight_one_count_the_table():
    # omega = epsilon = 1 makes every branch poset one flagged point, so every
    # support is one operation and the domain-closing ones are those holding it
    fresh = run_fresh(_FIVE_FLAT_LEAVES_SCRIPT)
    assert fresh.returncode == 0, fresh.stderr
    table, counts, evicted, warm = fresh.stdout.splitlines()
    assert table == counts == "1385552 1373701"
    assert evicted == "0 0 0"  # every shape's factor and chain coefficients are kept
    assert float(warm) < 0.1


def test_each_branch_takes_one_term_per_shape():
    t = h_local([2, 1, 3, 2], [2, 1, 1, 2])
    calls = []
    real = engine._term

    def counted(record, component, closing, limits):
        calls.append((record, component, closing))
        return real(record, component, closing, limits)

    for closing, count in ((False, count_semistar), (True, count_smstar)):
        calls.clear()
        clear_caches()
        with mock.patch.object(engine, "_term", counted):
            count(t)
        shapes = support_table(4).shapes
        # the two leaves of each epsilon share a record, asked once per shape for each
        shared = Counter(record for _, _, record in engine._branches(t, engine.DEFAULT_LIMITS))
        assert sorted(shared.values()) == [2, 2]
        assert Counter(calls) == {
            (record, shape, closing): k for record, k in shared.items() for shape in shapes
        }

    # counted or symbolic, one factor per (epsilon or quotient, shape, closing)
    real_factor = engine._tildhom
    deeper = final_example(2, 3, eps_n=2, leaf_omegas=(2, 1))
    for tree, omega_vars, eps_vars in [(t, ["M1", "M3"], ["M4"]), (deeper, ["P"], ["M1"])]:
        factors = Counter()

        def counted_factor(component, d_index, record, limits):
            key = (record.node, record.children, record.flag_count, component, d_index)
            factors[key] += 1
            return real_factor(component, d_index, record, limits)

        clear_caches()
        with mock.patch.object(engine, "_tildhom", counted_factor):
            count_semistar(tree), count_smstar(tree)
            semistar_polynomial(tree, omega_vars)
            smstar_polynomial(tree, omega_vars, eps_vars)
        assert factors and max(factors.values()) == 1
        # the leaves share one set of factors per epsilon, whatever their weights and ids
        leaves = {flags for node, _, flags, _, _ in factors if node is None}
        assert leaves == {1, 2}
        if tree is t:  # two epsilons, every non-empty shape plain and domain-closing
            assert len(factors) == 2 * 2 * (len(support_table(4).shapes) - 1)


# -- one basis: no polynomial arithmetic in the engine ------------------------------------


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def test_a_polynomial_answer_is_one_multipoly_without_arithmetic():
    t = h_local([2, 3, 2], [1, 2, 2])
    omega_vars, eps_vars = ["M1", "M2"], ["M2", "M3"]
    clear_caches()
    with contextlib.ExitStack() as stack:
        spies = {
            name: stack.enter_context(
                mock.patch.object(
                    MultiPoly, name, autospec=True, side_effect=getattr(MultiPoly, name)
                )
            )
            for name in ("__init__",) + _ARITHMETIC
        }
        poly = smstar_polynomial(t, omega_vars, eps_vars)
    assert spies["__init__"].call_count == 1
    assert {name: spies[name].call_count for name in _ARITHMETIC} == dict.fromkeys(_ARITHMETIC, 0)
    assert poly == _reference_smstar(t, omega_vars, eps_vars)


def _multipoly_uses(tree: ast.Module) -> list[str]:
    """Uses of ``MultiPoly`` other than ``MultiPoly.from_binomial`` and type annotations."""
    allowed = set()
    for node in ast.walk(tree):
        kept = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            kept = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            kept = [node.annotation]
        elif isinstance(node, ast.Attribute) and node.attr == "from_binomial":
            kept = [node.value]
        for part in kept:
            if part is not None:
                allowed.update(id(n) for n in ast.walk(part))
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "MultiPoly" and id(node) not in allowed
    ]


_MISUSES = """
def f(x: MultiPoly, *rest: MultiPoly) -> MultiPoly:
    y: MultiPoly = MultiPoly.from_binomial((), {})
    return MultiPoly.zero() + MultiPoly((), {}) * y + isinstance(x, MultiPoly)
"""


def test_the_engine_uses_multipoly_only_through_from_binomial():
    assert _multipoly_uses(ast.parse(_MISUSES)) == ["line 4"] * 3
    with open(engine.__file__, encoding="utf-8") as handle:
        source = handle.read()
    assert "MultiPoly.from_binomial(" in source
    assert _multipoly_uses(ast.parse(source)) == []


# -- limits, with and without cached tables and terms ------------------------------------


def _small_quotient_tree():
    """P(M1, M2; omega=2) plus N(omega=2): P's base is a 14-element quotient poset minus its top."""
    return build_tree(
        [("0", None, 1), ("P", "0", 2), ("M1", "P", 1, 1), ("M2", "P", 2, 1), ("N", "0", 2, 1)]
    )


_LIMIT_SCRIPT = (
    "import sys; sys.path.insert(0, 'tests')\n"
    "from conftest import h_local\n"
    "from test_support_table import _small_quotient_tree\n"
    "from semistar import EnumerationLimitError, Limits, count_semistar, count_smstar\n"
    "cases = [(_small_quotient_tree(), Limits(max_poset=10)),\n"
    "         (h_local([1, 1, 1, 1]), Limits(max_branches=3))]\n"
    "for t, limits in cases:\n"
    "    for count in (count_semistar, count_smstar):\n"
    "        try:\n"
    "            print(count(t, limits))\n"
    "        except EnumerationLimitError:\n"
    "            print('limit')\n"
)


def test_limits_fire_cold_and_warm():
    cold = run_fresh(_LIMIT_SCRIPT)
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.split() == ["limit"] * 4
    quotient, flat = _small_quotient_tree(), h_local([1, 1, 1, 1])
    count_semistar(quotient), count_smstar(quotient)
    assert count_smstar(flat) == 2271
    for _ in range(2):  # terms and tables are cached now
        with pytest.raises(EnumerationLimitError, match="quotient 'P'"):
            count_semistar(quotient, Limits(max_poset=10))
        with pytest.raises(EnumerationLimitError, match="quotient 'P'"):
            count_smstar(quotient, Limits(max_poset=10))
        with pytest.raises(EnumerationLimitError, match="limited to 3 branches, got 4"):
            count_semistar(flat, Limits(max_branches=3))
        with pytest.raises(EnumerationLimitError, match="limited to 3 branches"):
            support_table(4, max_branches=3)


def test_a_big_quotient_next_to_a_leaf_hits_max_poset():
    # P(omega=2) over three leaves of omega 3 has a 58 610-element quotient;
    # a second branch makes components of two elements meet P, so its base
    # would be built
    t = build_tree(
        [("0", None, 1), ("P", "0", 2), ("N", "0", 1, 1)]
        + [(f"M{i}", "P", 3, 1) for i in (1, 2, 3)]
    )
    for _ in range(2):
        with pytest.raises(EnumerationLimitError, match="58610 elements"):
            count_semistar(t)
        with pytest.raises(EnumerationLimitError, match="58610 elements"):
            count_smstar(t)
    assert count_semistar(valuation(3, 1)) == 4
