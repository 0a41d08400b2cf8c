"""The support sum over shape tables against the per-support loop it replaced.

The reference below walks every support and every branch, takes each
branch factor from the support's own component poset, and groups supports
by their symbolic components.  It reads each factor as a ``MultiPoly``
(``tildhom_count`` through ``MultiPoly.from_binomial``) and expands the
groups in the monomial basis, so it also checks the engine's change of
basis, which expands in binomial indices and converts once.  Patched in for
``engine._support_sum``, it gives the reference answers of all four public
entry points; the engine's table-driven sum must give the same integers and
polynomials.
"""

import random
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
    build_tree,
    count_semistar,
    count_smstar,
    semistar_polynomial,
    smstar_polynomial,
)
from semistar import engine
from semistar.spectrum import enumerate_supports, support_table


_FACTORS = {}  # (branch tree, component, domain index) -> (polynomial in n, value at omega)


def _per_support_sum(t, closing, symbolic, limits):
    records = engine._branches(t, limits)
    names = [symbolic.get(record.child) for record in records]

    def branch_factor(i, component, d_index):
        key = (records[i].tree, component, d_index)
        if key not in _FACTORS:
            e = engine.tildhom_count(component, d_index, records[i].tree, limits)
            poly = MultiPoly.from_binomial(("n",), {(k,): c for k, c in enumerate(e)})
            _FACTORS[key] = poly, poly.evaluate({"n": records[i].omega})
        return _FACTORS[key]

    groups = {}
    for support in enumerate_supports(len(records), max_branches=limits.max_branches):
        if closing and not support.contains_domain():
            continue
        key, factor = [], 1
        for i, record in enumerate(records):
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


def _answers(t, omega_vars, eps_vars):
    answers = [count_semistar(t), count_smstar(t)]
    if omega_vars:
        answers.append(semistar_polynomial(t, omega_vars))
    if omega_vars or eps_vars:
        answers.append(smstar_polynomial(t, omega_vars, eps_vars))
    return answers


def _eps_choices(t, omega_vars):
    """Leaves whose epsilon may be symbolic: weight at least 2, or a symbolic weight."""
    return [v for v in t.leaves() if v in omega_vars or t.omega(v) >= 2]


def _assert_matches_reference(t, omega_vars=None, eps_vars=None):
    if omega_vars is None:
        omega_vars = list(t.children(t.root_id))[:2]
    if eps_vars is None:
        eps_vars = _eps_choices(t, omega_vars)[:1]
    got = _answers(t, omega_vars, eps_vars)
    with mock.patch.object(engine, "_support_sum", _per_support_sum):
        expected = _answers(t, omega_vars, eps_vars)
    assert got == expected


def test_reference_is_the_old_path_on_known_values():
    with mock.patch.object(engine, "_support_sum", _per_support_sum):
        assert count_semistar(h_local([1, 1, 1])) == 61
        assert count_smstar(h_local([1, 1, 1])) == 45
        assert count_semistar(final_example(1, 1)) == 67


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


def test_tables_count_every_support_once():
    for m, (supports, closing) in enumerate([(1, 1), (2, 1), (7, 4), (61, 45), (2480, 2271)]):
        every, domain = support_table(m, False), support_table(m, True)
        assert sum(every.multiplicity) == supports == len(enumerate_supports(m))
        assert sum(domain.multiplicity) == closing
        for table in (every, domain):
            assert len(table.columns) == m
            assert all(len(c) == len(table.multiplicity) for c in table.columns)
            assert all(s < len(table.shapes) for c in table.columns for s in c)
        assert all(d is None for _, d in every.shapes)
    # the distinct component shapes at four branches
    assert (len(support_table(4, False).shapes), len(support_table(4, True).shapes)) == (38, 37)


def test_each_branch_takes_one_term_per_shape():
    t = h_local([2, 1, 3, 2], [2, 1, 1, 2])
    calls = []
    real = engine._term

    def counted(record, component, d_index, symbolic, limits):
        calls.append((record.child, component, d_index, symbolic))
        return real(record, component, d_index, symbolic, limits)

    for closing, count in ((False, count_semistar), (True, count_smstar)):
        calls.clear()
        with mock.patch.object(engine, "_term", counted):
            count(t)
        assert len(calls) == len(set(calls))
        shapes = len(support_table(4, closing).shapes)
        for branch in t.children(t.root_id):  # a labelled factor asks for its polynomial once
            assert sum(1 for b, _, _, symbolic in calls if b == branch and not symbolic) <= shapes


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
        with pytest.raises(EnumerationLimitError, match="limit is 3"):
            count_semistar(flat, Limits(max_branches=3))
        with pytest.raises(EnumerationLimitError, match="limited to 3 branches"):
            support_table(4, True, max_branches=3)


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
