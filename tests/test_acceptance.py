"""Acceptance suite: one test per shipping criterion, all exact equalities.

Run ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Everything here is integer or rational arithmetic, so every
comparison is at zero tolerance.
"""

import random
from fractions import Fraction
from itertools import product as cartesian

from conftest import final_example, h_local, random_poset, random_tree, valuation, y_tree
from semistar import (
    MultiPoly,
    Poset,
    are_isomorphic,
    binomial_order_poly,
    chain,
    count_fstar,
    count_hom,
    count_semistar,
    count_smstar,
    count_star,
    enumerate_supports,
    fstar_poset,
    fstar_product,
    hom_polynomial,
    interpolate,
    ordinal_sum,
    semistar_element_counts,
    semistar_polynomial,
    semistar_poset,
    smstar_polynomial,
    subposet,
)
from semistar.oracle import brute_count_hom, brute_semistar_count, brute_supports
from semistar.spectrum import branch_subtree


def _pass(number, message):
    print(f"[criterion {number:02d}] PASS - {message}")


def _var(name):
    return MultiPoly.variable(name)


def _leaf_epsilons(omegas):
    return cartesian(*[range(1, min(2, w) + 1) for w in omegas])


def test_criterion_01_two_leaf_semistar_polynomial():
    poly = semistar_polynomial(h_local([1, 1]), ["M1", "M2"])
    a, b = _var("M1"), _var("M2")
    expected = (
        1 + a + b
        + Fraction(9, 4) * a * b
        + Fraction(3, 4) * a**2 * b
        + Fraction(3, 4) * a * b**2
        + Fraction(1, 4) * a**2 * b**2
    )
    assert poly == expected
    _pass(1, "two-leaf semistar polynomial recovered coefficient-exact")


def test_criterion_02_two_leaf_smstar_polynomial():
    poly = smstar_polynomial(h_local([1, 1]), ["M1", "M2"], ["M1", "M2"])
    a, b = _var("M1"), _var("M2")
    e1, e2 = _var("eps_M1"), _var("eps_M2")
    assert poly == (1 + e1 * a) * (1 + e2 * b)
    _pass(2, "two-leaf domain-closing polynomial equals (1+e1*a)(1+e2*b)")


def test_criterion_03_three_leaf_all_ones_is_45():
    assert count_smstar(h_local([1, 1, 1])) == 45
    ids = ["M1", "M2", "M3"]
    poly = smstar_polynomial(h_local([2, 2, 2]), ids, ids)
    point = {v: 1 for v in ids} | {f"eps_{v}": 1 for v in ids}
    assert poly.evaluate(point) == 45
    _pass(3, "three-leaf domain-closing count at all-ones equals 45")


def test_criterion_04_two_branch_polynomial_and_intermediates():
    poly = semistar_polynomial(final_example(1, 1), ["P", "N"]).rename_variables(
        {"P": "a", "N": "b"}
    )
    a, b = _var("a"), _var("b")
    expected = (
        Fraction(1, 4) * a**2 * b**2
        + Fraction(3, 4) * a**2 * b
        + Fraction(15, 4) * a * b**2
        + Fraction(21, 2) * b**2
        + Fraction(45, 4) * a * b
        + a
        + Fraction(65, 2) * b
        + 7
    )
    assert poly == expected

    def branch_at_p(value):
        return fstar_poset(branch_subtree(final_example(value, 1), "P"))

    r1 = interpolate(lambda pt: branch_at_p(pt["a"]).size, {"a": 1})
    assert r1 == a + 6
    r2 = interpolate(lambda pt: count_hom(chain(2), branch_at_p(pt["a"]).poset), {"a": 2})
    assert r2 == Fraction(1, 2) * a**2 + Fraction(13, 2) * a + 15
    _pass(4, "two-branch polynomial exact; point maps 6+a, pair maps a^2/2+13a/2+15")


def _h_local_lattice(max_n=3, max_omega=4):
    for n in range(1, max_n + 1):
        for omegas in cartesian(range(1, max_omega + 1), repeat=n):
            for epsilons in _leaf_epsilons(omegas):
                yield h_local(list(omegas), list(epsilons))


def test_criterion_05_h_local_closed_forms():
    checked = 0
    for t in _h_local_lattice():
        omegas = [t.omega(leaf) for leaf in t.leaves()]
        epsilons = [t.epsilon(leaf) for leaf in t.leaves()]
        fstar = count_fstar(t)
        star = count_star(t)
        expected_fstar = 1
        for w in omegas:
            expected_fstar *= w
        expected_star = 1
        for e in epsilons:
            expected_star *= e
        assert fstar == expected_fstar
        assert star == expected_star
        checked += 1
    _pass(5, f"flat-tree product formulas hold on {checked} labelings")


def test_criterion_06_y_shape_star_counts():
    checked = 0
    for p in range(1, 5):
        for w1 in range(1, 5):
            for e1 in range(1, min(2, w1) + 1):
                for w2 in range(1, 5):
                    for e2 in range(1, min(2, w2) + 1):
                        t = y_tree(p, (w1, e1), (w2, e2))
                        star = count_star(t)
                        assert star == (1 + e1 * w1) * (1 + e2 * w2)
                        # fstar = semistar(quotient) - 1 + p, the quotient a two-leaf tree
                        fstar = count_fstar(t)
                        assert fstar == _two_leaf_semistar(w1, w2) - 1 + p
                        fp = fstar_product(t)
                        assert (fp.size, len(fp.ring_closing)) == (fstar, star)
                        checked += 1
    _pass(6, f"Y-shape star count equals (1+e1*w1)(1+e2*w2) on {checked} labelings")


def _two_leaf_semistar(a, b):
    value = Fraction(
        4 + 4 * a + 4 * b + 9 * a * b + 3 * (a * a * b + a * b * b) + a * a * b * b, 4
    )
    assert value.denominator == 1
    return value.numerator


def _oracle_lattice():
    for w in range(1, 5):
        for e in range(1, min(2, w) + 1):
            yield valuation(w, e)
    yield from _h_local_lattice(max_n=3)
    for p in range(1, 5):
        for w1 in range(1, 5):
            for e1 in range(1, min(2, w1) + 1):
                for w2 in range(1, 5):
                    for e2 in range(1, min(2, w2) + 1):
                        yield y_tree(p, (w1, e1), (w2, e2))
    for a in range(1, 5):
        for b in range(1, 5):
            for eps_n in range(1, min(2, b) + 1):
                yield final_example(a, b, eps_n=eps_n)


def test_criterion_07_oracle_equivalence():
    trees = 0
    posets = 0
    for t in _oracle_lattice():
        semi, smstar = count_semistar(t), count_smstar(t)
        assert (semi, smstar) == brute_semistar_count(t)
        assert (semi, smstar) == semistar_element_counts(t)
        fp = fstar_product(t)
        assert fp.size == count_fstar(t)
        assert len(fp.ring_closing) == count_star(t)
        if semi <= 250:
            sp = semistar_poset(t)
            assert sp.size == semi
            assert len(sp.ring_closing) == smstar
            posets += 1
        trees += 1
    _pass(7, f"engine = elements = oracle on {trees} trees; {posets} posets materialized")


def test_criterion_08_support_counts():
    assert len(enumerate_supports(1)) == 2
    assert len(enumerate_supports(2)) == 7
    assert len(enumerate_supports(3)) == brute_supports(3) == 61
    _pass(8, "supports: 2 on one branch, 7 on two, 61 on three (vs brute filter)")


def test_criterion_09_degree_and_symmetry():
    for n in (1, 2, 3):
        ids = [f"M{i + 1}" for i in range(n)]
        poly = semistar_polynomial(h_local([1] * n), ids)
        assert poly.degree() == n * 2 ** (n - 1)
        if n == 3:
            for x, y in [("M1", "M2"), ("M1", "M3"), ("M2", "M3")]:
                assert poly == poly.rename_variables({x: y, y: x})
    sym2 = semistar_polynomial(h_local([1, 1]), ["M1", "M2"])
    assert sym2 == sym2.rename_variables({"M1": "M2", "M2": "M1"})
    # epsilon held fixed: degree k(2^(k-1) - 1)
    assert smstar_polynomial(valuation(2, 1), ["M"]).degree() == 0
    assert smstar_polynomial(valuation(2, 2), ["M"]).degree() == 0
    assert smstar_polynomial(h_local([2, 2], [1, 2]), ["M1", "M2"]).degree() == 2
    assert smstar_polynomial(h_local([2, 2], [2, 2]), ["M1", "M2"]).degree() == 2
    _pass(9, "semistar degrees n*2^(n-1) for n<=3, symmetric; fixed-eps degrees k(2^(k-1)-1)")


def test_criterion_10_star_count_independent_of_branch_weights():
    rng = random.Random(2024)
    trees = 0
    while trees < 20:
        t = random_tree(rng)
        base = count_star(t)
        for child in t.children(t.root_id):
            low = t.epsilon(child) if t.is_leaf(child) else 1
            for w in range(low, 5):
                assert count_star(t.with_labels(omega={child: w})) == base
        trees += 1
    _pass(10, "star count unchanged under branch-weight changes on 20 random trees")


def test_criterion_11_quotient_poset_structure():
    sp = semistar_poset(h_local([1, 1]))
    top = sp.poset.unique_max()
    assert sp.elements[top].support.masks == frozenset({0})
    reduced = subposet(sp.poset, [i for i in range(sp.size) if i != top])
    # six operations: the identity at the bottom, covered by the two
    # pair-support operations, with the three singleton-support operations
    # maximal (the middle one above both pairs)
    expected = Poset.from_covers(
        6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5)]
    )
    assert are_isomorphic(reduced, expected)
    _pass(11, "two-leaf quotient poset minus top matches the forced 6-element shape")


def test_criterion_12_poset_layer():
    rng = random.Random(99)
    pairs = 0
    while pairs < 200:
        p, q = random_poset(rng, 5), random_poset(rng, 5)
        assert count_hom(p, q) == brute_count_hom(p, q)
        pairs += 1
    rng = random.Random(7)
    for _ in range(25):
        p, q = random_poset(rng, 4), random_poset(rng, 3)
        poly = hom_polynomial(p, q)
        for n in range(8):
            assert poly.evaluate({"n": n}) == count_hom(p, ordinal_sum(q, chain(n)))
    from math import comb

    for k in range(1, 6):
        assert hom_polynomial(chain(k), chain(0)) == binomial_order_poly(k)
        for n in range(8):
            assert binomial_order_poly(k).evaluate({"n": n}) == comb(n + k - 1, k)
    _pass(12, "map counts match brute force on 200 pairs; order polynomials exact")
