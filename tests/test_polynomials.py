import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistar import (
    InconsistentEvaluatorError,
    MultiPoly,
    binomial_order_poly,
    chain,
    hom_polynomial,
    interpolate,
)

names = st.sampled_from(["x", "y", "z"])
coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    variables = ("x", "y", "z")
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in variables)
        terms[exps] = draw(coeffs)
    return MultiPoly(variables, terms)


def var(name):
    return MultiPoly.variable(name)


def test_basic_arithmetic():
    x = var("x")
    assert (x + 1) * (x - 1) == x**2 - 1
    p = 3 * x**2 + Fraction(1, 2)
    assert p + 0 == p
    assert p - p == MultiPoly.zero()
    assert (p * 0).is_zero()


def test_epsilon_product_expansion():
    a, b, e1, e2 = var("a"), var("b"), var("e1"), var("e2")
    expanded = (1 + e1 * a) * (1 + e2 * b)
    assert expanded == 1 + e1 * a + e2 * b + e1 * e2 * a * b


def test_canonical_form_drops_unused_variables():
    p = MultiPoly(("a", "b"), {(2, 0): 1, (1, 0): Fraction(1, 2)})
    assert p.variables == ("a",)
    assert p == MultiPoly(("a",), {(2,): 1, (1,): Fraction(1, 2)})
    assert MultiPoly(("a",), {(0,): 3}) == 3


def test_two_leaf_counting_polynomial_evaluates_to_seven():
    a, b = var("a"), var("b")
    pi2 = (
        1 + a + b + Fraction(9, 4) * a * b
        + Fraction(3, 4) * (a**2 * b + a * b**2)
        + Fraction(1, 4) * a**2 * b**2
    )
    assert pi2.evaluate({"a": 1, "b": 1}) == 7
    assert pi2.evaluate({"a": 0, "b": 0}) == 1  # constant term


def test_evaluate_requires_all_variables():
    p = var("x") * var("y")
    with pytest.raises(ValueError):
        p.evaluate({"x": 1})


def test_degrees():
    a, b = var("a"), var("b")
    p = a**2 * b + b**2
    assert p.degree() == 3
    assert p.degree_in("a") == 2
    assert p.degree_in("b") == 2
    assert p.degree_in("missing") == 0
    assert MultiPoly.zero().degree() == -1
    assert p.coefficient({"a": 2, "b": 1}) == 1 and p.coefficient({"b": 2}) == 1
    assert p.coefficient({"a": 1}) == 0 and p.coefficient({}) == 0
    assert (p + Fraction(1, 3)).coefficient({"a": 0}) == Fraction(1, 3)
    assert p.coefficient({"b": 2, "c": 1}) == 0 and p.coefficient({"b": 2, "c": 0}) == 1


@given(polys(), polys(), polys())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys())
@settings(max_examples=40, deadline=None)
def test_interpolate_recovers_polynomial(p):
    bounds = {v: max(p.degree_in(v), 0) for v in ("x", "y", "z")}
    recovered = interpolate(lambda pt: p.evaluate(pt), bounds)
    assert recovered == p


def test_interpolate_simple_square():
    poly = interpolate(lambda pt: pt["n"] ** 2, {"n": 2})
    assert poly == var("n") ** 2


def test_interpolate_detects_underestimated_degree():
    with pytest.raises(InconsistentEvaluatorError):
        interpolate(lambda pt: pt["n"] ** 3, {"n": 2})


def test_interpolate_custom_nodes_and_verify_points():
    poly = interpolate(
        lambda pt: pt["n"] * (pt["n"] + 1) // 2,
        {"n": 2},
        nodes={"n": [2, 3, 4]},
        verify_points={"n": [7, 9]},
    )
    assert poly == binomial_order_poly(2)


def test_binomial_order_polys():
    n = var("n")
    assert binomial_order_poly(1) == n
    assert binomial_order_poly(2) == (n**2 + n) * Fraction(1, 2)
    assert binomial_order_poly(3) == (n**3 + 3 * n**2 + 2 * n) * Fraction(1, 6)
    with pytest.raises(ValueError):
        binomial_order_poly(0)


def test_binomial_matches_hom_polynomial():
    for k in range(1, 6):
        assert binomial_order_poly(k) == hom_polynomial(chain(k), chain(0))


def test_from_binomial_matches_products_of_linear_factors():
    n = var("n")
    for k in range(7):
        falling = rising = MultiPoly.constant(Fraction(1, factorial(k)))
        for i in range(k):
            falling, rising = falling * (n - i), rising * (n + i)
        assert MultiPoly.from_binomial(("n",), {(k,): 1}) == falling  # C(n, k)
        if k:
            assert binomial_order_poly(k) == rising  # C(n + k - 1, k)
    assert MultiPoly.from_binomial(("a", "b"), {}) == MultiPoly.zero()
    assert MultiPoly.from_binomial((), {(): 5}) == MultiPoly.constant(5)
    with pytest.raises(ValueError):
        MultiPoly.from_binomial(("n",), {(1, 2): 3})
    with pytest.raises(ValueError):
        MultiPoly.from_binomial(("n",), {(-1,): 3})


@st.composite
def binomial_terms(draw):
    keys = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return draw(st.dictionaries(keys, st.integers(-20, 20), max_size=6))


@given(binomial_terms())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_from_binomial_matches_interpolation(terms):
    def value(point):
        x, y = point["x"], point["y"]
        return sum(c * comb(x, i) * comb(y, j) for (i, j), c in terms.items())

    bounds = {v: max((key[i] for key in terms), default=0) for i, v in enumerate("xy")}
    assert MultiPoly.from_binomial(("x", "y"), terms) == interpolate(value, bounds)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.just(0), st.integers(0, 3)),
        st.integers(-6, 6),
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_from_binomial_is_in_canonical_form(terms):
    # names out of order, one variable never used, zero coefficients kept in
    p = MultiPoly.from_binomial(("z", "unused", "a"), terms)
    rebuilt = MultiPoly(p.variables, p.terms)
    assert (p.variables, p.terms, hash(p)) == (rebuilt.variables, rebuilt.terms, hash(rebuilt))
    assert p.variables == tuple(sorted(p.variables)) and "unused" not in p.variables
    assert all(isinstance(c, Fraction) and c for c in p.terms.values())
    assert p == MultiPoly.from_binomial(("a", "z"), {(k, i): c for (i, _, k), c in terms.items()})


def test_from_binomial_checks_its_input():
    with pytest.raises(ValueError, match="duplicate"):
        MultiPoly.from_binomial(("n", "n"), {})
    with pytest.raises(ValueError, match="nonnegative integers"):
        MultiPoly.from_binomial(("n", "m"), {(1, 0): 1, (1.0, 1): 2})
    with pytest.raises(ValueError, match="nonnegative integers"):
        MultiPoly.from_binomial(("n",), {(Fraction(1, 2),): 1})


def test_text_rendering():
    a, b = var("a"), var("b")
    p = Fraction(1, 4) * a**2 * b**2 + Fraction(3, 4) * a**2 * b + a + 7
    assert p.to_text() == "1/4*a^2*b^2 + 3/4*a^2*b + a + 7"
    assert (a - b).to_text() == "a - b"
    assert MultiPoly.zero().to_text() == "0"
    assert (-(a * b)).to_text() == "-a*b"


def test_json_round_trip():
    rng = random.Random(0)
    for _ in range(20):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, 5))
        }
        p = MultiPoly(("u", "v"), terms)
        assert MultiPoly.from_json_dict(p.to_json_dict()) == p


def test_rename_variables():
    p = var("a") ** 2 * var("b")
    assert p.rename_variables({"a": "x", "b": "y"}) == var("x") ** 2 * var("y")
