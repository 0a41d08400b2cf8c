import random
import sys
from fractions import Fraction
from itertools import product as cartesian
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import caterpillar, final_example, h_local, random_tree, run_fresh, valuation, y_tree
from semistar import (
    EnumerationLimitError,
    FlaggedPoset,
    Limits,
    MultiPoly,
    Poset,
    are_isomorphic,
    build_tree,
    chain,
    clear_caches,
    count_fstar,
    count_hom,
    count_report,
    count_semistar,
    count_smstar,
    count_star,
    fstar_poset,
    fstar_product,
    semistar_element_counts,
    semistar_polynomial,
    semistar_poset,
    smstar_polynomial,
    subposet,
    tildhom_count,
)
from semistar import engine
from semistar.engine import DEFAULT_LIMITS
from semistar.spectrum import SpectrumTree, Support, branch_subtree


def fex_polynomial():
    a, b = MultiPoly.variable("a"), MultiPoly.variable("b")
    return (
        Fraction(1, 4) * a**2 * b**2
        + Fraction(3, 4) * a**2 * b
        + Fraction(15, 4) * a * b**2
        + Fraction(21, 2) * b**2
        + Fraction(45, 4) * a * b
        + a
        + Fraction(65, 2) * b
        + 7
    )


# -- flagged posets ------------------------------------------------------------


def test_flagged_poset_invariants():
    with pytest.raises(ValueError):
        FlaggedPoset(chain(3), frozenset({1}))  # minimum not flagged
    with pytest.raises(ValueError):
        FlaggedPoset(chain(3), frozenset({0, 2}))  # not a down-set
    fp = FlaggedPoset(chain(3), frozenset({0, 1}))
    assert fp.size == 3


# -- branch posets ---------------------------------------------------------------


def test_fstar_valuation_chain():
    fp = fstar_poset(valuation(3, 2))
    assert are_isomorphic(fp.poset, chain(3))
    assert fp.ring_closing == frozenset({0, 1})  # bottom two elements
    fp1 = fstar_poset(valuation(1, 1))
    assert fp1.size == 1 and fp1.ring_closing == frozenset({0})


def test_fstar_rejects_multi_branch():
    with pytest.raises(ValueError):
        fstar_poset(h_local([1, 1]))


def test_fstar_internal_branch_sizes():
    # branch over a two-leaf quotient with unit weights: 6 + omega elements
    for a in range(1, 6):
        t = final_example(a, 1)
        fp = fstar_poset(branch_subtree(t, "P"))
        assert fp.size == 6 + a
        assert len(fp.ring_closing) == 4


def test_fstar_internal_branch_structure():
    t = final_example(2, 1)
    fp = fstar_poset(branch_subtree(t, "P"))
    # chain of length omega(P) on top of the 6-element quotient poset
    top_chain = [i for i in range(fp.size) if fp.poset.down_mask(i).bit_count() >= 7]
    assert len(top_chain) == 2
    base = subposet(fp.poset, range(6))
    expected = Poset.from_covers(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5)])
    assert are_isomorphic(base, expected)


# -- the semistar poset -----------------------------------------------------------


def test_semistar_poset_valuation_is_a_chain():
    for a, e in [(1, 1), (3, 2), (4, 1)]:
        sp = semistar_poset(valuation(a, e))
        assert are_isomorphic(sp.poset, chain(a + 1))
        assert len(sp.ring_closing) == e


def test_semistar_poset_two_leaves_unit_weights():
    sp = semistar_poset(h_local([1, 1]))
    assert sp.size == 7
    assert len(sp.ring_closing) == 4
    # one element per support; the quotient-field support is the maximum
    assert len({e.support.masks for e in sp.elements}) == 7
    top = sp.poset.unique_max()
    assert sp.elements[top].support.masks == frozenset({0})
    assert sp.poset.unique_min() is not None


def test_semistar_poset_single_node():
    sp = semistar_poset(build_tree([("0", None, 1)]))
    assert sp.size == 1 and sp.ring_closing == frozenset({0})


def test_semistar_poset_extremes_and_flags_downward():
    t = y_tree(2, (2, 2), (1, 1))
    sp = semistar_poset(t)
    bottom = sp.poset.unique_min()
    assert bottom is not None and bottom in sp.ring_closing
    assert sp.elements[bottom].support.masks == frozenset(range(1 << len(sp.branch_ids)))
    for i in sp.ring_closing:
        for j in range(sp.size):
            if sp.poset.leq(j, i):
                assert j in sp.ring_closing
    # cardinalities line up with the counting paths
    assert sp.size == count_semistar(t)
    assert len(sp.ring_closing) == count_smstar(t)


def test_semistar_poset_respects_element_bound():
    with pytest.raises(EnumerationLimitError):
        semistar_poset(h_local([4, 4]), Limits(max_poset=100))


def test_semistar_elements_partition_by_support():
    sp = semistar_poset(h_local([2, 3], [1, 2]))
    by_support = {}
    for e in sp.elements:
        by_support.setdefault(e.support.masks, []).append(e)
    # within a support, elements differ by their maps
    for members in by_support.values():
        assert len({tuple(m.image for m in e.maps if m) for e in members}) == len(members)


# -- counts -----------------------------------------------------------------------


def test_counts_valuation():
    for a in range(1, 5):
        for e in (1, 2):
            if e > a:
                continue
            t = valuation(a, e)
            assert count_report(t) == {
                "semistar": a + 1,
                "fstar": a,
                "smstar": e,
                "star": e,
            }


def test_counts_single_node():
    t = build_tree([("0", None, 1)])
    assert count_report(t) == {"semistar": 1, "fstar": 1, "smstar": 1, "star": 1}


def test_two_leaf_counts_match_polynomials():
    for a in range(1, 5):
        for b in range(1, 5):
            t = h_local([a, b])
            expected = Fraction(
                4 + 4 * a + 4 * b + 9 * a * b + 3 * (a * a * b + a * b * b) + a * a * b * b, 4
            )
            assert count_semistar(t) == expected
            assert count_fstar(t) == a * b
            assert count_star(t) == 1


def test_two_leaf_smstar_product_formula():
    for a, e1 in [(1, 1), (2, 1), (2, 2), (4, 2)]:
        for b, e2 in [(1, 1), (3, 2), (4, 1)]:
            t = h_local([a, b], [e1, e2])
            assert count_smstar(t) == (1 + e1 * a) * (1 + e2 * b)


def test_three_leaf_unit_counts():
    t = h_local([1, 1, 1])
    assert count_semistar(t) == 61
    assert count_smstar(t) == 45


def test_four_branch_unit_counts():
    from semistar import enumerate_supports

    # with unit labels every map count is 1: the totals are support counts
    t = h_local([1, 1, 1, 1])
    supports = enumerate_supports(4)
    assert count_semistar(t) == len(supports) == 2480
    assert count_smstar(t) == sum(1 for s in supports if s.contains_domain())
    assert semistar_element_counts(t) == (count_semistar(t), count_smstar(t))


def test_final_example_counts():
    assert count_semistar(final_example(1, 1)) == 67
    poly = fex_polynomial()
    for a in range(1, 5):
        for b in range(1, 5):
            assert count_semistar(final_example(a, b)) == poly.evaluate({"a": a, "b": b})
            assert count_fstar(final_example(a, b)) == (6 + a) * b


def test_single_branch_identities():
    # one branch: all operations except the all-to-field one are fractional-star
    for t in (valuation(3, 1), y_tree(2, (2, 1), (3, 2)), y_tree(1, (1, 1), (1, 1))):
        assert count_semistar(t) == count_fstar(t) + 1
        assert count_smstar(t) == count_star(t)


def _tildhom(component, d_index, branch):
    """``tildhom_count`` as a polynomial in ``n``, from its coefficients in C(n, k)."""
    e = tildhom_count(component, d_index, branch)
    return MultiPoly.from_binomial(("n",), {(k,): c for k, c in enumerate(e)})


def test_tildhom_examples():
    for n in range(1, 6):
        for e in (1, 2):
            if e > n:
                continue
            leaf = valuation(n, e)  # chain(n) with the bottom e elements starred
            two = Support(2, frozenset({0, 0b11, 0b01}))
            comp, d = two.component_poset(0)
            # 2-chain component with the domain at the bottom
            poly = _tildhom(comp, d, leaf)
            assert poly.evaluate({"n": n}) == e * n - e + 1
            one = Support(2, frozenset({0, 0b11}))
            comp1, d1 = one.component_poset(0)
            assert _tildhom(comp1, d1, leaf) == MultiPoly.constant(e)


def test_tildhom_fully_flagged_is_plain_count():
    # valuation(2, 2) is chain(2) with both elements starred
    leaf = valuation(2, 2)
    f = fstar_poset(leaf)
    two = Support(2, frozenset({0, 0b11, 0b01}))
    comp, d = two.component_poset(0)
    assert _tildhom(comp, d, leaf).evaluate({"n": 2}) == count_hom(comp, f.poset)
    assert _tildhom(comp, None, leaf).evaluate({"n": 2}) == count_hom(comp, f.poset)


def test_tildhom_matches_map_enumeration():
    # internal branches: the flagged split against the materialized branch poset
    from semistar import enum_hom, enumerate_supports

    for t in (final_example(2, 1), y_tree(1, (2, 2), (1, 1)), h_local([3, 2], [2, 1])):
        for child in t.children(t.root_id):
            branch = branch_subtree(t, child)
            f = fstar_poset(branch)
            for support in enumerate_supports(3):
                comp, d = support.component_poset(0)
                if not comp.size:
                    continue
                maps = enum_hom(comp, f.poset)
                omega = {"n": t.omega(child)}
                assert _tildhom(comp, None, branch).evaluate(omega) == len(maps)
                if d is not None:
                    starred = sum(1 for m in maps if m.image[d] in f.ring_closing)
                    assert _tildhom(comp, d, branch).evaluate(omega) == starred


def test_counts_build_no_polynomial():
    # counts stay in integers: no MultiPoly from the first call on, cold caches
    script = (
        "import sys; sys.path.insert(0, 'tests')\n"
        "from conftest import final_example, h_local\n"
        "from semistar import MultiPoly, count_report\n"
        "built, init = [], MultiPoly.__init__\n"
        "def counted(self, *args):\n"
        "    built.append(args)\n"
        "    init(self, *args)\n"
        "MultiPoly.__init__ = counted\n"
        "print(count_report(final_example(1, 1)))\n"
        "print(count_report(h_local([2, 1, 3, 2], [2, 1, 1, 2])))\n"
        "print(len(built))\n"
    )
    fresh = run_fresh(script)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.splitlines() == [
        "{'semistar': 67, 'fstar': 7, 'smstar': 42, 'star': 4}",
        "{'semistar': 12055198, 'fstar': 12, 'smstar': 9955465, 'star': 4}",
        "0",
    ]


def test_fstar_product_cardinalities():
    for t in (h_local([2, 3], [1, 2]), final_example(2, 3, eps_n=2), build_tree([("0", None, 1)])):
        fp = fstar_product(t)
        assert fp.size == count_fstar(t)
        assert len(fp.ring_closing) == count_star(t)


# -- two-level trees: branch records against materialized branch posets ------------


def test_height2_y_shape():
    for p in range(1, 5):
        for w1, e1 in [(1, 1), (2, 2), (3, 1)]:
            for w2, e2 in [(1, 1), (4, 2)]:
                t = y_tree(p, (w1, e1), (w2, e2))
                fp = fstar_product(t)
                st_ = count_star(t)
                assert st_ == (1 + e1 * w1) * (1 + e2 * w2) == len(fp.ring_closing)
                assert count_fstar(t) == fp.size


def test_height2_degenerate_h_local():
    t = h_local([2, 3, 4], [1, 2, 1])
    fp = fstar_product(t)
    assert (count_fstar(t), count_star(t)) == (2 * 3 * 4, 1 * 2 * 1)
    assert (fp.size, len(fp.ring_closing)) == (2 * 3 * 4, 1 * 2 * 1)


def test_y_star_count_from_raw_idempotency_data():
    # labels derived from the primes inside each slice: nonidempotent primes
    # contribute 1, idempotent ones 2, the maximal ideal itself epsilon
    from semistar import derive_omega
    from semistar.spectrum import IDEMPOTENT, NONIDEMPOTENT

    slice1 = [NONIDEMPOTENT, IDEMPOTENT]          # below M1, M1 itself idempotent
    slice2 = [NONIDEMPOTENT]                      # M2 alone, nonidempotent
    w1, e1 = derive_omega(slice1 + [IDEMPOTENT]), 2
    w2, e2 = derive_omega(slice2 + [NONIDEMPOTENT]), 1
    t = y_tree(2, (w1, e1), (w2, e2))
    assert count_star(t) == (1 + e1 * w1) * (1 + e2 * w2)


def test_height2_fstar_equals_leaf_polynomial_plus_chain():
    pi2 = semistar_polynomial(h_local([1, 1]), ["M1", "M2"])
    for p in (1, 2, 4):
        for w1, e1, w2, e2 in [(1, 1, 1, 1), (2, 2, 3, 1), (4, 1, 2, 2)]:
            t = y_tree(p, (w1, e1), (w2, e2))
            expected = pi2.evaluate({"M1": w1, "M2": w2}) + p - 1
            assert fstar_product(t).size == expected == count_fstar(t)


def test_height2_mixed_and_deep_trees_count():
    t = final_example(2, 3)
    fp = fstar_product(t)
    assert (count_fstar(t), count_star(t)) == (fp.size, len(fp.ring_closing))
    # deeper trees take the same recursion
    deep = build_tree(
        [
            ("0", None, 1),
            ("P", "0", 1),
            ("Q", "P", 2),
            ("M1", "Q", 1, 1),
            ("M2", "Q", 1, 1),
            ("M3", "P", 1, 1),
        ]
    )
    fp = fstar_product(deep)
    assert (count_fstar(deep), count_star(deep)) == (fp.size, len(fp.ring_closing))
    assert count_fstar(deep) == count_semistar(deep) - 1


# -- symbolic recovery ----------------------------------------------------------------


def test_semistar_polynomial_two_leaves():
    pi2 = semistar_polynomial(h_local([1, 1]), ["M1", "M2"])
    a, b = MultiPoly.variable("M1"), MultiPoly.variable("M2")
    assert pi2 == (
        1 + a + b + Fraction(9, 4) * a * b
        + Fraction(3, 4) * (a**2 * b + a * b**2)
        + Fraction(1, 4) * a**2 * b**2
    )


def test_semistar_polynomial_valuation():
    poly = semistar_polynomial(valuation(1, 1), ["M"])
    assert poly == MultiPoly.variable("M") + 1
    assert poly.degree() == 1


def test_semistar_polynomial_final_example():
    poly = semistar_polynomial(final_example(1, 1), ["P", "N"])
    assert poly.rename_variables({"P": "a", "N": "b"}) == fex_polynomial()


def test_semistar_polynomial_partial_symbolic():
    # one symbolic branch of two: still exact against direct counts
    poly = semistar_polynomial(h_local([1, 3]), ["M1"])
    for a in range(1, 7):
        assert poly.evaluate({"M1": a}) == count_semistar(h_local([a, 3]))


def test_semistar_polynomial_rejects_non_root_children():
    with pytest.raises(ValueError):
        semistar_polynomial(final_example(1, 1), ["M1"])
    from semistar import UnknownNodeError

    with pytest.raises(UnknownNodeError):
        semistar_polynomial(final_example(1, 1), ["nope"])


def test_smstar_polynomial_two_leaves_symbolic_epsilon():
    poly = smstar_polynomial(h_local([1, 1]), ["M1", "M2"], ["M1", "M2"])
    a, b = MultiPoly.variable("M1"), MultiPoly.variable("M2")
    e1, e2 = MultiPoly.variable("eps_M1"), MultiPoly.variable("eps_M2")
    assert poly == (1 + e1 * a) * (1 + e2 * b)


def test_smstar_polynomial_valuation_constant():
    for e in (1, 2):
        poly = smstar_polynomial(valuation(max(1, e), e), ["M"])
        assert poly == MultiPoly.constant(e)
        assert poly.degree() == 0


def test_smstar_polynomial_epsilon_only():
    poly = smstar_polynomial(valuation(3, 1), [], ["M"])
    assert poly == MultiPoly.variable("eps_M")


def test_smstar_polynomial_rejects_unit_weight_with_symbolic_epsilon():
    with pytest.raises(ValueError):
        smstar_polynomial(valuation(1, 1), [], ["M"])


#: A root child ``eps_M`` beside a leaf ``M``: the epsilon variable of ``M`` is named ``eps_M``.
_CLASHING = [("0", None, 1), ("eps_M", "0", 2, 1), ("M", "0", 2, 1)]


@pytest.mark.parametrize("call, message", [
    (lambda: semistar_polynomial(h_local([1, 1]), []), "need at least one symbolic node"),
    (lambda: smstar_polynomial(h_local([1, 1]), [], []), "need at least one symbolic node"),
    (lambda: smstar_polynomial(build_tree(_CLASHING), ["eps_M"], ["M"]),
     r"variable name collision: \['eps_M'\]"),
    (lambda: smstar_polynomial(final_example(2, 2), [], ["P"]),
     "epsilon is symbolic only at leaves, 'P' is not one"),
    (lambda: tildhom_count(chain(2), 1, valuation(2, 1)),
     "the designated domain element must be the component minimum"),
])
def test_polynomial_and_tildhom_arguments_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_flagged_poset_exports():
    fp = fstar_poset(valuation(3, 2))
    assert fp.to_json_dict() == {"size": 3, "covers": [[0, 1], [1, 2]], "ring_closing": [0, 1]}
    dot = fp.to_dot()
    assert dot.count("peripheries=2") == 2


def test_degree_claims():
    for n in (1, 2, 3):
        t = h_local([1] * n)
        ids = [f"M{i + 1}" for i in range(n)]
        assert semistar_polynomial(t, ids).degree() == n * 2 ** (n - 1)
    assert smstar_polynomial(valuation(1, 1), ["M"]).degree() == 0  # 1 * (2^0 - 1)
    assert smstar_polynomial(h_local([1, 1]), ["M1", "M2"]).degree() == 2  # 2 * (2^1 - 1)


def test_symmetry_of_leaf_polynomials():
    t = h_local([1, 1, 1])
    ids = ["M1", "M2", "M3"]
    pi3 = semistar_polynomial(t, ids)
    for a, b in [("M1", "M2"), ("M1", "M3"), ("M2", "M3")]:
        assert pi3 == pi3.rename_variables({a: b, b: a})


def test_polynomials_match_counts_on_a_grid():
    t = final_example(1, 1)
    poly = semistar_polynomial(t, ["P", "N"])
    for a in (1, 3, 6):
        for b in (2, 5):
            assert poly.evaluate({"P": a, "N": b}) == count_semistar(final_example(a, b))


def _compose_univariate(poly, replacement):
    """poly in the single variable "n" evaluated at another polynomial."""
    result = MultiPoly.zero()
    for exps, coeff in poly.terms.items():
        power = exps[0] if poly.variables else 0
        result = result + coeff * replacement**power
    return result


def _symbolic_flat_semistar(n):
    """Sum over supports of products of order polynomials, fully symbolic.

    An independent route to the flat-tree counting polynomial: each branch
    poset is a chain of symbolic length, so the map counts per support are
    order polynomials in the branch variable.
    """
    from semistar import enumerate_supports, hom_polynomial

    total = MultiPoly.zero()
    for support in enumerate_supports(n):
        term = MultiPoly.constant(1)
        for i in range(n):
            comp, _ = support.component_poset(i)
            if comp.size:
                h = hom_polynomial(comp, chain(0))
                term = term * _compose_univariate(h, MultiPoly.variable(f"M{i + 1}"))
        total = total + term
    return total


def _symbolic_flat_smstar(n):
    """Same independent route for the domain-closing count.

    Per branch, the maps sending the domain to a starred element split over
    the identity and the largest star operation: the component minus the
    domain lands anywhere for the first, and above the second exactly when
    it avoids the bottom of the chain.
    """
    from semistar import enumerate_supports, hom_polynomial

    total = MultiPoly.zero()
    for support in enumerate_supports(n):
        if not support.contains_domain():
            continue
        term = MultiPoly.constant(1)
        for i in range(n):
            comp, d = support.component_poset(i)
            lam = subposet(comp, (j for j in range(comp.size) if j != d))
            h = hom_polynomial(lam, chain(0))
            x = MultiPoly.variable(f"M{i + 1}")
            eps = MultiPoly.variable(f"eps_M{i + 1}")
            term = term * (
                _compose_univariate(h, x) + (eps - 1) * _compose_univariate(h, x - 1)
            )
        total = total + term
    return total


def test_flat_polynomials_match_symbolic_support_sums():
    for n in (1, 2, 3):
        ids = [f"M{i + 1}" for i in range(n)]
        assert semistar_polynomial(h_local([1] * n), ids) == _symbolic_flat_semistar(n)
        assert smstar_polynomial(h_local([2] * n), ids, ids) == _symbolic_flat_smstar(n)


def test_semistar_poset_matches_oracle_poset():
    from semistar.oracle import _brute_semistar_poset

    cases = [
        valuation(3, 2),
        h_local([2, 1], [2, 1]),
        y_tree(2, (1, 1), (2, 2)),
        final_example(1, 1),
    ]
    for t in cases:
        sp = semistar_poset(t)
        brute_poset, brute_flags = _brute_semistar_poset(t)
        assert are_isomorphic(sp.poset, brute_poset)
        assert len(brute_flags) == len(sp.ring_closing)
        assert are_isomorphic(
            subposet(sp.poset, sp.ring_closing), subposet(brute_poset, brute_flags)
        )


# -- model soundness ------------------------------------------------------------------


def test_counts_invariant_under_relabeling():
    rng = random.Random(42)
    for _ in range(10):
        t = random_tree(rng)
        report = count_report(t)
        # rename ids and shuffle node order
        mapping = {n.id: f"x{k}" for k, n in enumerate(t.nodes)}
        rows = [
            (mapping[n.id], None if n.parent is None else mapping[n.parent], n.omega, n.epsilon)
            for n in t.nodes
        ]
        rng.shuffle(rows)
        relabeled = build_tree(rows)
        assert count_report(relabeled) == report
        # records key on node ids: the polynomials and the ordered set must not see them
        child = t.children(t.root_id)[0]
        back = {mapping[child]: child}
        assert semistar_polynomial(relabeled, [mapping[child]]).rename_variables(back) == (
            semistar_polynomial(t, [child])
        )
        assert smstar_polynomial(relabeled, [mapping[child]]).rename_variables(back) == (
            smstar_polynomial(t, [child])
        )
        assert _set_summary(relabeled) == _set_summary(t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.randoms(use_true_random=False))
def test_counts_and_polynomials_are_invariant_under_a_renaming_of_the_ids(seed, rng):
    t = random_tree(random.Random(seed))
    ids = [n.id for n in t.nodes]
    # a permutation of the ids, so the children of a node may come out in another order
    mapping = dict(zip(ids, rng.sample(ids, len(ids))))
    renamed = build_tree(
        (mapping[n.id], None if n.parent is None else mapping[n.parent], n.omega, n.epsilon)
        for n in t.nodes
    )
    children = t.children(t.root_id)
    back = {mapping[child]: child for child in children}
    assert _outcome(count_report, renamed) == _outcome(count_report, t)
    polynomial = _outcome(semistar_polynomial, renamed, [mapping[c] for c in children])
    if isinstance(polynomial, MultiPoly):
        polynomial = polynomial.rename_variables(back)
    assert polynomial == _outcome(semistar_polynomial, t, children)


def _outcome(call, *args):
    """The value of the call, or the error class when it trips a limit."""
    try:
        return call(*args)
    except EnumerationLimitError:
        return EnumerationLimitError


def _set_summary(t):
    """Size and flag count of the ordered set, or the limit it trips."""
    try:
        sp = semistar_poset(t)
    except EnumerationLimitError as exc:
        return str(exc)
    return sp.size, len(sp.ring_closing)


def test_star_count_ignores_root_child_weights():
    rng = random.Random(9)
    for _ in range(10):
        t = random_tree(rng)
        base = count_star(t)
        for child in t.children(t.root_id):
            low = 1 if not t.is_leaf(child) else t.epsilon(child)
            for w in range(low, 5):
                assert count_star(t.with_labels(omega={child: w})) == base


def test_counts_monotone_in_weights():
    nested = build_tree(
        [
            ("0", None, 1),
            ("P", "0", 2),
            ("Q", "P", 1),
            ("M1", "Q", 1, 1),
            ("M2", "Q", 1, 1),
            ("M3", "P", 1, 1),
        ]
    )
    shapes = [
        valuation(2, 1),
        h_local([2, 3], [1, 2]),
        h_local([1, 2, 2], [1, 1, 2]),
        y_tree(2, (2, 1), (1, 1)),
        final_example(2, 2),
        nested,
    ]
    for t in shapes:
        semi, fstar = count_semistar(t), count_fstar(t)
        for n in t.nodes:
            if n.parent is None:
                continue
            bumped = t.with_labels(omega={n.id: n.omega + 1})
            assert count_semistar(bumped) >= semi
            assert count_fstar(bumped) >= fstar


def test_branch_limit_enforced():
    t = h_local([1] * 5)
    with pytest.raises(EnumerationLimitError):
        count_semistar(t)
    assert count_fstar(t, Limits(max_branches=5)) == 1


def test_products_over_five_branches_need_no_support_enumeration():
    t = h_local([2] * 5, [2] * 5)
    assert count_star(t) == 32
    assert count_fstar(t) == 32
    for count in (count_semistar, count_smstar):
        with pytest.raises(EnumerationLimitError, match="limited to 4 branches, got 5"):
            count(t)


def test_a_deep_node_with_five_children_hits_the_branch_limit():
    t = build_tree(
        [("0", None, 1), ("P", "0", 1)] + [(f"M{i}", "P", 1, 1) for i in range(5)]
    )
    for call in (count_semistar, count_smstar, count_star, count_fstar, fstar_poset):
        with pytest.raises(EnumerationLimitError, match="limited to 4 branches, got 5"):
            call(t)


# -- limits and large labels ------------------------------------------------------------


def _two_branch_small():
    """P(M1, M2; omega=2) plus N(omega=2): fstar = (13 + 2) * 2 = 30."""
    return build_tree(
        [
            ("0", None, 1),
            ("P", "0", 2),
            ("M1", "P", 1, 1),
            ("M2", "P", 2, 1),
            ("N", "0", 2, 1),
        ]
    )


def test_fstar_poset_size_checked_on_every_call():
    branch = branch_subtree(_two_branch_small(), "P")
    assert fstar_poset(branch).size == 15
    with pytest.raises(EnumerationLimitError):
        fstar_poset(branch, Limits(max_poset=10))
    with pytest.raises(EnumerationLimitError):
        fstar_poset(valuation(2500, 1))


def test_fstar_product_checks_its_size_before_building():
    import time

    # two internal branches with 24 123 fractional-star operations in all
    t = random_tree(random.Random(17), shapes=(0, 1, 2, 3, 4, 6))
    assert count_fstar(t) == 24_123
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match="fractional-star product"):
        fstar_product(t)
    assert time.perf_counter() - start < 1.0


def test_count_fstar_needs_no_poset_cold_and_warm():
    script = (
        "import sys; sys.path.insert(0, 'tests')\n"
        "from test_engine import _two_branch_small\n"
        "from semistar import Limits, count_fstar\n"
        "print(count_fstar(_two_branch_small(), Limits(max_poset=10)))\n"
    )
    cold = run_fresh(script)
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.strip() == "30"
    t = _two_branch_small()
    assert count_fstar(t) == 30
    assert count_fstar(t, Limits(max_poset=10)) == 30


def test_single_branch_over_a_big_quotient_counts():
    # P(omega=2) over three leaves of omega 3: the quotient has 58 610
    # semistar operations, far past max_poset, and none is built
    t = build_tree(
        [("0", None, 1), ("P", "0", 2)] + [(f"M{i}", "P", 3, 1) for i in (1, 2, 3)]
    )
    assert count_report(t) == {
        "semistar": 58612, "fstar": 58611, "smstar": 15606, "star": 15606,
    }


def test_large_leaf_weight_is_exact_and_fast():
    import time

    omega = 10**6
    start = time.perf_counter()
    report = count_report(valuation(omega, 2))
    elapsed = time.perf_counter() - start
    assert report == {"semistar": omega + 1, "fstar": omega, "smstar": 2, "star": 2}
    assert elapsed < 0.5


def test_a_deep_caterpillar_names_its_deepest_quotient_past_the_limit():
    # the records are made children first, so no call nests with the depth: at
    # the interpreter's default recursion limit, 2 000 levels reach the check
    assert sys.getrecursionlimit() <= 1000
    with pytest.raises(EnumerationLimitError, match="quotient 'P1997' would hold 2285 elements"):
        count_report(caterpillar(2000))


def test_counts_sets_and_polynomials_copy_no_tree():
    t = final_example(2, 1)  # an internal branch P over two leaves, and a leaf N
    real, built = SpectrumTree.__init__, []

    def counted(tree, nodes):
        built.append(len(nodes))
        real(tree, nodes)

    clear_caches()
    with mock.patch.object(SpectrumTree, "__init__", counted):
        report, sp = count_report(t), semistar_poset(t)
        poly = semistar_polynomial(t, ["P", "N"])
    assert built == []
    assert report["semistar"] == sp.size == poly.evaluate({"P": 2, "N": 1})


# -- epsilon as a branch variable against relabelled trees ------------------------------


def _relabel_and_combine(t, omega_vars, eps_vars, limits=DEFAULT_LIMITS):
    """The domain-closing polynomial from one support sum per epsilon assignment.

    Each of the 2^k assignments of the symbolic epsilons relabels the tree;
    its sum in the weights is weighed by ``2 - eps`` at epsilon 1 and by
    ``eps - 1`` at 2, both in C(eps, 0) and C(eps, 1), and the weighed sums
    are added in integers into one ``MultiPoly.from_binomial``.
    """
    names = [c for c in t.children(t.root_id) if c in omega_vars]
    eps_ids = sorted(set(eps_vars))
    # a symbolic weight's label is never read, so it may rise to admit epsilon 2
    omega = {v: 2 for v in eps_ids if v in names and t.omega(v) < 2}
    lagrange = {1: (2, -1), 2: (-1, 1)}
    total = {}
    for values in cartesian((1, 2), repeat=len(eps_ids)):
        relabelled = t.with_labels(omega=omega, epsilon=dict(zip(eps_ids, values)))
        branches = engine._branches(relabelled, limits)
        symbolic = {c: (True, (record,)) for c, _, record in branches if c in names}
        part = engine._binomial_sum(branches, True, symbolic, limits)
        for ks in cartesian((0, 1), repeat=len(values)):
            w = prod(lagrange[v][k] for v, k in zip(values, ks))
            for key, c in part.items():
                total[key + ks] = total.get(key + ks, 0) + w * c
    return MultiPoly.from_binomial(names + [f"eps_{v}" for v in eps_ids], total)


def _assert_matches_relabelled(t, omega_vars, eps_vars):
    poly = smstar_polynomial(t, omega_vars, eps_vars)
    reference = _relabel_and_combine(t, omega_vars, eps_vars)
    assert poly == reference and poly.to_json_dict() == reference.to_json_dict()


def test_symbolic_epsilon_matches_relabelled_trees():
    flat2, flat3 = h_local([2, 1], [2, 1]), h_local([3, 2, 1], [1, 2, 1])
    cases = [
        (flat2, ["M1", "M2"], ["M1", "M2"]),
        (flat2, ["M2"], ["M1", "M2"]),
        (flat3, ["M1", "M2", "M3"], ["M1", "M2", "M3"]),
        (flat3, [], ["M1", "M2"]),
        (y_tree(2, (2, 1), (3, 2)), ["P"], ["M1", "M2"]),  # both leaves of one internal branch
        (y_tree(1, (2, 2), (2, 1)), [], ["M1", "M2"]),
        (final_example(1, 2, leaf_omegas=(2, 1)), ["N"], ["M1"]),  # a deep epsilon
        (final_example(2, 2, 2, leaf_omegas=(2, 2)), ["N", "P"], ["M1", "M2", "N"]),
    ]
    for t, omega_vars, eps_vars in cases:
        _assert_matches_relabelled(t, omega_vars, eps_vars)


@pytest.mark.slow
def test_symbolic_epsilon_matches_relabelled_trees_on_four_branches():
    ids = ["M1", "M2", "M3", "M4"]
    _assert_matches_relabelled(h_local([3] * 4, [2] * 4), ids, ids)


def test_symbolic_epsilon_relabels_no_tree():
    cases = [
        (h_local([2, 2], [1, 2]), ["M1", "M2"], ["M1", "M2"]),
        (y_tree(2, (2, 1), (3, 2)), ["P"], ["M1", "M2"]),
        (final_example(1, 2, 2, leaf_omegas=(2, 2)), ["N"], ["M1", "M2", "N"]),
    ]

    def refused(*args, **kwargs):
        raise AssertionError("a tree was relabelled")

    clear_caches()
    with mock.patch.object(SpectrumTree, "with_labels", refused):
        polys = [smstar_polynomial(*case) for case in cases]
    for poly, (t, omega_vars, eps_vars) in zip(polys, cases):
        assert poly == _relabel_and_combine(t, omega_vars, eps_vars)


# -- polynomials against interpolated element enumeration -------------------------------


def _interpolated(t, omega_vars, eps_vars, semistar):
    """The counting polynomial recovered from element enumeration on a grid.

    The grid per weight variable starts at the smallest admissible weight
    and holds 2^(m-1) + 1 points for semistar, 2^(m-1) for the domain-closing
    count; epsilon variables take 1 and 2.
    """
    from semistar import interpolate

    m = len(t.children(t.root_id))
    bound = 2 ** (m - 1) if semistar else 2 ** (m - 1) - 1
    bounds, nodes = {}, {}
    for v in omega_vars:
        start = 1
        if t.is_leaf(v):
            start = 2 if v in eps_vars else t.epsilon(v)
        bounds[v], nodes[v] = bound, list(range(start, start + bound + 1))
    for v in eps_vars:
        bounds[f"eps_{v}"], nodes[f"eps_{v}"] = 1, [1, 2]

    def evaluator(point):
        omega = {v: point[v] for v in omega_vars}
        epsilon = {v: point[f"eps_{v}"] for v in eps_vars}
        counts = semistar_element_counts(t.with_labels(omega=omega, epsilon=epsilon))
        return counts[0] if semistar else counts[1]

    return interpolate(evaluator, bounds, nodes=nodes, verify=False)


def test_polynomials_match_interpolated_element_counts():
    cases = [
        (h_local([2]), ["M1"], ["M1"]),
        (h_local([2, 2]), ["M1", "M2"], ["M1", "M2"]),
        (h_local([2, 1, 1]), ["M1"], ["M1"]),
        (y_tree(2, (2, 1), (1, 1)), ["P"], ["M1"]),
        (final_example(1, 1, leaf_omegas=(2, 1)), ["P", "N"], ["M1"]),
    ]
    for t, omega_vars, eps_vars in cases:
        assert semistar_polynomial(t, omega_vars) == _interpolated(t, omega_vars, [], True)
        assert smstar_polynomial(t, omega_vars, eps_vars) == _interpolated(
            t, omega_vars, eps_vars, False
        )
