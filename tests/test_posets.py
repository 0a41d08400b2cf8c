import random
import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, fresh_env, random_poset, run_fresh
from semistar import (
    EnumerationLimitError,
    MultiPoly,
    OrderMap,
    Poset,
    antichain,
    are_isomorphic,
    binomial_order_poly,
    chain,
    count_hom,
    down_sets,
    enum_hom,
    hom_polynomial,
    interpolate,
    ordinal_sum,
    product,
    subposet,
)
from semistar import cache_info, clear_caches
from semistar.oracle import brute_count_hom
from semistar.polynomials import _multiset_coefficients, binomial_value
from semistar.posets import _backtrack_count, _chain_coeffs, hom_coefficients

posets = st.integers(0, 10_000).map(lambda seed: random_poset(random.Random(seed)))


def diamond():
    return product(chain(2), chain(2))


def test_chain_basics():
    assert chain(0).size == 0
    assert chain(1).size == 1
    c5 = chain(5)
    assert c5.maximal_elements() == [4]
    assert c5.minimal_elements() == [0]
    assert len(down_sets(chain(3))) == 4


def test_not_a_partial_order_rejected():
    with pytest.raises(ValueError):
        Poset([0b11, 0b11])  # 0 <= 1 and 1 <= 0
    with pytest.raises(ValueError):
        Poset([0b10, 0b10])  # element 0 not below itself
    with pytest.raises(ValueError):
        Poset.from_relation(3, [(0, 1), (1, 2)])  # not transitively closed


def test_ordinal_sum_shapes():
    assert are_isomorphic(ordinal_sum(chain(2), chain(3)), chain(5))
    p = diamond()
    assert are_isomorphic(ordinal_sum(p, chain(0)), p)
    s = ordinal_sum(antichain(2), chain(1))
    assert s.unique_max() is not None
    assert len(s.minimal_elements()) == 2


def test_ordinal_sum_associative_up_to_iso():
    rng = random.Random(7)
    for _ in range(20):
        p, q, r = (random_poset(rng, 3) for _ in range(3))
        assert are_isomorphic(
            ordinal_sum(ordinal_sum(p, q), r), ordinal_sum(p, ordinal_sum(q, r))
        )


def test_product_shapes():
    assert are_isomorphic(diamond(), Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    p = random_poset(random.Random(3), 4)
    assert are_isomorphic(product(p, chain(1)), p)


def test_product_commutative_up_to_iso():
    rng = random.Random(11)
    for _ in range(20):
        p, q = random_poset(rng, 3), random_poset(rng, 3)
        assert are_isomorphic(product(p, q), product(q, p))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(posets, posets)
def test_product_matches_pairwise_definition(p, q):
    n = q.size
    up = [
        sum(
            1 << (a * n + b)
            for a in range(p.size) for b in range(n)
            if p.leq(i, a) and q.leq(j, b)
        )
        for i in range(p.size) for j in range(n)
    ]
    pq = product(p, q)
    assert pq == Poset(up)  # the checking constructor: a partial order
    assert [pq.down_mask(k) for k in range(pq.size)] == [
        Poset(up).down_mask(k) for k in range(pq.size)
    ]


def test_product_hom_multiplicativity():
    rng = random.Random(5)
    for _ in range(25):
        r, p, q = (random_poset(rng, 3) for _ in range(3))
        assert count_hom(r, product(p, q)) == count_hom(r, p) * count_hom(r, q)


def test_down_sets():
    assert len(down_sets(antichain(4))) == 16
    assert len(down_sets(diamond())) == 6
    for s in down_sets(diamond()):
        for x in s:
            assert all(y in s for y in range(4) if diamond().leq(y, x))
    with pytest.raises(EnumerationLimitError):
        down_sets(antichain(25))
    assert len(down_sets(chain(25))) == 26  # a chain's down-sets are its prefixes


def test_hom_counts_check_the_size_bound_before_enumerating():
    q = ordinal_sum(antichain(2), chain(1))
    assert count_hom(chain(25), q) == 51  # chains are exempt
    with pytest.raises(
        EnumerationLimitError, match="^down-set enumeration limited to 20 elements, poset has 21$"
    ):
        count_hom(antichain(21), q)


def test_enum_hom_counts():
    q = random_poset(random.Random(1), 4)
    assert len(enum_hom(chain(1), q)) == q.size
    assert len(enum_hom(q, chain(1))) == 1
    assert len(enum_hom(chain(2), chain(2))) == 3
    with pytest.raises(EnumerationLimitError):
        enum_hom(antichain(5), chain(9), max_maps=100)


def test_enum_hom_maps_are_valid_and_deterministic():
    p, q = diamond(), chain(3)
    maps = enum_hom(p, q)
    assert maps == enum_hom(p, q)
    for m in maps:
        OrderMap(p, q, m.image)  # re-validate through the checking constructor
    assert len(set(m.image for m in maps)) == len(maps)


def test_enum_hom_does_not_depend_on_cache_state(cache_bound):
    pairs = [(diamond(), chain(3)), (antichain(2), diamond()), (chain(2), antichain(3))]
    cold = [[m.image for m in enum_hom(p, q)] for p, q in pairs]
    # full memos drop entries, and answers and limits stay the same
    cache_bound(1)
    for _ in range(2):
        assert [[m.image for m in enum_hom(p, q)] for p, q in pairs] == cold
        assert all(info.currsize <= 1 for info in cache_info().values())
        with pytest.raises(EnumerationLimitError):
            enum_hom(*pairs[0], max_maps=len(cold[0]) - 1)
        with pytest.raises(EnumerationLimitError):
            enum_hom(*pairs[1], max_maps=len(cold[1]) - 1)


def test_order_map_rejects_non_monotone():
    with pytest.raises(ValueError):
        OrderMap(chain(2), chain(2), (1, 0))


def test_count_hom_known_values():
    assert count_hom(chain(2), chain(3)) == 6
    assert count_hom(antichain(2), chain(7)) == 49
    assert count_hom(diamond(), chain(2)) == 6
    assert count_hom(diamond(), chain(3)) == 20
    assert count_hom(chain(0), chain(0)) == 1
    assert count_hom(chain(1), chain(0)) == 0


def test_count_hom_chain_to_chain_binomials():
    from math import comb

    for k in range(1, 7):
        for n in range(1, 7):
            assert count_hom(chain(k), chain(n)) == comb(n + k - 1, k)


@given(posets, posets)
@settings(max_examples=60, deadline=None)
def test_count_hom_matches_enum_and_brute(p, q):
    n = count_hom(p, q)
    assert n == len(enum_hom(p, q))
    assert n == brute_count_hom(p, q)


def test_count_hom_irregular_target_with_chain_on_top():
    # a fence with a 2-chain stacked above exercises the split-at-the-chain path
    fence = Poset.from_covers(3, [(0, 1), (2, 1)])
    target = ordinal_sum(fence, chain(2))
    for p in (chain(2), diamond(), antichain(3)):
        assert count_hom(p, target) == brute_count_hom(p, target)


def _two_short_chains():
    return Poset.from_covers(4, [(0, 1), (2, 3)])


def test_count_hom_step_limit_cold_and_warm():
    # antichain(3) into two 2-chains side by side backtracks in 21 steps
    script = (
        "import sys; sys.path.insert(0, 'tests')\n"
        "from test_posets import _two_short_chains\n"
        "from semistar import EnumerationLimitError, antichain, count_hom\n"
        "for steps in (20, 21):\n"
        "    try:\n"
        "        print(count_hom(antichain(3), _two_short_chains(), max_steps=steps))\n"
        "    except EnumerationLimitError:\n"
        "        print('limit')\n"
    )
    cold = run_fresh(script)
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.split() == ["limit", "64"]
    p, q = antichain(3), _two_short_chains()
    assert count_hom(p, q) == 64
    with pytest.raises(EnumerationLimitError):
        count_hom(p, q, max_steps=2)
    with pytest.raises(EnumerationLimitError):
        count_hom(p, q, max_steps=20)
    assert count_hom(p, q, max_steps=21) == 64
    # a chain stacked on top reuses the cached count of the base, and its limit
    with pytest.raises(EnumerationLimitError):
        count_hom(p, ordinal_sum(q, chain(1)), max_steps=2)
    with pytest.raises(EnumerationLimitError):
        hom_polynomial(p, q, max_steps=2)


def test_hom_polynomial_known():
    h2 = hom_polynomial(chain(2), chain(0))
    assert h2 == binomial_order_poly(2)
    h3 = hom_polynomial(chain(3), chain(0))
    assert h3 == binomial_order_poly(3)
    assert hom_polynomial(chain(1), chain(1)).evaluate({"n": 5}) == 6  # n + 1


@given(posets, posets)
@settings(max_examples=40, deadline=None)
def test_hom_polynomial_matches_direct_counts(p, q):
    poly = hom_polynomial(p, q)
    if p.size:
        assert poly.degree() == p.size
    for n in range(p.size + 3):
        assert poly.evaluate({"n": n}) == count_hom(p, ordinal_sum(q, chain(n)))


@given(posets, posets)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_hom_polynomial_is_its_binomial_coefficients(p, q):
    e = hom_coefficients(p, q)
    assert len(e) == p.size + 1
    poly = hom_polynomial(p, q)
    assert poly == MultiPoly.from_binomial(("n",), {(k,): c for k, c in enumerate(e)})

    def maps(point):
        return len(enum_hom(p, ordinal_sum(q, chain(point["n"]))))

    assert poly == interpolate(maps, {"n": p.size})


@given(posets)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_chain_coefficients_count_surjections(p):
    # Stanley, EC1 3.12: Omega(p, n) = sum of e_s C(n, s), e_s the surjections onto an s-chain
    e = _chain_coeffs(p)
    assert len(e) == p.size + 1
    for s, coefficient in enumerate(e):
        onto = sum(1 for g in enum_hom(p, chain(s)) if len(set(g.image)) == s)
        assert coefficient == onto


def test_chain_coefficients_of_larger_posets_match_backtracking():
    rng = random.Random(11)
    for p in [random_poset(rng, max_size=10) for _ in range(12)] + [antichain(7)]:
        e = _chain_coeffs(p)
        for n in range(4):
            assert binomial_value(e, n) == _backtrack_count(p, chain(n), None)


def test_chain_coefficients_keep_their_size_limit():
    assert binomial_value(_chain_coeffs(chain(25)), 3) == comb(27, 25)  # closed form, no limit
    assert hom_coefficients(chain(25), chain(0)) == _multiset_coefficients(25)
    with pytest.raises(
        EnumerationLimitError, match="^down-set enumeration limited to 20 elements, poset has 21$"
    ):
        _chain_coeffs(antichain(21))


def test_answers_unchanged_past_the_chain_coefficient_cap(cache_bound):
    sources = [random_poset(random.Random(seed), max_size=6) for seed in range(30)]
    sources += [chain(k) for k in range(5)]

    def answers():
        return [
            (_chain_coeffs(p), count_hom(p, chain(3)), hom_polynomial(p, antichain(2)))
            for p in sources
        ]

    clear_caches()
    uncapped = answers()
    cache_bound(4)
    for _ in range(2):
        assert answers() == uncapped
        assert cache_info()["posets._chain_coeffs"].currsize == 4
    assert [a[1] for a in uncapped] == [len(enum_hom(p, chain(3))) for p in sources]


def test_subposet_and_covers():
    d = diamond()
    assert subposet(d, [0, 3]).covers() == [(0, 1)]
    assert chain(4).covers() == [(0, 1), (1, 2), (2, 3)]
    assert d.unique_max() == 3 and d.unique_min() == 0


@given(posets)
@settings(max_examples=60, deadline=None)
def test_covers_are_the_pairs_with_nothing_between(p):
    expected = sorted(
        (i, j)
        for i in range(p.size)
        for j in range(p.size)
        if p.lt(i, j) and not any(p.lt(i, k) and p.lt(k, j) for k in range(p.size))
    )
    assert p.covers() == expected
    p.covers().clear()  # callers get a copy of the cached pairs
    assert p.covers() == expected


def test_from_covers_is_the_closure_of_its_pairs():
    rng = random.Random(5)
    for _ in range(40):
        p = random_poset(rng, max_size=8)
        n = p.size
        perm = rng.sample(range(n), n)  # so the index order is no topological order
        related = [(perm[i], perm[j]) for i in range(n) for j in range(n) if p.leq(i, j)]
        expected = Poset.from_relation(n, related)
        for pairs in ([(perm[i], perm[j]) for i, j in p.covers()], related):
            q = Poset.from_covers(n, rng.sample(pairs, len(pairs)))
            assert q == expected
            assert [q.down_mask(i) for i in range(n)] == [expected.down_mask(i) for i in range(n)]


def test_from_covers_rejects_a_cycle():
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_covers(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Poset.from_covers(2, [(0, 2)])


def test_repr_reads_the_masks_alone():
    assert repr(diamond()) == "Poset(size=4, pairs=5)"
    # down-masks in which 1 and 2 lie below each other: a reduction to covers
    # would descend between them for ever, so the repr must not reduce
    script = (
        "from semistar import Poset\n"
        "print(repr(Poset._unchecked([0b111, 0b010, 0b100], [0b001, 0b111, 0b111])))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=fresh_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Poset(size=3, pairs=2)\n"


def test_isomorphism_checker():
    assert are_isomorphic(chain(3), ordinal_sum(chain(1), chain(2)))
    assert not are_isomorphic(chain(4), ordinal_sum(antichain(2), chain(2)))
    assert not are_isomorphic(chain(3), chain(4))


def test_exports():
    d = diamond()
    data = d.to_json_dict()
    assert data == {"size": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}
    dot = d.to_dot(flagged={0})
    assert "n0 -> n1" in dot and "peripheries=2" in dot
    assert d.to_dot() == d.to_dot()
