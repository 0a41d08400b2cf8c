"""Recovering the symbolic counting polynomials.

With the tree shape fixed, the number of semistar operations is a
polynomial in the branch weights; the domain-closing count is a polynomial
in the weights and the leaf epsilons.  The library computes them by the
same support sum as the counts, with the chosen branches left symbolic:
each branch contributes a polynomial in its own weight, so no grid of
relabelled trees is evaluated.
"""

from semistar import (
    build_tree,
    count_semistar,
    semistar_polynomial,
    smstar_polynomial,
)

flat2 = build_tree([("0", None, 1), ("a", "0", 1, 1), ("b", "0", 1, 1)])

# Two independent maximal ideals with symbolic weights a and b.
pi2 = semistar_polynomial(flat2, ["a", "b"])
print("two-leaf semistar polynomial:")
print("  ", pi2)
print("   at (1,1):", pi2.evaluate({"a": 1, "b": 1}))

# The domain-closing count with both weights and both epsilons symbolic
# factors branch by branch.
pt2 = smstar_polynomial(flat2, ["a", "b"], ["a", "b"])
print("two-leaf domain-closing polynomial:")
print("  ", pt2)

# The two-branch example: weights a at the fork prime and b at the lone
# maximal ideal.  Degree 2 in each variable.
two_branch = build_tree(
    [
        ("0", None, 1),
        ("P", "0", 1),
        ("M1", "P", 1, 1),
        ("M2", "P", 1, 1),
        ("N", "0", 1, 1),
    ]
)
poly = semistar_polynomial(two_branch, ["P", "N"])
print("two-branch semistar polynomial:")
print("  ", poly)
sample = {"P": 3, "N": 2}
direct = count_semistar(two_branch.with_labels(omega=sample))
print("   at (3,2):", poly.evaluate(sample), "(direct count:", str(direct) + ")")

# Degree growth: with n symbolic leaf weights the total degree is n*2^(n-1),
# and the polynomial is symmetric in the leaves.
flat3 = build_tree(
    [("0", None, 1)] + [(v, "0", 1, 1) for v in ("a", "b", "c")]
)
pi3 = semistar_polynomial(flat3, ["a", "b", "c"])
print("three-leaf polynomial: degree", pi3.degree(), "with", len(pi3.terms), "terms")
print("  symmetric:", pi3 == pi3.rename_variables({"a": "b", "b": "a"}))
print("  at (1,1,1):", pi3.evaluate({"a": 1, "b": 1, "c": 1}))

# JSON form for downstream tooling.
print("JSON of the two-leaf polynomial:")
print("  ", pt2.to_json_dict())
