"""Counting the four families of closure operations.

For a tree with labels (omega everywhere, epsilon at the leaves) the
library computes exactly:

- semistar:  all semistar operations;
- fstar:     the fractional-star operations (semistar minus the
             all-to-field closure when there is a single branch, a product
             over branches in general);
- smstar:    the semistar operations closing the domain;
- star:      the star operations (fractional-star closing the domain).
"""

from semistar import (
    build_tree,
    count_report,
    count_semistar,
    count_smstar,
    fstar_poset,
    semistar_poset,
)
from semistar.oracle import brute_semistar_count
from semistar.spectrum import branch_subtree

valuation = build_tree([("0", None, 1), ("M", "0", 3, 2)])
print("valuation, omega 3, nonprincipal maximal:", count_report(valuation))
# a valuation ring: semistar = omega + 1, fstar = omega, both closing counts = epsilon

flat = build_tree(
    [("0", None, 1), ("M1", "0", 2, 1), ("M2", "0", 3, 2), ("M3", "0", 4, 2)]
)
print("flat tree (2,3,4):", count_report(flat))
# with independent maximal ideals: fstar = 2*3*4, star = 1*2*2

y = build_tree(
    [("0", None, 1), ("P", "0", 2), ("M1", "P", 2, 2), ("M2", "P", 1, 1)]
)
print("Y-shaped tree:", count_report(y))
# star count on a Y: (1 + eps1*omega1)(1 + eps2*omega2) = (1+4)(1+1) = 10
# Per branch the counts recurse into the quotient Q at the branch prime:
# fstar = semistar(Q) - 1 + omega(P) and star = smstar(Q), whatever the depth.
quotient = build_tree([("P", None, 1), ("M1", "P", 2, 2), ("M2", "P", 1, 1)])
print("  from the quotient:", count_semistar(quotient) - 1 + 2, count_smstar(quotient))

two_branch = build_tree(
    [
        ("0", None, 1),
        ("P", "0", 1),
        ("M1", "P", 1, 1),
        ("M2", "P", 1, 1),
        ("N", "0", 1, 1),
    ]
)
print("two-branch example:", count_report(two_branch))  # semistar = 67

# The fractional-star operations of one branch form a poset: the semistar
# poset of the quotient (minus its top) with a chain of length omega on top.
branch = fstar_poset(branch_subtree(two_branch, "P"))
print("branch poset size:", branch.size, "ring-closing:", sorted(branch.ring_closing))
print(branch.to_dot())

# The whole ordered set of semistar operations can be materialized, each
# element labeled by its support; the identity is the minimum and the
# all-to-field closure the maximum.
sp = semistar_poset(two_branch)
print("semistar poset:", sp.size, "elements,", len(sp.ring_closing), "close the domain")

# An independent brute-force oracle recomputes the counts from scratch.
print("oracle agrees:", brute_semistar_count(two_branch) == (67, 42))
