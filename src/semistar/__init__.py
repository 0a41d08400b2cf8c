"""Exact counting of semistar and star operations on semilocal Prüfer domains.

A domain enters as its labeled spectral tree (see :mod:`semistar.spectrum`);
the library computes, exactly, the ordered sets and cardinalities of its
semistar, fractional-star, domain-closing and star operations, together with
the symbolic polynomials counting them as the tree weights vary.

Two exports are cross-checks rather than counting paths: ``interpolate``
recovers a polynomial from its values and ``semistar_element_counts`` counts
by enumerating every operation.  The tests hold the counts and polynomials
against them; nothing in the counting code calls them.

Results are memoized in one bounded registry, keyed by everything they
depend on, limits included: ``clear_caches`` empties it and ``cache_info``
reports the hits, misses and size of each memo.
"""

from ._memo import cache_info, clear_caches
from .errors import (
    EnumerationLimitError,
    InconsistentEvaluatorError,
    SpectrumValidationError,
    UnknownNodeError,
)
from .polynomials import MultiPoly, Rational, binomial_order_poly, interpolate
from .posets import (
    OrderMap,
    Poset,
    antichain,
    are_isomorphic,
    chain,
    count_hom,
    down_sets,
    enum_hom,
    hom_polynomial,
    ordinal_sum,
    product,
    subposet,
)
from .spectrum import (
    Skeleton,
    SpectrumTree,
    Support,
    TreeNode,
    branch_subtree,
    build_tree,
    derive_omega,
    enumerate_supports,
    load_tree,
    quotient_subtree,
    skeleton,
    standard_decomposition,
    validate_tree,
)
from .engine import (
    DEFAULT_LIMITS,
    FlaggedPoset,
    Limits,
    SemistarElement,
    SemistarPoset,
    count_fstar,
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
    tildhom_count,
)
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LIMITS",
    "EnumerationLimitError",
    "FlaggedPoset",
    "InconsistentEvaluatorError",
    "Limits",
    "MultiPoly",
    "OrderMap",
    "Poset",
    "Rational",
    "SemistarElement",
    "SemistarPoset",
    "Skeleton",
    "SpectrumTree",
    "SpectrumValidationError",
    "Support",
    "TreeNode",
    "UnknownNodeError",
    "antichain",
    "are_isomorphic",
    "binomial_order_poly",
    "branch_subtree",
    "build_tree",
    "cache_info",
    "chain",
    "clear_caches",
    "count_fstar",
    "count_hom",
    "count_report",
    "count_semistar",
    "count_smstar",
    "count_star",
    "derive_omega",
    "down_sets",
    "enum_hom",
    "enumerate_supports",
    "fstar_poset",
    "fstar_product",
    "hom_polynomial",
    "interpolate",
    "load_tree",
    "oracle",
    "ordinal_sum",
    "product",
    "quotient_subtree",
    "semistar_element_counts",
    "semistar_polynomial",
    "semistar_poset",
    "skeleton",
    "smstar_polynomial",
    "standard_decomposition",
    "subposet",
    "tildhom_count",
    "validate_tree",
]
