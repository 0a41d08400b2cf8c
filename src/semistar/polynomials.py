"""Exact multivariate polynomials over the rationals, and the binomial basis.

Coefficients are :class:`fractions.Fraction`, so arithmetic, evaluation and
interpolation are exact; there is no floating point anywhere in this module.

Polynomials are immutable values in canonical form: the variable tuple is
sorted, variables that do not occur are dropped, and zero coefficients are
never stored.  Two polynomials therefore compare equal exactly when they are
mathematically equal.

Counting polynomials have integer coefficients in the binomial basis: a
polynomial in ``n`` taking integer values at the integers is a sum of
``e_k * C(n, k)`` with integers ``e_k``.  The counting code keeps them as
those integer tuples, evaluates them as dot products with one row of
binomials (:func:`binomial_row`, :func:`binomial_value`), and turns
an answer into a ``MultiPoly`` once, through :meth:`MultiPoly.from_binomial`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product as cartesian
from math import comb, factorial
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InconsistentEvaluatorError

#: Exact rational scalar: always stored in lowest terms, denominator > 0.
Rational = Fraction

Scalar = int | Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class MultiPoly:
    """A polynomial in finitely many named variables with Fraction coefficients.

    ``terms`` maps exponent tuples to coefficients, as a read-only view: a
    polynomial may be shared, as the memoized counting polynomials are.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[tuple[int, ...], Scalar],
        _canonical: bool = False,
    ):
        if _canonical:  # sorted used variables, Fraction terms, none zero; a fresh dict
            object.__setattr__(self, "variables", variables)
            object.__setattr__(self, "terms", MappingProxyType(terms))
            return
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError("exponent vector length does not match variable count")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError("exponents must be nonnegative integers")
            coeff = _as_fraction(coeff)
            if coeff:
                cleaned[exps] = cleaned.get(exps, Fraction(0)) + coeff
        cleaned = {e: c for e, c in cleaned.items() if c}

        # Canonical form: drop unused variables, then sort the rest by name.
        used = [i for i in range(len(variables)) if any(e[i] for e in cleaned)]
        kept = [variables[i] for i in used]
        order = sorted(range(len(kept)), key=lambda i: kept[i])
        object.__setattr__(self, "variables", tuple(kept[i] for i in order))
        object.__setattr__(
            self,
            "terms",
            MappingProxyType({tuple(e[used[i]] for i in order): c for e, c in cleaned.items()}),
        )

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        """Copied and pickled in its canonical form, the terms as a plain ``dict``."""
        return MultiPoly, (self.variables, dict(self.terms), True)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls((), {})

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        return cls((), {(): _as_fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def from_binomial(
        cls, variables: Iterable[str], terms: Mapping[tuple[int, ...], int]
    ) -> "MultiPoly":
        """The polynomial sum of ``c * C(x_1, k_1) * ... * C(x_m, k_m)`` over ``terms``.

        ``terms`` maps index tuples ``(k_1, ..., k_m)``, aligned with
        ``variables``, to integer coefficients.  A variable is used exactly
        when some nonzero term has a positive index in it, so the canonical
        variables (the used ones, sorted by name) are known before the
        change of basis, which runs on them only.  It runs one variable at a
        time in integers: ``C(x, k)`` is ``K!/k!`` times the falling
        factorial of ``x`` over ``K!``, with ``K`` the variable's largest
        index, so each coefficient is divided once, at the end, into one
        ``Fraction`` per monomial.
        """
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if any(len(key) != len(variables) for key in terms):
            raise ValueError("index vector length does not match variable count")
        kinds = set(map(type, chain.from_iterable(terms)))
        integral = all(issubclass(kind, int) for kind in kinds)
        if not integral or min(chain.from_iterable(terms), default=0) < 0:
            raise ValueError("binomial indices must be nonnegative integers")
        terms = {key: c for key, c in terms.items() if c}
        tops = [max(column) for column in zip(*terms)] or [0] * len(variables)
        used = sorted((i for i, top in enumerate(tops) if top), key=variables.__getitem__)
        terms = {tuple(key[i] for i in used): c for key, c in terms.items()}
        scale = 1
        for i in used:  # expand the first index, append its exponents at the end
            if tops[i] == 1:  # C(x, 0) = 1 and C(x, 1) = x: the index is the exponent
                terms = {key[1:] + key[:1]: c for key, c in terms.items()}
                continue
            rows = _falling_rows(tops[i])
            expanded: dict[tuple[int, ...], int] = {}
            for key, c in terms.items():
                rest = key[1:]
                for j, s in rows[key[0]]:
                    e = rest + (j,)
                    expanded[e] = expanded.get(e, 0) + c * s
            terms, scale = expanded, scale * factorial(tops[i])
        return cls(
            tuple(variables[i] for i in used),
            {e: Fraction(c, scale) for e, c in terms.items() if c},
            _canonical=True,
        )

    # -- ring structure ----------------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        """Common variable tuple plus both term dicts re-indexed to it."""
        merged = tuple(sorted(set(self.variables) | set(other.variables)))
        pos = {v: i for i, v in enumerate(merged)}

        def remap(poly):
            out = {}
            for exps, coeff in poly.terms.items():
                vec = [0] * len(merged)
                for v, e in zip(poly.variables, exps):
                    vec[pos[v]] = e
                out[tuple(vec)] = coeff
            return out

        return merged, remap(self), remap(other)

    @staticmethod
    def _coerce(value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.constant(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged, a, b = self._aligned(other)
        for exps, coeff in b.items():
            a[exps] = a.get(exps, Fraction(0)) + coeff
        return MultiPoly(merged, a)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged, a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(merged, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = MultiPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=0)

    def coefficient(self, point: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial with the given exponents (0 elsewhere)."""
        exps = tuple(point.get(v, 0) for v in self.variables)
        if any(v not in self.variables and e for v, e in point.items()):
            return Fraction(0)
        return self.terms.get(exps, Fraction(0))

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at the point; every variable must be assigned."""
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"missing assignment for variable(s): {', '.join(missing)}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for v, e in zip(self.variables, exps):
                if e:
                    value *= _as_fraction(point[v]) ** e
            total += value
        return total

    def rename_variables(self, mapping: Mapping[str, str]) -> "MultiPoly":
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        return MultiPoly(new_vars, self.terms)

    # -- rendering ---------------------------------------------------------

    def _sorted_terms(self):
        # graded lexicographic, largest first, by the sorted variable order
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self._sorted_terms():
            monomial = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, exps) if e
            )
            mag = abs(coeff)
            if not monomial:
                body = str(mag)
            elif mag == 1:
                body = monomial
            else:
                body = f"{mag}*{monomial}"
            pieces.append((coeff < 0, body))
        first_neg, first = pieces[0]
        text = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    __str__ = to_text

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"exps": list(exps), "num": coeff.numerator, "den": coeff.denominator}
                for exps, coeff in self._sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        terms = {
            tuple(t["exps"]): Fraction(t["num"], t["den"]) for t in data["terms"]
        }
        return cls(tuple(data["vars"]), terms)


def _falling_rows(top: int) -> list[list[tuple[int, int]]]:
    """Row ``k``: the nonzero (power, coefficient) pairs of ``top!/k! * x(x-1)...(x-k+1)``."""
    falling, rows = [1], []
    for k in range(top + 1):
        scale = factorial(top) // factorial(k)
        rows.append([(j, c * scale) for j, c in enumerate(falling) if c])
        times_x_minus_k = [0] * (len(falling) + 1)
        for j, c in enumerate(falling):
            times_x_minus_k[j + 1] += c
            times_x_minus_k[j] -= k * c
        falling = times_x_minus_k
    return rows


def binomial_row(n: int, top: int) -> list[int]:
    """``C(n, 0), ..., C(n, top)`` for an integer ``n >= 0``, each from the one before."""
    row = [1]
    for k in range(top):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def binomial_value(coefficients: Sequence[int], n: int) -> int:
    """The sum of ``coefficients[k] * C(n, k)``, for an integer ``n >= 0``: a dot product.

    Values of many tuples at one ``n`` take their dot products with one
    :func:`binomial_row`, as the engine does per branch.
    """
    return sum(map(mul, coefficients, binomial_row(n, len(coefficients) - 1)))


def _multiset_coefficients(k: int) -> tuple[int, ...]:
    """C(n + k - 1, k), the order-preserving maps of a k-chain into an n-chain, in C(n, j).

    By Vandermonde's identity the coefficient of C(n, j) is C(k - 1, j - 1).
    """
    if k == 0:
        return (1,)
    return (0,) + tuple(comb(k - 1, j) for j in range(k))


def _lagrange_basis(var: str, points: Sequence[int]) -> list[MultiPoly]:
    """The Lagrange basis polynomials for the given distinct integer nodes."""
    x = MultiPoly.variable(var)
    basis = []
    for i, xi in enumerate(points):
        numerator = MultiPoly.constant(1)
        denominator = 1
        for j, xj in enumerate(points):
            if j != i:
                numerator = numerator * (x - xj)
                denominator *= xi - xj
        basis.append(numerator * Fraction(1, denominator))
    return basis


def interpolate(
    evaluator: Callable[[Mapping[str, int]], Scalar],
    bounds: Mapping[str, int],
    *,
    nodes: Mapping[str, Sequence[int]] | None = None,
    verify: bool = True,
    verify_points: Mapping[str, Sequence[int]] | None = None,
) -> MultiPoly:
    """Recover the polynomial agreeing with ``evaluator`` on a tensor grid.

    ``bounds`` gives the maximal degree in each variable; the grid for a
    variable defaults to ``1..bound+1`` and may be overridden through
    ``nodes`` (each list must hold ``bound+1`` distinct integers).  Unless
    disabled, the result is re-checked against the evaluator at extra
    points (by default ``bound+2`` and ``bound+3`` past the grid start);
    a mismatch raises :class:`InconsistentEvaluatorError`.
    """
    variables = sorted(bounds)
    grids: dict[str, list[int]] = {}
    for v in variables:
        if bounds[v] < 0:
            raise ValueError(f"negative degree bound for {v}")
        grid = list(nodes[v]) if nodes and v in nodes else list(range(1, bounds[v] + 2))
        if len(grid) != bounds[v] + 1 or len(set(grid)) != len(grid):
            raise ValueError(f"grid for {v} must hold {bounds[v] + 1} distinct nodes")
        grids[v] = grid

    def build(prefix: dict[str, int], remaining: list[str]) -> MultiPoly:
        if not remaining:
            return MultiPoly.constant(evaluator(dict(prefix)))
        v, rest = remaining[0], remaining[1:]
        slices = []
        for value in grids[v]:
            prefix[v] = value
            slices.append(build(prefix, rest))
        del prefix[v]
        result = MultiPoly.zero()
        for piece, basis in zip(slices, _lagrange_basis(v, grids[v])):
            result = result + piece * basis
        return result

    poly = build({}, variables)

    if verify and variables:
        checks: dict[str, list[int]] = {}
        for v in variables:
            if verify_points and v in verify_points:
                checks[v] = list(verify_points[v])
            else:
                top = max(grids[v])
                checks[v] = [top + 1, top + 2]
        for combo in cartesian(*(checks[v] for v in variables)):
            point = dict(zip(variables, combo))
            expected = _as_fraction(evaluator(point))
            got = poly.evaluate(point)
            if got != expected:
                raise InconsistentEvaluatorError(
                    f"interpolant disagrees with evaluator at {point}: "
                    f"{got} != {expected} (degree bounds too small?)"
                )
    return poly


def binomial_order_poly(k: int) -> MultiPoly:
    """The expanded polynomial n(n+1)...(n+k-1)/k! counting k-multisets from an n-set.

    Equivalently, the number of order-preserving maps from a k-chain into an
    n-chain, as a polynomial in the variable ``n``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    coefficients = _multiset_coefficients(k)
    return MultiPoly.from_binomial(("n",), {(j,): c for j, c in enumerate(coefficients)})
