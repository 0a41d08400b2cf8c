"""Expected answers per invocation, and the check of one CLI output.

The expectation of an invocation is computed once per run from
``reference.py``; every output of every pass is then checked against it,
outside the timed region.  An output is ``ok``, ``failed`` (non-zero exit)
or ``wrong`` (exit 0 with an answer that disagrees); a wrong answer counts
as a failed invocation too.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import reference as ref

OK, FAILED, WRONG = "ok", "failed", "wrong"


def _option_values(argv, flag):
    return [argv[k + 1] for k, a in enumerate(argv) if a == flag]


def _option(argv, flag, default):
    values = _option_values(argv, flag)
    return values[-1] if values else default


def expectation(invocation, nodes) -> dict:
    """What a correct run of this invocation must print, as plain data."""
    argv = invocation.argv
    command = argv[0]
    if command == "count":
        return {"kind": "count", "report": ref.report(nodes)}
    if command == "hasse":
        fmt = _option(argv, "--format", "dot")
        target = _option(argv, "--target", "semistar")
        if target == "semistar":
            size, flagged = ref.semistar_smstar(nodes)
        else:
            size, flagged = ref.branch_counts(nodes, target.split(":", 1)[1])
        return {"kind": "hasse", "format": fmt, "size": size, "flagged": flagged}
    if command == "poly":
        return {"kind": "poly", **_poly_expectation(argv, nodes)}
    raise ValueError(f"no expectation for {command!r}")


def _poly_expectation(argv, nodes) -> dict:
    """The polynomial recovered here on a grid one point above the program's.

    Equality of the two polynomials means the program's answer agrees with
    the reference off its own interpolation grid.  ``swaps`` lists the
    pairs of identical branches whose variables the answer must be
    symmetric in.
    """
    omega_vars = sorted(_option_values(argv, "--var"))
    eps_vars = sorted(_option_values(argv, "--eps-var"))
    semistar = "--semistar" in argv
    m = len(ref.root_children(nodes))
    degree = 2 ** (m - 1) if semistar else 2 ** (m - 1) - 1
    grids = {}
    for v in omega_vars:
        start = ref.omega_grid_start(nodes, v, epsilon_symbolic=v in eps_vars) + 1
        grids[v] = list(range(start, start + degree + 1))
    for v in eps_vars:
        grids[f"eps_{v}"] = [1, 2]

    def evaluate(point):
        omega = {v: point[v] for v in omega_vars}
        epsilon = {v: point[f"eps_{v}"] for v in eps_vars}
        counts = ref.semistar_smstar(ref.relabel(nodes, omega, epsilon))
        return counts[0] if semistar else counts[1]

    poly = ref.lagrange(evaluate, grids)
    by_id = {n["id"]: n for n in nodes}
    swaps = []
    for k, a in enumerate(omega_vars):
        for b in omega_vars[k + 1:]:
            if not (_is_leaf(nodes, a) and _is_leaf(nodes, b)):
                continue
            if (a in eps_vars) != (b in eps_vars):
                continue
            if a in eps_vars or by_id[a]["epsilon"] == by_id[b]["epsilon"]:
                swaps.append([a, b])
    return {"terms": _encode(poly), "swaps": swaps}


def _is_leaf(nodes, node_id):
    return not any(n["parent"] == node_id for n in nodes)


def _encode(poly: dict) -> list:
    return sorted([[list(map(list, k)), c.numerator, c.denominator] for k, c in poly.items()])


def _decode(terms: list) -> dict:
    return {tuple(map(tuple, k)): Fraction(num, den) for k, num, den in terms}


# -- checking ------------------------------------------------------------------------


def check(expect: dict, code: int, stdout: str) -> str:
    """``ok``, ``failed`` or ``wrong`` for one output."""
    if code != 0:
        return FAILED
    try:
        good = _CHECKS[expect["kind"]](expect, stdout)
    except (ValueError, KeyError, TypeError, IndexError):
        good = False
    return OK if good else WRONG


def _check_count(expect, stdout):
    return json.loads(stdout) == expect["report"]


def _program_poly(stdout) -> dict:
    data = json.loads(stdout)
    poly = {}
    for term in data["terms"]:
        key = tuple((v, e) for v, e in zip(data["vars"], term["exps"]) if e)
        poly[key] = Fraction(term["num"], term["den"])
    return poly


def _swap(poly, a, b):
    names = {a: b, b: a, f"eps_{a}": f"eps_{b}", f"eps_{b}": f"eps_{a}"}
    return {tuple(sorted((names.get(v, v), e) for v, e in k)): c for k, c in poly.items()}


def _check_poly(expect, stdout):
    poly = _program_poly(stdout)
    if poly != _decode(expect["terms"]):
        return False
    return all(_swap(poly, a, b) == poly for a, b in expect["swaps"])


_DOT_NODE = re.compile(r"^\s*n(\d+) \[label=\"[^\"]*\"(, peripheries=2)?\];$")
_DOT_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


def _parse_dot(stdout):
    size, flagged, covers = 0, 0, []
    for line in stdout.splitlines():
        node = _DOT_NODE.match(line)
        if node:
            if int(node.group(1)) != size:
                raise ValueError("nodes out of order")
            size += 1
            flagged += node.group(2) is not None
            continue
        edge = _DOT_EDGE.match(line)
        if edge:
            covers.append((int(edge.group(1)), int(edge.group(2))))
    return size, flagged, covers


def _bounded_order(size, covers) -> bool:
    """One minimum, one maximum, and covers without a cycle."""
    if size == 0:
        return False
    ins, outs = [0] * size, [[] for _ in range(size)]
    for lo, hi in covers:
        ins[hi] += 1
        outs[lo].append(hi)
    minima = [i for i in range(size) if ins[i] == 0]
    maxima = [i for i in range(size) if not outs[i]]
    if len(minima) != 1 or len(maxima) != 1:
        return False
    ready, seen = list(minima), 0
    while ready:
        seen += 1
        for hi in outs[ready.pop()]:
            ins[hi] -= 1
            if ins[hi] == 0:
                ready.append(hi)
    return seen == size


def _check_hasse(expect, stdout):
    if expect["format"] == "json":
        data = json.loads(stdout)
        size, flagged = data["size"], len(data["ring_closing"])
        covers = [tuple(c) for c in data["covers"]]
        if "labels" in data and len(data["labels"]) != size:
            return False
    else:
        size, flagged, covers = _parse_dot(stdout)
    return (
        size == expect["size"]
        and flagged == expect["flagged"]
        and _bounded_order(size, covers)
    )


_CHECKS = {"count": _check_count, "poly": _check_poly, "hasse": _check_hasse}
