"""Command-line front end: counts, polynomials, Hasse exports, oracle checks.

Exit codes: 0 success (``--help`` included), 1 tree-validation failure (or
failed oracle check), 2 enumeration bound exceeded, 3 malformed input, unknown
node id or a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, oracle
from ._memo import CACHE_ENTRIES, memo
from .errors import EnumerationLimitError, SpectrumValidationError, UnknownNodeError
from .spectrum import (
    branch_subtree,
    enumerate_supports,
    skeleton,
    standard_decomposition,
    validate_tree,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BOUND = 2
EXIT_BAD_INPUT = 3


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...]):
    sub.add_argument("tree", help="path to a spectrum JSON file")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--max-branches", type=int, default=engine.DEFAULT_LIMITS.max_branches)
    sub.add_argument(
        "--max-maps",
        type=int,
        default=None,  # read from the environment on every call, in _limits
        help="enumeration cap (env SEMISTAR_MAX_MAPS)",
    )
    sub.add_argument("--max-poset", type=int, default=engine.DEFAULT_LIMITS.max_poset)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semistar",
        description="Exact counts of semistar and star operations from a labeled spectral tree.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    _add_common(commands.add_parser("validate", help="check the tree invariants"), ("text",))
    _add_common(commands.add_parser("count", help="all four cardinalities"), ("text", "json"))

    poly = commands.add_parser("poly", help="recover a counting polynomial")
    _add_common(poly, ("text", "json"))
    kind = poly.add_mutually_exclusive_group(required=True)
    kind.add_argument("--semistar", action="store_true", help="count all semistar operations")
    kind.add_argument("--smstar", action="store_true", help="count the domain-closing ones")
    poly.add_argument(
        "--var", action="append", default=[], metavar="ID", help="symbolic weight at this root child"
    )
    poly.add_argument(
        "--eps-var", action="append", default=[], metavar="ID",
        help="symbolic epsilon at this leaf (smstar only)",
    )

    hasse = commands.add_parser("hasse", help="export a Hasse diagram")
    _add_common(hasse, ("dot", "json"))
    hasse.add_argument(
        "--target", default="semistar",
        help='"semistar", "fstar:<root-child-id>", or "tree"',
    )

    _add_common(commands.add_parser("supports", help="list the supports"), ("text", "json"))
    _add_common(commands.add_parser("oracle-check", help="engine vs brute force"), ("text",))
    return parser


@memo(CACHE_ENTRIES)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; ``parse_args`` leaves it unchanged."""
    return build_parser()


def _limits(args) -> engine.Limits:
    max_maps = args.max_maps
    if max_maps is None:
        max_maps = int(os.environ.get("SEMISTAR_MAX_MAPS", engine.DEFAULT_LIMITS.max_maps))
    return engine.Limits(
        max_branches=args.max_branches, max_maps=max_maps, max_poset=args.max_poset
    )


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("JSON input nests too deeply") from None
    return validate_tree(data)


def _cmd_validate(args) -> int:
    _load(args.tree)
    print("valid")
    return EXIT_OK


def _cmd_count(args) -> int:
    report = engine.count_report(_load(args.tree), _limits(args))
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key} = {value}")
    return EXIT_OK


def _cmd_poly(args) -> int:
    tree = _load(args.tree)
    limits = _limits(args)
    if args.semistar:
        if args.eps_var:
            raise ValueError("--eps-var applies to --smstar only")
        poly = engine.semistar_polynomial(tree, sorted(args.var), limits)
    else:
        poly = engine.smstar_polynomial(tree, sorted(args.var), sorted(args.eps_var), limits)
    if args.format == "json":
        print(json.dumps(poly.to_json_dict(), sort_keys=True))
    else:
        print(poly.to_text())
    return EXIT_OK


def _cmd_hasse(args) -> int:
    tree = _load(args.tree)
    limits = _limits(args)
    target = args.target
    if target == "tree":
        if args.format == "json":
            print(json.dumps(tree.to_dict(), sort_keys=True))
        else:
            print(tree.to_dot())
        return EXIT_OK
    if target == "semistar":
        sp = engine.semistar_poset(tree, limits)
        # the elements of a support come in a row and share one Support: label it once
        flagged, labels, last = sp.flagged, [], None
        for e in sp.elements:
            if e.support is not last:
                last, name = e.support, e.support.label(sp.branch_ids)
            labels.append(name)
    elif target.startswith("fstar:"):
        child = target.split(":", 1)[1]
        if child not in standard_decomposition(tree):
            raise UnknownNodeError(f"{child!r} is not a child of the root")
        flagged = engine.fstar_poset(branch_subtree(tree, child), limits)
        labels = None
    else:
        raise ValueError(f"unknown hasse target {target!r}")
    if args.format == "json":
        payload = flagged.to_json_dict()
        if labels is not None:
            payload["labels"] = labels
        print(json.dumps(payload, sort_keys=True))
    else:
        print(flagged.to_dot(labels=labels))
    return EXIT_OK


def _cmd_supports(args) -> int:
    tree = _load(args.tree)
    sk = skeleton(tree)
    supports = enumerate_supports(tree, max_branches=args.max_branches)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "branches": list(sk.branch_ids),
                    "count": len(supports),
                    "supports": [sorted(s.masks) for s in supports],
                },
                sort_keys=True,
            )
        )
    else:
        for s in supports:
            print(s.label(sk.branch_ids))
        print(f"total = {len(supports)}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    tree = _load(args.tree)
    limits = _limits(args)
    engine_counts = (
        engine.count_semistar(tree, limits),
        engine.count_smstar(tree, limits),
    )
    element_counts = engine.semistar_element_counts(tree, limits)
    brute = oracle.brute_semistar_count(tree)
    rows = [
        ("semistar", engine_counts[0], element_counts[0], brute[0]),
        ("smstar", engine_counts[1], element_counts[1], brute[1]),
    ]
    ok = True
    print(f"{'quantity':<10} {'engine':>10} {'elements':>10} {'oracle':>10}  verdict")
    for name, eng, elem, orc in rows:
        good = eng == elem == orc
        ok = ok and good
        print(f"{name:<10} {eng:>10} {elem:>10} {orc:>10}  {'pass' if good else 'FAIL'}")
    return EXIT_OK if ok else EXIT_INVALID


_COMMANDS = {
    "validate": _cmd_validate,
    "count": _cmd_count,
    "poly": _cmd_poly,
    "hasse": _cmd_hasse,
    "supports": _cmd_supports,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        return _COMMANDS[args.command](args)
    except SpectrumValidationError as exc:
        for problem in exc.problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except EnumerationLimitError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (json.JSONDecodeError, UnknownNodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
