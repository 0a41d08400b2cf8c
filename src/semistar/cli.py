"""Command-line front end: counts, polynomials, Hasse exports, oracle checks.

Every command is a row of one table, :data:`_COMMANDS`: its help line, its
output formats, its handler and the options it adds to the common ones.
Each command has its own ``argparse`` parser, built from its row on first
use and memoized by name, so a call builds only the parser it runs.  The
top-level ``semistar --help``, and the usage error of a missing or unknown
command, come from a parser built from the same table when the first
argument names no command.

A tree file is read on every call, so a rewritten file gives the new
tree's answer; its text is parsed and validated once per process
(:func:`_tree`), and a text that fails stores nothing.

Exit codes: 0 success (``--help`` included), 1 tree-validation failure (or
failed oracle check), 2 enumeration bound exceeded, 3 malformed input, unknown
node id or a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from . import engine
from ._memo import CACHE_ENTRIES, memo
from .errors import EnumerationLimitError, SpectrumValidationError, UnknownNodeError
from .spectrum import (
    SpectrumTree,
    branch_subtree,
    enumerate_supports,
    skeleton,
    _read_tree,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BOUND = 2
EXIT_BAD_INPUT = 3


def _poly_options(parser: argparse.ArgumentParser):
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--semistar", action="store_true", help="count all semistar operations")
    kind.add_argument("--smstar", action="store_true", help="count the domain-closing ones")
    parser.add_argument(
        "--var", action="append", default=[], metavar="ID", help="symbolic weight at this root child"
    )
    parser.add_argument(
        "--eps-var", action="append", default=[], metavar="ID",
        help="symbolic epsilon at this leaf (smstar only)",
    )


def _hasse_options(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--target", default="semistar",
        help='"semistar", "fstar:<root-child-id>", or "tree"',
    )


def _limits(args) -> engine.Limits:
    max_maps = args.max_maps
    if max_maps is None:
        max_maps = int(os.environ.get("SEMISTAR_MAX_MAPS", engine.DEFAULT_LIMITS.max_maps))
    return engine.Limits(
        max_branches=args.max_branches, max_maps=max_maps, max_poset=args.max_poset
    )


def _load(path) -> SpectrumTree:
    with open(path, "r", encoding="utf-8") as handle:
        return _tree(handle.read())


@memo(CACHE_ENTRIES)
def _tree(text: str) -> SpectrumTree:
    """The validated tree of a JSON text, parsed and validated once per process."""
    return _read_tree(text)


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
        flagged, labels = sp.flagged, sp.label_runs  # a support's elements share its label
    elif target.startswith("fstar:"):
        flagged = engine.fstar_poset(branch_subtree(tree, target.split(":", 1)[1]), limits)
        labels = None
    else:
        raise ValueError(f"unknown hasse target {target!r}")
    # written in chunks from the covers: no whole document is held
    if args.format == "json":
        flagged.write_json(sys.stdout, labels)
    else:
        flagged.write_dot(sys.stdout, labels)
    sys.stdout.write("\n")
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
    from . import oracle  # the brute-force reference, imported by this command alone

    tree = _load(args.tree)
    limits = _limits(args)
    engine_counts = (engine.count_semistar(tree, limits), engine.count_smstar(tree, limits))
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


#: A command: its help line, its output formats (the first is the default), its
#: handler and what adds its options beyond the common ones (``None`` for none).
_Command = namedtuple("_Command", "help formats run options")

_COMMANDS = {
    "validate": _Command("check the tree invariants", ("text",), _cmd_validate, None),
    "count": _Command("all four cardinalities", ("text", "json"), _cmd_count, None),
    "poly": _Command("recover a counting polynomial", ("text", "json"), _cmd_poly, _poly_options),
    "hasse": _Command("export a Hasse diagram", ("dot", "json"), _cmd_hasse, _hasse_options),
    "supports": _Command("list the supports", ("text", "json"), _cmd_supports, None),
    "oracle-check": _Command("engine vs brute force", ("text",), _cmd_oracle_check, None),
}


@memo(CACHE_ENTRIES)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built on first use; ``parse_args`` leaves it unchanged."""
    command = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"semistar {name}")
    parser.add_argument("tree", help="path to a spectrum JSON file")
    parser.add_argument("--format", choices=command.formats, default=command.formats[0])
    parser.add_argument("--max-branches", type=int, default=engine.DEFAULT_LIMITS.max_branches)
    parser.add_argument(
        "--max-maps",
        type=int,
        default=None,  # read from the environment on every call, in _limits
        help="enumeration cap (env SEMISTAR_MAX_MAPS)",
    )
    parser.add_argument("--max-poset", type=int, default=engine.DEFAULT_LIMITS.max_poset)
    if command.options is not None:
        command.options(parser)
    return parser


def _usage_parser() -> argparse.ArgumentParser:
    """The top-level parser: ``semistar --help`` and the usage of a missing or unknown command."""
    listing = "".join(f"  {name:<22}{command.help}\n" for name, command in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="semistar",
        usage=f"%(prog)s [-h] {{{','.join(_COMMANDS)}}} ...",
        description="Exact counts of semistar and star operations from a labeled spectral tree.",
        epilog=f"commands:\n{listing}\nsemistar <command> --help lists the options of a command.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if not argv or argv[0] not in _COMMANDS:
            # no command is named, so this exits: 0 after --help, else a usage error
            _usage_parser().parse_args(argv[:1])
        args = _command_parser(argv[0]).parse_args(argv[1:])
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        return _COMMANDS[argv[0]].run(args)
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
