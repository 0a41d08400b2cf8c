"""The one memo registry: a cleared process answers like a fresh one, every cache is in it."""

import ast
import contextlib
import copy
import gc
import importlib.util
import json
import os
import pickle
import sys
from io import StringIO

import pytest

from conftest import run_fresh
from semistar import EnumerationLimitError, Limits, _memo, cache_info, clear_caches
from semistar import engine
from semistar import oracle  # noqa: F401  the CLI leaves it unloaded; this registers its memos
from semistar.cli import main
from semistar.spectrum import branch_subtree, pair_table, validate_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = os.path.join(ROOT, "src", "semistar")

README_TREE = {
    "nodes": [
        {"id": "0", "parent": None, "omega": 1},
        {"id": "P", "parent": "0", "omega": 1},
        {"id": "M1", "parent": "P", "omega": 1, "epsilon": 1},
        {"id": "M2", "parent": "P", "omega": 1, "epsilon": 1},
        {"id": "N", "parent": "0", "omega": 1, "epsilon": 1},
    ]
}


def _run(argv):
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cleared_caches_answer_like_a_fresh_process(tmp_path):
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_TREE))
    calls = [
        ["count", str(path)],
        ["count", str(path), "--max-poset", "3"],
        ["poly", str(path), "--smstar", "--var", "P"],
        ["hasse", str(path), "--target", "semistar", "--format", "json"],
        ["hasse", str(path), "--target", "semistar", "--max-maps", "1"],
        ["count", str(path), "--format", "json"],
    ]
    for argv in calls:  # fill every memo on the way
        _run(argv)
    clear_caches()
    assert all(info.currsize == 0 for info in cache_info().values())
    script = "import sys\nfrom semistar.cli import main\nfor argv in {!r}:\n    main(argv)\n"
    fresh = run_fresh(script.format(calls))
    assert fresh.returncode == 0, fresh.stderr
    in_process = [_run(argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 2, 0]
    assert "".join(out for _, out, _ in in_process) == fresh.stdout
    assert "".join(err for _, _, err in in_process) == fresh.stderr


def test_semistar_poset_limit_fires_after_a_default_build():
    t = validate_tree(README_TREE)
    size = engine.semistar_poset(t).size
    with pytest.raises(EnumerationLimitError, match=f"would hold {size} elements"):
        engine.semistar_poset(t, Limits(max_poset=size - 1))
    assert engine.semistar_poset(t, Limits(max_poset=size)).size == size


def _workload(name, seed=1):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py")
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_workload(name, seed)


def run_workload(tmp_path, name, seed=1):
    """Every invocation of one pass of a benchmark workload, through ``main`` in this process."""
    workload = _workload(name, seed)
    paths = {}
    for tree, nodes in workload.trees.items():
        paths[tree] = tmp_path / f"{tree}.json"
        paths[tree].write_text(json.dumps({"nodes": nodes}))
    return [_run(call.resolve(str(paths[call.tree]))) for call in workload.invocations]


def _memo_bounds():
    """``module.function`` of every ``@memo(BOUND)`` definition in the package, with ``BOUND``."""
    bounds = {}
    for filename in sorted(os.listdir(SOURCES)):
        if filename.endswith(".py"):
            tree = ast.parse(open(os.path.join(SOURCES, filename), encoding="utf-8").read())
            for node in tree.body:
                for d in getattr(node, "decorator_list", []):
                    if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "memo":
                        (bound,) = d.args
                        bounds[f"{filename[:-3]}.{node.name}"] = bound.id
    return bounds


def test_every_memo_is_bounded_after_the_counts_workload(tmp_path):
    run_workload(tmp_path, "counts")
    info = cache_info()
    bounds = _memo_bounds()
    assert set(info) == set(bounds)
    assert info["engine._term"].currsize > 0 and info["posets._count"].currsize > 0
    for name, stats in info.items():
        assert stats.maxsize == getattr(_memo, bounds[name]), name
        assert stats.currsize <= stats.maxsize, name
    # per-shape values hold every shape of five branches; materialized sets a few dozen
    declared = {
        "SHAPE_ENTRIES": {"engine._term", "posets._chain_coeffs", "posets._down_set_masks"},
        "POSET_ENTRIES": {
            "engine._semistar_poset", "engine._base", "engine._fstar", "engine._block_labels"
        },
        "SUM_ENTRIES": {"engine._support_sum"},
        "POLY_ENTRIES": {"engine._polynomial"},
        "MAP_ENTRIES": {"engine._maps", "engine._map_covers", "engine._restrictions"},
    }
    for bound, names in declared.items():
        assert {name for name, b in bounds.items() if b == bound} == names, bound
    assert _memo.SHAPE_ENTRIES >= 2 * 2215 and _memo.POSET_ENTRIES < _memo.CACHE_ENTRIES


def test_a_memoized_sum_cannot_be_changed_by_its_caller():
    t = validate_tree(README_TREE)
    count = engine.count_semistar(t)
    branches = engine._branches(t, engine.DEFAULT_LIMITS)
    for closing in (False, True):
        total = engine._support_sum(branches, closing, engine.DEFAULT_LIMITS)
        assert type(total) is int  # a value no caller can change in place
    assert engine.count_semistar(t) == count
    assert engine.semistar_polynomial(t, ["N"]).evaluate({"N": 1}) == count


def test_a_memoized_polynomial_cannot_be_changed_by_its_caller():
    t = validate_tree(README_TREE)
    count = engine.count_smstar(t)
    poly = engine.smstar_polynomial(t, ["N"], ["N"])
    expected = dict(poly.terms)
    key = next(iter(expected))
    with pytest.raises(TypeError):
        poly.terms[key] = 0
    with pytest.raises(AttributeError):
        poly.terms.clear()
    with pytest.raises(AttributeError):
        poly.terms = {}
    again = engine.smstar_polynomial(t, ["N"], ["N"])
    assert again is poly and again.terms == expected  # one memo entry, unchanged
    assert again.evaluate({"N": 1, "eps_N": 1}) == count
    for copied in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert copied == poly and hash(copied) == hash(poly) and copied.terms == expected
        assert copied.to_json_dict() == poly.to_json_dict()
        with pytest.raises(TypeError):
            copied.terms[key] = 0


def _flat(leaves, omega=2):
    return validate_tree(
        {"nodes": [{"id": "0", "parent": None, "omega": 1}]
         + [{"id": f"M{i}", "parent": "0", "omega": omega, "epsilon": 1} for i in range(leaves)]}
    )


def test_branch_and_map_limits_fire_after_a_default_count():
    flat = _flat(4)
    t = validate_tree(README_TREE)
    for tree, limits, message in [
        (flat, Limits(max_branches=3), "limited to 3 branches, got 4"),
        (t, Limits(max_maps=1), "exceeded 1 steps"),
    ]:
        report = engine.count_report(tree)
        for _ in range(2):  # the failed call stores nothing
            with pytest.raises(EnumerationLimitError, match=message):
                engine.count_semistar(tree, limits)
        assert engine.count_report(tree) == report
    # ordered sets share map lists and relations across builds; after a default
    # build the map limit still fires, from the count (README) or the map lists
    for tree, message in [(t, "exceeded 1 steps"), (_flat(2), "^more than 1 maps$")]:
        size = engine.semistar_poset(tree).size
        for _ in range(2):
            with pytest.raises(EnumerationLimitError, match=message):
                engine.semistar_poset(tree, Limits(max_maps=1))
        assert engine.semistar_poset(tree).size == size


def test_limits_fire_before_the_pair_table_is_read():
    clear_caches()
    assert engine.semistar_poset(_flat(3, omega=1)).size == 61
    assert cache_info()["spectrum._pair_table"].currsize == 1
    # 2 480 supports at four branches: over max_poset whatever the weights
    for limits, message in [
        (engine.DEFAULT_LIMITS, "would hold 25716791 elements, limit is 2000"),
        (Limits(max_branches=3, max_poset=10**7), "limited to 3 branches, got 4"),
    ]:
        with pytest.raises(EnumerationLimitError, match=message):
            engine.semistar_poset(_flat(4), limits)
        assert cache_info()["spectrum._pair_table"].currsize == 1  # the m = 3 table alone
    with pytest.raises(EnumerationLimitError, match="limited to 3 branches, got 4"):
        pair_table(4, max_branches=3)
    assert cache_info()["spectrum._pair_table"].misses == 1


# the README shape at larger weights: 1 162 elements, with branch posets of 24 and 2
BIG_README_TREE = {
    "nodes": [
        {"id": "0", "parent": None, "omega": 1},
        {"id": "P", "parent": "0", "omega": 2},
        {"id": "M1", "parent": "P", "omega": 3, "epsilon": 2},
        {"id": "M2", "parent": "P", "omega": 1, "epsilon": 1},
        {"id": "N", "parent": "0", "omega": 2, "epsilon": 2},
    ]
}


def _renamed(spec, k):
    """The tree of ``spec`` with ``_k`` appended to every id: equal sets, no shared memo entry."""
    nodes = [dict(node, id=f"{node['id']}_{k}") for node in spec["nodes"]]
    for node in nodes:
        if node["parent"] is not None:
            node["parent"] = f"{node['parent']}_{k}"
    return validate_tree({"nodes": nodes})


def test_materialized_sets_stay_within_their_bound():
    clear_caches()
    names = ("engine._semistar_poset", "engine._base", "engine._fstar")
    bound = _memo.POSET_ENTRIES
    sizes = set()

    def build(trees):
        for k in trees:
            t = _renamed(BIG_README_TREE, k)
            sizes.add(engine.semistar_poset(t).size)
            branches = (branch_subtree(t, c) for c in t.children(t.root_id))
            sizes.update(engine.fstar_poset(branch).size for branch in branches)
            info = cache_info()
            assert all(info[name].currsize <= bound for name in names), k

    def held():
        """The blocks that these memos alone keep, measured by emptying them."""
        assert all(cache_info()[name].currsize == bound for name in names)
        gc.collect()
        start = sys.getallocatedblocks()
        for name in names:
            _memo._MEMOS[name].clear()
        gc.collect()
        return start - sys.getallocatedblocks()

    build(range(bound))
    full = held()
    # twice as many trees again: a memo past its bound would keep twice as much
    build(range(bound, 3 * bound))
    again = held()
    assert sizes == {1162, 24, 2}
    assert again < 1.1 * full, (full, again)
    clear_caches()


def _module_level_caches(tree: ast.Module) -> list[str]:
    """Module-level mutable stores, direct uses of functools caches, and ``global``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            value = node.value
            empty = isinstance(value, (ast.Dict, ast.List, ast.Set)) and not (
                value.keys if isinstance(value, ast.Dict) else value.elts
            )
            made = isinstance(value, ast.Call) and getattr(value.func, "id", None) in {
                "dict", "list", "set", "defaultdict", "OrderedDict"
            }
            if empty or made or any("CACHE" in n.upper() for n in names):
                found.append(f"line {node.lineno}: module-level store {names}")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in {"lru_cache", "cache", "cached_property"}:
                    found.append(f"line {node.lineno}: imports functools.{alias.name}")
        elif isinstance(node, ast.Attribute) and node.attr in {"lru_cache", "cache"}:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"line {node.lineno}: uses functools.{node.attr}")
        elif isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {node.names}")
    return found


def test_every_cache_lives_in_the_memo_module():
    modules = [f for f in sorted(os.listdir(SOURCES)) if f.endswith(".py")]
    assert "_memo.py" in modules and "engine.py" in modules
    offenders = {}
    for filename in modules:
        if filename == "_memo.py":
            continue
        with open(os.path.join(SOURCES, filename), encoding="utf-8") as handle:
            found = _module_level_caches(ast.parse(handle.read()))
        if found:
            offenders[filename] = found
    assert offenders == {}


def test_the_cache_check_sees_the_patterns_it_forbids():
    sample = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_CACHE_ENTRIES = 10\n"
        "_SEEN: dict = {}\n"
        "_MORE = dict()\n"
        "TABLE = {'a': 1}\n"
        "@functools.cache\n"
        "def f():\n"
        "    global TABLE\n"
    )
    found = _module_level_caches(ast.parse(sample))
    # all but line 1 (a plain import), line 6 (a constant table) and line 8 (the def)
    assert sorted(int(f.split()[1].rstrip(":")) for f in found) == [2, 3, 4, 5, 7, 9], found
