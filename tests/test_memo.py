"""The one memo registry: a cleared process answers like a fresh one, every cache is in it."""

import ast
import contextlib
import importlib.util
import json
import os
import sys
from io import StringIO

import pytest

from conftest import run_fresh
from semistar import EnumerationLimitError, Limits, _memo, cache_info, clear_caches
from semistar import engine
from semistar.cli import main
from semistar.spectrum import validate_tree

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


def _counts_workload():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py")
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_workload("counts", 1)


def _memo_names():
    """``module.function`` of every definition decorated with ``@memo`` in the package."""
    names = set()
    for filename in sorted(os.listdir(SOURCES)):
        if filename.endswith(".py"):
            tree = ast.parse(open(os.path.join(SOURCES, filename), encoding="utf-8").read())
            for node in tree.body:
                decorators = getattr(node, "decorator_list", [])
                if any(isinstance(d, ast.Name) and d.id == "memo" for d in decorators):
                    names.add(f"{filename[:-3]}.{node.name}")
    return names


def test_every_memo_is_bounded_after_the_counts_workload(tmp_path):
    workload = _counts_workload()
    paths = {}
    for name, nodes in workload.trees.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"nodes": nodes}))
    for invocation in workload.invocations:
        _run(invocation.resolve(str(paths[invocation.tree])))
    info = cache_info()
    assert set(info) == _memo_names()
    assert info["engine._term"].currsize > 0 and info["posets._count"].currsize > 0
    for name, stats in info.items():
        assert stats.maxsize == _memo.CACHE_ENTRIES, name
        assert stats.currsize <= _memo.CACHE_ENTRIES, name


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
