import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_env, run_fresh
from semistar.cli import main

FEX = {
    "nodes": [
        {"id": "0", "parent": None, "omega": 1},
        {"id": "P", "parent": "0", "omega": 1},
        {"id": "M1", "parent": "P", "omega": 1, "epsilon": 1},
        {"id": "M2", "parent": "P", "omega": 1, "epsilon": 1},
        {"id": "N", "parent": "0", "omega": 1, "epsilon": 1},
    ]
}

Y_DOUBLE = {
    "nodes": [
        {"id": "0", "parent": None, "omega": 1},
        {"id": "P", "parent": "0", "omega": 1},
        {"id": "M1", "parent": "P", "omega": 2, "epsilon": 2},
        {"id": "M2", "parent": "P", "omega": 2, "epsilon": 2},
    ]
}


@pytest.fixture
def fex_path(tmp_path):
    path = tmp_path / "fex.json"
    path.write_text(json.dumps(FEX))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(fex_path, capsys):
    code, out, _ = run(capsys, "count", fex_path)
    assert code == 0
    assert out.splitlines() == ["semistar = 67", "fstar = 7", "smstar = 42", "star = 4"]


def test_count_json_round_trip(fex_path, capsys):
    code, out, _ = run(capsys, "count", fex_path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"semistar": 67, "fstar": 7, "smstar": 42, "star": 4}


def test_output_is_deterministic(fex_path, capsys):
    _, first, _ = run(capsys, "count", fex_path)
    _, second, _ = run(capsys, "count", fex_path)
    assert first == second
    _, dot1, _ = run(capsys, "hasse", fex_path, "--target", "semistar")
    _, dot2, _ = run(capsys, "hasse", fex_path, "--target", "semistar")
    assert dot1 == dot2


def test_validate_ok(fex_path, capsys):
    code, out, _ = run(capsys, "validate", fex_path)
    assert code == 0 and out.strip() == "valid"


def test_validate_path_tree_fails(tmp_path, capsys):
    bad = tmp_path / "path.json"
    bad.write_text(
        json.dumps(
            {
                "nodes": [
                    {"id": "0", "parent": None, "omega": 1},
                    {"id": "P", "parent": "0", "omega": 2},
                    {"id": "M", "parent": "P", "omega": 1, "epsilon": 1},
                ]
            }
        )
    )
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "exactly one child" in err


def test_star_count_on_double_epsilon_y(tmp_path, capsys):
    path = tmp_path / "y.json"
    path.write_text(json.dumps(Y_DOUBLE))
    code, out, _ = run(capsys, "count", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["star"] == 25  # (1 + 2*2)(1 + 2*2)


def test_poly_semistar(fex_path, capsys):
    code, out, _ = run(capsys, "poly", fex_path, "--semistar", "--var", "P", "--var", "N")
    assert code == 0
    assert out.strip() == (
        "1/4*N^2*P^2 + 15/4*N^2*P + 3/4*N*P^2 + 21/2*N^2 + 45/4*N*P + 65/2*N + P + 7"
    )


def test_poly_smstar_json(tmp_path, capsys):
    path = tmp_path / "h2.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [
                    {"id": "0", "parent": None, "omega": 1},
                    {"id": "a", "parent": "0", "omega": 1, "epsilon": 1},
                    {"id": "b", "parent": "0", "omega": 1, "epsilon": 1},
                ]
            }
        )
    )
    code, out, _ = run(
        capsys, "poly", str(path), "--smstar",
        "--var", "a", "--var", "b", "--eps-var", "a", "--eps-var", "b",
    )
    assert code == 0
    assert out.strip() == "a*b*eps_a*eps_b + a*eps_a + b*eps_b + 1"
    code, out, _ = run(capsys, "poly", str(path), "--smstar", "--var", "a", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == ["a"]


def test_hasse_targets(fex_path, capsys):
    code, out, _ = run(capsys, "hasse", fex_path, "--target", "fstar:P")
    assert code == 0
    assert out.startswith("digraph") and "peripheries=2" in out
    code, out, _ = run(capsys, "hasse", fex_path, "--target", "fstar:P", "--format", "json")
    data = json.loads(out)
    assert data["size"] == 7 and data["ring_closing"] == [2, 3, 4, 5]
    code, out, _ = run(capsys, "hasse", fex_path, "--target", "semistar", "--format", "json")
    assert json.loads(out)["size"] == 67
    code, out, _ = run(capsys, "hasse", fex_path, "--target", "tree")
    assert "omega=1" in out
    code, out, _ = run(capsys, "hasse", fex_path, "--target", "tree", "--format", "json")
    assert code == 0 and json.loads(out) == FEX


def test_supports_listing(fex_path, capsys):
    code, out, _ = run(capsys, "supports", fex_path)
    assert code == 0
    assert out.strip().endswith("total = 7")
    code, out, _ = run(capsys, "supports", fex_path, "--format", "json")
    assert json.loads(out)["count"] == 7


def test_oracle_check(fex_path, capsys):
    code, out, _ = run(capsys, "oracle-check", fex_path)
    assert code == 0
    assert out.count("pass") == 2 and "FAIL" not in out


def test_malformed_json_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [')
    code, _, err = run(capsys, "count", str(bad))
    assert code == 3 and "error" in err


def test_unknown_node_exit_3(fex_path, capsys):
    code, _, err = run(capsys, "poly", fex_path, "--semistar", "--var", "missing")
    assert code == 3
    code, _, err = run(capsys, "hasse", fex_path, "--target", "fstar:missing")
    assert (code, err) == (3, "error: 'missing' is not a child of the root\n")
    code, _, err = run(capsys, "hasse", fex_path, "--target", "fstar:M1")
    assert (code, err) == (3, "error: 'M1' is not a child of the root\n")
    code, out, err = run(capsys, "hasse", fex_path, "--target", "poset")
    assert (code, out, err) == (3, "", "error: unknown hasse target 'poset'\n")


def test_poly_var_not_root_child_exit_3(fex_path, capsys):
    code, _, err = run(capsys, "poly", fex_path, "--semistar", "--var", "M1")
    assert code == 3 and "children of the root" in err


def test_poly_eps_var_rejected_for_semistar(fex_path, capsys):
    code, _, err = run(capsys, "poly", fex_path, "--semistar", "--var", "P", "--eps-var", "N")
    assert code == 3 and "smstar" in err


def test_bound_exceeded_exit_2(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    wide.write_text(
        json.dumps(
            {
                "nodes": [{"id": "0", "parent": None, "omega": 1}]
                + [
                    {"id": f"M{i}", "parent": "0", "omega": 1, "epsilon": 1}
                    for i in range(4)
                ]
            }
        )
    )
    code, _, err = run(capsys, "count", str(wide), "--max-branches", "3")
    assert code == 2 and "bound exceeded" in err
    code, out, _ = run(capsys, "count", str(wide), "--format", "json")
    assert code == 0
    assert json.loads(out)["semistar"] == 2480  # supports over four branches


def test_count_and_poly_exceed_a_bound_with_the_same_message(tmp_path, capsys):
    nodes = [{"id": "0", "parent": None, "omega": 1}] + [
        {"id": node, "parent": "0", "omega": 1} for node in ("P", "Q")
    ]
    for parent, leaves in (("P", ("M1", "M2")), ("Q", ("N1", "N2"))):
        nodes += [{"id": leaf, "parent": parent, "omega": 2, "epsilon": 1} for leaf in leaves]
    path = tmp_path / "twin.json"
    path.write_text(json.dumps({"nodes": nodes}))
    # 'P', the first branch, whether or not it is symbolic
    line = "bound exceeded: semistar poset of quotient 'P' would hold 30 elements, limit is 10\n"
    for command, *options in (["count"], ["poly", "--semistar", "--var", "P"],
                              ["poly", "--smstar", "--var", "P"]):
        assert run(capsys, command, str(path), *options, "--max-poset", "10") == (2, "", line)


def test_max_maps_env(fex_path):
    # a fresh process, so the env var really drives the default
    import subprocess
    import sys

    env = fresh_env(SEMISTAR_MAX_MAPS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "semistar.cli", "hasse", fex_path, "--target", "semistar"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "bound exceeded" in proc.stderr
    env.pop("SEMISTAR_MAX_MAPS")
    proc = subprocess.run(
        [sys.executable, "-m", "semistar.cli", "hasse", fex_path, "--target", "semistar"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0


def test_max_maps_env_is_read_on_every_call(fex_path, monkeypatch, capsys):
    # the parser is built once per process; the environment is not frozen in it
    monkeypatch.setenv("SEMISTAR_MAX_MAPS", "1")
    assert main(["count", fex_path]) == 2
    monkeypatch.delenv("SEMISTAR_MAX_MAPS")
    assert main(["count", fex_path]) == 0
    monkeypatch.setenv("SEMISTAR_MAX_MAPS", "1")
    assert main(["count", fex_path]) == 2
    assert main(["count", fex_path, "--max-maps", "100"]) == 0
    assert "exceeded 1 steps" in capsys.readouterr().err


def test_each_flag_of_a_closing_count_is_its_own_map_limit_run(fex_path, capsys):
    # the plain factor of P trips at one step; its closing factor maps a two-element
    # component one flag at a time, one step each, so poly --smstar still answers
    assert run(capsys, "count", fex_path, "--max-maps", "1") == (
        2, "", "bound exceeded: map counting exceeded 1 steps\n")
    smstar = ["poly", fex_path, "--smstar", "--var", "P", "--var", "N"]
    assert run(capsys, *smstar, "--max-maps", "1") == run(capsys, *smstar)
    assert run(capsys, *smstar)[:2] == (0, "4*N*P + 17*N + 4*P + 17\n")


def test_limits_in_one_process_match_fresh_runs(fex_path, capsys):
    # a default call in between must not let a later --max-maps 1 call pass
    script = "import sys\nfrom semistar.cli import main\nsys.exit(main({!r}))"
    for command in (["count"], ["hasse", "--target", "semistar"]):
        flags = (["--max-maps", "1"], [], ["--max-maps", "1"])
        calls = [[*command, fex_path, *f] for f in flags]
        in_process = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in in_process] == [2, 0, 2]
        for argv, result in zip(calls, in_process):
            fresh = run_fresh(script.format(argv))
            assert result == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_poly_calls_in_one_process_match_fresh_runs(fex_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap alike in both processes
    # poly calls among the other commands, usage errors and help: parsers and trees are shared
    calls = [
        ["poly", fex_path, "--semistar", "--var", "P", "--var", "N"],
        ["count", fex_path],
        ["poly", fex_path, "--smstar", "--var", "N", "--eps-var", "N"],
        ["hasse", fex_path, "--format", "json"],
        ["poly", fex_path, "--semistar", "--var", "N", "--format", "json"],
        ["--help"],
        ["poly", fex_path, "--smstar", "--bogus"],
        ["bogus"],
        ["supports", fex_path],
        ["poly", fex_path, "--smstar", "--var", "P"],
        ["validate", fex_path],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = run_fresh(f"import sys\nfrom semistar.cli import main\nsys.exit(main({argv!r}))")
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0]


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "count", "/nonexistent/tree.json")
    assert code == 3


_COMMAND_NAMES = ("validate", "count", "poly", "hasse", "supports", "oracle-check")


def test_usage_errors_exit_3_and_help_exits_0(fex_path, capsys):
    # exit 2 means an enumeration bound, so argparse's own usage exit is not passed on
    bad_options = (["--max-branches", "x"], ["--bogus"])
    for argv in (["count"], *(["count", fex_path, *option] for option in bad_options)):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("usage: semistar count")
    for argv in ([], ["bogus"], ["--bogus"], ["cou", fex_path]):  # no command, or none known
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("usage: semistar [-h] {validate,count,")
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: semistar [-h]") and err == ""
    assert all(f"\n  {name} " in out for name in _COMMAND_NAMES)
    for name in _COMMAND_NAMES:
        code, out, err = run(capsys, name, "--help")
        assert code == 0 and out.startswith(f"usage: semistar {name} [-h]") and err == ""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "semistar.cli", "count"],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert proc.returncode == 3 and proc.stderr.startswith("usage: semistar count")


def _write(tmp_path, name, nodes):
    path = tmp_path / name
    path.write_text(json.dumps({"nodes": nodes}))
    return str(path)


def test_fstar_export_of_a_long_leaf_exceeds_max_poset(tmp_path, capsys):
    path = _write(
        tmp_path, "leaf.json",
        [
            {"id": "0", "parent": None, "omega": 1},
            {"id": "M0", "parent": "0", "omega": 2500, "epsilon": 1},
        ],
    )
    code, out, err = run(capsys, "hasse", path, "--target", "fstar:M0")
    assert code == 2 and "bound exceeded" in err and out == ""
    code, out, _ = run(capsys, "count", path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"semistar": 2501, "fstar": 2500, "smstar": 1, "star": 1}


def test_count_over_a_big_quotient(tmp_path, capsys):
    path = _write(
        tmp_path, "fault.json",
        [{"id": "0", "parent": None, "omega": 1}, {"id": "P", "parent": "0", "omega": 2}]
        + [{"id": f"M{i}", "parent": "P", "omega": 3, "epsilon": 1} for i in (1, 2, 3)],
    )
    code, out, _ = run(capsys, "count", path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"semistar": 58612, "fstar": 58611, "smstar": 15606, "star": 15606}


def test_hasse_labels_name_each_element_by_its_support(fex_path, capsys):
    from semistar import semistar_poset
    from semistar.spectrum import load_tree

    from test_exports import reference_dot, reference_json

    sp = semistar_poset(load_tree(fex_path))
    expected = [e.support.label(sp.branch_ids) for e in sp.elements]
    code, out, _ = run(capsys, "hasse", fex_path, "--format", "json")
    assert code == 0 and json.loads(out)["labels"] == expected
    assert out == reference_json(sp.flagged, expected) + "\n"
    code, out, _ = run(capsys, "hasse", fex_path)
    assert code == 0
    assert out == reference_dot(sp.poset, expected, sp.ring_closing) + "\n"


def test_hasse_exports_the_ordered_set_without_closing_it(fex_path, tmp_path, capsys):
    from semistar import clear_caches, semistar_poset
    from semistar.spectrum import load_tree
    from test_semistar_poset import _masks_held

    flat = _write(tmp_path, "flat.json", [{"id": "0", "parent": None, "omega": 1}] + [
        {"id": f"M{i}", "parent": "0", "omega": w, "epsilon": w} for i, w in enumerate((1, 2, 2))
    ])
    for path in (fex_path, flat):
        clear_caches()
        for fmt in ("dot", "json"):
            code, out, _ = run(capsys, "hasse", path, "--format", fmt)
            assert code == 0 and out
        sp = semistar_poset(load_tree(path))  # the set just exported, from the memo
        assert not _masks_held(sp.poset)


#: a DOT node statement whose label is one quoted string: no unescaped quote inside
_DOT_NODE = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"(, peripheries=2)?\];')


def _dot_labels(dot):
    r"""The text of each node label, with DOT's ``\"``, ``\\`` and ``\n`` read back."""
    labels = []
    for line in dot.splitlines():
        if line.startswith("  n") and not line.startswith("  node") and "->" not in line:
            match = _DOT_NODE.fullmatch(line)
            assert match, line
            labels.append(re.sub(r"\\(.)", _unescaped, match[2]))
    return labels


def _unescaped(escape):
    return "\n" if escape[1] == "n" else escape[1]


def test_hasse_dot_escapes_quotes_and_backslashes_in_ids(tmp_path, capsys):
    path = _write(
        tmp_path, "quoted.json",
        [{"id": "0", "parent": None, "omega": 1},
         {"id": 'M"1', "parent": "0", "omega": 1, "epsilon": 1},
         {"id": "N\\", "parent": "0", "omega": 2, "epsilon": 1}],
    )
    code, out, _ = run(capsys, "hasse", path, "--format", "json")
    assert code == 0
    labels = json.loads(out)["labels"]
    assert '{T{M"1}, K}' in labels and "{T{N\\}, K}" in labels
    code, out, _ = run(capsys, "hasse", path)
    assert code == 0 and _dot_labels(out) == labels
    code, out, _ = run(capsys, "hasse", path, "--target", "tree")
    assert code == 0
    assert _dot_labels(out) == ["0\nomega=1", 'M"1\nomega=1, eps=1', "N\\\nomega=2, eps=1"]


def test_importing_the_cli_leaves_the_oracle_unloaded():
    proc = run_fresh(
        "import sys\nimport semistar.cli\nprint('semistar.oracle' in sys.modules)\n"
        "from semistar import oracle\nimport semistar\n"
        "print(oracle.__name__, semistar.oracle is oracle, 'oracle' in semistar.__all__)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "semistar.oracle", "True", "True"]


# -- tree files: read on every call, parsed and validated once per text ------------------


def test_a_rewritten_tree_file_gives_the_new_tree_answer(tmp_path, capsys):
    from semistar import cache_info, clear_caches

    clear_caches()
    path = tmp_path / "tree.json"
    answers = []
    for spec in (FEX, Y_DOUBLE, FEX):
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "count", str(path), "--format", "json")
        assert code == 0
        answers.append(json.loads(out)["semistar"])
    assert answers == [67, 31, 67]
    info = cache_info()["cli._tree"]
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)  # each text parsed once


def test_a_failing_tree_text_fails_alike_on_every_call_and_stores_nothing(tmp_path, capsys):
    from semistar import _memo, cache_info

    info = cache_info()
    assert info["cli._tree"].maxsize == info["cli._command_parser"].maxsize == _memo.CACHE_ENTRIES
    path = tmp_path / "bad.json"
    root, leaf = {"id": "0", "parent": None, "omega": 1}, {"id": "P", "parent": "0", "omega": 0}
    invalid = {"nodes": [root, leaf]}  # a weight of 0
    for text, expected in [('{"nodes": [', 3), ("[" * 100_000, 3), (json.dumps(invalid), 1)]:
        path.write_text(text)
        before = cache_info()["cli._tree"]
        results = [run(capsys, "count", str(path)) for _ in range(3)]
        after = cache_info()["cli._tree"]
        assert results[0][0] == expected and results.count(results[0]) == 3, results
        assert after.currsize == before.currsize and after.misses == before.misses + 3


# -- malformed input ---------------------------------------------------------------------


def test_deeply_nested_json_exit_3(tmp_path):
    from conftest import fresh_env, run_fresh

    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    proc = run_fresh(
        "import sys\nfrom semistar.cli import main\n"
        f"sys.exit(main(['count', {str(path)!r}]))\n"
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and "nests too deeply" in proc.stderr


def test_count_on_a_deep_caterpillar_exits_2(tmp_path, capsys):
    from conftest import caterpillar

    path = tmp_path / "caterpillar.json"
    path.write_text(caterpillar(2000).to_json())
    code, out, err = run(capsys, "count", str(path))
    assert (code, out) == (2, "")
    assert "Traceback" not in err and "quotient 'P1997'" in err


@pytest.mark.slow
def test_count_on_a_40002_node_caterpillar_exits_2_within_seconds(tmp_path):
    import subprocess
    import sys
    import time

    from conftest import caterpillar

    path = tmp_path / "caterpillar.json"
    path.write_text(caterpillar(20_000).to_json())
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "semistar.cli", "count", str(path)],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "quotient 'P19997'" in proc.stderr
    assert elapsed < 5.0


def test_load_tree_reports_deep_nesting_as_the_command_line_does(tmp_path):
    from semistar.spectrum import load_tree

    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match="^JSON input nests too deeply$"):
        load_tree(path)


_COMMANDS = (
    ("count",), ("validate",), ("supports",), ("hasse",), ("oracle-check",),
    ("poly", "--semistar"),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_NOT_AN_INTEGER = st.none() | st.booleans() | st.floats() | st.text(max_size=5) | st.lists(
    st.integers(), max_size=2
)


@st.composite
def _malformed_nodes(draw):
    """The node list of a valid tree with one to three faults, each alone fatal."""
    from conftest import random_tree

    rows = random_tree(random.Random(draw(st.integers(0, 2**16)))).to_dict()["nodes"]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(rows) - 1))
        if not isinstance(rows[k], dict):
            rows.append(rows[k])  # a second non-object row
            continue
        row, fault = dict(rows[k]), draw(st.integers(0, 8))
        if fault == 0:
            row.pop(draw(st.sampled_from(["id", "parent", "omega"])))
        elif fault == 1:
            row["id"] = draw(st.just("") | _NOT_AN_INTEGER.filter(lambda v: not isinstance(v, str)))
        elif fault == 2:
            row["parent"] = draw(st.booleans() | st.integers() | st.lists(st.integers(), max_size=1))
        elif fault == 3:
            row["parent"] = "no such node"
        elif fault == 4:
            row["omega"] = draw(_NOT_AN_INTEGER | st.integers(max_value=0))
        elif fault == 5:
            row["epsilon"] = draw(_NOT_AN_INTEGER.filter(lambda v: v is not None))
        elif fault == 6:
            known = {"id", "parent", "omega", "epsilon"}
            row[draw(st.text(min_size=1, max_size=5).filter(lambda s: s not in known))] = 1
        elif fault == 7:
            rows.append(dict(row))  # a duplicate id
        else:
            row = draw(_JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
        rows[k] = row
    return {"nodes": rows} if draw(st.booleans()) else rows


def _texts():
    valid = json.dumps(FEX)
    nested = st.integers(1, 120_000)
    return st.one_of(
        st.text(max_size=40),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        nested.map(lambda d: "[" * d),
        nested.map(lambda d: "[" * d + "]" * d),
        nested.map(lambda d: '{"nodes": ' + '{"a": ' * d),
        _malformed_nodes().map(json.dumps),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_texts(), st.sampled_from(_COMMANDS))
def test_malformed_input_never_escapes_the_exit_codes(text, command):
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/tree.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:]])
    assert code in (1, 3)
    assert "Traceback" not in err.getvalue() and err.getvalue()
