"""Hasse exports against an independent reference, byte for byte.

The writers format runs of elements and of covers in chunks.  The reference
is the plain way to make the same text: the DOT one line per element and
per cover, the JSON ``json.dumps`` of the dict API with the labels added.
Element labels come from the decoded elements, not from the block labels.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, fresh_env, h_local
from test_cli import run
from test_memo import _workload
from semistar import Limits, clear_caches, fstar_poset, posets, semistar_poset
from semistar.spectrum import branch_subtree, standard_decomposition, validate_tree


def reference_dot(poset, labels=None, flagged=()):
    """The Hasse diagram as DOT, one line per element and per cover."""
    flagged = set(flagged)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=ellipse];"]
    for i in range(poset.size):
        label = str(i) if labels is None else labels[i].replace("\\", "\\\\").replace('"', '\\"')
        extra = ", peripheries=2" if i in flagged else ""
        lines.append(f'  n{i} [label="{label}"{extra}];')
    lines.extend(f"  n{lo} -> n{hi};" for lo, hi in poset.covers())
    lines.append("}")
    return "\n".join(lines)


def reference_json(flagged, labels=None):
    """``json.dumps`` of the flagged poset's dict, with one label per element if given."""
    payload = flagged.to_json_dict()
    if labels is not None:
        payload["labels"] = labels
    return json.dumps(payload, sort_keys=True)


def _written(write, *args):
    out = io.StringIO()
    write(out, *args)
    return out.getvalue()


def _assert_exports_match(t, limits=Limits()):
    """The semistar set and every branch's fractional-star set, in both formats."""
    sp = semistar_poset(t, limits)
    labels = [e.support.label(sp.branch_ids) for e in sp.elements]
    dot = reference_dot(sp.poset, labels, sp.ring_closing)
    assert _written(sp.flagged.write_dot, sp.label_runs) == dot
    assert sp.flagged.to_dot(labels) == dot
    assert _written(sp.flagged.write_json, sp.label_runs) == reference_json(sp.flagged, labels)
    for child in standard_decomposition(t):
        fp = fstar_poset(branch_subtree(t, child), limits)
        dot = reference_dot(fp.poset, None, fp.ring_closing)
        assert _written(fp.write_dot) == fp.to_dot() == dot
        assert _written(fp.write_json) == reference_json(fp)
    return sp


@pytest.mark.parametrize("chunk", [1, 3, 64, posets._CHUNK])
def test_exports_of_the_hasse_sets_of_seeds_one_to_three(chunk, monkeypatch):
    # small chunks cut runs of one label, of covers and of flags at many places
    monkeypatch.setattr(posets, "_CHUNK", chunk)
    trees = [nodes for seed in (1, 2, 3) for nodes in _workload("hasse", seed).trees.values()]
    assert len(trees) == 15
    for nodes in trees:
        clear_caches()
        _assert_exports_match(validate_tree({"nodes": nodes}))


def test_exports_of_a_set_whose_covers_span_several_chunks():
    sp = _assert_exports_match(h_local([2, 2, 2], [1, 2, 2]), Limits(max_poset=3000))
    assert sp.size == 2921 and len(sp.poset.covers()) > 2 * posets._CHUNK


#: ids that a ``%`` template, a ``str.format`` template or a quoted string could misread;
#: the labels name the root's children, ``P`` and ``N``
ODD_IDS = {"P": "%d{}\\", "M1": "%s", "M2": "%", "N": 'q"%%{0}'}


def _odd_tree(tmp_path):
    rows = [
        {"id": "0", "parent": None, "omega": 1},
        {"id": ODD_IDS["P"], "parent": "0", "omega": 1},
        {"id": ODD_IDS["N"], "parent": "0", "omega": 2, "epsilon": 2},
    ] + [
        {"id": ODD_IDS[leaf], "parent": ODD_IDS["P"], "omega": 1, "epsilon": 1}
        for leaf in ("M1", "M2")
    ]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"nodes": rows}))
    return str(path), validate_tree({"nodes": rows})


def test_exports_keep_percent_signs_braces_quotes_and_backslashes_in_ids(tmp_path, capsys):
    path, t = _odd_tree(tmp_path)
    sp = _assert_exports_match(t)
    labels = [e.support.label(sp.branch_ids) for e in sp.elements]
    assert any(ODD_IDS["P"] in label and ODD_IDS["N"] in label for label in labels)
    code, out, _ = run(capsys, "hasse", path)
    assert code == 0 and out == reference_dot(sp.poset, labels, sp.ring_closing) + "\n"
    code, out, _ = run(capsys, "hasse", path, "--format", "json")
    assert code == 0 and out == reference_json(sp.flagged, labels) + "\n"
    for child in standard_decomposition(t):
        fp = fstar_poset(branch_subtree(t, child))
        code, out, _ = run(capsys, "hasse", path, "--target", f"fstar:{child}")
        assert code == 0 and out == reference_dot(fp.poset, None, fp.ring_closing) + "\n"


def test_a_plain_poset_exports_labels_that_repeat_apart():
    p = posets.Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    labels = ["a", "a", "%s", "a"]
    assert p.to_dot(labels, flagged={0, 2}) == reference_dot(p, labels, {0, 2})
    assert p.to_dot() == reference_dot(p)
    assert _written(p.write_json) == json.dumps(p.to_json_dict(), sort_keys=True)
    empty = posets.Poset(())
    assert empty.to_dot() == reference_dot(empty)
    written = _written(empty.write_json, [], ())
    assert written == '{"covers": [], "labels": [], "ring_closing": [], "size": 0}'


def test_labels_must_name_every_element():
    p = posets.chain(3)
    for runs in ([("a", 2)], [("a", 2), ("b", 2)]):
        for write in (p.write_dot, p.write_json):
            with pytest.raises(ValueError, match="name"):
                write(io.StringIO(), runs)


#: Run in a new interpreter: build or export the set of the tree file ``argv[1]``, then
#: print the peak resident memory of this process alone, in kB, on stderr.
_PEAK = """
import sys
from semistar import Limits, semistar_poset
from semistar.cli import _load, main
code = 0
if sys.argv[2] == "build":
    semistar_poset(_load(sys.argv[1]), Limits(max_poset=10_000_000))
else:
    code = main(["hasse", sys.argv[1], "--format", "json", "--max-poset", "10000000"])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_a_json_export_peaks_little_above_the_build_of_its_set(tmp_path):
    # three leaves of weight 3: 58 610 elements and 339 817 covers; ``VmHWM`` is the
    # peak of the process itself, where ``ru_maxrss`` starts from its parent's
    tree = tmp_path / "flat.json"
    rows = [{"id": "0", "parent": None, "omega": 1}]
    rows += [{"id": f"M{i}", "parent": "0", "omega": 3, "epsilon": 1} for i in (1, 2, 3)]
    tree.write_text(json.dumps({"nodes": rows}))
    peaks = {}
    for mode in ("build", "export"):
        with open(tmp_path / f"{mode}.out", "w") as out:
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK, str(tree), mode],
                cwd=ROOT, env=fresh_env(), stdout=out, stderr=subprocess.PIPE, text=True,
            )
        assert proc.returncode == 0, proc.stderr
        peaks[mode] = int(proc.stderr) / 1024
    payload = json.loads((tmp_path / "export.out").read_text())
    assert payload["size"] == len(payload["labels"]) == 58_610
    assert len(payload["covers"]) == 339_817
    assert peaks["export"] <= peaks["build"] + 20, peaks
