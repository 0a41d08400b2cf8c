import copy
import dataclasses
import json
import pickle
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import final_example, h_local, random_tree, run_fresh, valuation, y_tree
from semistar import (
    EnumerationLimitError,
    SpectrumValidationError,
    UnknownNodeError,
    are_isomorphic,
    branch_subtree,
    build_tree,
    chain,
    derive_omega,
    enumerate_supports,
    ordinal_sum,
    product,
    quotient_subtree,
    skeleton,
    standard_decomposition,
    subposet,
    validate_tree,
)
from semistar import spectrum
from semistar.oracle import _brute_support_families, brute_supports
from semistar.spectrum import (
    IDEMPOTENT,
    NONIDEMPOTENT,
    SpectrumTree,
    Support,
    TreeNode,
    _union_closed,
)


def test_y_shape_is_valid():
    t = y_tree(3, (2, 1), (4, 2))
    assert standard_decomposition(t) == ("P",)
    assert t.leaves() == ("M1", "M2")
    with pytest.raises(ValueError, match="node 'P' carries no epsilon label"):
        t.epsilon("P")


def test_single_leaf_under_root_is_valid():
    t = valuation(2, 2)
    assert t.is_leaf("M")
    assert standard_decomposition(t) == ("M",)


def test_single_node_tree_is_a_field():
    t = build_tree([("0", None, 1)])
    assert t.leaves() == ()
    assert standard_decomposition(t) == ()


def test_path_tree_rejected():
    with pytest.raises(SpectrumValidationError) as exc:
        build_tree([("0", None, 1), ("P", "0", 2), ("M", "P", 1, 1)])
    assert any("exactly one child" in p for p in exc.value.problems)


def test_validator_reports_every_problem():
    raw = {
        "nodes": [
            {"id": "0", "parent": None, "omega": 2, "epsilon": 1},
            {"id": "P", "parent": "0", "omega": 1},
            {"id": "M", "parent": "P", "omega": 1, "epsilon": 2},
        ]
    }
    with pytest.raises(SpectrumValidationError) as exc:
        validate_tree(raw)
    text = " / ".join(exc.value.problems)
    assert "root omega must be 1" in text
    assert "root carries no epsilon" in text
    assert "exactly one child" in text
    assert "at least epsilon" in text
    assert len(exc.value.problems) == 4


@pytest.mark.parametrize(
    "rows, needle",
    [
        ([("0", None, 1), ("M", "0", 1)], "missing its epsilon"),
        ([("0", None, 1), ("M", "0", 1, 3)], "epsilon must be 1 or 2"),
        ([("0", None, 1), ("M", "X", 1, 1)], "missing parent"),
        ([("0", None, 1), ("M", "0", 0, 1)], "omega must be >= 1"),
        ([("0", None, 1), ("0", "0", 1, 1)], "duplicate node ids"),
        ([("0", None, 1), ("P", "0", 2, 1), ("M", "P", 1, 1), ("N", "P", 1, 1)], "internal node 'P' carries an epsilon"),
        ([("a", "b", 1, 1), ("b", "a", 1)], "exactly one root"),
    ],
)
def test_validator_diagnostics(rows, needle):
    with pytest.raises(SpectrumValidationError) as exc:
        build_tree(rows)
    assert any(needle in p for p in exc.value.problems), exc.value.problems


def test_cycle_detected():
    raw = {
        "nodes": [
            {"id": "0", "parent": None, "omega": 1},
            {"id": "a", "parent": "b", "omega": 2},
            {"id": "b", "parent": "a", "omega": 2},
        ]
    }
    with pytest.raises(SpectrumValidationError) as exc:
        validate_tree(raw)
    assert any("unreachable" in p for p in exc.value.problems)


def test_malformed_input_diagnostics():
    with pytest.raises(SpectrumValidationError):
        validate_tree({"wrong": []})
    with pytest.raises(SpectrumValidationError) as exc:
        validate_tree({"nodes": [{"id": "0", "omega": 1}]})
    assert any("no parent entry" in p for p in exc.value.problems)
    with pytest.raises(SpectrumValidationError) as exc:
        validate_tree({"nodes": {"id": "0", "parent": None, "omega": 1}})
    assert exc.value.problems == ['"nodes" is not a list']


#: Rows with a problem each, in the order their messages come: the row-by-row checks
#: name every problem of every row before any check of the tree is made
_BAD_ROWS = [
    ([1, {"id": ""}, {"id": "M", "omega": True}], [
        "node #0 is not an object",
        "node #1 has no usable id",
        "node 'M' has no parent entry (use null for the root)",
        "node 'M' has no integer omega",
    ]),
    ([{"id": "0", "parent": 7, "omega": 1, "epsilon": 1.0, "x": 1, "a": 2}], [
        "node '0' has a non-string parent",
        "node '0' has a non-integer epsilon",
        "node '0' has unknown keys ['a', 'x']",
    ]),
    ([{"id": "0", "parent": None, "omega": 2, "epsilon": 1},
      {"id": "P", "parent": "0", "omega": 0, "epsilon": 2},
      {"id": "M", "parent": "P", "omega": 1, "epsilon": 2}], [
        "root omega must be 1, got 2",
        "the root carries no epsilon label",
        "node 'P': omega must be >= 1, got 0",
        "node 'P' has exactly one child and is not the root (not a branching point)",
        "internal node 'P' carries an epsilon label",
        "leaf 'M': omega (1) must be at least epsilon (2)",
    ]),
    ([{"id": "0", "parent": None, "omega": 1}, {"id": "M", "parent": "Y", "omega": 1},
      {"id": "N", "parent": "X", "omega": 1}], [
        "node 'M' references missing parent 'Y'", "node 'N' references missing parent 'X'",
    ]),
    ([{"id": "b", "parent": None, "omega": 1}, {"id": "a", "parent": "b", "omega": 1},
      {"id": "b", "parent": "a", "omega": 1}, {"id": "a", "parent": None, "omega": 1}], [
        "duplicate node ids: ['a', 'b']",
    ]),
]


@pytest.mark.parametrize("rows, problems", _BAD_ROWS)
def test_problems_come_in_row_order_from_dicts_and_from_other_mappings(rows, problems):
    # every row, a dict or another mapping, passes the same row checks in turn
    for raw in (rows, [MappingProxyType(r) if isinstance(r, dict) else r for r in rows]):
        with pytest.raises(SpectrumValidationError) as exc:
            validate_tree({"nodes": raw})
        assert exc.value.problems == problems


_FIELDS = ("id", "parent", "omega", "epsilon")

#: A two-branch tree, 0 over a (omega 1) and b (omega 2), both with epsilon 1.
_TWO = [("0", None, 1), ("a", "0", 1, 1), ("b", "0", 2, 1)]


def _json_problems(rows):
    """The problems ``validate_tree`` names for rows given as JSON objects."""
    with pytest.raises(SpectrumValidationError) as exc:
        validate_tree({"nodes": [dict(zip(_FIELDS, row)) for row in rows]})
    return exc.value.problems


def _with_a(omega=1, epsilon=1):
    return [_TWO[0], ("a", "0", omega, epsilon), _TWO[2]]


#: Bad labels, ids and rows, each given to a library constructor, with the same rows as
#: JSON objects: a float, bool or text label, an integer id or parent, a short row
_DEFECTS = [
    pytest.param(lambda: build_tree(_TWO).with_labels(omega={"a": float(10**17 + 1)}),
                 _with_a(omega=float(10**17 + 1)), id="big-float-omega"),
    pytest.param(lambda: build_tree(_with_a(omega=2.5)), _with_a(omega=2.5), id="fraction-omega"),
    pytest.param(lambda: build_tree(_TWO).with_labels(omega={"a": True}), _with_a(omega=True),
                 id="bool-omega"),
    pytest.param(lambda: SpectrumTree([TreeNode(*row) for row in _with_a(omega="x")]),
                 _with_a(omega="x"), id="text-omega"),
    pytest.param(lambda: build_tree(_TWO).with_labels(epsilon={"a": 1.0}), _with_a(epsilon=1.0),
                 id="float-epsilon"),
    pytest.param(lambda: build_tree(_TWO).with_labels(epsilon={"a": True}), _with_a(epsilon=True),
                 id="bool-epsilon"),
    pytest.param(lambda: build_tree([_TWO[0], (7, "0", 1, 1)]), [_TWO[0], (7, "0", 1, 1)],
                 id="integer-id"),
    pytest.param(lambda: build_tree([_TWO[0], ("a", "0")]), [_TWO[0], ("a", "0")], id="short-row"),
    pytest.param(lambda: build_tree([_TWO[0], ("a", 0, 1, 1)]), [_TWO[0], ("a", 0, 1, 1)],
                 id="integer-parent"),
]


@pytest.mark.parametrize("make, rows", _DEFECTS)
def test_every_constructor_names_the_problems_of_the_same_rows_as_json(make, rows):
    with pytest.raises(SpectrumValidationError) as exc:
        make()
    assert exc.value.problems == _json_problems(rows)


def test_each_row_is_checked_once(monkeypatch):
    # the JSON path reads its rows into nodes and checks their fields in one loop
    rows, calls, check = final_example(1, 1).to_dict()["nodes"], [], spectrum._field_problems
    monkeypatch.setattr(spectrum, "_field_problems", lambda *args: calls.append(1) or check(*args))
    validate_tree({"nodes": rows})
    assert len(calls) == len(rows)
    build_tree([(n["id"], n["parent"], n["omega"], n.get("epsilon")) for n in rows])
    assert len(calls) == 2 * len(rows)


def test_an_entry_that_is_no_tree_node_is_named():
    with pytest.raises(SpectrumValidationError) as exc:
        SpectrumTree([{"id": "0", "parent": None, "omega": 1}, TreeNode("a", "0", 1.5, 1)])
    assert exc.value.problems == ["node #0 is not a TreeNode", "node 'a' has no integer omega"]
    for rows in ([("0",)], [("0", None, 1, None, 5)], [5]):
        with pytest.raises(SpectrumValidationError) as exc:
            build_tree(rows)
        assert exc.value.problems == ["node #0 is not a TreeNode"]


def test_an_unpickled_tree_is_checked():
    # a pickle is rebuilt through the constructor, so a forged one is checked too
    with pytest.raises(SpectrumValidationError) as exc:
        pickle.loads(pickle.dumps(_ForgedTree()))
    assert exc.value.problems == ["node '0' has no integer omega"]


class _ForgedTree:
    """Pickles as a tree whose root has omega ``True``."""

    def __reduce__(self):
        return SpectrumTree, ((TreeNode("0", None, True),),)


#: JSON scalars, floats and bools, as a label or an id may hold them
_SCALARS = (
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats() | st.text(max_size=2)
)


@st.composite
def _four_field_rows(draw):
    """The rows of a valid tree, ``(id, parent, omega, epsilon)``, some fields replaced."""
    t = random_tree(random.Random(draw(st.integers(0, 2**16))))
    rows = [[n.id, n.parent, n.omega, n.epsilon] for n in t.nodes]
    ids = st.sampled_from([n.id for n in t.nodes])
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, 3))] = draw(_SCALARS | ids)
    return [tuple(row) for row in draw(st.permutations(rows))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_four_field_rows())
def test_every_entry_point_accepts_and_rejects_the_same_rows(rows):
    makers = (
        lambda: validate_tree({"nodes": [dict(zip(_FIELDS, row)) for row in rows]}),
        lambda: build_tree(rows),
        lambda: SpectrumTree([TreeNode(*row) for row in rows]),
    )
    outcomes = []
    for make in makers:
        try:
            tree = make()
        except SpectrumValidationError as exc:
            outcomes.append(exc.problems)
        else:
            outcomes.append((tree, hash(tree), tree.to_json()))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_dict_rows_and_other_mappings_read_as_the_same_tree():
    t = final_example(2, 3, 2, (2, 1), (2, 1))
    rows = t.to_dict()["nodes"]
    explicit = [dict(r, epsilon=r.get("epsilon")) for r in rows]  # null on internal nodes
    for raw in (rows, [MappingProxyType(r) for r in rows], explicit):
        read = validate_tree({"nodes": raw})
        assert read == t and hash(read) == hash(t) and read.nodes == t.nodes
        assert [read.children(n.id) for n in t.nodes] == [t.children(n.id) for n in t.nodes]


def test_a_node_may_be_named_missing():
    t = validate_tree({"nodes": [
        {"id": "0", "parent": None, "omega": 1},
        {"id": "missing", "parent": "0", "omega": 1},
        {"id": "M", "parent": "missing", "omega": 1, "epsilon": 1},
        {"id": "N", "parent": "missing", "omega": 1, "epsilon": 1},
    ]})
    assert t.children("missing") == ("M", "N") and t.leaves() == ("M", "N")


def test_standard_decomposition_shapes():
    assert len(standard_decomposition(h_local([1, 1, 1]))) == 3
    assert standard_decomposition(y_tree(1, (1, 1), (1, 1))) == ("P",)
    assert standard_decomposition(final_example(1, 1)) == ("N", "P")
    # branches partition the leaves
    t = final_example(2, 3)
    seen = []
    for c in standard_decomposition(t):
        seen.extend(branch_subtree(t, c).leaves())
    assert sorted(seen) == list(t.leaves())


def test_skeleton_lattice():
    one = skeleton(valuation(2, 1))
    assert len(one.elements()) == 2  # the domain and its quotient field
    sk = skeleton(h_local([1, 1]))
    assert sk.branch_count == 2
    assert len(sk.elements()) == 4
    poset = sk.as_poset()
    assert poset.unique_min() == sk.full_mask  # the domain
    assert poset.unique_max() == 0  # the quotient field
    assert sk.meet(0b01, 0b10) == 0b11
    assert len(skeleton(h_local([1, 1, 1])).elements()) == 8
    assert sk.label(0) == "K" and sk.label(3) == "D"


def test_skeleton_slice_is_boolean_lattice_on_remaining_branches():
    sk = skeleton(h_local([1, 1, 1]))
    poset = sk.as_poset()
    for branch in range(3):
        holding = [m for m in sk.elements() if (m >> branch) & 1]
        slice_poset = subposet(poset, holding)
        cube = product(chain(2), chain(2))
        assert are_isomorphic(slice_poset, cube)


def test_support_counts():
    assert len(enumerate_supports(1)) == 2
    assert len(enumerate_supports(2)) == 7
    assert len(enumerate_supports(3)) == brute_supports(3) == 61
    assert len(enumerate_supports(0)) == 1
    with pytest.raises(EnumerationLimitError):
        enumerate_supports(5)
    with pytest.raises(EnumerationLimitError):
        brute_supports(4)


def test_supports_are_valid_and_unique():
    supports = enumerate_supports(3)
    assert len(set(s.masks for s in supports)) == len(supports)
    for s in supports:
        Support(3, s.masks)  # re-validate
    # every union-closed family containing the empty mask appears
    families = {s.masks for s in supports}
    assert frozenset({0}) in families
    assert frozenset({0, 0b111}) in families


def test_families_are_the_brute_force_filter_in_its_order():
    for m in range(5):
        families = [support.masks for support in enumerate_supports(m)]
        assert families == _brute_support_families(m)


def test_the_generator_lists_each_family_once():
    for m in range(5):
        families = _union_closed(m)
        brute = {sum(1 << s for s in family) for family in _brute_support_families(m)}
        assert len(set(families)) == len(families) == len(brute)
        assert set(families) == brute


_FIVE_BRANCHES_SCRIPT = (
    "from semistar import EnumerationLimitError\n"
    "from semistar.spectrum import _union_closed, enumerate_supports, support_table\n"
    "print(len(_union_closed(5)))\n"
    "for build in (enumerate_supports, support_table):\n"
    "    try:\n"
    "        build(5)\n"
    "    except EnumerationLimitError as error:\n"
    "        print(error)\n"
)


def test_five_branches_generate_but_stay_over_the_default_limit():
    # a fresh process, so no memo of this session holds the 1.4 million families
    fresh = run_fresh(_FIVE_BRANCHES_SCRIPT)
    assert fresh.returncode == 0, fresh.stderr
    limit = "support enumeration limited to 4 branches, got 5"
    assert fresh.stdout.splitlines() == ["1385552", limit, limit]


def test_support_invariants_enforced():
    with pytest.raises(ValueError):
        Support(2, frozenset({0b01}))  # missing the quotient field
    with pytest.raises(ValueError):
        Support(2, frozenset({0, 0b01, 0b10}))  # not union-closed
    with pytest.raises(ValueError, match="mask 4 out of range for 2 branches"):
        Support(2, frozenset({0, 0b100}))
    with pytest.raises(ValueError, match="branch index 2 out of range"):
        Support(2, frozenset({0, 0b11})).component(2)


def test_support_components_two_branch_cases():
    # family {D, D_M, K}: component at M is a 2-chain, at N a single point
    s = Support(2, frozenset({0, 0b11, 0b01}))
    comp_m, d_m = s.component_poset(0)
    comp_n, d_n = s.component_poset(1)
    assert are_isomorphic(comp_m, chain(2)) and d_m == 0
    assert are_isomorphic(comp_n, chain(1)) and d_n == 0
    # the quotient-field-only family has empty components
    empty = Support(2, frozenset({0}))
    assert empty.component(0) == () and empty.component(1) == ()
    # the full skeleton on three branches: components are 4-element cubes
    full = Support(3, frozenset(range(8)))
    for branch in range(3):
        poset, d = full.component_poset(branch)
        assert poset.size == 4 and d == 0
        assert are_isomorphic(poset, product(chain(2), chain(2)))


def test_component_size_in_full_skeleton():
    for m in range(1, 5):
        full = Support(m, frozenset(range(1 << m)))
        for branch in range(m):
            assert len(full.component(branch)) == 2 ** (m - 1)


def test_branch_subtree():
    t = final_example(3, 2)
    at_p = branch_subtree(t, "P")
    assert at_p.leaves() == ("M1", "M2")
    assert at_p.omega("P") == 3
    at_n = branch_subtree(t, "N")
    assert at_n.leaves() == ("N",)
    assert at_n.omega("N") == 2
    with pytest.raises(UnknownNodeError):
        branch_subtree(t, "M1")
    hl = h_local([2, 3], [1, 2])
    for c in standard_decomposition(hl):
        b = branch_subtree(hl, c)
        assert len(b.nodes) == 2 and b.is_leaf(c)


def test_quotient_subtree():
    t = final_example(3, 2)
    q = quotient_subtree(t, "P")
    assert q.root_id == "P"
    assert q.omega("P") == 1  # weight resets at the new root
    assert q.leaves() == ("M1", "M2")
    assert q.omega("M1") == 1 and q.epsilon("M1") == 1
    field = quotient_subtree(t, "N")
    assert len(field.nodes) == 1
    with pytest.raises(ValueError):
        quotient_subtree(t, "0")


def test_quotient_preserves_other_labels():
    t = y_tree(2, (3, 2), (4, 1))
    q = quotient_subtree(t, "P")
    assert q.omega("M1") == 3 and q.epsilon("M1") == 2
    assert q.omega("M2") == 4 and q.epsilon("M2") == 1


def test_quotient_always_validates():
    import random

    from conftest import random_tree

    rng = random.Random(77)
    for _ in range(25):
        t = random_tree(rng)
        for n in t.nodes:
            if n.parent is not None:
                quotient_subtree(t, n.id)  # construction re-validates


def test_derive_omega():
    assert derive_omega([NONIDEMPOTENT]) == 1
    assert derive_omega([IDEMPOTENT]) == 2
    assert derive_omega([IDEMPOTENT, IDEMPOTENT, NONIDEMPOTENT]) == 5
    with pytest.raises(ValueError):
        derive_omega([])
    with pytest.raises(ValueError):
        derive_omega(["weird"])


def test_derive_omega_matches_leaf_epsilon():
    # a one-prime slice: idempotent maximal ideal <-> epsilon 2
    assert derive_omega([IDEMPOTENT]) == valuation(2, 2).epsilon("M")
    assert derive_omega([NONIDEMPOTENT]) == valuation(1, 1).epsilon("M")


def test_json_round_trip_and_dot():
    t = final_example(3, 2, eps_n=2)
    again = validate_tree(json.loads(t.to_json()))
    assert again == t
    assert validate_tree(t) == t and validate_tree(t).nodes == t.nodes
    # equality and hash ignore the node order, and every label counts
    shuffled = build_tree(reversed(t.nodes))
    assert shuffled == t and hash(shuffled) == hash(t)
    assert t.with_labels(omega={"N": 4}) != t
    dot = t.to_dot()
    assert "omega=3" in dot and "eps=2" in dot
    assert t.to_dot() == t.to_dot()


def test_a_tree_of_slotted_nodes_copies_and_pickles():
    t = final_example(3, 2, eps_n=2)
    node = t.node("N")
    assert not hasattr(node, "__dict__")  # frozen and slotted
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.omega = 4
    for make in (copy.copy, copy.deepcopy, lambda tree: pickle.loads(pickle.dumps(tree))):
        twin = make(t)
        assert type(twin) is SpectrumTree and twin == t and hash(twin) == hash(t)
        assert twin.nodes == t.nodes and twin.node("N") == node
        assert twin.to_json() == t.to_json()


def test_with_labels():
    t = valuation(2, 1)
    t2 = t.with_labels(omega={"M": 5}, epsilon={"M": 2})
    assert t2.omega("M") == 5 and t2.epsilon("M") == 2
    assert t.with_labels(epsilon={"M": 2}).epsilon("M") == 2
    with pytest.raises(UnknownNodeError):
        t.with_labels(omega={"X": 1})
    with pytest.raises(SpectrumValidationError):
        t.with_labels(omega={"M": 1}, epsilon={"M": 2})  # omega < epsilon
