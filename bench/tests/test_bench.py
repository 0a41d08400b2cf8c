"""Tests of the benchmark itself: seeding, references and checks.

    python3 -m unittest discover -s bench/tests
"""

import json
import os
import sys
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import check  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _poly(**terms):
    """``_poly(M1_M2=..., ...)``: keys name variables, ``x2`` marks a square."""
    out = {}
    for name, coeff in terms.items():
        key = []
        for part in name.split("_") if name != "one" else []:
            var, _, power = part.partition("x")
            key.append((var, int(power or 1)))
        out[tuple(sorted(key))] = Fraction(coeff)
    return out


class Seeding(unittest.TestCase):
    def test_same_seed_same_invocations(self):
        for name in wl.WORKLOADS:
            a, b = wl.make_workload(name, 7), wl.make_workload(name, 7)
            self.assertEqual(a.invocations, b.invocations)
            self.assertEqual(a.trees, b.trees)

    def test_other_seed_same_make_up(self):
        for name in wl.WORKLOADS:
            a, b = wl.make_workload(name, 1), wl.make_workload(name, 2)
            self.assertEqual(sorted(i.key for i in a.invocations),
                             sorted(i.key for i in b.invocations))
        counts = [wl.make_workload("counts", seed).trees[wl.FAULT_TREE] for seed in (1, 2)]
        self.assertEqual(counts[0], counts[1])


class References(unittest.TestCase):
    def test_criterion_1_two_leaf_semistar_polynomial(self):
        nodes = wl.flat([1, 1], [1, 1])
        poly = ref.lagrange(lambda pt: ref.semistar_smstar(ref.relabel(nodes, pt))[0],
                            {"M1": [1, 2, 3], "M2": [1, 2, 3]})
        expected = _poly(one=1, M1=1, M2=1, M1_M2=Fraction(9, 4), M1x2_M2=Fraction(3, 4),
                         M1_M2x2=Fraction(3, 4), M1x2_M2x2=Fraction(1, 4))
        self.assertEqual(poly, expected)

    def test_criterion_2_two_leaf_smstar_polynomial(self):
        nodes = wl.flat([2, 2], [1, 1])

        def smstar(pt):
            omega = {v: pt[v] for v in ("M1", "M2")}
            epsilon = {v: pt[f"eps_{v}"] for v in ("M1", "M2")}
            return ref.semistar_smstar(ref.relabel(nodes, omega, epsilon))[1]

        poly = ref.lagrange(smstar, {"M1": [2, 3], "M2": [2, 3],
                                     "eps_M1": [1, 2], "eps_M2": [1, 2]})
        expected = {(): 1, (("M1", 1), ("eps_M1", 1)): 1, (("M2", 1), ("eps_M2", 1)): 1,
                    (("M1", 1), ("M2", 1), ("eps_M1", 1), ("eps_M2", 1)): 1}
        self.assertEqual(poly, expected)

    def test_criterion_4_readme_polynomial_and_branch_size(self):
        poly = ref.lagrange(lambda pt: ref.semistar_smstar(wl.readme(pt["P"], pt["N"]))[0],
                            {"P": [2, 3, 4], "N": [2, 3, 4]})
        expected = _poly(Px2_Nx2=Fraction(1, 4), Px2_N=Fraction(3, 4), P_Nx2=Fraction(15, 4),
                         Nx2=Fraction(21, 2), P_N=Fraction(45, 4), P=1, N=Fraction(65, 2),
                         one=7)
        self.assertEqual(poly, expected)
        for a in (1, 5, 40):
            self.assertEqual(ref.branch_counts(wl.readme(a, 1), "P")[0], a + 6)

    def test_large_labels(self):
        self.assertEqual(ref.flat_counts([100, 3], [2, 1]), (46454, 804))
        self.assertEqual(ref.semistar_smstar(wl.readme(1, 200))[0], 588908)

    def test_interpolation_agrees_with_flat_reference(self):
        # a flat pair with one weight past the oracle, answered both ways
        nodes = wl.flat([37, 3], [2, 1])
        grids = {"M1": [2, 3, 4]}
        for which in (0, 1):
            poly = ref.lagrange(
                lambda pt: ref.semistar_smstar(ref.relabel(nodes, pt))[which], grids)
            self.assertEqual(ref.evaluate_poly(poly, {"M1": 37}),
                             ref.flat_counts([37, 3], [2, 1])[which])

    def test_flat_reference_agrees_with_oracle(self):
        from semistar import oracle
        from semistar.spectrum import validate_tree

        for omegas, epsilons in (([1], [1]), ([3, 2], [2, 1]), ([2, 1, 3], [1, 1, 2]),
                                 ([4, 4, 1], [2, 1, 1])):
            tree = validate_tree({"nodes": wl.flat(omegas, epsilons)})
            self.assertEqual(ref.flat_counts(omegas, epsilons),
                             oracle.brute_semistar_count(tree))

    def test_kept_fault_answer(self):
        self.assertEqual(ref.report(wl.fault_tree()),
                         {"semistar": 58612, "fstar": 58611, "smstar": 15606, "star": 15606})


class _Fake:
    def __init__(self, invocations):
        self.invocations = invocations


class Checks(unittest.TestCase):
    def setUp(self):
        self.count = wl.Invocation("t", ("count", "{tree}", "--format", "json"))
        self.fault = wl.Invocation(wl.FAULT_TREE, ("count", "{tree}", "--format", "json"))
        nodes = wl.flat([2, 3], [1, 2])
        self.expects = {
            self.count.key: check.expectation(self.count, nodes),
            self.fault.key: check.expectation(self.fault, wl.fault_tree()),
        }
        self.report = json.dumps(ref.report(nodes))

    def test_corrupted_answer_is_failed(self):
        tally = run.Tally(_Fake((self.count,)), self.expects)
        tally.add_pass([(0, self.report, "")])
        self.assertEqual((tally.attempted, tally.failed, tally.correct), (1, 0, True))
        corrupted = json.loads(self.report)
        corrupted["smstar"] += 1
        tally.add_pass([(0, json.dumps(corrupted), "")])
        self.assertEqual((tally.attempted, tally.failed, tally.correct), (2, 1, False))

    def test_kept_fault_fails_but_stays_correct(self):
        tally = run.Tally(_Fake((self.fault, self.count)), self.expects)
        tally.add_pass([(2, "", "bound exceeded: limit is 2000"), (0, self.report, "")])
        self.assertEqual((tally.attempted, tally.failed, tally.correct), (2, 1, True))
        tally.add_pass([(0, self.report, ""), (0, self.report, "")])
        self.assertFalse(tally.correct)

    def test_other_failure_is_not_correct(self):
        tally = run.Tally(_Fake((self.count,)), self.expects)
        tally.add_pass([(3, "", "error")])
        self.assertEqual((tally.failed, tally.correct), (1, False))

    def test_hasse_checks_size_flags_and_bounds(self):
        expect = {"kind": "hasse", "format": "dot", "size": 3, "flagged": 2}
        dot = "\n".join([
            "digraph hasse {", "  rankdir=BT;", "  node [shape=ellipse];",
            '  n0 [label="a", peripheries=2];', '  n1 [label="b", peripheries=2];',
            '  n2 [label="c"];', "  n0 -> n1;", "  n1 -> n2;", "}",
        ])
        self.assertEqual(check.check(expect, 0, dot), check.OK)
        self.assertEqual(check.check(expect, 0, dot.replace("  n1 -> n2;\n", "")), check.WRONG)
        cyclic = dot.replace("  n1 -> n2;", "  n1 -> n2;\n  n2 -> n0;")
        self.assertEqual(check.check(expect, 0, cyclic), check.WRONG)
        as_json = json.dumps({"size": 3, "covers": [[0, 1], [1, 2]], "ring_closing": [0]})
        self.assertEqual(check.check(dict(expect, format="json"), 0, as_json), check.WRONG)

    def test_poly_check_needs_exact_and_symmetric_answer(self):
        inv = wl.Invocation("flat2", ("poly", "{tree}", "--semistar", "--var", "M1",
                                      "--var", "M2", "--format", "json"))
        expect = check.expectation(inv, wl.flat([1, 1], [1, 1]))
        self.assertEqual(expect["swaps"], [["M1", "M2"]])
        terms = [{"exps": [0, 0], "num": 1, "den": 1}, {"exps": [1, 0], "num": 1, "den": 1},
                 {"exps": [0, 1], "num": 1, "den": 1}, {"exps": [1, 1], "num": 9, "den": 4},
                 {"exps": [2, 1], "num": 3, "den": 4}, {"exps": [1, 2], "num": 3, "den": 4},
                 {"exps": [2, 2], "num": 1, "den": 4}]
        good = json.dumps({"vars": ["M1", "M2"], "terms": terms})
        self.assertEqual(check.check(expect, 0, good), check.OK)
        terms[1]["num"] = 2
        bad = json.dumps({"vars": ["M1", "M2"], "terms": terms})
        self.assertEqual(check.check(expect, 0, bad), check.WRONG)


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
