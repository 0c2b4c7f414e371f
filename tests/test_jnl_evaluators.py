"""JNL evaluation: reference semantics vs the Proposition 1/3 engine."""

from __future__ import annotations

import random

import pytest

from repro.jnl import ast
from repro.jnl import builder as q
from repro.jnl.efficient import JNLEvaluator, evaluate_unary, target_nodes
from repro.jnl.parser import parse_jnl, parse_jnl_path
from repro.model.tree import JSONTree
from repro.reference.jnl_evaluator import eval_binary, eval_unary
from repro.reference.workloads import TreeShape, random_jnl_unary, random_tree


class TestBinarySemantics:
    def test_eps_is_identity(self, figure1_doc):
        pairs = eval_binary(figure1_doc, ast.Eps())
        assert pairs == {(n, n) for n in figure1_doc.nodes()}

    def test_key_axis(self, figure1_doc):
        pairs = eval_binary(figure1_doc, ast.Key("name"))
        assert pairs == {
            (figure1_doc.root, figure1_doc.object_child(figure1_doc.root, "name"))
        }

    def test_index_axis_only_on_arrays(self, figure1_doc):
        pairs = eval_binary(figure1_doc, ast.Index(0))
        hobbies = figure1_doc.object_child(figure1_doc.root, "hobbies")
        assert pairs == {(hobbies, figure1_doc.array_child(hobbies, 0))}

    def test_negative_index(self, figure1_doc):
        hobbies = figure1_doc.object_child(figure1_doc.root, "hobbies")
        pairs = eval_binary(figure1_doc, ast.Index(-1))
        assert (hobbies, figure1_doc.array_child(hobbies, 1)) in pairs

    def test_star_reflexive_transitive(self, figure1_doc):
        pairs = eval_binary(figure1_doc, ast.Star(ast.Key("name")))
        root = figure1_doc.root
        name = figure1_doc.object_child(root, "name")
        assert (root, root) in pairs
        assert (root, name) in pairs

    def test_union(self, figure1_doc):
        pairs = eval_binary(
            figure1_doc, ast.Union(ast.Key("name"), ast.Key("age"))
        )
        assert len(pairs) == 2


class TestUnarySemantics:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("has(.name.first)", True),
            ("has(.name.middle)", False),
            ("matches(.age, 32)", True),
            ("matches(.age, 33)", False),
            ('matches(.name, {"last": "Doe", "first": "John"})', True),
            ("eq(.name, .name)", True),
            ("eq(.name.first, .name.last)", False),
            ("has(.hobbies[-1])", True),
            ('has((.*|[*])*<matches(eps, "yoga")>)', True),
            ("not has(.x)", True),
            ("test(object)", True),
            ("has(.age<test(min(31))>)", True),
            ("has(.age<test(min(32))>)", False),
        ],
    )
    def test_at_root(self, figure1_doc, text, expected):
        formula = parse_jnl(text)
        assert (figure1_doc.root in eval_unary(figure1_doc, formula)) == expected
        assert (
            figure1_doc.root in evaluate_unary(figure1_doc, formula)
        ) == expected

    def test_subtree_equality_not_atomic(self):
        # EQ compares whole subtrees, the Section 3.2 point.
        doc = JSONTree.from_value({"a": {"x": [1, 2]}, "b": {"x": [1, 2]}})
        assert doc.root in evaluate_unary(doc, parse_jnl("eq(.a, .b)"))
        doc2 = JSONTree.from_value({"a": {"x": [1, 2]}, "b": {"x": [2, 1]}})
        assert doc2.root not in evaluate_unary(doc2, parse_jnl("eq(.a, .b)"))

    def test_eqpath_nondeterministic(self):
        doc = JSONTree.from_value({"a": [1, 2, 3], "b": 3})
        formula = parse_jnl("eq(.a[*], .b)")
        assert doc.root in evaluate_unary(doc, formula)
        assert doc.root in eval_unary(doc, formula)
        doc2 = JSONTree.from_value({"a": [1, 2], "b": 3})
        assert doc2.root not in evaluate_unary(doc2, formula)

    def test_paper_unsat_pattern_evaluates_false(self):
        # X_a<[X_0]> ^ X_a<[X_b]> cannot hold: value can't be array+object.
        formula = parse_jnl("has(.a<has([0])>) and has(.a<has(.b)>)")
        for value in ({"a": [1]}, {"a": {"b": 1}}, {"a": 5}):
            doc = JSONTree.from_value(value)
            assert doc.root not in evaluate_unary(doc, formula)


class TestTargets:
    def test_forward_targets(self, figure1_doc):
        path = parse_jnl_path(".hobbies[*]")
        targets = target_nodes(figure1_doc, path)
        values = sorted(figure1_doc.value(node) for node in targets)
        assert values == ["fishing", "yoga"]

    def test_star_targets_include_start(self, figure1_doc):
        path = parse_jnl_path("(.*)*")
        targets = target_nodes(figure1_doc, path)
        assert figure1_doc.root in targets


class TestEvaluatorAgreement:
    """Differential: the efficient engine equals the reference semantics."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_formulas_random_trees(self, seed):
        rng = random.Random(seed)
        tree = random_tree(seed, TreeShape(max_depth=4, max_children=4))
        formula = random_jnl_unary(rng, depth=3)
        reference = eval_unary(tree, formula)
        efficient = evaluate_unary(tree, formula)
        assert reference == set(efficient)

    @pytest.mark.parametrize("seed", range(20))
    def test_deterministic_fragment(self, seed):
        rng = random.Random(seed * 101 + 7)
        tree = random_tree(seed + 1000, TreeShape(max_depth=4, max_children=4))
        formula = random_jnl_unary(rng, depth=3, deterministic=True)
        assert eval_unary(tree, formula) == set(evaluate_unary(tree, formula))

    def test_memoisation_shares_subformulas(self, figure1_doc):
        evaluator = JNLEvaluator(figure1_doc)
        formula = parse_jnl("has(.name) and (has(.name) or has(.age))")
        evaluator.nodes_satisfying(formula)
        assert parse_jnl("has(.name)") in evaluator._node_sets


class TestDeepEvaluation:
    def test_star_on_deep_chain(self):
        from repro.reference.workloads import deep_chain

        depth = 5000
        tree = deep_chain(depth)
        formula = q.has(q.compose(q.star(q.key("a")), q.test(
            q.eq_doc(q.eps(), "0"))))
        satisfied = evaluate_unary(tree, formula)
        assert tree.root in satisfied
        assert len(satisfied) == depth + 1
