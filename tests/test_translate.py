"""Theorem 2: JNL <-> JSL translations (both directions)."""

from __future__ import annotations

import random

import pytest

from repro.errors import UnsupportedFragmentError
from repro.jnl import ast as jnl
from repro.jnl.efficient import evaluate_unary
from repro.jnl.parser import parse_jnl
from repro.jsl import RecursiveJSL, ast as jsl_ast
from repro.jsl.bottom_up import RecursiveJSLEvaluator
from repro.jsl.parser import parse_jsl_formula
from repro.jsl.recursion import check_well_formed
from repro.reference.jsl_evaluator import nodes_satisfying
from repro.reference.jsl_to_jnl import jsl_to_jnl
from repro.reference.workloads import (
    TreeShape,
    random_jnl_unary,
    random_jsl_formula,
    random_tree,
)
from repro.translate import jnl_to_jsl


class TestJSLToJNL:
    @pytest.mark.parametrize("seed", range(30))
    def test_node_sets_agree(self, seed):
        rng = random.Random(seed)
        formula = random_jsl_formula(rng, depth=3)
        translated = jsl_to_jnl(formula)
        tree = random_tree(seed + 17, TreeShape(max_depth=4, max_children=4))
        assert set(nodes_satisfying(tree, formula)) == set(
            evaluate_unary(tree, translated)
        )

    def test_eqdoc_test_becomes_eq_eps(self):
        formula = parse_jsl_formula("value(32)")
        translated = jsl_to_jnl(formula)
        assert isinstance(translated, jnl.EqDoc)
        assert isinstance(translated.path, jnl.Eps)

    def test_strict_mode_rejects_other_node_tests(self):
        with pytest.raises(UnsupportedFragmentError):
            jsl_to_jnl(parse_jsl_formula("unique"), strict=True)

    def test_strict_mode_allows_eqdoc(self):
        jsl_to_jnl(parse_jsl_formula("value(1) and some(.a, true)"), strict=True)

    def test_refs_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            jsl_to_jnl(jsl_ast.Ref("g"))

    def test_polynomial_size(self):
        # JSL -> JNL is linear-ish: each operator maps to O(1) operators.
        rng = random.Random(4)
        formula = random_jsl_formula(rng, depth=5)
        translated = jsl_to_jnl(formula)
        assert jnl.formula_size(translated) <= 6 * jsl_ast.formula_size(formula)


class TestJNLToJSL:
    @pytest.mark.parametrize("seed", range(30))
    def test_star_free_node_sets_agree(self, seed):
        rng = random.Random(seed + 300)
        formula = random_jnl_unary(rng, depth=3, allow_star=False,
                                   allow_eqpath=False)
        translated = jnl_to_jsl(formula)
        assert not isinstance(translated, RecursiveJSL)
        tree = random_tree(seed + 23, TreeShape(max_depth=4, max_children=4))
        assert set(evaluate_unary(tree, formula)) == set(
            nodes_satisfying(tree, translated)
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_recursive_node_sets_agree(self, seed):
        rng = random.Random(seed + 900)
        formula = random_jnl_unary(rng, depth=3, allow_star=True,
                                   allow_eqpath=False)
        translated = jnl_to_jsl(formula)
        tree = random_tree(seed + 51, TreeShape(max_depth=4, max_children=4))
        jnl_nodes = set(evaluate_unary(tree, formula))
        if isinstance(translated, RecursiveJSL):
            check_well_formed(translated)
            jsl_nodes = set(
                RecursiveJSLEvaluator(tree, translated).nodes_satisfying_base()
            )
        else:
            jsl_nodes = set(nodes_satisfying(tree, translated))
        assert jnl_nodes == jsl_nodes

    def test_star_produces_guarded_definitions(self):
        formula = parse_jnl("has((.*|[*])* <matches(eps, \"x\")>)")
        translated = jnl_to_jsl(formula)
        assert isinstance(translated, RecursiveJSL)
        check_well_formed(translated)

    def test_nested_stars(self):
        formula = parse_jnl("has(((.a)*(.b)*)* .c)")
        translated = jnl_to_jsl(formula)
        assert isinstance(translated, RecursiveJSL)
        check_well_formed(translated)
        from repro.model.tree import JSONTree

        doc = JSONTree.from_value({"a": {"b": {"a": {"c": 1}}}})
        jnl_nodes = set(evaluate_unary(doc, formula))
        jsl_nodes = set(
            RecursiveJSLEvaluator(doc, translated).nodes_satisfying_base()
        )
        assert jnl_nodes == jsl_nodes

    def test_eqpath_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            jnl_to_jsl(parse_jnl("eq(.a, .b)"))

    def test_negative_index_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            jnl_to_jsl(parse_jnl("has(.a[-1])"))

    def test_exponential_blowup_exists(self):
        # Chains of unions duplicate the continuation at every step:
        # T((a u b) o rest, k) = T(a, T(rest,k)) v T(b, T(rest,k)).
        # This is the Theorem 2 worst case (the paper's xA1 v A2y o ...
        # example); output size must grow exponentially in n.
        def chained(n: int) -> jnl.Unary:
            step = jnl.Union(jnl.Key("a"), jnl.Key("b"))
            path: jnl.Binary = step
            for _ in range(n - 1):
                path = jnl.Compose(step, path)
            return jnl.Exists(path)

        sizes = []
        for n in (2, 4, 6, 8):
            translated = jnl_to_jsl(chained(n))
            assert not isinstance(translated, RecursiveJSL)
            sizes.append(jsl_ast.formula_size(translated))
        # Doubling n should roughly square the ratio: check 4x growth.
        assert sizes[1] >= 3 * sizes[0]
        assert sizes[2] >= 3 * sizes[1]
        assert sizes[3] >= 3 * sizes[2]


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(15))
    def test_jsl_jnl_jsl(self, seed):
        rng = random.Random(seed + 50)
        formula = random_jsl_formula(rng, depth=2)
        there = jsl_to_jnl(formula)
        back = jnl_to_jsl(there)
        tree = random_tree(seed + 3, TreeShape(max_depth=3, max_children=3))
        original = set(nodes_satisfying(tree, formula))
        if isinstance(back, RecursiveJSL):
            returned = set(
                RecursiveJSLEvaluator(tree, back).nodes_satisfying_base()
            )
        else:
            returned = set(nodes_satisfying(tree, back))
        assert original == returned
