"""Recursive JSL: well-formedness, unfold vs bottom-up (Prop. 9)."""

from __future__ import annotations

import random

import pytest

from repro.errors import WellFormednessError
from repro.jsl import ast
from repro.jsl.bottom_up import RecursiveJSLEvaluator, satisfies_recursive
from repro.jsl.parser import parse_jsl
from repro.jsl.recursion import (
    check_well_formed,
    is_well_formed,
    precedence_graph,
    topological_order,
    unguarded_refs,
)
from repro.model.tree import JSONTree
from repro.reference.unfold import satisfies_by_unfolding, unfold
from repro.reference.workloads import (
    TreeShape,
    even_depth_tree,
    random_jsl_formula,
    random_tree,
)

EVEN_PATHS = """
def g1 := all(.*, $g2);
def g2 := some(.*, true) and all(.*, $g1);
$g1
"""


class TestWellFormedness:
    def test_example2_is_well_formed(self):
        delta = parse_jsl(EVEN_PATHS)
        assert is_well_formed(delta)
        # Guarded cycles are allowed: the precedence graph has no edges.
        graph = precedence_graph(delta)
        assert graph == {"g1": set(), "g2": set()}

    def test_example3_negated_self_reference(self):
        bad = ast.RecursiveJSL((("g", ast.Not(ast.Ref("g"))),), ast.Ref("g"))
        with pytest.raises(WellFormednessError):
            check_well_formed(bad)

    def test_unguarded_cycle_through_two_definitions(self):
        bad = ast.RecursiveJSL(
            (("a", ast.Ref("b")), ("b", ast.And(ast.Top(), ast.Ref("a")))),
            ast.Ref("a"),
        )
        assert not is_well_formed(bad)

    def test_undefined_reference(self):
        bad = ast.RecursiveJSL((), ast.Ref("ghost"))
        with pytest.raises(WellFormednessError):
            check_well_formed(bad)

    def test_duplicate_names(self):
        bad = ast.RecursiveJSL(
            (("a", ast.Top()), ("a", ast.Top())), ast.Ref("a")
        )
        with pytest.raises(WellFormednessError):
            check_well_formed(bad)

    def test_unguarded_refs_ignores_modal_bodies(self):
        formula = parse_jsl(
            "def g := true; some(.a, $g) and not $g"
        )
        assert isinstance(formula, ast.RecursiveJSL)
        assert unguarded_refs(formula.base) == {"g"}

    def test_topological_order_respects_unguarded_deps(self):
        delta = ast.RecursiveJSL(
            (
                ("high", ast.And(ast.Ref("low"), ast.Top())),
                ("low", ast.Top()),
            ),
            ast.Ref("high"),
        )
        order = topological_order(delta)
        assert order.index("low") < order.index("high")


class TestExample2:
    @pytest.mark.parametrize("depth,expected", [(0, True), (1, False),
                                                (2, True), (3, False), (4, True)])
    def test_even_path_trees(self, depth, expected):
        delta = parse_jsl(EVEN_PATHS)
        tree = even_depth_tree(depth)
        assert satisfies_recursive(tree, delta) == expected
        assert satisfies_by_unfolding(tree, delta) == expected

    def test_mixed_depths_rejected(self):
        delta = parse_jsl(EVEN_PATHS)
        tree = JSONTree.from_value({"a": {"b": {}}, "c": {}})
        # One path has length 2, another length 1.
        assert not satisfies_recursive(tree, delta)


class TestUnfold:
    def test_unfold_replaces_deep_refs_with_bottom(self):
        delta = parse_jsl(EVEN_PATHS)
        formula = unfold(delta, height=0)
        assert ast.refs_in(formula) == set()

    def test_unfold_grows_with_height(self):
        delta = parse_jsl(EVEN_PATHS)
        small = ast.formula_size(unfold(delta, 1))
        large = ast.formula_size(unfold(delta, 7))
        assert large > small

    def test_unfold_checks_well_formedness(self):
        bad = ast.RecursiveJSL((("g", ast.Ref("g")),), ast.Ref("g"))
        with pytest.raises(WellFormednessError):
            unfold(bad, 3)


class TestBottomUpAgainstUnfold:
    """Differential test of Proposition 9's algorithm vs the paper's
    rewriting semantics."""

    @pytest.mark.parametrize("seed", range(15))
    def test_random_recursive_expressions(self, seed):
        rng = random.Random(seed)
        body1 = random_jsl_formula(rng, 2)
        body2 = random_jsl_formula(rng, 2)
        # Guard the cyclic references to keep the expression well-formed.
        from repro.automata.keylang import KeyLang

        delta = ast.RecursiveJSL(
            (
                ("g1", ast.Or(body1, ast.DiaKey(KeyLang.any(), ast.Ref("g2")))),
                ("g2", ast.And(body2, ast.BoxIdx(0, None, ast.Ref("g1")))),
            ),
            ast.Ref("g1"),
        )
        check_well_formed(delta)
        tree = random_tree(seed + 99, TreeShape(max_depth=3, max_children=3))
        assert satisfies_recursive(tree, delta) == satisfies_by_unfolding(
            tree, delta
        )

    def test_ref_nodes_exposed(self):
        delta = parse_jsl(EVEN_PATHS)
        tree = even_depth_tree(2)
        evaluator = RecursiveJSLEvaluator(tree, delta)
        # Leaves have even (zero) remaining depth: g1 holds there.
        leaves = [n for n in tree.nodes() if tree.num_children(n) == 0]
        g1_nodes = evaluator.ref_nodes("g1")
        assert all(leaf in g1_nodes for leaf in leaves)

    def test_deep_tree_no_recursion_error(self):
        from repro.reference.workloads import deep_chain

        delta = parse_jsl(EVEN_PATHS)
        tree = deep_chain(4000, leaf={})
        assert satisfies_recursive(tree, delta) == (4000 % 2 == 0)
