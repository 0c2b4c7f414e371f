"""JSL evaluation (Proposition 6) and node-test semantics."""

from __future__ import annotations

import pytest

from repro.errors import TranslationError
from repro.jsl import ast
from repro.jsl.parser import parse_jsl_formula
from repro.logic import nodetests as nt
from repro.model.tree import JSONTree
from repro.reference.jsl_evaluator import JSLEvaluator, nodes_satisfying, satisfies


class TestNodeTests:
    @pytest.mark.parametrize(
        "value,text,expected",
        [
            ({}, "object", True),
            ([], "array", True),
            ("x", "string", True),
            (3, "number", True),
            (3, "string", False),
            (8, "min(7)", True),
            (7, "min(7)", False),        # Min is strict
            (6, "max(7)", True),
            (7, "max(7)", False),        # Max is strict
            (8, "multipleof(4)", True),
            (9, "multipleof(4)", False),
            (0, "multipleof(0)", True),
            (3, "multipleof(0)", False),
            ("ab", 'pattern("a.")', True),
            ("abc", 'pattern("a.")', False),
            (5, 'pattern("5")', False),  # Pattern only holds on strings
            ({"a": 1, "b": 2}, "minch(2)", True),
            ({"a": 1}, "minch(2)", False),
            ([1, 2, 3], "maxch(2)", False),
            ("leaf", "maxch(0)", True),
            ("leaf", "minch(1)", False),
            ([1, 2], "unique", True),
            ([1, 1], "unique", False),
            ({"a": 1}, "unique", False),  # Unique requires an array
            ([1, "1"], "unique", True),
            (32, "value(32)", True),
            ({"k": [1]}, 'value({"k": [1]})', True),
            ({"k": [1]}, 'value({"k": [2]})', False),
        ],
    )
    def test_atomic(self, value, text, expected):
        tree = JSONTree.from_value(value)
        assert satisfies(tree, parse_jsl_formula(text)) == expected


class TestModalities:
    def test_dia_key_word(self, figure1_doc):
        assert satisfies(figure1_doc, parse_jsl_formula("some(.age, number)"))
        assert not satisfies(
            figure1_doc, parse_jsl_formula("some(.age, string)")
        )

    def test_dia_key_regex(self, figure1_doc):
        assert satisfies(
            figure1_doc, parse_jsl_formula("some(./h.*/, array)")
        )

    def test_box_key_vacuous_on_leaves(self):
        tree = JSONTree.from_value(5)
        assert satisfies(tree, parse_jsl_formula("all(.*, false)"))

    def test_box_key_vacuous_on_arrays(self):
        tree = JSONTree.from_value([1, 2])
        # Key boxes quantify over object edges only.
        assert satisfies(tree, parse_jsl_formula("all(.*, false)"))

    def test_dia_idx_window(self):
        tree = JSONTree.from_value(["a", "b", 3])
        assert satisfies(tree, parse_jsl_formula("some([2:5], number)"))
        assert not satisfies(tree, parse_jsl_formula("some([0:1], number)"))

    def test_box_idx_unbounded(self):
        tree = JSONTree.from_value(["a", "b"])
        assert satisfies(tree, parse_jsl_formula("all([0:], string)"))
        assert not satisfies(
            JSONTree.from_value(["a", 1]), parse_jsl_formula("all([0:], string)")
        )

    def test_box_idx_finite_window(self):
        tree = JSONTree.from_value([1, "x", "y", 2])
        assert satisfies(tree, parse_jsl_formula("all([1:2], string)"))
        assert not satisfies(tree, parse_jsl_formula("all([1:3], string)"))

    def test_nodes_satisfying_returns_all(self, figure1_doc):
        numbers = nodes_satisfying(figure1_doc, ast.TestAtom(nt.IsNumber()))
        assert len(numbers) == 1

    def test_refs_rejected_in_plain_evaluator(self):
        tree = JSONTree.from_value({})
        with pytest.raises(TranslationError):
            JSLEvaluator(tree).satisfies(ast.Ref("gamma"))


class TestDeterministicFragment:
    def test_word_modalities_are_deterministic(self):
        assert ast.is_deterministic(parse_jsl_formula("some(.a, all(.b, true))"))
        assert ast.is_deterministic(parse_jsl_formula("some([2:2], true)"))
        assert not ast.is_deterministic(parse_jsl_formula("some(./a.*/, true)"))
        assert not ast.is_deterministic(parse_jsl_formula("some([0:2], true)"))
        assert not ast.is_deterministic(parse_jsl_formula("some(.*, true)"))

    def test_modal_depth(self):
        assert ast.modal_depth(parse_jsl_formula("some(.a, some(.b, true))")) == 2
        assert ast.modal_depth(parse_jsl_formula("number")) == 0

    def test_uses_unique(self):
        assert ast.uses_unique(parse_jsl_formula("some(.a, unique)"))
        assert not ast.uses_unique(parse_jsl_formula("some(.a, number)"))


class TestExactUniqueFlag:
    def test_both_modes_agree(self):
        from repro.reference.workloads import duplicate_heavy_array

        tree = duplicate_heavy_array(40, 7, seed=3)
        formula = parse_jsl_formula("unique")
        assert satisfies(tree, formula, exact_unique=True) == satisfies(
            tree, formula, exact_unique=False
        )
