"""Theorem 1 (and 3): Schema <-> JSL, differentially tested."""

from __future__ import annotations

import random

import pytest

from repro.jsl import RecursiveJSL
from repro.jsl.bottom_up import satisfies_recursive
from repro.jsl.parser import parse_jsl, parse_jsl_formula
from repro.model.tree import JSONTree
from repro.reference.from_jsl import jsl_to_schema
from repro.reference.jsl_evaluator import satisfies
from repro.reference.schema_validator import SchemaValidator
from repro.reference.workloads import (
    TreeShape,
    random_schema_value,
    random_tree,
    random_jsl_formula,
)
from repro.schema import parse_schema, schema_to_jsl


def _agree_on(schema, formula, tree) -> None:
    validator = SchemaValidator(schema)
    direct = validator.validate(tree)
    if isinstance(formula, RecursiveJSL):
        via_jsl = satisfies_recursive(tree, formula)
    else:
        via_jsl = satisfies(tree, formula)
    assert direct == via_jsl, (
        f"validator={direct} jsl={via_jsl} doc={tree.to_json()} "
        f"schema={schema.to_value()}"
    )


class TestForwardTranslation:
    """schema -> JSL preserves the validation relation."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_schemas_random_docs(self, seed):
        rng = random.Random(seed)
        schema = parse_schema(random_schema_value(rng, depth=2))
        formula = schema_to_jsl(schema)
        for doc_seed in range(5):
            tree = random_tree(
                seed * 31 + doc_seed, TreeShape(max_depth=3, max_children=3)
            )
            _agree_on(schema, formula, tree)

    def test_paper_examples(self):
        schema = parse_schema(
            {
                "type": "array",
                "items": [{"type": "string"}, {"type": "string"}],
                "additionalItems": {"type": "number"},
                "uniqueItems": True,
            }
        )
        formula = schema_to_jsl(schema)
        for value in (["a", "b"], ["a", "b", 3], ["a"], ["a", "b", "c"],
                      ["a", "b", 1, 1], [], "x"):
            _agree_on(schema, formula, JSONTree.from_value(value))

    def test_recursive_schema_becomes_recursive_jsl(self):
        schema = parse_schema(
            {
                "definitions": {
                    "email": {"type": "string", "pattern": "[a-z]+@x\\.y"}
                },
                "not": {"$ref": "#/definitions/email"},
            }
        )
        formula = schema_to_jsl(schema)
        assert isinstance(formula, RecursiveJSL)
        for value in ("a@x.y", "nope", 3, {"k": 1}):
            _agree_on(schema, formula, JSONTree.from_value(value))


class TestReverseTranslation:
    """JSL -> schema preserves satisfaction."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_formulas_random_docs(self, seed):
        rng = random.Random(seed + 5000)
        formula = random_jsl_formula(rng, depth=2)
        schema = jsl_to_schema(formula)
        validator = SchemaValidator(schema)
        for doc_seed in range(5):
            tree = random_tree(
                seed * 37 + doc_seed, TreeShape(max_depth=3, max_children=3)
            )
            assert validator.validate(tree) == satisfies(tree, formula)

    @pytest.mark.parametrize(
        "text",
        [
            "minch(2)",
            "maxch(2)",
            "unique",
            "some(.a, number and min(3))",
            "all(./x.*/, string)",
            "all([1:3], number)",
            "some([2:], string)",
            "not some(.a, true) and object",
            'pattern("ab*") or value({"k": 1})',
            "multipleof(3) and max(10)",
        ],
    )
    def test_each_construct(self, text):
        formula = parse_jsl_formula(text)
        schema = jsl_to_schema(formula)
        validator = SchemaValidator(schema)
        samples = [
            {}, {"a": 1}, {"a": 4, "b": 2}, {"xy": "s"}, {"xy": 3},
            [], [1], [1, 2, 3], [1, 1], ["a", 2, 3, "b"],
            "ab", "abb", "z", 0, 3, 9, 12, {"k": 1},
        ]
        for value in samples:
            tree = JSONTree.from_value(value)
            assert validator.validate(tree) == satisfies(tree, formula), value

    def test_recursive_round_trip(self):
        delta = parse_jsl(
            "def g1 := all(.*, $g2);"
            "def g2 := some(.*, true) and all(.*, $g1);"
            "$g1"
        )
        schema = jsl_to_schema(delta)
        validator = SchemaValidator(schema)
        from repro.reference.workloads import even_depth_tree

        for depth in range(4):
            tree = even_depth_tree(depth)
            assert validator.validate(tree) == (depth % 2 == 0)


class TestDoubleRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_schema_jsl_schema(self, seed):
        rng = random.Random(seed + 777)
        schema = parse_schema(random_schema_value(rng, depth=2))
        formula = schema_to_jsl(schema)
        back = jsl_to_schema(formula) if not isinstance(
            formula, RecursiveJSL
        ) else jsl_to_schema(formula)
        original = SchemaValidator(schema)
        round_tripped = SchemaValidator(back)
        for doc_seed in range(4):
            tree = random_tree(
                seed * 41 + doc_seed, TreeShape(max_depth=3, max_children=3)
            )
            assert original.validate(tree) == round_tripped.validate(tree)
