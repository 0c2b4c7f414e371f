"""T1/T3 -- Theorems 1 and 3: JSON Schema <-> JSL.

Reproduction targets: the direct validator and the translation pipeline
(schema -> JSL -> evaluate) agree on every random schema/document pair,
in both directions, including recursive schemas ($ref / definitions);
translation costs stay proportional to input size.
"""

from __future__ import annotations

import random

import pytest

from repro.jsl import RecursiveJSL
from repro.jsl.bottom_up import satisfies_recursive
from repro.model.tree import JSONTree
from repro.reference.from_jsl import jsl_to_schema
from repro.reference.harness import format_table, measure
from repro.reference.jsl_evaluator import satisfies
from repro.reference.schema_validator import SchemaValidator
from repro.reference.workloads import TreeShape, random_schema_value, random_tree
from repro.schema import parse_schema, schema_to_jsl

RECURSIVE_SCHEMA = parse_schema(
    {
        "definitions": {
            "tree": {
                "anyOf": [
                    {"type": "number"},
                    {
                        "type": "object",
                        "required": ["left", "right"],
                        "properties": {
                            "left": {"$ref": "#/definitions/tree"},
                            "right": {"$ref": "#/definitions/tree"},
                        },
                    },
                ]
            }
        },
        "$ref": "#/definitions/tree",
    }
)


def _nested_tree_doc(depth: int):
    value: object = 0
    for _ in range(depth):
        value = {"left": value, "right": value}
    return JSONTree.from_value(value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validator_vs_translation(benchmark, seed):
    rng = random.Random(seed)
    schema = parse_schema(random_schema_value(rng, depth=3))
    validator = SchemaValidator(schema)
    formula = schema_to_jsl(schema)
    trees = [
        random_tree(seed * 10 + i, TreeShape(max_depth=3, max_children=4))
        for i in range(20)
    ]

    def agree():
        return [
            validator.validate(tree) == satisfies(tree, formula)
            for tree in trees
        ]

    assert all(benchmark(agree))


@pytest.mark.parametrize("depth", [4, 8, 12])
def test_recursive_schema_validation(benchmark, depth):
    validator = SchemaValidator(RECURSIVE_SCHEMA)
    doc = _nested_tree_doc(depth)
    assert benchmark(lambda: validator.validate(doc))


def main() -> str:
    rows = []
    agreements = total = 0
    translate_time = 0.0
    for seed in range(30):
        rng = random.Random(seed)
        schema = parse_schema(random_schema_value(rng, depth=2))
        translate_time += measure(lambda s=schema: schema_to_jsl(s), repeat=1)
        validator = SchemaValidator(schema)
        formula = schema_to_jsl(schema)
        back = SchemaValidator(jsl_to_schema(formula))
        for doc_seed in range(6):
            tree = random_tree(
                seed * 101 + doc_seed, TreeShape(max_depth=3, max_children=3)
            )
            total += 1
            direct = validator.validate(tree)
            via_jsl = (
                satisfies_recursive(tree, formula)
                if isinstance(formula, RecursiveJSL)
                else satisfies(tree, formula)
            )
            reverse = back.validate(tree)
            if direct == via_jsl == reverse:
                agreements += 1
    rows.append(
        [
            "random schemas x docs",
            f"{agreements}/{total}",
            f"{translate_time / 30 * 1e3:.2f} ms",
        ]
    )
    rec_validator = SchemaValidator(RECURSIVE_SCHEMA)
    rec_formula = schema_to_jsl(RECURSIVE_SCHEMA)
    rec_total = rec_agree = 0
    for depth in range(5):
        doc = _nested_tree_doc(depth)
        rec_total += 1
        if rec_validator.validate(doc) == satisfies_recursive(doc, rec_formula):
            rec_agree += 1
    rows.append(["recursive $ref schema", f"{rec_agree}/{rec_total}", "-"])
    return format_table(
        "T1+T3 / Theorems 1 and 3: Schema <-> JSL equivalence "
        "(validator vs translation pipeline, both directions)",
        ["workload", "agreement", "avg translate time"],
        rows,
    )


if __name__ == "__main__":
    print(main())
