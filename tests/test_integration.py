"""Cross-subsystem integration tests.

Each test chains several subsystems the way a downstream user would:
schemas into logics into solvers into validators, front-ends into
evaluators, token streams into trees.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.jnl.efficient import evaluate_unary
from repro.jsl import RecursiveJSL
from repro.jsl.bottom_up import satisfies_recursive
from repro.jsl.satisfiability import jsl_satisfiable
from repro.model.tree import JSONTree
from repro.mongo import compile_filter
from repro.reference.from_jsl import jsl_to_schema
from repro.reference.jsl_evaluator import satisfies
from repro.reference.jsl_to_jnl import jsl_to_jnl
from repro.reference.schema_validator import SchemaValidator
from repro.reference.workloads import TreeShape, people_collection, random_tree
from repro.schema import parse_schema, schema_to_jsl
from repro.streaming import StreamingJSLValidator
from repro.translate import jnl_to_jsl
from repro import api

PERSON_SCHEMA = {
    "type": "object",
    "required": ["id", "name", "age"],
    "properties": {
        "id": {"type": "number"},
        "name": {
            "type": "object",
            "required": ["first", "last"],
            "properties": {
                "first": {"type": "string"},
                "last": {"type": "string"},
            },
        },
        "age": {"type": "number", "minimum": 18, "maximum": 90},
        "hobbies": {
            "type": "array",
            "additionalItems": {"type": "string"},
            "uniqueItems": True,
        },
    },
}


class TestSchemaPipelines:
    def test_generated_collection_validates(self):
        schema = parse_schema(PERSON_SCHEMA)
        validator = SchemaValidator(schema)
        for person in people_collection(40, seed=3):
            assert validator.validate_value(person)

    def test_schema_witness_validates_against_schema(self):
        # schema -> JSL -> solver witness -> schema validator: closed loop.
        schema = parse_schema(PERSON_SCHEMA)
        result = jsl_satisfiable(schema_to_jsl(schema))
        assert result.satisfiable
        assert SchemaValidator(schema).validate(result.witness)

    def test_schema_conjunction_conflict_detected(self):
        # Two individually-satisfiable schemas with no common instance.
        s1 = schema_to_jsl(parse_schema({"type": "array", "items": [{}]}))
        s2 = schema_to_jsl(parse_schema({"type": "object"}))
        from repro.jsl import And

        result = jsl_satisfiable(And(s1, s2))
        assert not result.satisfiable and result.complete

    def test_double_translation_pipeline(self):
        # schema -> JSL -> JNL -> evaluate == direct validation.
        schema = parse_schema(PERSON_SCHEMA)
        formula = schema_to_jsl(schema)
        assert not isinstance(formula, RecursiveJSL)
        jnl_formula = jsl_to_jnl(formula)
        validator = SchemaValidator(schema)
        for seed in range(10):
            tree = random_tree(seed, TreeShape(max_depth=3, max_children=4))
            assert (
                tree.root in evaluate_unary(tree, jnl_formula)
            ) == validator.validate(tree)

    def test_schema_roundtrip_through_jnl(self):
        # JSL -> schema -> JSL -> JNL stays equivalent on documents.
        from repro.jsl.parser import parse_jsl_formula

        formula = parse_jsl_formula(
            "some(.k, number and multipleof(3)) and maxch(3)"
        )
        back = schema_to_jsl(jsl_to_schema(formula))
        for seed in range(10):
            tree = random_tree(
                seed + 40, TreeShape(max_depth=3, max_children=3)
            )
            assert satisfies(tree, formula) == satisfies(tree, back)


class TestFrontEndPipelines:
    def test_find_filter_via_jsl_translation(self):
        # Mongo filter -> JNL -> JSL: all three verdicts agree.
        filter_doc = {"age": {"$gte": 30}, "name.first": {"$regex": "^S"}}
        formula = compile_filter(filter_doc)
        translated = jnl_to_jsl(formula)
        people = people_collection(30, seed=8)
        collection = api.collection(people)
        expected_ids = {doc["id"] for doc in collection.find(filter_doc)}
        for person in people:
            tree = JSONTree.from_value(person)
            via_jnl = tree.root in evaluate_unary(tree, formula)
            if isinstance(translated, RecursiveJSL):
                via_jsl = satisfies_recursive(tree, translated)
            else:
                via_jsl = satisfies(tree, translated)
            assert via_jnl == via_jsl == (person["id"] in expected_ids)

    def test_jsonpath_agrees_with_mongo_on_presence(self):
        from repro.jsonpath import jsonpath_query

        people = people_collection(25, seed=12)
        collection = api.collection(people)
        with_yoga_mongo = {
            doc["id"]
            for doc in collection.find(
                {"hobbies": {"$elemMatch": {"$eq": "yoga"}}}
            )
        }
        with_yoga_jsonpath = {
            person["id"]
            for person in people
            if jsonpath_query(
                JSONTree.from_value(person),
                '$.hobbies[?(@ == "yoga")]',
            )
        }
        assert with_yoga_mongo == with_yoga_jsonpath


class TestStreamingPipelines:
    def test_streaming_agrees_with_schema_validator(self):
        # A deterministic schema validated both ways over a collection.
        schema = parse_schema(
            {
                "type": "object",
                "required": ["id"],
                "properties": {
                    "id": {"type": "number"},
                    "age": {"type": "number", "minimum": 18, "maximum": 90},
                },
            }
        )
        formula = schema_to_jsl(schema)
        stream_validator = StreamingJSLValidator(formula)
        validator = SchemaValidator(schema)
        for person in people_collection(30, seed=21):
            text = json.dumps(person)
            assert stream_validator.validate_text(text) == validator.validate(
                JSONTree.from_value(person)
            )

    def test_streaming_rejects_duplicate_keys_like_model(self):
        from repro.errors import DuplicateKeyError

        text = '{"k": 1, "k": 2}'
        with pytest.raises(DuplicateKeyError):
            StreamingJSLValidator(
                schema_to_jsl(parse_schema({"type": "object"}))
            ).validate_text(text)
        with pytest.raises(DuplicateKeyError):
            JSONTree.from_json(text)


class TestSolverAgainstEvaluatorsAtScale:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_schema_satisfiability_consistency(self, seed):
        # If the solver finds a witness for a schema's JSL form, the
        # schema validator must accept it; if a random doc validates,
        # the solver must not claim complete UNSAT.
        from repro.reference.workloads import random_schema_value

        rng = random.Random(seed + 2024)
        schema = parse_schema(random_schema_value(rng, depth=2))
        formula = schema_to_jsl(schema)
        validator = SchemaValidator(schema)
        result = jsl_satisfiable(formula)
        if result.satisfiable:
            assert validator.validate(result.witness)
        else:
            for doc_seed in range(10):
                tree = random_tree(
                    doc_seed, TreeShape(max_depth=3, max_children=3)
                )
                if validator.validate(tree):
                    assert not result.complete
                    break
