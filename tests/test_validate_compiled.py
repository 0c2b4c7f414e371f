"""The compiled validation pipeline: differential and edge-case tests.

The compiled validators must agree with the seed interpreters on the
whole supported fragment -- ``SchemaValidator`` for schemas, the
set-at-a-time ``JSLEvaluator`` for formulas, and the streaming
validator on the deterministic fragment -- on both backends (tree and
raw value).
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.cache import LRUCache
from repro.errors import (
    SchemaError,
    TranslationError,
    UnsupportedFragmentError,
    WellFormednessError,
)
from repro.jsl import ast as jsl
from repro.jsl.parser import parse_jsl_formula
from repro.model.tree import JSONTree
from repro.reference.jsl_evaluator import JSLEvaluator
from repro.reference.schema_validator import SchemaValidator, validates, validates_value
from repro.reference.workloads import (
    TreeShape,
    random_jsl_formula,
    random_schema_value,
    random_value,
)
from repro.schema.parser import parse_schema
from repro.schema.to_jsl import schema_to_jsl
from repro.streaming.validator import StreamingJSLValidator
from repro.validate import (
    clear_artifact_cache,
    compile_jsl_validator,
    compile_schema_validator,
    compile_stream_validator,
)


def both_backends(validator, value):
    """Assert tree and raw-value backends agree; return the verdict."""
    tree_verdict = validator.validate_tree(JSONTree.from_value(value))
    value_verdict = validator.validate_value(value)
    assert tree_verdict == value_verdict, value
    return value_verdict


# Recursive schemas: the paper's Section 5.3 email schema, the
# Theorem-1 bench's binary trees, guarded recursion through uniqueItems
# arrays (where ``exact_unique`` changes the code path), and several
# definitions reaching equal values (the memo must key on the slot).
RECURSIVE_SCHEMAS = {
    "email": {
        "definitions": {
            "email": {"type": "string", "pattern": "[A-z]*@ciws\\.cl"}
        },
        "not": {"$ref": "#/definitions/email"},
    },
    "binary-tree": {
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
    },
    "unique-nest": {
        "definitions": {
            "t": {
                "anyOf": [
                    {"type": "string"},
                    {"type": "number"},
                    {
                        "type": "array",
                        "uniqueItems": True,
                        "additionalItems": {"$ref": "#/definitions/t"},
                    },
                    {
                        "type": "object",
                        "properties": {"left": {"$ref": "#/definitions/t"}},
                        "additionalProperties": {"$ref": "#/definitions/t"},
                    },
                ]
            }
        },
        "$ref": "#/definitions/t",
    },
    "two-slots": {
        "definitions": {
            "small": {"type": "number", "maximum": 0},
            "big": {"type": "number", "minimum": 1},
            "pair": {
                "type": "object",
                "properties": {
                    "left": {
                        "anyOf": [
                            {"$ref": "#/definitions/small"},
                            {"$ref": "#/definitions/pair"},
                        ]
                    }
                },
                "additionalProperties": {
                    "anyOf": [
                        {"$ref": "#/definitions/big"},
                        {"$ref": "#/definitions/pair"},
                    ]
                },
            },
        },
        "$ref": "#/definitions/pair",
    },
}
RECURSIVE_SHAPE = TreeShape(
    max_depth=4,
    max_children=3,
    array_weight=0.15,
    string_weight=0.15,
    key_pool=("left", "right", "a"),
    string_pool=("x", "ada@ciws.cl", "ada@ciws.org"),
    int_range=(0, 1),
)


class TestCompiledSchemaDifferential:
    @pytest.mark.parametrize("exact_unique", [False, True])
    @pytest.mark.parametrize("source", [*range(40), *RECURSIVE_SCHEMAS])
    def test_random_schemas_on_random_documents(self, source, exact_unique):
        if isinstance(source, int):
            schema = parse_schema(random_schema_value(random.Random(source), 3))
            shape, seed, docs = TreeShape(max_depth=4, max_children=4), source, 6
        else:
            schema = parse_schema(RECURSIVE_SCHEMAS[source])
            shape, seed, docs = RECURSIVE_SHAPE, len(source), 40
        compiled = compile_schema_validator(
            schema, exact_unique=exact_unique, cache=None
        )
        reference = SchemaValidator(schema, exact_unique=exact_unique)
        for doc_seed in range(docs):
            doc_rng = random.Random(1000 * seed + doc_seed)
            tree = JSONTree.from_value(random_value(doc_rng, shape))
            for node in tree.nodes():
                expected = reference.validate(tree, node)
                assert compiled.validate_tree(tree, node) == expected
                assert compiled.validate_value(tree.to_value(node)) == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_streaming_agrees_on_supported_fragment(self, seed):
        rng = random.Random(seed + 77)
        schema = parse_schema(random_schema_value(rng, depth=2))
        try:
            stream = StreamingJSLValidator(schema_to_jsl(schema))
        except UnsupportedFragmentError:
            pytest.skip("schema outside the deterministic fragment")
        compiled = compile_schema_validator(schema, cache=None)
        for doc_seed in range(4):
            doc_rng = random.Random(9000 + 100 * seed + doc_seed)
            tree = JSONTree.from_value(
                random_value(doc_rng, TreeShape(max_depth=3, max_children=3))
            )
            assert stream.validate_text(tree.to_json()) == compiled.validate_tree(
                tree
            )


class TestCompiledSchemaEdgeCases:
    def test_empty_containers(self):
        schema = parse_schema(
            {
                "type": "object",
                "properties": {
                    "o": {"type": "object", "maxProperties": 0},
                    "a": {"type": "array", "uniqueItems": True},
                },
            }
        )
        compiled = compile_schema_validator(schema)
        assert both_backends(compiled, {})
        assert both_backends(compiled, {"o": {}, "a": []})
        assert not both_backends(compiled, {"o": {"x": 1}})

    def test_empty_items_list(self):
        # items: [] requires nothing; extras still need additionalItems.
        schema = parse_schema({"type": "array", "items": []})
        compiled = compile_schema_validator(schema)
        assert both_backends(compiled, [])
        assert not both_backends(compiled, [1])

    def test_unicode_and_confusable_keys(self):
        # NFC "\u00e9" vs NFD "e\u0301" spell *distinct* keys, as do
        # keys differing only by case or by trailing whitespace.
        nfc = "cl\u00e9"
        nfd = "cle\u0301"
        assert nfc != nfd
        schema = parse_schema(
            {
                "type": "object",
                "required": [nfc],
                "properties": {
                    nfc: {"type": "number"},
                    nfd: {"type": "string"},
                    "Key": {"type": "number"},
                    "key ": {"type": "string"},
                },
            }
        )
        compiled = compile_schema_validator(schema)
        reference = SchemaValidator(schema)
        for value in [
            {nfc: 1, nfd: "x"},
            {nfd: "x"},              # the NFD twin does not satisfy required
            {nfc: "not a number"},
            {nfc: 1, "Key": 2, "key ": "pad"},
            {nfc: 1, "Key": "not a number"},
            {nfc: 1, "\u043a\u043b\u044e\u0447": 7, "\u9375": "k"},
        ]:
            expected = reference.validate(JSONTree.from_value(value))
            assert both_backends(compiled, value) == expected

    def test_duplicate_ish_array_items(self):
        schema = parse_schema({"type": "array", "uniqueItems": True})
        compiled = compile_schema_validator(schema)
        assert both_backends(compiled, [1, "1"])          # int vs string
        assert both_backends(compiled, [[], {}])          # array vs object
        assert not both_backends(compiled, [{"a": 1, "b": 2}, {"b": 2, "a": 1}])
        assert both_backends(compiled, [["k", "v"], {"k": "v"}])

    def test_deep_nesting_near_recursion_limit(self):
        schema = parse_schema(
            {
                "$ref": "#/definitions/chain",
                "definitions": {
                    "chain": {
                        "anyOf": [
                            {"type": "number"},
                            {
                                "type": "object",
                                "required": ["next"],
                                "properties": {
                                    "next": {"$ref": "#/definitions/chain"}
                                },
                            },
                        ]
                    }
                },
            }
        )
        compiled = compile_schema_validator(schema)
        reference = SchemaValidator(schema)
        depth = 400
        good: object = 0
        for _ in range(depth):
            good = {"next": good}
        bad_core: object = "leaf"
        for _ in range(depth):
            bad_core = {"next": bad_core}
        limit = sys.getrecursionlimit()
        # The seed interpreter costs ~10 Python frames per document
        # level; give both validators the same generous headroom.
        sys.setrecursionlimit(max(limit, 50 * depth))
        try:
            tree_good = JSONTree.from_value(good)
            tree_bad = JSONTree.from_value(bad_core)
            assert reference.validate(tree_good)
            assert compiled.validate_tree(tree_good)
            assert compiled.validate_value(good)
            assert not reference.validate(tree_bad)
            assert not compiled.validate_tree(tree_bad)
            assert not compiled.validate_value(bad_core)
        finally:
            sys.setrecursionlimit(limit)

    def test_enum_value_backend_matches_tree_equality(self):
        schema = parse_schema(
            {"enum": [{"k": [1, 2]}, "x", 3, [{"a": 0}]]}
        )
        compiled = compile_schema_validator(schema)
        for value, expected in [
            ({"k": [1, 2]}, True),
            ({"k": [2, 1]}, False),
            ("x", True),
            (3, True),
            ([{"a": 0}], True),
            ([{"a": 0, "b": 0}], False),
            ({}, False),
        ]:
            assert both_backends(compiled, value) == expected

    def test_wide_enum_of_objects(self):
        members = [{"code": i, "tag": [f"t{i}"]} for i in range(64)]
        schema = parse_schema({"enum": members})
        compiled = compile_schema_validator(schema, cache=None)
        reference = SchemaValidator(schema)
        for value in [*members[::7], {"code": 3, "tag": ["t4"]}, {"code": 3}, 3]:
            expected = reference.validate(JSONTree.from_value(value))
            assert both_backends(compiled, value) == expected

    def test_additional_properties_beside_overlapping_boxes(self):
        # "ab" is both a property and a pattern key: both bodies apply and
        # additionalProperties does not; "a" is a pattern key only, and "z"
        # falls to additionalProperties.
        schema = parse_schema(
            {
                "type": "object",
                "properties": {"ab": {"type": "string"}, "c": {}},
                "patternProperties": {"^a": {"type": "string", "pattern": "^x"}},
                "additionalProperties": {"type": "integer"},
            }
        )
        compiled = compile_schema_validator(schema, cache=None)
        reference = SchemaValidator(schema)
        for value in [
            {"ab": "xy", "c": [], "z": 1},
            {"ab": "y"},
            {"ab": 1},
            {"a": "x", "c": "any", "z": "s"},
            {"a": "x", "z": 1},
            {"a": 1},
            {"c": {"k": 1}, "zz": 2},
        ]:
            expected = reference.validate(JSONTree.from_value(value))
            assert both_backends(compiled, value) == expected

    def test_recursion_guarded_by_structure(self):
        schema = parse_schema(
            {
                "type": "object",
                "properties": {"tree": {"$ref": "#/definitions/t"}},
                "definitions": {
                    "t": {
                        "anyOf": [
                            {"type": "string"},
                            {
                                "type": "array",
                                "additionalItems": {"$ref": "#/definitions/t"},
                            },
                        ]
                    }
                },
            }
        )
        compiled = compile_schema_validator(schema)
        assert both_backends(compiled, {"tree": [["a", "b"], "c", [["d"]]]})
        assert not both_backends(compiled, {"tree": [["a", 1]]})

    def test_unresolved_ref_rejected(self):
        from repro.schema import ast

        with pytest.raises(SchemaError, match="unresolved"):
            compile_schema_validator(ast.RefSchema("nope"), cache=None)

    def test_non_string_keys_rejected_on_value_path(self):
        from repro.errors import UnsupportedValueError

        schema = parse_schema(
            {"type": "object", "properties": {"a": {"type": "string"}}}
        )
        with pytest.raises(UnsupportedValueError, match="keys must be strings"):
            compile_schema_validator(schema).validate_value({1: "x"})

    def test_ill_formed_recursion_rejected(self):
        source = {
            "$ref": "#/definitions/a",
            "definitions": {"a": {"not": {"$ref": "#/definitions/a"}}},
        }
        with pytest.raises(WellFormednessError):
            compile_schema_validator(parse_schema(source), cache=None)

    def test_one_shot_helpers_use_compiled_path(self):
        schema = parse_schema({"type": "number", "minimum": 3})
        assert validates(schema, JSONTree.from_value(5))
        assert not validates_value(schema, 2)

    def test_validates_value_keeps_seed_strictness(self):
        # The legacy helper still rejects out-of-abstraction leaves
        # anywhere, even in positions the schema never inspects; only
        # CompiledValidator.validate_value checks lazily.
        from repro.errors import UnsupportedValueError

        schema = parse_schema({"type": "object", "required": ["a"]})
        with pytest.raises(UnsupportedValueError):
            validates_value(schema, {"a": 1.5})
        assert compile_schema_validator(schema).validate_value({"a": 1.5})

    def test_exact_unique_parity(self):
        schema = parse_schema({"type": "array", "uniqueItems": True})
        exact = compile_schema_validator(schema, exact_unique=True)
        fast = compile_schema_validator(schema, exact_unique=False)
        assert exact is not fast  # separate cache entries
        for value in ([1, 2, 1], [{"a": 1}, {"a": 1}], ["x", "y"]):
            assert both_backends(exact, value) == both_backends(fast, value)


class TestCompiledJSL:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_formulas_match_reference_evaluator(self, seed):
        rng = random.Random(seed)
        formula = random_jsl_formula(rng, depth=4)
        compiled = compile_jsl_validator(formula, cache=None)
        for doc_seed in range(5):
            doc_rng = random.Random(5000 + 100 * seed + doc_seed)
            value = random_value(
                doc_rng, TreeShape(max_depth=4, max_children=4)
            )
            tree = JSONTree.from_value(value)
            expected = JSLEvaluator(tree).satisfies(formula)
            assert compiled.validate_tree(tree) == expected
            assert compiled.validate_value(value) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_point_evaluation_at_every_node(self, seed):
        rng = random.Random(seed + 31)
        formula = random_jsl_formula(rng, depth=3)
        compiled = compile_jsl_validator(formula, cache=None)
        tree = JSONTree.from_value(
            random_value(random.Random(seed), TreeShape(max_depth=3))
        )
        reference = JSLEvaluator(tree)
        for node in tree.nodes():
            assert compiled.validate_tree(tree, node) == reference.satisfies(
                formula, node
            )

    def test_recursive_expression(self):
        # A linked-list shape: gamma holds on leaves and on nodes whose
        # "next" child satisfies gamma again (guarded recursion).
        from repro.automata.keylang import KeyLang
        from repro.logic.nodetests import MaxCh

        gamma = jsl.RecursiveJSL.make(
            {
                "g": jsl.Or(
                    jsl.TestAtom(MaxCh(0)),
                    jsl.DiaKey(KeyLang.word("next"), jsl.Ref("g")),
                )
            },
            jsl.Ref("g"),
        )
        compiled = compile_jsl_validator(gamma, cache=None)
        assert both_backends(compiled, {"next": {"next": "end"}})
        assert not both_backends(compiled, {"other": 1})

    def test_plain_formula_with_ref_rejected(self):
        with pytest.raises(TranslationError):
            compile_jsl_validator(jsl.Ref("loose"), cache=None)

    def test_non_string_keys_rejected_under_key_language(self):
        from repro.errors import UnsupportedValueError

        formula = schema_to_jsl(
            parse_schema(
                {
                    "type": "object",
                    "patternProperties": {"^a": {"type": "string"}},
                    "additionalProperties": {"type": "integer"},
                }
            )
        )
        with pytest.raises(UnsupportedValueError, match="keys must be strings"):
            compile_jsl_validator(formula, cache=None).validate_value({1: "x"})

    def test_parsed_formula_smoke(self):
        formula = parse_jsl_formula(
            "some(.age, number and min(17)) and all(.tags, all([0:], string))"
        )
        compiled = compile_jsl_validator(formula)
        assert both_backends(
            compiled, {"age": 30, "tags": ["a", "b"]}
        )
        assert not both_backends(
            compiled, {"age": 30, "tags": ["a", 3]}
        )


class TestValidatorCaching:
    def test_schema_compile_is_cached_by_structure(self):
        cache = LRUCache(capacity=8)
        schema_a = parse_schema({"type": "number", "minimum": 1})
        schema_b = parse_schema({"type": "number", "minimum": 1})
        first = compile_schema_validator(schema_a, cache=cache)
        second = compile_schema_validator(schema_b, cache=cache)
        assert first is second  # structural equality shares the program
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_jsl_and_schema_share_one_cache_namespace(self):
        cache = LRUCache(capacity=8)
        schema = parse_schema({"type": "string"})
        formula = parse_jsl_formula("string")
        compile_schema_validator(schema, cache=cache)
        compile_jsl_validator(formula, cache=cache)
        compile_stream_validator(formula, cache=cache)
        assert len(cache) == 3
        assert cache.stats().misses == 3

    def test_global_cache_round_trip(self):
        clear_artifact_cache()
        try:
            schema = parse_schema({"type": "object", "required": ["zz-test"]})
            first = compile_schema_validator(schema)
            again = compile_schema_validator(parse_schema(schema.to_value()))
            assert first is again
        finally:
            clear_artifact_cache()

    def test_query_plans_and_validators_share_one_cache(self):
        from repro.cache import artifact_cache
        from repro.query import compile_query

        # By default both compilers register in the same process-wide
        # instance (unified stats).
        clear_artifact_cache()
        try:
            compile_query("$.shared", "jsonpath")
            plans = len(artifact_cache())
            compile_schema_validator(parse_schema({"type": "string"}))
            assert len(artifact_cache()) > plans > 0
        finally:
            clear_artifact_cache()
        cache = LRUCache(capacity=8)
        compile_query("$.a", "jsonpath", cache=cache)
        compile_schema_validator(parse_schema({"type": "string"}), cache=cache)
        stats = cache.stats()
        assert len(cache) == 2
        assert (stats.hits, stats.misses) == (0, 2)

    def test_stream_validator_cached_and_reusable(self):
        cache = LRUCache(capacity=4)
        schema = parse_schema(
            {"type": "object", "properties": {"a": {"type": "number"}}}
        )
        validator = compile_stream_validator(schema, cache=cache)
        assert validator is compile_stream_validator(schema, cache=cache)
        assert validator.validate_text('{"a": 3}')
        assert not validator.validate_text('{"a": "x"}')
