"""JSON Schema core fragment: parsing and direct validation."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError, WellFormednessError
from repro.reference.schema_validator import SchemaValidator, validates_value
from repro.schema import (
    is_schema_well_formed,
    parse_schema,
    schema_precedence_graph,
)


class TestParsing:
    def test_empty_schema(self):
        schema = parse_schema({})
        assert validates_value(schema, {"anything": [1, "x"]})
        assert validates_value(schema, 0)

    def test_annotations_ignored(self):
        schema = parse_schema(
            {"title": "T", "description": "D", "type": "string"}
        )
        assert validates_value(schema, "x")

    def test_unknown_keywords_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema({"type": "string", "frobnicate": 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema({"type": "banana"})

    def test_mixed_combinators_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema({"allOf": [{}], "anyOf": [{}]})

    def test_bad_pattern_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema({"type": "string", "pattern": "("})

    def test_non_natural_bounds_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema({"type": "number", "minimum": -1})

    def test_ref_outside_definitions_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema({"$ref": "#/elsewhere/x"})

    def test_json_text_input(self):
        schema = parse_schema('{"type": "number", "minimum": 3}')
        assert validates_value(schema, 3)
        assert not validates_value(schema, 2)

    def test_serialise_round_trip(self):
        source = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "number", "multipleOf": 2}},
            "patternProperties": {"x.*": {"type": "string"}},
            "additionalProperties": {"enum": [1]},
            "minProperties": 1,
        }
        schema = parse_schema(source)
        assert parse_schema(schema.to_value()).to_value() == schema.to_value()


class TestStringAndNumber:
    def test_string(self):
        schema = parse_schema({"type": "string", "pattern": "(01)+"})
        assert validates_value(schema, "0101")
        assert not validates_value(schema, "010")
        assert not validates_value(schema, 7)

    def test_number_bounds_inclusive(self):
        schema = parse_schema(
            {"type": "number", "minimum": 3, "maximum": 5}
        )
        assert validates_value(schema, 3)
        assert validates_value(schema, 5)
        assert not validates_value(schema, 2)
        assert not validates_value(schema, 6)

    def test_multiple_of(self):
        # The paper's example: maximum 12, multipleOf 4 -> 0, 4, 8, 12.
        schema = parse_schema(
            {"type": "number", "maximum": 12, "multipleOf": 4}
        )
        accepted = [n for n in range(14) if validates_value(schema, n)]
        assert accepted == [0, 4, 8, 12]


class TestObject:
    def test_paper_object_example(self):
        schema = parse_schema(
            {
                "type": "object",
                "properties": {"name": {"type": "string"}},
                "patternProperties": {
                    "a(b|c)a": {"type": "number", "multipleOf": 2}
                },
                "additionalProperties": {
                    "type": "number",
                    "minimum": 1,
                    "maximum": 1,
                },
            }
        )
        assert validates_value(schema, {"name": "x", "aba": 4, "z": 1})
        assert not validates_value(schema, {"name": 1})
        assert not validates_value(schema, {"aba": 3})
        assert not validates_value(schema, {"z": 2})
        assert validates_value(schema, {})

    def test_required(self):
        schema = parse_schema({"type": "object", "required": ["a", "b"]})
        assert validates_value(schema, {"a": 1, "b": 2, "c": 3})
        assert not validates_value(schema, {"a": 1})

    def test_property_count_bounds(self):
        schema = parse_schema(
            {"type": "object", "minProperties": 1, "maxProperties": 2}
        )
        assert not validates_value(schema, {})
        assert validates_value(schema, {"a": 1})
        assert not validates_value(schema, {"a": 1, "b": 2, "c": 3})

    def test_pattern_and_property_both_apply(self):
        schema = parse_schema(
            {
                "type": "object",
                "properties": {"ab": {"type": "number"}},
                "patternProperties": {"a.": {"type": "number", "minimum": 5}},
            }
        )
        assert validates_value(schema, {"ab": 7})
        assert not validates_value(schema, {"ab": 3})  # pattern also applies

    def test_additional_absent_is_unconstrained(self):
        schema = parse_schema(
            {"type": "object", "properties": {"a": {"type": "number"}}}
        )
        assert validates_value(schema, {"zzz": [1, 2]})


class TestArray:
    def test_paper_array_example(self):
        schema = parse_schema(
            {
                "type": "array",
                "items": [{"type": "string"}, {"type": "string"}],
                "additionalItems": {"type": "number"},
                "uniqueItems": True,
            }
        )
        assert validates_value(schema, ["a", "b"])
        assert validates_value(schema, ["a", "b", 1, 2])
        assert not validates_value(schema, ["a"])          # items required
        assert not validates_value(schema, ["a", "b", "c"])
        assert not validates_value(schema, ["a", "b", 1, 1])  # uniqueItems

    def test_items_without_additional_forbids_extras(self):
        schema = parse_schema({"type": "array", "items": [{}]})
        assert validates_value(schema, [5])
        assert not validates_value(schema, [5, 6])

    def test_additional_without_items(self):
        schema = parse_schema(
            {"type": "array", "additionalItems": {"type": "number"}}
        )
        assert validates_value(schema, [1, 2, 3])
        assert not validates_value(schema, [1, "x"])

    def test_bare_array(self):
        schema = parse_schema({"type": "array"})
        assert validates_value(schema, [])
        assert not validates_value(schema, {})


class TestCombinators:
    def test_not(self):
        # The paper's odd-number example.
        schema = parse_schema({"not": {"type": "number", "multipleOf": 2}})
        assert validates_value(schema, 3)
        assert not validates_value(schema, 4)
        assert validates_value(schema, "not a number")

    def test_any_of_all_of(self):
        schema = parse_schema(
            {"anyOf": [{"type": "string"}, {"type": "number", "minimum": 5}]}
        )
        assert validates_value(schema, "x")
        assert validates_value(schema, 9)
        assert not validates_value(schema, 3)
        both = parse_schema(
            {"allOf": [{"type": "number", "minimum": 2},
                       {"type": "number", "maximum": 4}]}
        )
        assert validates_value(both, 3)
        assert not validates_value(both, 5)

    def test_enum(self):
        schema = parse_schema({"enum": [[1, 2], {"a": 0}, "x"]})
        assert validates_value(schema, [1, 2])
        assert validates_value(schema, {"a": 0})
        assert not validates_value(schema, [2, 1])


class TestRefs:
    def test_email_example(self):
        schema = parse_schema(
            {
                "definitions": {
                    "email": {"type": "string", "pattern": "[A-z]*@ciws\\.cl"}
                },
                "not": {"$ref": "#/definitions/email"},
            }
        )
        assert not validates_value(schema, "john@ciws.cl")
        assert validates_value(schema, "other")
        assert validates_value(schema, 42)

    def test_guarded_recursion_validates(self):
        schema = parse_schema(
            {
                "definitions": {
                    "tree": {
                        "anyOf": [
                            {"type": "number"},
                            {
                                "type": "object",
                                "required": ["left"],
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
        assert validates_value(schema, {"left": {"left": 1}, "right": 2})
        assert not validates_value(schema, {"left": "nope"})

    def test_unguarded_cycle_rejected(self):
        schema = parse_schema(
            {
                "definitions": {
                    "a": {"not": {"$ref": "#/definitions/b"}},
                    "b": {"allOf": [{"$ref": "#/definitions/a"}]},
                },
                "$ref": "#/definitions/a",
            }
        )
        assert not is_schema_well_formed(schema)
        with pytest.raises(WellFormednessError):
            SchemaValidator(schema)

    def test_precedence_graph_shape(self):
        schema = parse_schema(
            {
                "definitions": {
                    "a": {"not": {"$ref": "#/definitions/b"}},
                    "b": {"type": "object",
                          "properties": {"x": {"$ref": "#/definitions/a"}}},
                },
                "$ref": "#/definitions/a",
            }
        )
        graph = schema_precedence_graph(schema)
        assert graph["a"] == {"b"}
        assert graph["b"] == set()  # guarded under properties

    def test_unresolved_ref(self):
        schema = parse_schema({"$ref": "#/definitions/ghost"})
        with pytest.raises(WellFormednessError):
            SchemaValidator(schema).validate_value(1)
