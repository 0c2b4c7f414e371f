"""Bulk validation APIs and batch tree ingestion."""

from __future__ import annotations

import pytest

from repro.model.tree import JSONTree
from repro.reference.schema_validator import SchemaValidator
from repro.reference.workloads import people_collection
from repro.schema.parser import parse_schema
from repro.validate import (
    compile_schema_validator,
    iter_validate,
    validate_corpus,
    validate_document,
)

PERSON_SCHEMA = parse_schema(
    {
        "type": "object",
        "required": ["id", "name", "age"],
        "properties": {
            "id": {"type": "number"},
            "age": {"type": "number", "minimum": 0, "maximum": 120},
            "name": {
                "type": "object",
                "required": ["first", "last"],
                "additionalProperties": {"type": "string"},
            },
        },
    }
)


@pytest.fixture
def validator():
    return compile_schema_validator(PERSON_SCHEMA)


@pytest.fixture
def corpus():
    people = people_collection(20, seed=3)
    people[7] = {"id": 7, "name": {"first": "No"}, "age": 30}     # invalid
    people[13] = {"id": 13, "name": {"first": "X", "last": "Y"}}  # invalid
    return people


class TestValidateCorpus:
    def test_matches_seed_validator(self, validator, corpus):
        report = validate_corpus(validator, corpus)
        seed = SchemaValidator(PERSON_SCHEMA)
        expected = [seed.validate_value(doc) for doc in corpus]
        assert list(report.verdicts) == expected
        assert report.checked == len(corpus)
        assert report.valid == sum(expected)
        assert report.invalid == len(corpus) - sum(expected)
        assert report.first_invalid == 7
        assert not report.all_valid

    def test_early_exit_stops_at_first_invalid(self, validator, corpus):
        report = validate_corpus(validator, corpus, early_exit=True)
        assert report.checked == 8          # docs 0..7
        assert report.first_invalid == 7
        assert report.verdicts[-1] is False

    def test_all_valid_report(self, validator):
        corpus = people_collection(5, seed=9)
        report = validate_corpus(validator, corpus)
        assert report.all_valid
        assert report.first_invalid is None
        assert report.valid == report.checked == 5

    def test_accepts_trees_and_values_mixed(self, validator, corpus):
        mixed = [
            JSONTree.from_value(doc) if index % 2 else doc
            for index, doc in enumerate(corpus)
        ]
        assert validate_corpus(validator, mixed).verdicts == validate_corpus(
            validator, corpus
        ).verdicts

    def test_as_trees_materialises_with_shared_interning(self, validator, corpus):
        report = validate_corpus(validator, corpus, as_trees=True)
        assert report.verdicts == validate_corpus(validator, corpus).verdicts

    def test_extended_values_are_coerced(self, validator):
        # Booleans are outside the strict abstraction; extended=True
        # coerces them to strings, so "name" fails its object type.
        doc = {"id": 1, "name": True, "age": 4}
        report = validate_corpus(validator, [doc], extended=True)
        assert report.verdicts == (False,)


class TestIterValidate:
    def test_streams_lazily(self, validator, corpus):
        seen = []

        def generator():
            for doc in corpus:
                seen.append(doc)
                yield doc

        results = iter_validate(validator, generator())
        assert next(results) is True
        assert len(seen) == 1  # only one document consumed so far
        rest = list(results)
        assert len(rest) == len(corpus) - 1


class TestValidateDocument:
    def test_many_validators_one_document(self, corpus):
        schemas = [
            PERSON_SCHEMA,
            parse_schema({"type": "object", "required": ["id"]}),
            parse_schema({"type": "array"}),
            parse_schema({"not": {"type": "array"}}),
        ]
        validators = [compile_schema_validator(schema) for schema in schemas]
        verdicts = validate_document(validators, corpus[0])
        assert verdicts == [True, True, False, True]
        # Same answers when the document is already a tree.
        tree = JSONTree.from_value(corpus[0])
        assert validate_document(validators, tree) == verdicts


class TestFromValuesBatchIngestion:
    def test_trees_equal_individual_construction(self):
        values = people_collection(10, seed=5)
        batch = JSONTree.from_values(values)
        assert len(batch) == len(values)
        for tree, value in zip(batch, values):
            assert tree == JSONTree.from_value(value)

    def test_keys_are_interned_across_trees(self):
        batch = JSONTree.from_values([{"shared": 1}, {"shared": 2}])
        key_a = next(iter(batch[0].object_keys(batch[0].root)))
        key_b = next(iter(batch[1].object_keys(batch[1].root)))
        assert key_a == key_b == "shared"
        assert key_a is key_b  # one str object across the whole corpus

    def test_string_atoms_are_interned_across_trees(self):
        batch = JSONTree.from_values([["yoga"], ["yoga"]])
        atom_a = batch[0].value(batch[0].array_child(batch[0].root, 0))
        atom_b = batch[1].value(batch[1].array_child(batch[1].root, 0))
        assert atom_a is atom_b

    def test_extended_coercion(self):
        (tree,) = JSONTree.from_values([[True, None]], extended=True)
        assert tree.to_value() == ["true", "null"]

    def test_empty_batch(self):
        assert JSONTree.from_values([]) == []
