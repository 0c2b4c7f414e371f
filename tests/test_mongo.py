"""The MongoDB find-filter front-end (Section 4.1, Example 1)."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.jnl import ast
from repro.mongo import compile_filter
from repro.reference.workloads import people_collection
from repro.store import Collection
from repro import api


@pytest.fixture
def people() -> Collection:
    return api.collection(
        [
            {"name": "Sue", "age": 35, "tags": ["admin", "dev"],
             "address": {"city": "Santiago"}},
            {"name": "Bob", "age": 28, "tags": ["dev"]},
            {"name": "Eve", "age": 41, "tags": []},
        ]
    )


def names(results):
    return [doc["name"] for doc in results]


class TestExample1:
    def test_paper_query(self, people):
        # db.collection.find({name: {$eq: "Sue"}}, {})
        assert names(people.find({"name": {"$eq": "Sue"}})) == ["Sue"]

    def test_filter_compiles_to_deterministic_jnl(self):
        formula = compile_filter({"name": {"$eq": "Sue"}})
        assert isinstance(formula, ast.Unary)


class TestOperators:
    def test_implicit_equality(self, people):
        assert names(people.find({"name": "Bob"})) == ["Bob"]

    def test_comparisons(self, people):
        assert names(people.find({"age": {"$gt": 35}})) == ["Eve"]
        assert names(people.find({"age": {"$gte": 35}})) == ["Sue", "Eve"]
        assert names(people.find({"age": {"$lt": 35}})) == ["Bob"]
        assert names(people.find({"age": {"$lte": 35}})) == ["Sue", "Bob"]

    def test_range_conjunction(self, people):
        assert names(people.find({"age": {"$gte": 30, "$lt": 40}})) == ["Sue"]

    def test_ne(self, people):
        assert names(people.find({"name": {"$ne": "Sue"}})) == ["Bob", "Eve"]

    def test_in_nin(self, people):
        assert names(people.find({"age": {"$in": [28, 41]}})) == ["Bob", "Eve"]
        assert names(people.find({"age": {"$nin": [28, 41]}})) == ["Sue"]

    def test_exists(self, people):
        assert names(people.find({"address": {"$exists": True}})) == ["Sue"]
        assert names(people.find({"address": {"$exists": False}})) == [
            "Bob", "Eve",
        ]

    def test_type(self, people):
        assert names(people.find({"tags": {"$type": "array"}})) == [
            "Sue", "Bob", "Eve",
        ]
        assert names(people.find({"age": {"$type": "string"}})) == []

    def test_size(self, people):
        assert names(people.find({"tags": {"$size": 0}})) == ["Eve"]
        assert names(people.find({"tags": {"$size": 2}})) == ["Sue"]

    def test_regex(self, people):
        assert names(people.find({"name": {"$regex": "^S"}})) == ["Sue"]
        assert names(people.find({"name": {"$regex": "e$"}})) == ["Sue", "Eve"]
        assert names(people.find({"name": {"$regex": "o"}})) == ["Bob"]

    def test_array_containment(self, people):
        # MongoDB: equality on an array field matches elements too.
        assert names(people.find({"tags": "dev"})) == ["Sue", "Bob"]
        assert names(people.find({"tags": ["dev"]})) == ["Bob"]  # exact

    def test_elem_match(self, people):
        assert names(
            people.find({"tags": {"$elemMatch": {"$eq": "admin"}}})
        ) == ["Sue"]

    def test_dotted_paths(self, people):
        assert names(people.find({"address.city": "Santiago"})) == ["Sue"]
        assert names(people.find({"tags.0": "dev"})) == ["Bob"]

    def test_boolean_operators(self, people):
        assert names(
            people.find({"$or": [{"name": "Bob"}, {"age": {"$gt": 40}}]})
        ) == ["Bob", "Eve"]
        assert names(
            people.find({"$and": [{"age": {"$gt": 30}}, {"age": {"$lt": 40}}]})
        ) == ["Sue"]
        assert names(
            people.find({"$nor": [{"name": "Sue"}, {"name": "Bob"}]})
        ) == ["Eve"]
        assert names(people.find({"age": {"$not": {"$gt": 30}}})) == ["Bob"]

    def test_count(self, people):
        assert people.count({"age": {"$gt": 0}}) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            {"$unknown": []},
            {"a": {"$gt": "x"}},
            {"a": {"$in": 5}},
            {"a": {"$type": "wibble"}},
            {"": 1},
        ],
    )
    def test_malformed_filters(self, bad):
        with pytest.raises(ParseError):
            compile_filter(bad)


class TestLargerCollection:
    def test_generated_people(self):
        collection = api.collection(people_collection(200, seed=5))
        adults = collection.find({"age": {"$gte": 18}})
        assert len(adults) == 200
        some_city = collection.find({"address.city": "Santiago"})
        for doc in some_city:
            assert doc["address"]["city"] == "Santiago"
        with_hobby = collection.find(
            {"hobbies": {"$elemMatch": {"$eq": "yoga"}}}
        )
        for doc in with_hobby:
            assert "yoga" in doc["hobbies"]


class TestIndexSegments:
    """A path segment is an array index iff it is ASCII decimal digits
    (``is_index_segment``): ``str.isdigit`` alone also admits ``"²"``
    (``int()`` raises) and ``"٣"`` (``int()`` reads 3), which are keys."""

    @pytest.mark.parametrize("key", ["²", "٣"])
    def test_non_ascii_digits_are_object_keys(self, key):
        path = f"a.{key}"
        docs = [{"a": {key: 1}}, {"a": [0, 0, 0, 1]}, {"a": {"x": 1}}]
        people = api.collection(docs)
        assert people.find({path: 1}) == [docs[0]]
        assert people.find({path: {"$exists": True}}) == [docs[0]]
        assert people.aggregate(
            [{"$match": {path: {"$gte": 1}}}, {"$group": {"_id": f"${path}"}}]
        ) == [{"_id": 1}]
        assert people.aggregate([{"$group": {"_id": f"${path}"}}]) == [
            {"_id": 1}, {"_id": None}
        ]
        assert people.aggregate(
            [{"$sort": {path: -1}}, {"$limit": 1}, {"$unwind": f"${path}"}]
        ) == [docs[0]]
        result = people.update_one({path: 1}, {"$inc": {path: 1}})
        assert result.modified_count == 1
        assert people.find({path: 2}) == [{"a": {key: 2}}]
        # Created as a member, not refused as an array position.
        people.update_one({"a.x": 1}, {"$set": {path: 5}})
        assert people.find({path: 5}) == [{"a": {"x": 1, key: 5}}]

    def test_ascii_digits_with_a_leading_zero_are_an_index(self):
        docs = [{"a": [5, 6]}, {"a": {"01": 6}}]
        people = api.collection(docs)
        assert people.find({"a.01": 6}) == [docs[0]]
        assert people.aggregate([{"$group": {"_id": "$a.01"}}]) == [
            {"_id": 6}, {"_id": None}
        ]
        people.update_one({"a.01": 6}, {"$set": {"a.01": 7}})
        assert people.find({"a.1": 7}) == [{"a": [5, 7]}]

    def test_json_pointer_tokens(self):
        from repro.errors import NavigationError
        from repro.model.pointer import (
            pointer_to_steps,
            resolve_in_value,
            resolve_pointer,
        )
        from repro.model.tree import JSONTree

        assert pointer_to_steps(["a", "01", "²"]) == ["a", 1, "²"]
        assert resolve_in_value({"²": [7]}, "/²/0") == 7
        tree = JSONTree.from_value({"a": [7]})
        for pointer in ("/a/²", "/a/٣"):
            with pytest.raises(NavigationError):
                resolve_pointer(tree, pointer)
            with pytest.raises(NavigationError):
                resolve_in_value({"a": [7]}, pointer)
