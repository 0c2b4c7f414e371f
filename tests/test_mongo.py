"""The MongoDB find-filter front-end (Section 4.1, Example 1).

``TestRandomisedDifferential`` pits the dialect's two lowerings -- the
JNL plan and the value-space closures -- against the reference
interpreter; it scales with ``REPRO_DIFF_SCALE`` (the nightly CI job
runs it at ~20x).
"""

from __future__ import annotations

import ast as python_ast
import os
import random
import re
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.jnl import ast
from repro.model.tree import JSONTree
from repro.mongo import compile_filter
from repro.mongo.find import compile_value_filter
from repro.query import compile_mongo_find
from repro.reference.mongo_oracles import match_value
from repro.reference.workloads import people_collection
from repro.store import Collection
from repro import api

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))


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


# ---------------------------------------------------------------------------
# $regex is an unanchored search, in both lowerings.
# ---------------------------------------------------------------------------

REGEX_STRINGS = ["zb", "ab", "q", "a", "b", "a$", "^b", "ba", "", "a\n", "xa^"]

# Patterns inside the find dialect: find, a leading $match and re.search
# select the same strings.
REGEX_TABLE = [
    "^a|b$",  # each alternative anchored on its own
    "a\\$",  # an escaped dollar is a literal
    "\\^b",
    "a",
    "^a",
    "b$",
    "^a$",
    "^$",
    "^",
    "$",
    "",
    "a|^b|^$",
    "^(a|b)$",
    "(?:ab|ba)$",
    "[$^]",  # anchors inside a class are literals
    "[^ab]$",
    "^a.",  # . stops at a newline
    "a$|q",
    "\\\\$|^z",  # an escaped backslash, then an anchor
]

# Patterns outside it: find refuses them, $match still searches.
OUTSIDE_TABLE = ["(^a)", "x^", "a$b", "(a$)", "\\ba", "a*+", "(?i)A"]


def _selected(collection, regex):
    return [doc["k"] for doc in collection.find({"k": {"$regex": regex}})]


class TestRegexSearch:
    @pytest.fixture(scope="class")
    def strings(self):
        return api.collection([{"k": text} for text in REGEX_STRINGS])

    @pytest.mark.parametrize("regex", REGEX_TABLE)
    def test_find_match_and_re_search_agree(self, strings, regex):
        expected = [text for text in REGEX_STRINGS if re.search(regex, text)]
        assert _selected(strings, regex) == expected
        pipeline = [{"$match": {"k": {"$regex": regex}}}]
        assert [doc["k"] for doc in strings.aggregate(pipeline)] == expected

    @pytest.mark.parametrize("regex", OUTSIDE_TABLE)
    def test_outside_the_dialect_find_refuses_and_match_searches(
        self, strings, regex
    ):
        with pytest.raises(ParseError):
            strings.find({"k": {"$regex": regex}})
        expected = [text for text in REGEX_STRINGS if re.search(regex, text)]
        pipeline = [{"$match": {"k": {"$regex": regex}}}]
        assert [doc["k"] for doc in strings.aggregate(pipeline)] == expected

    # Class escapes are ASCII in every lowering, as in MongoDB's PCRE:
    # ARABIC-INDIC DIGIT THREE is no \d, NBSP no \s, e-acute no \w.
    CLASS_TEXTS = ["٣", "3", "\xa0", " ", "\xe9", "e"]

    @pytest.mark.parametrize(
        "regex, expected",
        [
            ("\\d", ["3"]),
            ("\\D", ["٣", "\xa0", " ", "\xe9", "e"]),
            ("\\s", [" "]),
            ("^\\S$", ["٣", "3", "\xa0", "\xe9", "e"]),
            ("\\w", ["3", "e"]),
            ("\\W", ["٣", "\xa0", " ", "\xe9"]),
            ("^[\\d\\s]$", ["3", " "]),
        ],
    )
    def test_class_escapes_are_ascii_in_every_lowering(self, regex, expected):
        texts = self.CLASS_TEXTS
        collection = api.collection([{"k": text} for text in texts])
        filter_doc = {"k": {"$regex": regex}}
        assert _selected(collection, regex) == expected
        pipeline = [{"$match": filter_doc}]
        assert [doc["k"] for doc in collection.aggregate(pipeline)] == expected
        later = [{"$project": {"k": 1}}, {"$match": filter_doc}]
        assert [doc["k"] for doc in collection.aggregate(later)] == expected
        matches = compile_value_filter(filter_doc)
        assert [text for text in texts if matches({"k": text})] == expected
        assert [
            text for text in texts if match_value(filter_doc, {"k": text})
        ] == expected

    @pytest.mark.parametrize("regex", ["(", "a**", 3])
    def test_both_lowerings_refuse_an_invalid_pattern(self, regex):
        with pytest.raises(ParseError):
            compile_filter({"k": {"$regex": regex}})
        with pytest.raises(ParseError):
            compile_value_filter({"k": {"$regex": regex}})


class TestValueSpaceTypes:
    def test_int_is_neither_a_float_nor_a_bool(self):
        collection = api.collection([{"a": 1}, {"a": 2}])
        is_int = {"$match": {"m": {"$type": "int"}}}
        average = {"$group": {"_id": None, "m": {"$avg": "$a"}}}
        assert collection.aggregate([average, is_int]) == []
        total = {"$group": {"_id": None, "m": {"$sum": "$a"}}}
        assert collection.aggregate([total, is_int]) == [{"_id": None, "m": 3}]
        rows = [{"a": 1}, {"a": 1.5}, {"a": True}, {"a": "1"}]
        for name, expected in [("int", rows[:1]), ("number", rows[:2])]:
            filter_doc = {"a": {"$type": name}}
            matches = compile_value_filter(filter_doc)
            assert [row for row in rows if matches(row)] == expected
            assert [row for row in rows if match_value(filter_doc, row)] == expected

    def test_a_non_string_type_operand_is_a_parse_error(self):
        with pytest.raises(ParseError):
            compile_value_filter({"a": {"$type": ["int"]}})
        with pytest.raises(ParseError):
            compile_filter({"a": {"$type": ["int"]}})


def test_the_product_holds_no_filter_interpreter():
    """One home for the dialect: the oracles live under ``reference/``,
    and no other product module implements filter operators."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    oracle_names = {
        "match_value",
        "_match_field",
        "_op_holds",
        "_validate_operand",
        "_validate_operator_doc",
        "_FIELD_OPS",
        "naive_aggregate",
        "naive_update_value",
    }
    for path in package.rglob("*.py"):
        if "reference" in path.relative_to(package).parts:
            continue
        tree = python_ast.parse(path.read_text())
        defined = {getattr(node, "name", None) for node in python_ast.walk(tree)} | {
            target.id
            for node in python_ast.walk(tree)
            if isinstance(node, python_ast.Assign)
            for target in node.targets
            if isinstance(target, python_ast.Name)
        }
        assert not defined & oracle_names, path
    update = python_ast.parse((package / "mongo" / "update.py").read_text())
    assert "repro.mongo.aggregate" not in {
        node.module
        for node in python_ast.walk(update)
        if isinstance(node, python_ast.ImportFrom)
    }


# ---------------------------------------------------------------------------
# Randomised three-way differential: the JNL plan, the value-space closure
# and the reference interpreter, on every document.
# ---------------------------------------------------------------------------

_SCALARS = [0, 1, 2, 3, "a", "b", "ab", "", "a\n"]
_PATHS = ["k", "v", "o", "o.k", "o.v", "t", "t.0", "t.1.k", "w"]
_REGEXES = (
    "a ^a b$ ^a|b$ a|^b ^(a|b)$ a. [ab]$ ^[^a] a\\$ \\^ ab* ^$ b+ (ab)?$ ^a.*b$"
).split()
_TYPES = ["object", "array", "string", "number", "int"]


def _random_value(rng, depth=0, floats=False):
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        if floats and rng.random() < 0.3:
            return rng.choice([0.5, 1.0, 2.5, True, False])
        return rng.choice(_SCALARS)
    if roll < 0.75:
        size = rng.randrange(4)
        return [_random_value(rng, depth + 1, floats) for _ in range(size)]
    keys = rng.sample(["k", "v", "w"], rng.randrange(4))
    return {key: _random_value(rng, depth + 1, floats) for key in keys}


def _random_docs(rng, count, floats=False):
    docs = []
    for _ in range(count):
        keys = rng.sample(["k", "v", "o", "t", "w"], rng.randrange(1, 6))
        docs.append({key: _random_value(rng, floats=floats) for key in keys})
    return docs


def _random_operand(rng, operator, depth, floats):
    if operator in ("$eq", "$ne"):
        return _random_value(rng, 1 if rng.random() < 0.7 else 2 - depth)
    if operator in ("$gt", "$gte", "$lt", "$lte"):
        if floats and rng.random() < 0.3:
            return rng.choice([0.5, 1.5])
        return rng.randrange(4)
    if operator in ("$in", "$nin"):
        return [rng.choice(_SCALARS) for _ in range(rng.randrange(4))]
    if operator == "$type":
        return rng.choice(_TYPES)
    if operator == "$size":
        return rng.randrange(4)
    if operator == "$regex":
        return rng.choice(_REGEXES)
    if operator == "$elemMatch":
        if rng.random() < 0.5:
            return _random_operators(rng, depth + 1, floats)
        # A body whose keys all start with "$" reads as operators.
        body = _random_filter(rng, depth + 1, floats)
        body.setdefault(rng.choice(["k", "v"]), rng.choice(_SCALARS))
        return body
    return _random_operators(rng, depth + 1, floats)  # $not


_NODE_OPERATORS = (
    "$eq $ne $gt $gte $lt $lte $in $nin $type $size $regex $elemMatch $not"
).split()


def _random_operators(rng, depth, floats, exists=False):
    pool = _NODE_OPERATORS if depth < 3 else _NODE_OPERATORS[:-2]
    document = {
        operator: _random_operand(rng, operator, depth, floats)
        for operator in rng.sample(pool, rng.randrange(1, 3))
    }
    if exists and rng.random() < 0.3:
        document["$exists"] = rng.random() < 0.5
    return document


def _random_filter(rng, depth=0, floats=False):
    document = {}
    for _ in range(rng.randrange(1, 3)):
        roll = rng.random()
        if depth < 3 and roll < 0.25:
            branch = rng.choice(["$and", "$or", "$nor"])
            document[branch] = [
                _random_filter(rng, depth + 1, floats)
                for _ in range(rng.randrange(1, 4))
            ]
        elif roll < 0.5:
            document[rng.choice(_PATHS)] = _random_value(rng, 1)
        else:
            document[rng.choice(_PATHS)] = _random_operators(
                rng, depth, floats, exists=True
            )
    return document


class TestRandomisedDifferential:
    def test_jnl_plan_value_closure_and_reference_agree(self):
        rng = random.Random(3301)
        docs = _random_docs(rng, 60)
        trees = [JSONTree.from_value(doc) for doc in docs]
        collection = api.collection(docs)
        for _ in range(150 * _SCALE):
            filter_doc = _random_filter(rng)
            closure = compile_value_filter(filter_doc)
            query = compile_mongo_find(filter_doc)
            expected = [match_value(filter_doc, doc) for doc in docs]
            assert [closure(doc) for doc in docs] == expected, filter_doc
            assert [query.matches(tree) for tree in trees] == expected, filter_doc
            chosen = [doc for doc, hit in zip(docs, expected) if hit]
            assert collection.find(filter_doc) == chosen, filter_doc
            assert collection.aggregate([{"$match": filter_doc}]) == chosen

    def test_value_closure_and_reference_agree_beyond_the_model(self):
        """Floats and booleans -- in rows and operands -- are outside the
        JNL lowering; the value-space closure still answers as the
        reference does."""
        rng = random.Random(3302)
        docs = _random_docs(rng, 60, floats=True)
        for _ in range(150 * _SCALE):
            filter_doc = _random_filter(rng, floats=True)
            closure = compile_value_filter(filter_doc)
            expected = [match_value(filter_doc, doc) for doc in docs]
            assert [closure(doc) for doc in docs] == expected, filter_doc
