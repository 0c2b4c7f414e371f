"""MongoDB projection: the Section-6 JSON-to-JSON transformation."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.model.tree import JSONTree
from repro.mongo import Projection
from repro import api

DOC = {
    "name": {"first": "John", "last": "Doe"},
    "age": 32,
    "hobbies": ["fishing", "yoga"],
    "friends": [
        {"name": "Sue", "age": 35},
        {"name": "Bob", "age": 28},
    ],
}


class TestInclusion:
    def test_top_level_field(self):
        assert Projection({"age": 1}).apply_value(DOC) == {"age": 32}

    def test_nested_path(self):
        assert Projection({"name.first": 1}).apply_value(DOC) == {
            "name": {"first": "John"}
        }

    def test_multiple_paths(self):
        projected = Projection({"name.last": 1, "age": 1}).apply_value(DOC)
        assert projected == {"name": {"last": "Doe"}, "age": 32}

    def test_whole_subtree(self):
        assert Projection({"name": 1}).apply_value(DOC)["name"] == DOC["name"]

    def test_through_arrays(self):
        projected = Projection({"friends.name": 1}).apply_value(DOC)
        assert projected == {"friends": [{"name": "Sue"}, {"name": "Bob"}]}

    def test_missing_path_projects_empty(self):
        assert Projection({"ghost": 1}).apply_value(DOC) == {}

    def test_atomic_document(self):
        assert Projection({"x": 1}).apply_value(42) == {}


class TestExclusion:
    def test_drop_field(self):
        projected = Projection({"age": 0}).apply_value(DOC)
        assert "age" not in projected
        assert projected["name"] == DOC["name"]

    def test_drop_nested(self):
        projected = Projection({"name.first": 0}).apply_value(DOC)
        assert projected["name"] == {"last": "Doe"}
        assert projected["age"] == 32

    def test_drop_through_arrays(self):
        projected = Projection({"friends.age": 0}).apply_value(DOC)
        assert projected["friends"] == [{"name": "Sue"}, {"name": "Bob"}]

    def test_atomic_untouched(self):
        assert Projection({"x": 0}).apply_value("scalar") == "scalar"


class TestValidation:
    def test_mixed_modes_rejected(self):
        with pytest.raises(ParseError):
            Projection({"a": 1, "b": 0})

    def test_bad_flag_rejected(self):
        with pytest.raises(ParseError):
            Projection({"a": 2})

    def test_empty_path_rejected(self):
        with pytest.raises(ParseError):
            Projection({"": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ParseError):
            Projection([1])  # type: ignore[arg-type]


class TestTreeInterface:
    def test_apply_returns_valid_tree(self):
        tree = JSONTree.from_value(DOC)
        projected = Projection({"name.first": 1}).apply(tree)
        projected.validate()
        assert projected.to_value() == {"name": {"first": "John"}}


class TestFindWithProjection:
    def test_paper_style_find(self):
        people = api.collection([DOC, {"name": {"first": "Amy"}, "age": 20}])
        results = people.find(
            {"age": {"$gt": 30}}, {"name.first": 1, "age": 1}
        )
        assert results == [{"name": {"first": "John"}, "age": 32}]

    def test_exclusion_in_find(self):
        people = api.collection([DOC])
        results = people.find({}, {"friends": 0, "hobbies": 0})
        assert results == [
            {"name": {"first": "John", "last": "Doe"}, "age": 32}
        ]

    def test_empty_projection_means_whole_documents(self):
        people = api.collection([DOC])
        assert people.find({}, {}) == [DOC]


class TestProjectedMaterialisation:
    """An inclusion projection materialises only the paths it keeps
    (``JSONTree.to_value(paths=projection.paths)``) -- the answers must
    not notice, on any backend."""

    DOCS = [
        {"b": {"c": [{"d": 1, "e": 2}, {"e": 3}, 4], "f": 5}, "g": 6},
        {"b": [{"c": {"d": 7, "e": 8}}, {"c": [{"d": 9}]}], "g": 10},
        {"b": {"c": 11}},
        {"g": 12},
    ]
    CASES = [
        ({"b.c.d": 1}, [
            {"b": {"c": [{"d": 1}, {}]}},
            {"b": [{"c": {"d": 7}}, {"c": [{"d": 9}]}]},
            {"b": {}},
            {},
        ]),
        ({"g": 1, "b.f": 1}, [
            {"b": {"f": 5}, "g": 6},
            {"b": [{}, {}], "g": 10},
            {"b": {}},
            {"g": 12},
        ]),
        ({"b.c.d": 0}, [
            {"b": {"c": [{"e": 2}, {"e": 3}, 4], "f": 5}, "g": 6},
            {"b": [{"c": {"e": 8}}, {"c": [{}]}], "g": 10},
            {"b": {"c": 11}},
            {"g": 12},
        ]),
    ]

    @pytest.mark.parametrize("projection, expected", CASES)
    def test_collection_snapshot_and_sharded_agree(self, projection, expected):
        single = api.collection(self.DOCS)
        assert [
            Projection(projection).apply_value(doc) for doc in self.DOCS
        ] == expected
        assert single.find({}, projection) == expected
        assert single.snapshot_view().find({}, projection) == expected
        with api.collection(self.DOCS, shards=2, parallel=False) as fleet:
            assert fleet.find({}, projection) == expected

    def test_value_of_honours_a_subtree_node(self):
        tree = JSONTree.from_value(self.DOCS[0])
        node = tree.object_child(tree.root, "b")
        assert Projection({"c.d": 1}).value_of(tree, node) == {
            "c": [{"d": 1}, {}]
        }

    def test_a_listed_prefix_absorbs_its_extensions(self):
        for spec in ({"b": 1, "b.c": 1}, {"b.c": 1, "b": 1}):
            assert Projection(spec).paths == {"b": None}
            assert Projection(spec).apply_value(self.DOCS[2]) == self.DOCS[2]
