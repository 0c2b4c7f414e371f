"""Unit tests for the JSON-tree data model (Section 3.1)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    ModelError,
    UnsupportedValueError,
)
from repro.model.tree import JSONTree, Kind
from repro.mongo.find import compile_value_filter
from repro.mongo.projection import Projection
from repro.query.stages import path_trie, resolve_path
from repro.reference.mongo_oracles import match_value


class TestConstruction:
    def test_from_value_kinds(self):
        tree = JSONTree.from_value({"s": "x", "n": 7, "a": [1], "o": {}})
        root = tree.root
        assert tree.kind(root) is Kind.OBJECT
        assert tree.kind(tree.object_child(root, "s")) is Kind.STRING
        assert tree.kind(tree.object_child(root, "n")) is Kind.NUMBER
        assert tree.kind(tree.object_child(root, "a")) is Kind.ARRAY
        assert tree.kind(tree.object_child(root, "o")) is Kind.OBJECT

    def test_figure1_node_count(self, figure1_doc):
        # {name:{first,last}, age, hobbies:[f,y]}: 1+1+2+1+1+2 = 8 nodes.
        assert len(figure1_doc) == 8

    def test_section3_five_values(self, section3_doc):
        # The paper counts 5 JSON values inside the Section 3 document.
        assert len(section3_doc) == 5

    def test_atomic_root(self):
        assert JSONTree.from_value(5).to_value() == 5
        assert JSONTree.from_value("x").to_value() == "x"

    def test_tuple_becomes_array(self):
        assert JSONTree.from_value((1, 2)).to_value() == [1, 2]

    def test_floats_rejected(self):
        with pytest.raises(UnsupportedValueError):
            JSONTree.from_value({"x": 1.5})

    def test_booleans_rejected_by_default(self):
        with pytest.raises(UnsupportedValueError):
            JSONTree.from_value({"x": True})

    def test_none_rejected_by_default(self):
        with pytest.raises(UnsupportedValueError):
            JSONTree.from_value(None)

    def test_extended_mode_coerces_literals(self):
        tree = JSONTree.from_value([True, False, None], extended=True)
        assert tree.to_value() == ["true", "false", "null"]

    def test_non_string_keys_rejected(self):
        with pytest.raises(UnsupportedValueError):
            JSONTree.from_value({1: "x"})  # type: ignore[dict-item]


class TestFromJson:
    def test_round_trip(self, figure1_doc):
        text = figure1_doc.to_json()
        again = JSONTree.from_json(text)
        assert again == figure1_doc

    def test_duplicate_keys_detected(self):
        with pytest.raises(DuplicateKeyError):
            JSONTree.from_json('{"a": 1, "a": 2}')

    def test_nested_duplicate_keys_detected(self):
        with pytest.raises(DuplicateKeyError):
            JSONTree.from_json('{"outer": {"k": 1, "k": 2}}')

    def test_floats_rejected_in_text(self):
        with pytest.raises(UnsupportedValueError):
            JSONTree.from_json("[1.5]")

    def test_literals_rejected_without_extended(self):
        with pytest.raises(UnsupportedValueError):
            JSONTree.from_json("[true]")

    def test_extended_literals(self):
        assert JSONTree.from_json("[true, null]", extended=True).to_value() == [
            "true",
            "null",
        ]

    def test_malformed_text(self):
        with pytest.raises(ModelError):
            JSONTree.from_json("{nope}")


class TestAccess:
    def test_object_child_and_keys(self, figure1_doc):
        root = figure1_doc.root
        assert set(figure1_doc.object_keys(root)) == {"name", "age", "hobbies"}
        assert figure1_doc.object_child(root, "missing") is None

    def test_array_access(self, figure1_doc):
        hobbies = figure1_doc.object_child(figure1_doc.root, "hobbies")
        assert figure1_doc.array_length(hobbies) == 2
        first = figure1_doc.array_child(hobbies, 0)
        assert figure1_doc.value(first) == "fishing"
        assert figure1_doc.array_child(hobbies, 2) is None

    def test_negative_index_is_from_the_end(self, figure1_doc):
        hobbies = figure1_doc.object_child(figure1_doc.root, "hobbies")
        last = figure1_doc.array_child(hobbies, -1)
        assert figure1_doc.value(last) == "yoga"
        assert figure1_doc.array_child(hobbies, -3) is None

    def test_value_on_non_leaf_raises(self, figure1_doc):
        with pytest.raises(ModelError):
            figure1_doc.value(figure1_doc.root)

    def test_edges_carry_labels(self, figure1_doc):
        hobbies = figure1_doc.object_child(figure1_doc.root, "hobbies")
        assert [label for label, _ in figure1_doc.edges(hobbies)] == [0, 1]

    def test_parent_and_edge_label(self, figure1_doc):
        name = figure1_doc.object_child(figure1_doc.root, "name")
        assert figure1_doc.parent(name) == figure1_doc.root
        assert figure1_doc.edge_label(name) == "name"
        assert figure1_doc.parent(figure1_doc.root) is None


class TestTreeDomain:
    def test_domain_path(self, section3_doc):
        first = section3_doc.object_child(
            section3_doc.object_child(section3_doc.root, "name"), "first"
        )
        assert section3_doc.domain_path(first) == (0, 0)

    def test_label_path(self, figure1_doc):
        hobbies = figure1_doc.object_child(figure1_doc.root, "hobbies")
        yoga = figure1_doc.array_child(hobbies, 1)
        assert figure1_doc.label_path(yoga) == ("hobbies", 1)

    def test_height(self, figure1_doc):
        assert figure1_doc.height() == 2
        assert JSONTree.from_value(5).height() == 0

    def test_postorder_children_first(self, figure1_doc):
        seen: set[int] = set()
        for node in figure1_doc.postorder():
            for child in figure1_doc.children(node):
                assert child in seen
            seen.add(node)

    def test_descendants_preorder(self, figure1_doc):
        order = list(figure1_doc.descendants(figure1_doc.root))
        assert order[0] == figure1_doc.root
        assert len(order) == len(figure1_doc)


class TestSubtree:
    def test_subtree_is_valid_json(self, section3_doc):
        name = section3_doc.object_child(section3_doc.root, "name")
        sub = section3_doc.subtree(name)
        sub.validate()
        assert sub.to_value() == {"first": "John", "last": "Doe"}

    def test_subtree_of_leaf(self, section3_doc):
        age = section3_doc.object_child(section3_doc.root, "age")
        assert section3_doc.subtree(age).to_value() == 32

    def test_every_subtree_validates(self, figure1_doc):
        for node in figure1_doc.nodes():
            figure1_doc.subtree(node).validate()


class TestDeepDocuments:
    def test_deep_chain_beyond_recursion_limit(self):
        import sys

        depth = sys.getrecursionlimit() + 500
        value: object = 0
        for _ in range(depth):
            value = {"a": value}
        tree = JSONTree.from_value(value)
        assert tree.height() == depth
        assert len(tree) == depth + 1
        round_tripped = tree.to_value()
        for _ in range(depth):
            round_tripped = round_tripped["a"]
        assert round_tripped == 0


class TestValidate:
    def test_validate_accepts_built_trees(self, figure1_doc):
        figure1_doc.validate()

    def test_repr_truncates(self, figure1_doc):
        assert len(repr(figure1_doc)) < 80


# ---------------------------------------------------------------------------
# Path-guided materialisation: to_value(paths=trie).
# ---------------------------------------------------------------------------

_KEYS = st.sampled_from(["a", "b", "c", "d"])
_values = st.recursive(
    st.integers(min_value=0, max_value=9) | st.sampled_from(["", "x", "y"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=12,
)
_documents = st.dictionaries(_KEYS, _values, max_size=4)
# Dotted paths as segment tuples; "0"/"1" are array positions.
_paths = st.lists(
    st.lists(
        st.sampled_from(["a", "b", "c", "d", "0", "1"]), min_size=1, max_size=4
    ).map(tuple),
    max_size=4,
)


def _pruned(value, trie):
    """``value`` with the object members off every trie path deleted;
    arrays, scalars and anything under a leaf stay whole."""
    if trie is None or not isinstance(value, dict):
        return value
    return {
        key: _pruned(sub, trie[key]) for key, sub in value.items() if key in trie
    }


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for sub in value.values() if isinstance(value, dict) else value:
            yield from _containers(sub)


class TestPathGuidedToValue:
    def test_none_is_the_whole_document_and_the_empty_trie_is_empty(self):
        doc = {"a": {"b": [1, {"c": 2}]}, "d": "x"}
        tree = JSONTree.from_value(doc)
        assert tree.to_value(paths=None) == doc
        assert tree.to_value(None, {}) == {}
        # Only objects are pruned: an array or scalar root comes whole.
        assert JSONTree.from_value([1, {"a": 2}]).to_value(None, {}) == [1, {"a": 2}]
        assert JSONTree.from_value(7).to_value(None, {"a": None}) == 7

    def test_arrays_before_a_path_ends_come_whole(self):
        doc = {"b": {"c": [{"d": 1, "e": 2}], "f": 3}, "g": 4}
        tree = JSONTree.from_value(doc)
        assert tree.to_value(None, {"b": {"c": {"d": None}}}) == {
            "b": {"c": [{"d": 1, "e": 2}]}
        }
        # A scalar met early is kept; a subtree node is honoured.
        assert tree.to_value(None, {"g": {"h": None}}) == {"g": 4}
        b = tree.object_child(tree.root, "b")
        assert tree.to_value(b, {"f": None}) == {"f": 3}

    @given(_documents, _paths)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_whole_value_with_off_path_members_deleted(
        self, doc, paths
    ):
        tree = JSONTree.from_value(doc)
        trie = path_trie(paths)
        expected = _pruned(doc, trie)
        projected = tree.to_value(None, trie)
        # json.dumps compares key order too: a subsequence of the document's.
        assert json.dumps(projected) == json.dumps(expected)
        # Nothing is shared between calls or with the tree.
        again = tree.to_value(None, trie)
        assert not {id(c) for c in _containers(projected)} & {
            id(c) for c in _containers(again)
        }
        for container in list(_containers(projected)):
            container.clear()
        assert tree.to_value(None, trie) == expected
        assert tree.to_value() == doc

    @given(_documents, _paths)
    @settings(max_examples=200, deadline=None)
    def test_consumers_agree_on_projected_and_whole_rows(self, doc, paths):
        tree = JSONTree.from_value(doc)
        projected = tree.to_value(None, path_trie(paths))
        for path in paths:
            assert resolve_path(projected, path) == resolve_path(doc, path)
            for stop in range(1, len(path)):
                # A prefix reaches the same node; an object there has
                # only lost its off-path members.
                ours = resolve_path(projected, path[:stop])
                whole = resolve_path(doc, path[:stop])
                assert type(ours) is type(whole)
                assert isinstance(whole, dict) or ours == whole
        # Projection never reads a segment as an index ("a.0" is the key
        # "0", element-wise through arrays) and builds its own trie.
        projection = Projection({".".join(path): 1 for path in paths})
        assert projection.value_of(tree) == projection.apply_value(doc)

    @given(_documents, st.data())
    @settings(max_examples=200, deadline=None)
    def test_value_filters_agree_on_projected_and_whole_rows(self, doc, data):
        dotted = st.lists(
            st.sampled_from(["a", "b", "c", "0"]), min_size=1, max_size=3
        ).map(".".join)
        scalar = st.integers(min_value=0, max_value=9) | st.sampled_from(["x"])
        condition = st.one_of(
            scalar,  # equality, incl. scalar-in-array containment
            st.builds(lambda v: {"$elemMatch": {"$eq": v}}, scalar),
            st.builds(lambda v: {"$elemMatch": {"c": v}}, scalar),
            st.sampled_from(
                [{"$exists": False}, {"$exists": True}, {"$type": "object"}]
            ),
            st.builds(lambda n: {"$size": n}, st.integers(0, 3)),
            st.builds(lambda n: {"$not": {"$gt": n}}, st.integers(0, 9)),
        )
        clause = st.dictionaries(dotted, condition, min_size=1, max_size=2)
        clauses = st.lists(clause, min_size=1, max_size=2)
        filter_doc = data.draw(
            clause
            | st.builds(lambda subs: {"$or": subs}, clauses)
            | st.builds(lambda subs: {"$nor": subs}, clauses)
        )
        paths: list = []
        predicate = compile_value_filter(filter_doc, paths)
        projected = JSONTree.from_value(doc).to_value(None, path_trie(paths))
        assert predicate(projected) == predicate(doc) == match_value(filter_doc, doc)
