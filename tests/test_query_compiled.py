"""The compiled-query subsystem: differential and batch correctness.

Compiled plans must be *indistinguishable* from the one-shot reference
path on every workload family: same node sets as the denotational
reference evaluator, same document order as a full preorder scan, same
Mongo semantics as per-document root evaluation.
"""

from __future__ import annotations

import random

import pytest

from repro.jnl import ast as jnl
from repro.jnl.parser import parse_jnl
from repro.jsonpath import jsonpath_nodes, jsonpath_query
from repro.jsonpath.parser import parse_jsonpath
from repro.model.tree import JSONTree
from repro.mongo import compile_filter
from repro.query import (
    CompiledQuery,
    compile_formula,
    compile_mongo_find,
    compile_path_query,
    compile_query,
    evaluate_many,
    evaluate_queries,
    match_many,
    select_many,
    select_queries,
)
from repro.reference.jnl_evaluator import eval_binary, eval_unary
from repro.reference.workloads import (
    balanced_tree,
    deep_chain,
    duplicate_heavy_array,
    people_collection,
    random_jnl_unary,
    random_tree,
    wide_array,
    wide_object,
)
from repro import api

FAMILY_TREES = [
    deep_chain(6),
    wide_object(8),
    wide_array(8, {"a": 1}),
    balanced_tree(2, 3),
    duplicate_heavy_array(6, 2),
    JSONTree.from_value(people_collection(3, seed=11)),
]


def _reference_nodes(tree: JSONTree, formula: jnl.Unary) -> frozenset[int]:
    return frozenset(eval_unary(tree, formula))


class TestCompiledQueryBasics:
    def test_requires_exactly_one_of_formula_and_path(self):
        with pytest.raises(ValueError):
            CompiledQuery("jnl", "x")
        with pytest.raises(ValueError):
            CompiledQuery(
                "jnl", "x", formula=jnl.Top(), path=jnl.Eps()
            )

    def test_automata_prebuilt_for_every_modal_subformula(self):
        query = compile_query(
            'has(.a) and has(.b[0]) and matches(.c, "x")', "jnl", cache=None
        )
        assert query.formula is not None
        # One automaton per distinct path operand.
        assert len(query.automata) == 3

    def test_path_query_compiles_own_automaton(self):
        query = compile_query(".a.b", "jnl-path", cache=None)
        assert query.path is not None
        assert query.path in query.automata

    def test_repr_mentions_dialect(self):
        assert "jsonpath" in repr(compile_query("$.a", "jsonpath", cache=None))

    def test_unknown_dialect_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            compile_query("$.a", "xpath", cache=None)


class TestDifferentialAgainstReference:
    """Compiled results == denotational reference on workload families."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_formulas_on_family_trees(self, seed):
        rng = random.Random(seed)
        formula = random_jnl_unary(rng, depth=3, allow_eqpath=(seed % 2 == 0))
        query = compile_formula(formula)
        for tree in FAMILY_TREES:
            expected = _reference_nodes(tree, formula)
            assert frozenset(query.select(tree)) == expected
            # Point evaluation agrees with the set-based verdict at
            # every node, not just the root.
            evaluator = query.evaluator(tree)
            for node in tree.nodes():
                assert evaluator.satisfies_at(node, formula) == (
                    node in expected
                ), (seed, node)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_formulas_on_random_trees(self, seed):
        rng = random.Random(100 + seed)
        formula = random_jnl_unary(rng, depth=3)
        tree = random_tree(seed)
        query = compile_formula(formula)
        assert frozenset(query.select(tree)) == _reference_nodes(tree, formula)

    def test_parsed_jnl_text_matches_reference(self, figure1_doc):
        text = "has(.name.first) and not has(.missing)"
        query = compile_query(text, "jnl", cache=None)
        expected = _reference_nodes(figure1_doc, parse_jnl(text))
        assert frozenset(query.select(figure1_doc)) == expected

    @pytest.mark.parametrize(
        "path_text",
        [
            "$.store.book[*].price",
            "$..price",
            "$.store.book[?(@.price > 8)].title",
            "$.store.*",
            "$.store.book[0:2]",
        ],
    )
    def test_jsonpath_matches_reference_relation(self, store_doc, path_text):
        path = parse_jsonpath(path_text)
        root = store_doc.root
        expected = {b for a, b in eval_binary(store_doc, path) if a == root}
        assert set(jsonpath_nodes(store_doc, path_text)) == expected

    def test_mongo_find_matches_reference_evaluation(self):
        docs = people_collection(40, seed=3)
        filter_doc = {
            "age": {"$gte": 30, "$lt": 70},
            "address.city": {"$in": ["Santiago", "Lille"]},
        }
        formula = compile_filter(filter_doc)
        collection = api.collection(docs)
        expected = [
            tree.to_value()
            for tree in collection.trees
            if tree.root in eval_unary(tree, formula)
        ]
        assert collection.find(filter_doc) == expected


class TestDocumentOrder:
    def test_select_is_preorder(self, store_doc):
        selected = jsonpath_nodes(store_doc, "$..price")
        full_scan = [
            node
            for node in store_doc.descendants(store_doc.root)
            if node in set(selected)
        ]
        assert selected == full_scan

    def test_document_order_method_matches_descendants(self, store_doc):
        nodes = list(store_doc.nodes())
        random.Random(0).shuffle(nodes)
        assert store_doc.document_order(nodes) == list(
            store_doc.descendants(store_doc.root)
        )

    def test_preorder_ranks_cached_and_consistent(self, figure1_doc):
        ranks = figure1_doc.preorder_ranks()
        assert ranks is figure1_doc.preorder_ranks()  # cached
        assert ranks[figure1_doc.root] == 0
        assert sorted(ranks) == list(range(len(figure1_doc)))


class TestBatchEvaluation:
    def test_one_query_many_trees(self):
        trees = [JSONTree.from_value(doc) for doc in people_collection(10, seed=5)]
        query = compile_query("$.name.first", "jsonpath", cache=None)
        assert evaluate_many(query, trees) == [query.values(t) for t in trees]
        assert select_many(query, trees) == [query.select(t) for t in trees]

    def test_match_many_agrees_with_single_matches(self):
        trees = [JSONTree.from_value(doc) for doc in people_collection(10, seed=6)]
        query = compile_mongo_find({"age": {"$gte": 40}}, cache=None)
        flags = match_many(query, trees)
        assert flags == [query.matches(t) for t in trees]
        assert any(flags) and not all(flags)

    def test_many_queries_one_tree_shared_traversal(self):
        tree = JSONTree.from_value({"library": people_collection(5, seed=9)})
        queries = [
            compile_query(text, "jsonpath", cache=None)
            for text in (
                "$.library[?(@.age >= 18)].name.first",
                "$.library[?(@.age >= 18)].age",
                "$.library[*].id",
            )
        ]
        shared = evaluate_queries(queries, tree)
        assert shared == [query.values(tree) for query in queries]
        shared_nodes = select_queries(queries, tree)
        assert shared_nodes == [query.select(tree) for query in queries]

    def test_batch_mixes_filters_and_selectors(self, figure1_doc):
        queries = [
            compile_query("has(.name)", "jnl", cache=None),
            compile_query(".hobbies[0]", "jnl-path", cache=None),
        ]
        values = evaluate_queries(queries, figure1_doc)
        assert values[1] == ["fishing"]
        assert figure1_doc.root in select_queries(queries, figure1_doc)[0]


class TestFrontendWrappers:
    def test_jsonpath_query_unchanged_semantics(self, store_doc):
        assert jsonpath_query(store_doc, "$.store.bicycle.price") == [19]

    def test_collection_count_and_find_trees(self):
        collection = api.collection(people_collection(20, seed=8))
        filter_doc = {"age": {"$gte": 50}}
        trees = collection.find_trees(filter_doc)
        assert len(trees) == collection.count(filter_doc)
        assert all(t.to_value()["age"] >= 50 for t in trees)

    def test_projection_still_applied(self):
        collection = api.collection([{"name": "Sue", "age": 3}])
        assert collection.find({}, {"name": 1}) == [{"name": "Sue"}]

    def test_compiled_plan_reusable_across_trees(self):
        query = compile_path_query(jnl.Compose(jnl.Key("a"), jnl.Key("b")))
        one = JSONTree.from_value({"a": {"b": 1}})
        two = JSONTree.from_value({"a": {"b": "x"}, "c": 0})
        assert query.values(one) == [1]
        assert query.values(two) == ["x"]
