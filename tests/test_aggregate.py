"""Aggregation pipelines: stage semantics, pruning, differentials."""

from __future__ import annotations

import asyncio
import json
import os
import random

import pytest

from repro.cache import artifact_cache, clear_artifact_cache
from repro.client import aconnect
from repro.errors import ModelError, ParseError
from repro.explain import Explain
from repro.model.tree import JSONTree
from repro.mongo.aggregate import (
    CompiledPipeline,
    compile_pipeline,
    parse_pipeline,
    pipeline_cache_key,
)
from repro.mongo.find import compile_value_filter
from repro.query import aggregate_many, compile_mongo_find, planner
from repro.query.stages import MISSING, resolve_path, sort_key, values_equal
from repro.reference.mongo_oracles import match_value, naive_aggregate
from repro.reference.workloads import people_collection
from repro.server import ReproServer
from repro.store import Collection
from repro import api

PEOPLE = people_collection(300, seed=7)

# The randomised differential suites scale with this knob: 1 per PR,
# ~20 in the scheduled nightly CI job.
_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))


@pytest.fixture(scope="module")
def people() -> Collection:
    return api.collection(people_collection(300, seed=7))


def run(docs, pipeline):
    """Both executors over the same documents; asserts they agree.

    Always exercises the staged value path; documents inside the strict
    model (no null/booleans) additionally round through an indexed
    collection, which must not change a single row.
    """
    staged = aggregate_many(pipeline, docs)
    naive = naive_aggregate(docs, pipeline)
    assert staged == naive
    try:
        collection = api.collection(docs)
    except ModelError:
        pass  # null/booleans: outside the tree model, value path only
    else:
        assert aggregate_many(pipeline, collection) == naive
    return staged


# ---------------------------------------------------------------------------
# Stage semantics.
# ---------------------------------------------------------------------------


class TestUnwind:
    DOCS = [
        {"id": 0, "tags": ["a", "b"]},
        {"id": 1, "tags": []},
        {"id": 2},
        {"id": 3, "tags": "scalar"},
        {"id": 4, "tags": None},
    ]

    def test_array_emits_one_row_per_element(self):
        rows = run(self.DOCS, [{"$unwind": "$tags"}])
        assert [row["id"] for row in rows] == [0, 0, 3]
        assert rows[0]["tags"] == "a" and rows[1]["tags"] == "b"

    def test_non_array_passes_through_unchanged(self):
        rows = run(self.DOCS, [{"$unwind": "$tags"}])
        assert {"id": 3, "tags": "scalar"} in rows

    def test_missing_null_and_empty_drop_the_document(self):
        rows = run(self.DOCS, [{"$unwind": "$tags"}])
        assert all(row["id"] not in (1, 2, 4) for row in rows)

    def test_nested_path(self):
        docs = [{"a": {"b": [1, 2]}, "keep": "x"}]
        rows = run(docs, [{"$unwind": "$a.b"}])
        assert rows == [
            {"a": {"b": 1}, "keep": "x"},
            {"a": {"b": 2}, "keep": "x"},
        ]

    def test_options_form(self):
        rows = run(self.DOCS, [{"$unwind": {"path": "$tags"}}])
        assert len(rows) == 3

    def test_siblings_are_shared_not_copied_along_the_spine(self):
        docs = [{"a": {"b": [1, 2]}, "big": {"payload": [1, 2, 3]}}]
        rows = aggregate_many([{"$unwind": "$a.b"}], api.collection(docs))
        assert rows[0]["big"] is rows[1]["big"]


class TestGroup:
    DOCS = [
        {"k": "x", "n": 1, "s": "p"},
        {"k": "x", "n": 3},
        {"k": "y", "n": 5, "s": "q"},
        {"k": "x", "n": "not-a-number"},
    ]

    def test_accumulators(self):
        rows = run(
            self.DOCS,
            [
                {
                    "$group": {
                        "_id": "$k",
                        "total": {"$sum": "$n"},
                        "avg": {"$avg": "$n"},
                        "low": {"$min": "$n"},
                        "high": {"$max": "$n"},
                        "all": {"$push": "$s"},
                        "rows": {"$count": {}},
                    }
                }
            ],
        )
        assert rows == [
            {
                "_id": "x",
                "total": 4,
                "avg": 2.0,
                "low": 1,
                "high": "not-a-number",
                "all": ["p"],
                "rows": 3,
            },
            {
                "_id": "y",
                "total": 5,
                "avg": 5.0,
                "low": 5,
                "high": 5,
                "all": ["q"],
                "rows": 1,
            },
        ]

    def test_missing_id_groups_as_null(self):
        rows = run(self.DOCS, [{"$group": {"_id": "$nope", "n": {"$sum": 1}}}])
        assert rows == [{"_id": None, "n": 4}]

    def test_composite_id_expression(self):
        rows = run(
            self.DOCS,
            [{"$group": {"_id": {"key": "$k", "tag": "lit"}, "n": {"$sum": 1}}}],
        )
        assert {"_id": {"key": "y", "tag": "lit"}, "n": 1} in rows

    def test_avg_of_no_numbers_is_null(self):
        rows = run(
            [{"k": "x", "v": "s"}],
            [{"$group": {"_id": "$k", "a": {"$avg": "$v"}}}],
        )
        assert rows == [{"_id": "x", "a": None}]

    def test_bool_and_int_ids_stay_distinct_groups(self):
        rows = run(
            [{"v": 1}, {"v": True}, {"v": 1}],
            [{"$group": {"_id": "$v", "n": {"$sum": 1}}}],
        )
        assert {"_id": 1, "n": 2} in rows
        assert {"_id": True, "n": 1} in rows


class TestSortSkipLimitCount:
    DOCS = [
        {"a": 3, "b": "z"},
        {"a": 1, "b": "y"},
        {"a": 3, "b": "x"},
        {"b": "w"},
    ]

    def test_multi_key_sort_with_directions(self):
        rows = run(self.DOCS, [{"$sort": {"a": -1, "b": 1}}])
        assert rows == [
            {"a": 3, "b": "x"},
            {"a": 3, "b": "z"},
            {"a": 1, "b": "y"},
            {"b": "w"},  # missing orders below every number, desc-last
        ]

    def test_missing_orders_first_ascending(self):
        rows = run(self.DOCS, [{"$sort": {"a": 1}}])
        assert rows[0] == {"b": "w"}

    def test_sort_is_stable_on_ties(self):
        rows = run(self.DOCS, [{"$sort": {"a": 1}}])
        assert rows[1:] == [self.DOCS[1], self.DOCS[0], self.DOCS[2]]

    def test_skip_and_limit(self):
        assert run(self.DOCS, [{"$sort": {"a": 1}}, {"$skip": 1}, {"$limit": 2}]) == [
            {"a": 1, "b": "y"},
            {"a": 3, "b": "z"},
        ]

    def test_skip_past_the_end(self):
        assert run(self.DOCS, [{"$skip": 99}]) == []

    def test_count(self):
        assert run(self.DOCS, [{"$count": "total"}]) == [{"total": 4}]

    def test_count_of_empty_input_emits_nothing(self):
        assert run(self.DOCS, [{"$match": {"a": 99}}, {"$count": "n"}]) == []


class TestProjectAndMatch:
    def test_inclusion_projection(self):
        rows = run(
            [{"a": 1, "b": 2, "c": {"d": 3, "e": 4}}],
            [{"$project": {"a": 1, "c.d": 1}}],
        )
        assert rows == [{"a": 1, "c": {"d": 3}}]

    def test_non_leading_match_runs_on_pipeline_products(self):
        rows = run(
            [{"k": "x", "n": 1}, {"k": "x", "n": 2}, {"k": "y", "n": 5}],
            [
                {"$group": {"_id": "$k", "total": {"$sum": "$n"}}},
                {"$match": {"total": {"$gt": 4}}},
            ],
        )
        assert rows == [{"_id": "y", "total": 5}]

    def test_empty_pipeline_returns_every_document(self):
        docs = [{"a": 1}, {"a": 2}]
        assert run(docs, []) == docs

    def test_match_only_pipeline(self):
        rows = run(PEOPLE, [{"$match": {"address.city": "Talca"}}])
        assert rows and all(r["address"]["city"] == "Talca" for r in rows)


# ---------------------------------------------------------------------------
# Parse errors.
# ---------------------------------------------------------------------------


class TestParseErrors:
    @pytest.mark.parametrize(
        "pipeline",
        [
            {"$match": {}},  # not a list
            [{"$match": {}, "$limit": 1}],  # two operators in one stage
            [{"$frobnicate": {}}],  # unknown stage
            [{"$group": {"n": {"$sum": 1}}}],  # no _id
            [{"$group": {"_id": None, "n": {"$bogus": 1}}}],  # bad accumulator
            [{"$group": {"_id": None, "a.b": {"$sum": 1}}}],  # dotted field
            [{"$group": {"_id": None, "n": {"$sum": 1, "$min": 1}}}],
            [{"$group": {"_id": None, "n": {"$count": {"x": 1}}}}],
            [{"$group": {"_id": {"$add": [1, 2]}, "n": {"$sum": 1}}}],
            [{"$sort": {}}],  # empty sort spec
            [{"$sort": {"a": 2}}],  # bad direction
            [{"$sort": {"a": True}}],  # boolean direction
            [{"$limit": 0}],
            [{"$limit": "3"}],
            [{"$skip": -1}],
            [{"$count": ""}],
            [{"$count": "$x"}],
            [{"$count": "a.b"}],
            [{"$unwind": "tags"}],  # no $ prefix
            [{"$unwind": 3}],
            [{"$unwind": "$"}],  # empty path
            [{"$match": {"age": {"$gt": "x"}}}],  # non-numeric bound
            [{"$match": {"age": {"$gt": True}}}],  # boolean bound
            [{"$match": {"hobbies": {"$size": 1.5}}}],  # $size stays integral
            [{"$limit": 5}, {"$match": {"hobbies": {"$size": 1.0}}}],
            [{"$match": {"$bogus": []}}],
            # Non-leading stages validate operands at compile time too:
            # position must not change whether a pipeline is accepted.
            [{"$limit": 5}, {"$match": {"age": {"$gt": "x"}}}],
            [{"$limit": 5}, {"$match": {"age": {"$in": 3}}}],
            [{"$limit": 5}, {"$match": {"a": {"$type": "frob"}}}],
            [{"$limit": 5}, {"$match": {"a": {"$regex": "("}}}],
            [{"$limit": 5}, {"$match": {"a": {"$not": {"$size": "x"}}}}],
            [{"$limit": 5}, {"$match": {"a": {"$elemMatch": {"$gt": []}}}}],
            [{"$project": {"a": 2}}],  # invalid projection flag
            [{"$project": {"a": 1, "b": 0}}],  # mixed projection
        ],
    )
    def test_rejected_at_compile_time(self, pipeline):
        with pytest.raises(ParseError):
            compile_pipeline(pipeline, cache=None)

    def test_naive_rejects_the_same_shapes(self):
        with pytest.raises(ParseError):
            naive_aggregate([], {"$match": {}})
        with pytest.raises(ParseError):
            naive_aggregate([], [{"$frobnicate": {}}])
        with pytest.raises(ParseError):
            naive_aggregate([], [{"$group": {"n": {"$sum": 1}}}])

    @pytest.mark.parametrize(
        "pipeline",
        [
            [{"$skip": True}],
            [{"$skip": -1}],
            [{"$skip": "2"}],
            [{"$limit": 0}],
            [{"$limit": "3"}],
            [{"$sort": {"a": 2}}],
            [{"$sort": {"a": True}}],
            [{"$count": 3}],
            [{"$count": "$x"}],
        ],
    )
    def test_naive_validates_specs_like_the_staged_executor(self, pipeline):
        """Both evaluators must reject an invalid spec, never TypeError
        or silently succeed on one side (the differential oracle has to
        agree on invalid-input behaviour too)."""
        with pytest.raises(ParseError):
            compile_pipeline(pipeline, cache=None)
        with pytest.raises(ParseError):
            naive_aggregate([{"a": 1}], pipeline)

    def test_parse_pipeline_normalises(self):
        assert parse_pipeline([{"$limit": 3}]) == (("$limit", 3),)


# ---------------------------------------------------------------------------
# Index pruning: the leading $match provably routes through the planner.
# ---------------------------------------------------------------------------


class TestIndexPruning:
    PIPELINE = [
        {"$match": {"name.first": "Sue", "address.city": "Santiago"}},
        {"$group": {"_id": "$name.last", "n": {"$sum": 1}}},
    ]

    def test_explain_reports_index_pruning(self, people):
        # Hinted: the prune-and-verify path (unhinted, these array-free
        # equalities are covered and nothing is scanned).
        report = people.explain_aggregate(
            self.PIPELINE, hint={"no_semantic": True}
        )
        assert report.used_indexes
        assert report.candidates is not None
        assert report.candidates < report.total
        assert report.scanned == report.candidates
        assert report.pruned == report.total - report.scanned
        assert report.stages[0].mode == "index-pruned"
        assert report.stages[1].op == "$group"
        assert report.stages[1].mode == "materialised"

    def test_lead_query_goes_through_the_planner(self, people):
        """The merged leading $match is a PR-3 logical plan: the
        planner's own find explain agrees with the aggregation report."""
        compiled = compile_pipeline(self.PIPELINE)
        assert compiled.lead_query is not None
        plan_report = planner.explain(people, compiled.lead_query)
        agg_report = compiled.explain(people)
        assert isinstance(plan_report, Explain)
        assert plan_report.kind == "find"
        assert plan_report.used_indexes
        assert plan_report.matched == agg_report.matched
        assert agg_report.scanned < len(people)

    def test_consecutive_leading_matches_merge(self, people):
        split = [
            {"$match": {"name.first": "Sue"}},
            {"$match": {"address.city": "Santiago"}},
            {"$group": {"_id": "$name.last", "n": {"$sum": 1}}},
        ]
        compiled = compile_pipeline(split)
        assert compiled.lead_count == 2
        report = compiled.explain(people)
        assert [stage.mode for stage in report.stages] == [
            "index-pruned",
            "index-pruned",
            "materialised",
        ]
        assert compiled.execute(people) == aggregate_many(self.PIPELINE, people)

    def test_non_leading_match_is_streamed(self, people):
        pipeline = [
            {"$unwind": "$hobbies"},
            {"$match": {"hobbies": "chess"}},
        ]
        report = people.explain_aggregate(pipeline)
        assert report.candidates is None  # no leading $match to prune with
        assert report.scanned == report.total
        assert [stage.mode for stage in report.stages] == ["streamed", "streamed"]

    def test_unindexed_collection_streams(self):
        collection = api.collection(PEOPLE[:50], indexed=False)
        report = collection.explain_aggregate(self.PIPELINE)
        assert not report.used_indexes
        assert report.stages[0].mode == "streamed"
        assert collection.aggregate(self.PIPELINE) == naive_aggregate(
            PEOPLE[:50], self.PIPELINE
        )

    def test_mutation_is_never_stale(self):
        collection = api.collection(PEOPLE[:20])
        pipeline = [
            {"$match": {"address.city": "Talca"}},
            {"$count": "n"},
        ]
        before = collection.aggregate(pipeline)
        added = collection.insert(
            {"id": 999, "address": {"city": "Talca"}, "age": 1}
        )
        after = collection.aggregate(pipeline)
        expected = (before[0]["n"] if before else 0) + 1
        assert after == [{"n": expected}]
        collection.remove(added)
        assert collection.aggregate(pipeline) == before


# ---------------------------------------------------------------------------
# The covered-group rung: an unfiltered $group read off the postings.
# ---------------------------------------------------------------------------

_TOWNS = ["Lyon", "Oslo", "Rome", "Kyiv"]


def _town_people(count: int) -> list:
    rng = random.Random(31)
    return [
        {
            "user": user,
            "age": rng.randrange(18, 60),
            "city": rng.choice(_TOWNS),
            "address": {"zip": rng.randrange(7)},
            "tags": rng.sample(["a", "b", "c", "d", "e"], 3),
        }
        for user in range(count)
    ]


# The three unfiltered pipelines of the analytics workload, and its
# three filtered ones (which keep the row path).
_SCAN_PIPELINES = [
    [{"$group": {"_id": "$city", "n": {"$sum": 1}, "avg_age": {"$avg": "$age"}}}],
    [{"$unwind": "$tags"}, {"$group": {"_id": "$tags", "n": {"$sum": 1}}}],
    [{"$group": {"_id": "$address.zip", "users": {"$push": "$user"}}}],
]
_PRUNED_PIPELINES = [
    [
        {"$match": {"age": {"$gt": 40}}},
        {"$group": {"_id": "$city", "n": {"$sum": 1}}},
        {"$sort": {"n": -1, "_id": 1}},
        {"$limit": 3},
    ],
    [
        {"$match": {"city": "Oslo"}},
        {"$project": {"user": 1, "age": 1}},
        {"$sort": {"age": -1, "user": 1}},
        {"$limit": 5},
    ],
    [{"$match": {"age": {"$gte": 30, "$lt": 40}}}, {"$count": "n"}],
]


def _modes(collection, pipeline, **hint) -> list:
    report = collection.explain_aggregate(pipeline, **hint)
    return [(stage.op, stage.mode) for stage in report.stages]


def _is_covered(collection, pipeline) -> bool:
    return ("$group", "covered") in _modes(collection, pipeline)


class TestCoveredGroup:
    DOCS = _town_people(200)

    @pytest.fixture(scope="class")
    def towns(self):
        return api.collection(self.DOCS)

    @pytest.mark.parametrize("pipeline", _SCAN_PIPELINES + _PRUNED_PIPELINES)
    def test_equals_the_row_path_and_the_oracle(self, towns, pipeline):
        expected = json.dumps(naive_aggregate(self.DOCS, pipeline))
        assert json.dumps(towns.aggregate(pipeline)) == expected
        hinted = towns.aggregate(pipeline, hint={"no_semantic": True})
        assert json.dumps(hinted) == expected

    @pytest.mark.parametrize("pipeline", _SCAN_PIPELINES)
    def test_an_unfiltered_group_scans_nothing(self, towns, pipeline):
        report = towns.explain_aggregate(pipeline)
        assert report.scanned == 0 and report.candidates is None
        assert report.matched == report.total == len(self.DOCS)
        assert report.results == len(towns.aggregate(pipeline))
        modes = [stage.mode for stage in report.stages]
        assert modes == ["covered"] * len(pipeline)
        hinted = _modes(towns, pipeline, hint={"no_semantic": True})
        assert ("$group", "materialised") in hinted

    @pytest.mark.parametrize("pipeline", _PRUNED_PIPELINES)
    def test_a_filtered_pipeline_keeps_the_row_path(self, towns, pipeline):
        assert all(mode != "covered" for _, mode in _modes(towns, pipeline))

    def test_no_row_is_materialised(self, towns, monkeypatch):
        seen = []
        original = JSONTree.to_value

        def spy(tree, node=None, paths=None):
            seen.append(node)
            return original(tree, node, paths)

        monkeypatch.setattr(JSONTree, "to_value", spy)
        for pipeline in (_SCAN_PIPELINES[0], _SCAN_PIPELINES[2]):
            towns.aggregate(pipeline)
        assert seen == []
        # Unwound groups first seen in one document read that document's
        # array once, for the order of their first occurrences.
        rows = towns.aggregate(_SCAN_PIPELINES[1])
        assert 0 < len(seen) < len(rows)

    def test_first_seen_order_and_the_null_group(self):
        docs = [
            {"t": ["b", "a", "b"], "k": 2},
            {"t": "c", "v": 1},
            {"t": [], "k": 1, "v": 5},
            {"t": ["a", "d", "c"], "k": 2, "v": 3},
            {"k": 1, "v": "s"},
        ]
        collection = api.collection(docs)
        unwound = [{"$unwind": "$t"}, {"$group": {"_id": "$t", "n": {"$sum": 1}}}]
        grouped = [
            {
                "$group": {
                    "_id": "$k",
                    "n": {"$count": {}},
                    "s": {"$sum": "$v"},
                    "lo": {"$min": "$v"},
                    "all": {"$push": "$v"},
                }
            }
        ]
        assert collection.aggregate(unwound) == [
            {"_id": "b", "n": 2},
            {"_id": "a", "n": 2},
            {"_id": "c", "n": 2},
            {"_id": "d", "n": 1},
        ]
        # "a" entered the postings first, but is first seen after "d".
        churned = api.collection([{"t": ["a"]}, {"t": ["d", "a"]}])
        churned.remove(0)
        assert churned.aggregate(unwound) == [
            {"_id": "d", "n": 1},
            {"_id": "a", "n": 1},
        ]
        assert _is_covered(churned, unwound)
        assert collection.aggregate(grouped) == [
            {"_id": 2, "n": 2, "s": 3, "lo": 3, "all": [3]},
            {"_id": None, "n": 1, "s": 1, "lo": 1, "all": [1]},
            {"_id": 1, "n": 2, "s": 5, "lo": 5, "all": [5, "s"]},
        ]
        for pipeline in (unwound, grouped):
            assert _is_covered(collection, pipeline)
            assert collection.aggregate(pipeline) == naive_aggregate(docs, pipeline)

    def test_an_entailed_leading_match_keeps_the_rung(self):
        schema = {
            "type": "object",
            "required": ["age"],
            "properties": {"age": {"type": "integer", "minimum": 18}},
        }
        docs = self.DOCS[:60]
        collection = api.collection(docs, schema=schema)
        entailed = {"$match": {"age": {"$not": {"$lt": 10}}}}
        group = {"$group": {"_id": "$city", "n": {"$sum": 1}}}
        report = collection.explain_aggregate([entailed, group])
        assert report.semantics.verdict == "all"
        assert [stage.mode for stage in report.stages] == ["streamed", "covered"]
        # A match the index answers ("covered") is a filter: row path.
        assert not _is_covered(collection, [{"$match": {"city": "Oslo"}}, group])
        for pipeline in ([entailed, group], [{"$match": {"city": "Oslo"}}, group]):
            assert collection.aggregate(pipeline) == naive_aggregate(docs, pipeline)

    # pipeline, documents: the rung declines; results stay the oracle's.
    DECLINED = [
        # A compound, literal or positional _id.
        ([{"$group": {"_id": {"c": "$city"}, "n": {"$sum": 1}}}], None),
        ([{"$group": {"_id": None, "n": {"$sum": 1}}}], None),
        ([{"$group": {"_id": "$tags.0", "n": {"$sum": 1}}}], None),
        # An accumulator that is neither a row count nor a reference.
        ([{"$group": {"_id": "$city", "n": {"$sum": 2}}}], None),
        ([{"$group": {"_id": "$city", "n": {"$sum": True}}}], None),
        ([{"$group": {"_id": "$city", "n": {"$max": "$address.0"}}}], None),
        # An input path that holds an array, or an object.
        ([{"$group": {"_id": "$city", "t": {"$push": "$tags"}}}], None),
        ([{"$group": {"_id": "$city", "a": {"$push": "$address"}}}], None),
        # A key that is an object, an array, or under one.
        ([{"$group": {"_id": "$address", "n": {"$sum": 1}}}], None),
        ([{"$group": {"_id": "$tags", "n": {"$sum": 1}}}], None),
        (
            [{"$group": {"_id": "$address.zip", "n": {"$sum": 1}}}],
            [{"address": [{"zip": 1}]}, {"address": {"zip": 1}}],
        ),
        # $unwind: anything but counts, another key, nested arrays,
        # arrays of objects.
        ([{"$unwind": "$tags"}, {"$group": {"_id": "$tags", "a": {"$avg": "$age"}}}],
         None),
        ([{"$unwind": "$tags"}, {"$group": {"_id": "$city", "n": {"$sum": 1}}}],
         None),
        (
            [{"$unwind": "$t"}, {"$group": {"_id": "$t", "n": {"$sum": 1}}}],
            [{"t": ["x", ["y"]]}, {"t": ["x"]}],
        ),
        (
            [{"$unwind": "$t"}, {"$group": {"_id": "$t", "n": {"$sum": 1}}}],
            [{"t": [{"y": 1}]}, {"t": ["x"]}],
        ),
        # Another stage first.
        ([{"$sort": {"user": 1}}, {"$group": {"_id": "$city", "n": {"$sum": 1}}}],
         None),
    ]

    @pytest.mark.parametrize("pipeline, docs", DECLINED)
    def test_the_rung_declines(self, pipeline, docs):
        docs = self.DOCS[:50] if docs is None else docs
        collection = api.collection(docs)
        assert not _is_covered(collection, pipeline)
        assert json.dumps(collection.aggregate(pipeline)) == json.dumps(
            naive_aggregate(docs, pipeline)
        )

    def test_the_rung_declines_without_a_premise_or_current_indexes(self):
        docs = self.DOCS[:50]
        pipeline = _SCAN_PIPELINES[0]
        expected = naive_aggregate(docs, pipeline)
        collection = api.collection(docs)
        pinned = collection.snapshot_view()
        assert _is_covered(pinned, pipeline)
        collection.insert({"city": "Lyon"})
        assert pinned.indexes is None  # stale
        unindexed = api.collection(docs, indexed=False)
        premiseless = api.collection(docs, extended=True)
        assert premiseless.semantic_context is None
        for source in (pinned, unindexed, premiseless):
            assert not _is_covered(source, pipeline)
            assert source.aggregate(pipeline) == expected
        assert _is_covered(collection, pipeline)
        assert ("$group", "materialised") in _modes(
            collection, pipeline, hint={"no_semantic": True}
        )

    def test_writes_are_never_stale(self):
        docs = self.DOCS[:40]
        collection = api.collection(docs)
        pipeline = _SCAN_PIPELINES[0]
        collection.aggregate(pipeline)
        added = collection.insert({"city": "Nara", "age": 30})
        collection.update_many({"city": "Oslo"}, {"$set": {"city": "Lyon"}})
        collection.remove(0)
        live = [tree.to_value() for _, tree in collection.documents()]
        assert _is_covered(collection, pipeline)
        assert collection.aggregate(pipeline) == naive_aggregate(live, pipeline)
        collection.update_one({"user": 5}, {"$set": {"age": [1]}})
        assert not _is_covered(collection, pipeline)
        collection.remove(5)
        collection.remove(added)
        live = [tree.to_value() for _, tree in collection.documents()]
        assert _is_covered(collection, pipeline)
        assert collection.aggregate(pipeline) == naive_aggregate(live, pipeline)


# ---------------------------------------------------------------------------
# The find-dialect fallback: stage position never changes acceptance.
# ---------------------------------------------------------------------------


class TestFindDialectFallback:
    """Filters valid in value space but outside the find compiler's
    dialect (float comparison bounds and equalities, $regex beyond the
    KeyLang subset) run in any position -- a leading one just scans
    instead of pruning.
    """

    DOCS = [{"x": 1}, {"x": 1.4}, {"x": 1.6}, {"x": 2}, {"x": "s"}]

    def test_float_bounds_match_in_any_position(self):
        assert run(self.DOCS, [{"$match": {"x": {"$gt": 1.5}}}]) == [
            {"x": 1.6},
            {"x": 2},
        ]
        assert run(
            self.DOCS,
            [{"$limit": 5}, {"$match": {"x": {"$gte": 1.4, "$lt": 1.7}}}],
        ) == [{"x": 1.4}, {"x": 1.6}]

    def test_float_equality_matches_in_any_position(self):
        for match, expected in (
            ({"x": 1.5}, []),
            ({"x": 1.4}, [{"x": 1.4}]),
            ({"x": {"$in": [2, 2.5]}}, [{"x": 2}]),
        ):
            assert run(self.DOCS, [{"$match": match}]) == expected, match
            assert run(
                self.DOCS, [{"$limit": 5}, {"$match": match}]
            ) == expected, match
            compiled = compile_pipeline([{"$match": match}], cache=None)
            assert compiled.lead_query is None  # scans, never raises

    def test_float_bound_on_pipeline_products(self):
        """$avg output is a float; a downstream $match must be able to
        bound it with a float operand."""
        docs = [{"k": "x", "n": 1}, {"k": "x", "n": 2}, {"k": "y", "n": 4}]
        rows = run(
            docs,
            [
                {"$group": {"_id": "$k", "avg": {"$avg": "$n"}}},
                {"$match": {"avg": {"$gt": 1.75}}},
            ],
        )
        assert rows == [{"_id": "y", "avg": 4.0}]

    def test_leading_float_bound_streams_instead_of_pruning(self, people):
        pipeline = [{"$match": {"age": {"$gt": 39.5}}}]
        compiled = compile_pipeline(pipeline, cache=None)
        assert compiled.lead_pred is not None
        assert compiled.lead_query is None  # no logical plan to prune with
        report = compiled.explain(people)
        assert not report.used_indexes
        assert report.stages[0].mode == "streamed"
        assert compiled.execute(people) == naive_aggregate(PEOPLE, pipeline)
        # Integer ages: > 39.5 and >= 40 are the same predicate.
        assert compiled.execute(people) == aggregate_many(
            [{"$match": {"age": {"$gte": 40}}}], people
        )

    def test_leading_regex_outside_keylang_subset_streams(self, people):
        pipeline = [{"$match": {"name.first": {"$regex": "(?i)^sue$"}}}]
        compiled = compile_pipeline(pipeline, cache=None)
        assert compiled.lead_query is None
        rows = compiled.execute(people)
        assert rows == [
            doc for doc in PEOPLE if doc["name"]["first"].lower() == "sue"
        ]
        assert rows == naive_aggregate(PEOPLE, pipeline)

    def test_invalid_leading_filters_still_fail_at_compile_time(self):
        """The fallback must not swallow genuinely bad filters."""
        for pipeline in (
            [{"$match": {"age": {"$gt": "x"}}}],
            [{"$match": {"a": {"$regex": "("}}}],
            [{"$match": {"$bogus": []}}],
        ):
            with pytest.raises(ParseError):
                compile_pipeline(pipeline, cache=None)


# ---------------------------------------------------------------------------
# The compile cache.
# ---------------------------------------------------------------------------


class TestPipelineCache:
    def test_structurally_equal_pipelines_share_one_plan(self):
        clear_artifact_cache()
        try:
            first = compile_pipeline([{"$match": {"a": 1}}, {"$limit": 2}])
            second = compile_pipeline([{"$match": {"a": 1}}, {"$limit": 2}])
            assert first is second
            assert artifact_cache().stats().hits >= 1
        finally:
            clear_artifact_cache()

    def test_sort_key_order_is_not_canonicalised_away(self):
        """$sort spec key order is precedence: pipelines differing only
        in it must compile to distinct cached plans (regression for the
        sort_keys=True cache key, which collided them and served one
        pipeline the other's sort order)."""
        ab = [{"$sort": {"a": 1, "b": 1}}]
        ba = [{"$sort": {"b": 1, "a": 1}}]
        assert pipeline_cache_key(ab) != pipeline_cache_key(ba)
        clear_artifact_cache()
        try:
            assert compile_pipeline(ab) is not compile_pipeline(ba)
            docs = [{"a": 2, "b": 1}, {"a": 1, "b": 2}]
            assert aggregate_many(ab, docs) == [{"a": 1, "b": 2}, {"a": 2, "b": 1}]
            assert aggregate_many(ba, docs) == [{"a": 2, "b": 1}, {"a": 1, "b": 2}]
            assert aggregate_many(ab, docs) == naive_aggregate(docs, ab)
            assert aggregate_many(ba, docs) == naive_aggregate(docs, ba)
        finally:
            clear_artifact_cache()

    def test_cache_none_compiles_fresh(self):
        pipeline = [{"$limit": 1}]
        assert compile_pipeline(pipeline, cache=None) is not compile_pipeline(
            pipeline, cache=None
        )

    def test_plans_are_collection_independent(self, people):
        compiled = compile_pipeline([{"$match": {"name.first": "Sue"}}])
        small = api.collection(PEOPLE[:10])
        assert compiled.execute(small) == naive_aggregate(
            PEOPLE[:10], [{"$match": {"name.first": "Sue"}}]
        )
        assert compiled.execute(people) == naive_aggregate(
            PEOPLE, [{"$match": {"name.first": "Sue"}}]
        )


# ---------------------------------------------------------------------------
# Batch API and input flavours.
# ---------------------------------------------------------------------------


class TestInputFlavours:
    PIPELINE = [
        {"$match": {"age": {"$gt": 40}}},
        {"$group": {"_id": "$address.city", "n": {"$sum": 1}}},
        {"$sort": {"_id": 1}},
    ]

    def test_aggregate_many_over_trees(self):
        trees = [JSONTree.from_value(doc) for doc in PEOPLE[:80]]
        assert aggregate_many(self.PIPELINE, trees) == naive_aggregate(
            PEOPLE[:80], self.PIPELINE
        )

    def test_aggregate_many_over_plain_values(self):
        assert aggregate_many(self.PIPELINE, PEOPLE[:80]) == naive_aggregate(
            PEOPLE[:80], self.PIPELINE
        )

    def test_aggregate_many_over_a_collection(self, people):
        assert aggregate_many(self.PIPELINE, people) == naive_aggregate(
            PEOPLE, self.PIPELINE
        )

    def test_empty_collection(self):
        empty = api.collection([])
        assert empty.aggregate(self.PIPELINE) == []
        assert empty.aggregate([{"$count": "n"}]) == []

    def test_stream_is_lazy(self, people):
        compiled = compile_pipeline([{"$match": {"name.first": "Sue"}}])
        stream = compiled.stream(people)
        first = next(stream)
        assert first["name"]["first"] == "Sue"


# ---------------------------------------------------------------------------
# match_value vs the compiled find filter (the two $match engines).
# ---------------------------------------------------------------------------

FILTERS = [
    {"name.first": "Sue"},
    {"name.first": "Sue", "address.city": "Santiago"},
    {"age": {"$gt": 60}},
    {"age": {"$gte": 60, "$lt": 70}},
    {"age": {"$ne": 30}},
    {"age": {"$in": [20, 30, 40]}},
    {"age": {"$nin": [20, 30, 40]}},
    {"hobbies": "chess"},  # array-containment equality
    {"hobbies.0": "chess"},  # digit segment = array index
    {"hobbies": {"$size": 2}},
    {"hobbies": {"$elemMatch": {"$eq": "yoga"}}},
    {"hobbies": {"$exists": True}},
    {"pets": {"$exists": False}},
    {"name.first": {"$regex": "^S"}},
    {"name.first": {"$regex": "u"}},
    {"name": {"$type": "object"}},
    {"hobbies": {"$type": "array"}},
    {"age": {"$type": "number"}},
    {"age": {"$not": {"$lt": 50}}},
    {"$or": [{"age": {"$lt": 25}}, {"age": {"$gt": 80}}]},
    {"$and": [{"age": {"$gt": 25}}, {"age": {"$lt": 80}}]},
    {"$nor": [{"name.first": "Sue"}, {"name.first": "Bob"}]},
]


class TestMatchValueDifferential:
    @pytest.mark.parametrize("filter_doc", FILTERS)
    def test_value_space_agrees_with_compiled_jnl(self, filter_doc):
        query = compile_mongo_find(filter_doc)
        closure = compile_value_filter(filter_doc)
        for doc in PEOPLE[:120]:
            tree = JSONTree.from_value(doc)
            compiled = query.matches(tree)
            interpreted = match_value(filter_doc, doc)
            assert compiled == interpreted, (filter_doc, doc)
            assert closure(doc) == interpreted, (filter_doc, doc)

    @pytest.mark.parametrize("filter_doc", FILTERS)
    def test_pruning_is_sound_for_every_filter(self, filter_doc, people):
        """Index candidates must be a superset of the true matches."""
        query = compile_mongo_find(filter_doc)
        candidates = planner.candidate_ids(
            query.plan.match_predicate, people.indexes
        )
        matches = {
            doc_id
            for doc_id, tree in people.documents()
            if match_value(filter_doc, tree.to_value())
        }
        if candidates is not None:
            assert matches <= candidates


# ---------------------------------------------------------------------------
# Randomised differential pipelines.
# ---------------------------------------------------------------------------


def _random_pipeline(rng: random.Random) -> list:
    stages = []
    if rng.random() < 0.8:
        stages.append({"$match": rng.choice(FILTERS)})
        if rng.random() < 0.3:
            stages.append({"$match": rng.choice(FILTERS)})
    pool = rng.sample(
        [
            {"$unwind": "$hobbies"},
            {"$project": {"name.first": 1, "age": 1, "hobbies": 1}},
            {"$sort": {"age": -1, "id": 1}},
            {
                "$group": {
                    "_id": "$name.first",
                    "n": {"$sum": 1},
                    "avg": {"$avg": "$age"},
                    "oldest": {"$max": "$age"},
                    "youngest": {"$min": "$age"},
                    "ages": {"$push": "$age"},
                }
            },
            {"$skip": rng.randrange(0, 5)},
            {"$limit": rng.randrange(1, 40)},
        ],
        k=rng.randrange(1, 4),
    )
    stages.extend(pool)
    if rng.random() < 0.2:
        stages.append({"$count": "rows"})
    return stages


# The same differential over documents with arrays and objects *on* the
# very paths the pipelines name (what a read set must get right).


def _shaped_value(rng: random.Random, depth: int = 0) -> object:
    """A scalar, or -- on the very paths the pipelines name -- an array
    or an object of further such values."""
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return rng.choice([0, 1, 2, 3, "x", "y"])
    if roll < 0.75:
        return [_shaped_value(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    keys = rng.sample(["k", "v", "w"], rng.randrange(0, 4))
    return {key: _shaped_value(rng, depth + 1) for key in keys}


def _shaped_docs(rng: random.Random, count: int) -> list:
    docs = []
    for ident in range(count):
        doc: dict = {"id": ident}
        for key in rng.sample(["k", "v", "t", "o", "w"], rng.randrange(1, 6)):
            doc[key] = _shaped_value(rng)
        docs.append(doc)
    return docs


_SHAPED_REFS = [
    "$k", "$v", "$t", "$o", "$o.k", "$o.v", "$o.k.v", "$t.0", "$t.1.k", "$w",
]
_SHAPED_FILTERS = [
    {"k": 1},
    {"t": "x"},  # scalar-in-array containment
    {"o.k": {"$gte": 1}},
    {"o.k": {"$exists": False}},
    {"o": {"$exists": True}, "k": {"$ne": 2}},
    {"t": {"$elemMatch": {"k": 1}}},
    {"t": {"$elemMatch": {"$gte": 2}}},
    {"t": {"$size": 2}},
    {"t.0": {"$in": [0, "x"]}},
    {"o": {"$type": "object"}},
    {"v": {"$gt": 0.5}},  # float bound: outside the find dialect
    {"$or": [{"o.v": 2}, {"t.1.k": {"$exists": True}}]},
    {"$nor": [{"k": 0}, {"o.k.v": {"$lt": 3}}]},
]


def _shaped_pipeline(rng: random.Random) -> list:
    ref = lambda: rng.choice(_SHAPED_REFS)  # noqa: E731
    stages: list = []
    if rng.random() < 0.6:
        stages.append({"$match": rng.choice(_SHAPED_FILTERS)})
    pool = [
        {"$unwind": rng.choice(["$t", "$o", "$o.k", "$k"])},
        {"$match": rng.choice(_SHAPED_FILTERS)},
        {"$project": {rng.choice(["o.k", "t.k", "o"]): 1, "id": 1, "k": 1}},
        {"$project": {rng.choice(["o.v", "t", "k.v"]): 0}},
        {"$sort": {ref()[1:]: rng.choice([1, -1]), "id": 1}},
        {"$skip": rng.randrange(0, 4)},
        {"$limit": rng.randrange(1, 30)},
    ]
    stages.extend(rng.sample(pool, rng.randrange(0, 3)))
    closing = rng.random()
    if closing < 0.6:
        stages.append(
            {
                "$group": {
                    "_id": rng.choice([ref(), {"a": ref(), "b": [ref(), 1]}, None]),
                    "n": {"$sum": 1},
                    "sum": {"$sum": ref()},
                    "avg": {"$avg": ref()},
                    "lo": {"$min": ref()},
                    "hi": {"$max": ref()},
                    "all": {"$push": ref()},
                    "c": {"$count": {}},
                }
            }
        )
    elif closing < 0.75:
        stages.append({"$count": "rows"})
    return stages


async def _served_results(docs: list, pipelines: list) -> list:
    database = api.connect()
    database.collection(documents=docs)
    server = ReproServer(database)
    await server.start()
    try:
        remote = await aconnect(server.address)
        try:
            collection = remote.collection()
            return [await collection.aggregate(p) for p in pipelines]
        finally:
            await remote.aclose()
    finally:
        await server.aclose()


class TestRandomisedDifferential:
    def test_staged_equals_naive_on_random_pipelines(self, people):
        rng = random.Random(1234)
        docs = PEOPLE
        for _ in range(60 * _SCALE):
            pipeline = _random_pipeline(rng)
            staged = aggregate_many(pipeline, people)
            naive = naive_aggregate(docs, pipeline)
            assert staged == naive, pipeline

    def test_tree_iterable_equals_naive_on_random_pipelines(self):
        rng = random.Random(987)
        docs = PEOPLE[:100]
        trees = [JSONTree.from_value(doc) for doc in docs]
        for _ in range(25 * _SCALE):
            pipeline = _random_pipeline(rng)
            assert aggregate_many(pipeline, trees) == naive_aggregate(
                docs, pipeline
            ), pipeline

    def test_unindexed_equals_indexed_on_random_pipelines(self):
        rng = random.Random(55)
        docs = PEOPLE[:100]
        indexed = api.collection(docs)
        unindexed = api.collection(docs, indexed=False)
        for _ in range(25 * _SCALE):
            pipeline = _random_pipeline(rng)
            assert aggregate_many(pipeline, indexed) == aggregate_many(
                pipeline, unindexed
            ), pipeline

    def test_every_backend_equals_naive_on_shaped_documents(self):
        """``naive_aggregate`` -- whole documents, no read sets, no
        specialised accessors -- is the oracle; every backend must
        return its rows byte for byte (row and key order included)."""
        rng = random.Random(4242)
        docs = _shaped_docs(rng, 120)
        pipelines = [_shaped_pipeline(rng) for _ in range(80 * _SCALE)]
        expected = [
            json.dumps(naive_aggregate(docs, pipeline)) for pipeline in pipelines
        ]
        memory = api.collection(docs)
        snapshot = memory.snapshot_view()
        served = asyncio.run(_served_results(docs, pipelines))
        with api.collection(docs, shards=3, parallel=False) as fleet:
            for pipeline, want, remote in zip(pipelines, expected, served):
                compiled = compile_pipeline(pipeline, cache=None)
                assert json.dumps(compiled.execute(memory)) == want, pipeline
                assert json.dumps(snapshot.aggregate(pipeline)) == want, pipeline
                assert json.dumps(fleet.aggregate(pipeline)) == want, pipeline
                assert json.dumps(remote) == want, pipeline
                # One shard is a partition too: the map/reduce halves alone.
                partial = compiled.execute_partial(memory)
                assert json.dumps(compiled.merge_partials([partial])) == want
        assert sum(
            compile_pipeline(p, cache=None).reads is not None for p in pipelines
        ) >= len(pipelines) // 3  # the mechanism is actually exercised


# The covered-group rung against the row path and the oracle, over
# corpora with missing keys, repeated and empty arrays, scalars under
# the unwound path -- and, in some corpora, one document that puts an
# object or an array where the rung must decline.

_GROUP_POLLUTION = [
    None,
    ("k", {"x": 1}),
    ("k", ["a", 1]),
    ("v", [1]),
    ("v", {"x": 1}),
    ("t", ["p", ["q"]]),
    ("t", [{"p": 1}]),
    ("o", [{"k": "a"}]),
]


def _group_corpus(rng: random.Random, count: int) -> list:
    docs = []
    for ident in range(count):
        doc: dict = {"id": ident}
        if rng.random() < 0.85:
            doc["k"] = rng.choice(["a", "b", "c", 0, 1, 2])
        if rng.random() < 0.8:
            doc["v"] = rng.choice([0, 1, 5, 9, "x", "y"])
        roll = rng.random()
        if roll < 0.6:
            doc["t"] = [rng.choice(["p", "q", "r", 3]) for _ in range(rng.randrange(5))]
        elif roll < 0.8:
            doc["t"] = rng.choice(["p", "q", 3])
        roll = rng.random()
        if roll < 0.7:
            doc["o"] = {"k": rng.choice(["a", "b", 1])}
        elif roll < 0.8:
            doc["o"] = rng.choice(["flat", {}])
        docs.append(doc)
    pollution = rng.choice(_GROUP_POLLUTION)
    if pollution is not None:
        key, value = pollution
        docs[rng.randrange(count)][key] = value
    return docs


def _group_pipeline(rng: random.Random) -> list:
    if rng.random() < 0.3:
        body = [
            {"$unwind": "$t"},
            {"$group": {"_id": "$t", "n": {"$sum": 1}, "c": {"$count": {}}}},
        ]
    else:
        fields = {
            "n": {"$sum": 1},
            "c": {"$count": {}},
            "s": {"$sum": "$v"},
            "a": {"$avg": "$v"},
            "lo": {"$min": "$v"},
            "hi": {"$max": "$o.k"},
            "all": {"$push": "$v"},
            "ks": {"$push": "$k"},
        }
        chosen = rng.sample(sorted(fields), rng.randrange(1, 5))
        key = rng.choice(["$k", "$o.k", "$v", "$t"])
        body = [{"$group": {"_id": key, **{name: fields[name] for name in chosen}}}]
    if rng.random() < 0.3:
        body += [{"$sort": {"_id": -1}}, {"$limit": rng.randrange(1, 4)}]
    return body


class TestRandomisedDifferentialCoveredGroup:
    def test_rung_equals_row_path_and_oracle(self):
        rng = random.Random(3636)
        covered = declined = 0
        for _ in range(12 * _SCALE):
            docs = _group_corpus(rng, rng.randrange(1, 60))
            # Documents indexed first and then removed leave postings in
            # an insertion order that is not the live first-seen order.
            churn = _group_corpus(rng, 4)
            memory = api.collection(churn + docs)
            for doc_id in range(len(churn)):
                memory.remove(doc_id)
            stale = memory.snapshot_view()
            memory.remove(memory.insert({"k": "late"}))  # same documents
            current = memory.snapshot_view()
            assert stale.indexes is None and current.indexes is not None
            for _ in range(6):
                pipeline = _group_pipeline(rng)
                want = json.dumps(naive_aggregate(docs, pipeline))
                for source in (memory, current, stale):
                    got = json.dumps(source.aggregate(pipeline))
                    assert got == want, (pipeline, docs)
                    hinted = source.aggregate(pipeline, hint={"no_semantic": True})
                    assert json.dumps(hinted) == want, (pipeline, docs)
                if _is_covered(memory, pipeline):
                    covered += 1
                    assert _is_covered(current, pipeline)
                else:
                    declined += 1
                assert not _is_covered(stale, pipeline)
        # Both sides of the rung are actually exercised.
        assert covered >= 12 * _SCALE and declined >= 12 * _SCALE

    @pytest.mark.parametrize("shards, parallel", [(2, False), (3, False), (2, True)])
    def test_sharded_map_side_equals_single_and_oracle(self, shards, parallel):
        """Each shard takes the rung against its own index and ships
        the table as partials; merged, they are the single
        collection's rows, and the fleet is covered where it is."""
        rng = random.Random(f"covered-shards-{shards}-{parallel}")
        covered = declined = 0
        for _ in range(12 * _SCALE):
            docs = _group_corpus(rng, rng.randrange(1, 60))
            churn = _group_corpus(rng, 4)
            memory = api.collection(churn + docs)
            with api.collection(
                churn + docs, shards=shards, parallel=parallel
            ) as fleet:
                if parallel and not fleet.parallel:
                    pytest.skip("no usable process pool")
                for doc_id in range(len(churn)):
                    memory.remove(doc_id)
                    fleet.remove(doc_id)
                for _ in range(6):
                    pipeline = _group_pipeline(rng)
                    want = json.dumps(naive_aggregate(docs, pipeline))
                    assert json.dumps(memory.aggregate(pipeline)) == want
                    got = json.dumps(fleet.aggregate(pipeline))
                    assert got == want, (pipeline, docs)
                    hinted = fleet.aggregate(pipeline, hint={"no_semantic": True})
                    assert json.dumps(hinted) == want, (pipeline, docs)
                    if _is_covered(memory, pipeline):
                        covered += 1
                        assert _is_covered(fleet, pipeline)
                    else:
                        declined += 1
                        assert not _is_covered(fleet, pipeline)
        assert covered >= 12 * _SCALE and declined >= 12 * _SCALE


# ---------------------------------------------------------------------------
# What a pipeline reads.
# ---------------------------------------------------------------------------

_GROUP_CITY = {"$group": {"_id": "$city", "n": {"$sum": 1}, "avg": {"$avg": "$age"}}}

# pipeline -> CompiledPipeline.reads: the trie of the paths navigated up
# to and including the first shape-resetting stage; None = whole rows.
READS = [
    # Each reset stage.
    ([_GROUP_CITY], {"city": None, "age": None}),
    ([{"$count": "n"}], {}),
    ([{"$project": {"user": 1, "address.zip": 1}}],
     {"user": None, "address": {"zip": None}}),
    # The leading match reads too; what follows a reset reads its output.
    ([{"$match": {"score": {"$gte": 1}}}, {"$count": "n"}], {"score": None}),
    ([{"$match": {"city": "x"}}, {"$project": {"user": 1, "score": 1}},
      {"$sort": {"score": -1, "user": 1}}, {"$limit": 10}],
     {"city": None, "user": None, "score": None}),
    ([_GROUP_CITY, {"$sort": {"n": -1}}, {"$match": {"zzz": 1}}],
     {"city": None, "age": None}),
    # Pass-through stages before the reset add their paths...
    ([{"$unwind": "$tags"}, {"$group": {"_id": "$tags", "n": {"$sum": 1}}}],
     {"tags": None}),
    ([{"$sort": {"score": 1}}, {"$skip": 1}, {"$limit": 3}, _GROUP_CITY],
     {"score": None, "city": None, "age": None}),
    # ... and unreset tails (or no stages) need whole rows.
    ([], None),
    ([{"$match": {"age": 3}}], None),
    ([{"$match": {"age": 3}}, {"$sort": {"age": 1}}, {"$limit": 2}], None),
    ([{"$unwind": "$tags"}], None),
    ([{"$project": {"tags": 0}}], None),
    # An exclusion $project copies whatever it is given: whole rows.
    ([{"$project": {"nope": 0}}, _GROUP_CITY], None),
    # Cut at the first array index; a path starting with one is everything.
    ([{"$group": {"_id": "$tags.0", "last": {"$max": "$address.1.zip"}}}],
     {"tags": None, "address": None}),
    ([{"$group": {"_id": "$0.a"}}], None),
    # Prefix subsumption, in either order.
    ([{"$group": {"_id": "$address.zip", "all": {"$push": "$address"}}}],
     {"address": None}),
    ([{"$group": {"_id": "$address", "zips": {"$push": "$address.zip"}}}],
     {"address": None}),
    # Literal-object _id: every reference inside it; literals read nothing.
    ([{"$group": {"_id": {"c": "$city", "z": ["$address.zip", 7]},
                  "n": {"$count": {}}}}],
     {"city": None, "address": {"zip": None}}),
    ([{"$group": {"_id": None, "n": {"$sum": 1}}}], {}),
    # A non-leading $match, through $or/$nor/$and and $elemMatch (whose
    # body is relative to the array its field path already covers).
    ([{"$limit": 9},
      {"$match": {"$or": [{"a.b": 1}, {"$nor": [{"c": {"$exists": False}}]}],
                  "$and": [{"d": {"$elemMatch": {"e": 1}}}]}},
      {"$count": "n"}],
     {"a": {"b": None}, "c": None, "d": None}),
    # A leading filter outside the find dialect still reports its paths.
    ([{"$match": {"age": {"$gt": 39.5}, "name.first": {"$regex": "(?i)^s"}}},
      {"$count": "n"}],
     {"age": None, "name": {"first": None}}),
]


class TestReadSet:
    @pytest.mark.parametrize("pipeline, reads", READS)
    def test_pinned_read_sets(self, pipeline, reads):
        compiled = compile_pipeline(pipeline, cache=None)
        assert compiled.reads == reads
        assert repr(compiled).endswith(f", reads={compiled.reads!r})")

    def test_rows_are_materialised_through_the_read_set(self, people, monkeypatch):
        """One public to_value call per row, guided by ``reads``."""
        seen = []
        original = JSONTree.to_value

        def spy(tree, node=None, paths=None):
            seen.append(paths)
            return original(tree, node, paths)

        monkeypatch.setattr(JSONTree, "to_value", spy)
        pipeline = [{"$group": {"_id": "$address.city", "n": {"$sum": 1}}}]
        compiled = compile_pipeline(pipeline, cache=None)
        # The row path; by default this group is covered and reads none.
        rows = compiled.execute(people, no_semantic=True)
        assert seen == [{"address": {"city": None}}] * len(people)
        del seen[:]
        assert compiled.execute(people) == rows and seen == []
        assert compiled.explain(people, no_semantic=True).results == len(rows)
        # The map side reads through the same source: covered, or rows.
        partial = compiled.execute_partial(people)
        assert compiled.merge_partials([partial]) == rows
        assert seen == [{"address": {"city": None}}] * len(people)
        partial = compiled.execute_partial(people, verdict="off")
        assert compiled.merge_partials([partial]) == rows
        assert seen == [{"address": {"city": None}}] * (2 * len(people))

    def test_stages_still_accept_whole_rows(self):
        """``reads`` is an upper bound on what is needed, never a
        contract on what rows contain."""
        for pipeline, _ in READS:
            assert aggregate_many(pipeline, PEOPLE[:40]) == naive_aggregate(
                PEOPLE[:40], pipeline
            )


# ---------------------------------------------------------------------------
# Value-space kernels.
# ---------------------------------------------------------------------------


class TestKernels:
    def test_resolve_path_digit_segments(self):
        doc = {"a": [{"b": 1}, {"b": 2}]}
        assert resolve_path(doc, ("a", "1", "b")) == 2
        assert resolve_path(doc, ("a", "9", "b")) is MISSING
        assert resolve_path(doc, ("a", "b")) is MISSING

    def test_values_equal_is_type_strict(self):
        assert not values_equal(1, True)
        assert not values_equal(0, False)
        assert values_equal({"a": 1, "b": 2}, {"b": 2, "a": 1})
        assert not values_equal([1, 2], [2, 1])

    def test_sort_key_total_order(self):
        ordered = [MISSING, None, 0, 5, "a", "b", True, [1], {"a": 1}]
        keys = [sort_key(value) for value in ordered]
        assert keys == sorted(keys)

    def test_repr(self):
        compiled = CompiledPipeline([{"$limit": 1}])
        assert "CompiledPipeline" in repr(compiled)
