"""The update pipeline: compiled programs, delta index maintenance.

Covers the tentpole requirements explicitly: operator semantics pinned
against the naive reference interpreter, target selection through the
planner (pruned vs scanned), delta maintenance equalling both the
remove+reinsert oracle (``repro.reference.rebuild_update``) and a
from-scratch index rebuild (the consistency oracle), the structural
summary fed from the deltas equalling one that walked every
post-image, schema revalidation leaving rejected updates without a
trace, upsert, the compile cache, and the explain dry run.

The randomised suites scale with ``REPRO_DIFF_SCALE`` (the nightly CI
job runs them at ~20x the per-PR iteration counts).
"""

from __future__ import annotations

import copy
import os
import random

import pytest

from repro.errors import (
    DocumentRejectedError,
    ParseError,
    StoreError,
    UnsupportedValueError,
    UpdateError,
)
from repro.model.tree import JSONTree, Kind
from repro.mongo.update import compile_update
from repro.reference.mongo_oracles import match_value, naive_update_value
from repro.reference.rebuild_update import rebuild_update_many
from repro.reference.workloads import people_collection
from repro.store import Collection, DocumentIndexes
from repro.store.indexes import tree_entry_counts
from repro.store.summary import StructuralSummary
from repro import api

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))

PEOPLE = people_collection(150, seed=11)


def rebuilt(collection: Collection) -> DocumentIndexes:
    """Full-rescan reference: fresh indexes over the live documents."""
    fresh = DocumentIndexes()
    for doc_id, tree in collection.documents():
        fresh.add(doc_id, tree)
    return fresh


def assert_oracle(collection: Collection) -> None:
    """The incrementally maintained indexes must equal a from-scratch
    rebuild (including the per-document entry refcounts)."""
    assert collection.indexes.snapshot() == rebuilt(collection).snapshot()


def applied(update_doc, doc):
    """Apply compiled and naive; assert they agree; return the value."""
    compiled = compile_update(update_doc, cache=None)
    new_value, _ = compiled.apply(copy.deepcopy(doc))
    naive = naive_update_value(update_doc, doc)
    assert new_value == naive, (update_doc, doc, new_value, naive)
    return new_value


@pytest.fixture
def people() -> Collection:
    return api.collection(people_collection(60, seed=5))


# ---------------------------------------------------------------------------
# Operator semantics (compiled pinned against the naive reference).
# ---------------------------------------------------------------------------


class TestOperators:
    def test_set_replaces_and_creates(self):
        doc = {"a": 1, "b": {"c": 2}}
        assert applied({"$set": {"a": 9}}, doc) == {"a": 9, "b": {"c": 2}}
        assert applied({"$set": {"b.d": 3}}, doc) == {
            "a": 1, "b": {"c": 2, "d": 3}
        }
        assert applied({"$set": {"x.y.z": 1}}, doc) == {
            "a": 1, "b": {"c": 2}, "x": {"y": {"z": 1}}
        }

    def test_set_array_element_and_append(self):
        doc = {"items": [{"n": 1}, {"n": 2}]}
        assert applied({"$set": {"items.1.n": 5}}, doc) == {
            "items": [{"n": 1}, {"n": 5}]
        }
        assert applied({"$set": {"items.2": {"n": 3}}}, doc) == {
            "items": [{"n": 1}, {"n": 2}, {"n": 3}]
        }

    def test_set_is_spine_copying(self):
        doc = {"a": {"b": 1}, "sibling": {"big": [1, 2, 3]}}
        compiled = compile_update({"$set": {"a.b": 2}}, cache=None)
        new_value, mutations = compiled.apply(doc)
        assert doc == {"a": {"b": 1}, "sibling": {"big": [1, 2, 3]}}
        assert new_value["sibling"] is doc["sibling"]
        assert len(mutations) == 1
        assert mutations[0].path == ("a", "b")

    def test_set_equal_value_is_a_no_op(self):
        compiled = compile_update({"$set": {"a": {"b": [1]}}}, cache=None)
        doc = {"a": {"b": [1]}}
        new_value, mutations = compiled.apply(doc)
        assert new_value is doc
        assert mutations == []

    def test_unset(self):
        doc = {"a": 1, "b": {"c": 2, "d": 3}}
        assert applied({"$unset": {"b.c": ""}}, doc) == {"a": 1, "b": {"d": 3}}
        assert applied({"$unset": {"missing": ""}}, doc) == doc

    def test_inc_and_mul(self):
        doc = {"n": 10, "nested": {"m": 4}}
        assert applied({"$inc": {"n": 5}}, doc)["n"] == 15
        assert applied({"$inc": {"n": -3}}, doc)["n"] == 7
        assert applied({"$mul": {"nested.m": 3}}, doc)["nested"]["m"] == 12
        # Missing fields are created (0 + n, 0 * n).
        assert applied({"$inc": {"fresh": 2}}, doc)["fresh"] == 2
        assert applied({"$mul": {"fresh": 2}}, doc)["fresh"] == 0

    def test_rename(self):
        doc = {"a": {"b": 7}, "keep": 1}
        assert applied({"$rename": {"a.b": "c"}}, doc) == {
            "a": {}, "keep": 1, "c": 7
        }
        assert applied({"$rename": {"missing": "c"}}, doc) == doc

    def test_push_and_each(self):
        doc = {"tags": ["a"]}
        assert applied({"$push": {"tags": "b"}}, doc) == {"tags": ["a", "b"]}
        assert applied({"$push": {"tags": {"$each": ["b", "c"]}}}, doc) == {
            "tags": ["a", "b", "c"]
        }
        assert applied({"$push": {"fresh": {"$each": []}}}, doc) == {
            "tags": ["a"], "fresh": []
        }

    def test_add_to_set(self):
        doc = {"tags": ["a", "b"]}
        assert applied({"$addToSet": {"tags": "a"}}, doc) == doc
        assert applied({"$addToSet": {"tags": "c"}}, doc) == {
            "tags": ["a", "b", "c"]
        }
        assert applied(
            {"$addToSet": {"tags": {"$each": ["b", "d", "d"]}}}, doc
        ) == {"tags": ["a", "b", "d"]}

    def test_pull(self):
        doc = {"n": [1, 5, 2, 5], "docs": [{"k": 1}, {"k": 2}]}
        assert applied({"$pull": {"n": 5}}, doc)["n"] == [1, 2]
        assert applied({"$pull": {"n": {"$gt": 1}}}, doc)["n"] == [1]
        assert applied({"$pull": {"docs": {"k": 2}}}, doc)["docs"] == [{"k": 1}]
        assert applied({"$pull": {"missing": 1}}, doc) == doc

    def test_pop(self):
        doc = {"n": [1, 2, 3]}
        assert applied({"$pop": {"n": 1}}, doc)["n"] == [1, 2]
        assert applied({"$pop": {"n": -1}}, doc)["n"] == [2, 3]
        assert applied({"$pop": {"missing": 1}}, doc) == doc

    def test_operators_apply_in_document_order(self):
        doc = {"n": 2}
        assert applied({"$inc": {"n": 1}, "$mul": {"n": 10}}, doc)["n"] == 30
        assert applied({"$mul": {"n": 10}, "$inc": {"n": 1}}, doc)["n"] == 21

    def test_multiple_fields_per_operator(self):
        doc = {"a": 1, "b": 2}
        assert applied({"$inc": {"a": 1, "b": 1}}, doc) == {"a": 2, "b": 3}


class TestOperatorErrors:
    @pytest.mark.parametrize(
        "update_doc, doc",
        [
            ({"$inc": {"a": 1}}, {"a": "text"}),
            ({"$mul": {"a": 2}}, {"a": [1]}),
            ({"$push": {"a": 1}}, {"a": 5}),
            ({"$addToSet": {"a": 1}}, {"a": 5}),
            ({"$pull": {"a": 1}}, {"a": 5}),
            ({"$pop": {"a": 1}}, {"a": 5}),
            ({"$set": {"a.b": 1}}, {"a": 5}),
            ({"$set": {"a.5": 1}}, {"a": [1, 2]}),
            ({"$unset": {"a.0": ""}}, {"a": [1, 2]}),
        ],
    )
    def test_apply_time_errors_match_naive(self, update_doc, doc):
        compiled = compile_update(update_doc, cache=None)
        with pytest.raises(UpdateError):
            compiled.apply(copy.deepcopy(doc))
        with pytest.raises(UpdateError):
            naive_update_value(update_doc, doc)

    @pytest.mark.parametrize(
        "update_doc",
        [
            {},
            [],
            {"$set": {}},
            {"$frobnicate": {"a": 1}},
            {"$inc": {"a": 1.5}},
            {"$inc": {"a": True}},
            {"$mul": {"a": "2"}},
            {"$pop": {"a": 2}},
            {"$pop": {"a": True}},
            {"$rename": {"a": 5}},
            {"$rename": {"a": "a"}},
            {"$rename": {"a.b": "a.b.c"}},
            {"$push": {"a": {"$each": 1}}},
            {"$push": {"a": {"$each": [], "$slice": 2}}},
            {"$set": {"": 1}},
            {"$set": {"a..b": 1}},
            {"$pull": {"a": {"$weird": 1}}},
        ],
    )
    def test_compile_time_errors(self, update_doc):
        with pytest.raises(ParseError):
            compile_update(update_doc, cache=None)
        with pytest.raises(ParseError):
            naive_update_value(update_doc, {"a": 1})


# ---------------------------------------------------------------------------
# Collection-level behaviour.
# ---------------------------------------------------------------------------


class TestCollectionUpdates:
    def test_update_many_matches_and_modifies(self, people):
        before = {
            doc_id: tree.to_value() for doc_id, tree in people.documents()
        }
        targets = [
            doc_id for doc_id, value in before.items()
            if value["address"]["city"] == "Talca"
        ]
        result = people.update_many(
            {"address.city": "Talca"}, {"$inc": {"age": 1}}
        )
        assert result.matched_count == len(targets)
        assert result.modified_count == len(targets)
        assert result.upserted_id is None
        for doc_id, tree in people.documents():
            expected = before[doc_id]["age"] + (1 if doc_id in targets else 0)
            assert tree.to_value()["age"] == expected
        assert_oracle(people)

    def test_update_one_touches_only_the_first_match(self, people):
        ages = {doc_id: tree.to_value()["age"]
                for doc_id, tree in people.documents()}
        matching = people.match_ids(
            compile_find_cached({"address.city": "Lille"})
        )
        result = people.update_one(
            {"address.city": "Lille"}, {"$inc": {"age": 100}}
        )
        assert result == type(result)(1, 1)
        first = matching[0]
        for doc_id, tree in people.documents():
            bump = 100 if doc_id == first else 0
            assert tree.to_value()["age"] == ages[doc_id] + bump
        assert_oracle(people)

    def test_lazy_rebuild_is_observable_then_flushed(self, people):
        result = people.update_many({"age": {"$gt": 40}}, {"$inc": {"age": 1}})
        assert people.pending_updates == result.modified_count > 0
        # Any read flushes only what it touches; documents() flushes all.
        for _doc_id, _tree in people.documents():
            pass
        assert people.pending_updates == 0
        assert_oracle(people)

    def test_queries_never_see_stale_answers(self, people):
        sue_before = people.count({"name.first": "Sue"})
        assert sue_before > 0
        people.update_many({"name.first": "Sue"}, {"$set": {"name.first": "Susan"}})
        assert people.count({"name.first": "Sue"}) == 0
        assert people.count({"name.first": "Susan"}) == sue_before
        assert_oracle(people)

    def test_matched_but_unmodified_bumps_nothing(self, people):
        version = people.version
        snapshot = people.indexes.snapshot()
        result = people.update_many(
            {"address.city": "Talca"}, {"$set": {"address.city": "Talca"}}
        )
        assert result.matched_count > 0
        assert result.modified_count == 0
        assert people.version == version
        assert people.indexes.snapshot() == snapshot

    def test_update_missing_match_without_upsert(self, people):
        result = people.update_many({"id": -1}, {"$set": {"x": 1}})
        assert (result.matched_count, result.modified_count) == (0, 0)
        assert result.upserted_id is None

    def test_unindexed_collection_updates(self):
        collection = api.collection(people_collection(30, seed=3), indexed=False)
        result = collection.update_many(
            {"address.city": "Talca"}, {"$inc": {"age": 1}}
        )
        indexed = api.collection(people_collection(30, seed=3))
        expected = indexed.update_many(
            {"address.city": "Talca"}, {"$inc": {"age": 1}}
        )
        assert result == expected
        assert [tree.to_value() for _, tree in collection.documents()] == [
            tree.to_value() for _, tree in indexed.documents()
        ]

    def test_extended_collection_updates(self):
        collection = api.collection(
            [{"flag": True, "note": None}], extended=True
        )
        collection.update_many({}, {"$set": {"flag": False, "extra": None}})
        assert collection.get(0).to_value() == {
            "flag": "false", "note": "null", "extra": "null"
        }
        assert_oracle(collection)

    def test_strict_collection_rejects_unsupported_values(self, people):
        version = people.version
        snapshot = people.indexes.snapshot()
        with pytest.raises(UnsupportedValueError):
            people.update_many({}, {"$set": {"flag": True}})
        assert people.version == version
        assert people.indexes.snapshot() == snapshot

    def test_update_after_remove_skips_the_tombstone(self, people):
        victim = people.doc_ids()[0]
        people.remove(victim)
        people.update_many({}, {"$inc": {"age": 1}})
        assert victim not in people
        assert_oracle(people)

    def test_mutation_delta_only_touches_mutated_paths(self, people):
        report = people.explain_update(
            {"address.city": "Talca"}, {"$inc": {"age": 1}}
        )
        # An age bump can only ever touch the leaf-value tables: the
        # paths/kinds/keys postings of the documents are untouched.
        assert set(report.touched_tables) <= {"eq", "tails", "values"}
        assert report.entries_added > 0
        assert report.entries_removed > 0

    def test_replace_one(self, people):
        target = people.find_trees({"address.city": "Oxford"})
        assert target
        result = people.replace_one(
            {"address.city": "Oxford"}, {"fresh": 1}
        )
        assert (result.matched_count, result.modified_count) == (1, 1)
        assert people.count({"fresh": 1}) == 1
        assert_oracle(people)

    def test_replace_one_rejects_operator_documents(self, people):
        with pytest.raises(ParseError):
            people.replace_one({}, {"$set": {"a": 1}})


def compile_find_cached(filter_doc):
    from repro.query.compiled import compile_mongo_find

    return compile_mongo_find(filter_doc)


class TestUpsert:
    def test_upsert_seeds_from_equality_facts(self, people):
        total = len(people)
        result = people.update_one(
            {"id": 777, "name.first": {"$eq": "Zoe"}, "age": {"$gt": 4}},
            {"$set": {"address.city": "Lille"}, "$inc": {"visits": 1}},
            upsert=True,
        )
        assert result.matched_count == 0
        assert result.upserted_id is not None
        assert len(people) == total + 1
        assert people.get(result.upserted_id).to_value() == {
            "id": 777,
            "name": {"first": "Zoe"},
            "address": {"city": "Lille"},
            "visits": 1,
        }
        assert_oracle(people)

    def test_upsert_through_and_branches(self, people):
        result = people.update_many(
            {"$and": [{"kind": "robot"}, {"serial": 9}]},
            {"$set": {"oiled": "yes"}},
            upsert=True,
        )
        assert people.get(result.upserted_id).to_value() == {
            "kind": "robot", "serial": 9, "oiled": "yes"
        }

    def test_no_upsert_when_something_matched(self, people):
        total = len(people)
        result = people.update_many(
            {"address.city": "Talca"}, {"$inc": {"age": 1}}, upsert=True
        )
        assert result.upserted_id is None
        assert result.matched_count > 0
        assert len(people) == total


class TestSchemaEnforcement:
    SCHEMA = {
        "type": "object",
        "properties": {"age": {"type": "number"}},
        "required": ["age"],
    }

    def make(self):
        return api.collection(
            [{"age": 30, "tag": "a"}, {"age": 40, "tag": "b"}],
            schema=self.SCHEMA,
        )

    def test_valid_update_revalidates_and_commits(self):
        collection = self.make()
        result = collection.update_many({}, {"$inc": {"age": 1}})
        assert result.modified_count == 2
        assert [t.to_value()["age"] for _, t in collection.documents()] == [31, 41]

    def test_invalid_update_rejects_without_a_trace(self):
        collection = self.make()
        version = collection.version
        snapshot = collection.indexes.snapshot()
        before = [tree.to_value() for _, tree in collection.documents()]
        with pytest.raises(DocumentRejectedError):
            collection.update_many({}, {"$set": {"age": "old"}})
        assert collection.version == version
        assert collection.indexes.snapshot() == snapshot
        assert [t.to_value() for _, t in collection.documents()] == before

    def test_batch_rejection_is_atomic(self):
        # The first target would stay valid, the second would not --
        # neither commits.
        collection = api.collection(
            [{"age": 30}, {"age": "soon-invalid"}],
            schema={"type": "object"},
        )
        strict = api.collection(
            [{"age": 30, "ok": "y"}, {"age": 40}], schema=self.SCHEMA
        )
        before = [tree.to_value() for _, tree in strict.documents()]
        with pytest.raises(DocumentRejectedError):
            # Unsetting age invalidates both; atomicity means doc 0
            # (staged first) must also survive untouched.
            strict.update_many({}, {"$unset": {"age": ""}})
        assert [t.to_value() for _, t in strict.documents()] == before
        assert_oracle(strict)

    def test_upsert_respects_the_schema(self):
        collection = self.make()
        with pytest.raises(DocumentRejectedError):
            collection.update_one(
                {"tag": "zzz"}, {"$set": {"name": "x"}}, upsert=True
            )
        assert len(collection) == 2


# ---------------------------------------------------------------------------
# Planner integration and the explain dry run.
# ---------------------------------------------------------------------------


class TestPlannerIntegration:
    def test_selective_filter_prunes_targets(self, people):
        report = people.explain_update(
            {"address.city": "Talca", "name.first": "Sue"},
            {"$inc": {"age": 1}},
        )
        assert report.used_indexes
        assert report.candidates is not None
        assert report.scanned == report.candidates < report.total
        assert report.pruned == report.total - report.scanned

    def test_dialect_fallback_scans(self, people):
        # A float bound or equality is valid in value space but outside
        # the find compiler's dialect: the update still runs, as a scan.
        for filter_doc in ({"age": {"$gt": 50.5}}, {"age": 50.5}):
            report = people.explain_update(filter_doc, {"$inc": {"age": 1}})
            assert not report.used_indexes
            assert report.scanned == report.total
            result = people.update_many(filter_doc, {"$inc": {"age": 1}})
            assert result.matched_count == report.matched
            assert_oracle(people)

    def test_explain_first_only_previews_update_one(self, people):
        many = people.explain_update(
            {"address.city": "Lille"}, {"$inc": {"age": 1}}
        )
        one = people.explain_update(
            {"address.city": "Lille"}, {"$inc": {"age": 1}}, first_only=True
        )
        assert many.matched > 1
        assert (one.matched, one.modified) == (1, 1)
        assert one.scanned <= many.scanned
        # Early exit leaves documents unscanned without them counting
        # as index-pruned; both reports prune identically.
        assert one.pruned == many.pruned == many.total - many.candidates

    def test_full_scan_reports_zero_pruned(self, people):
        report = people.explain_update(
            {"age": {"$gt": 50.5}}, {"$inc": {"age": 1}}, first_only=True
        )
        assert not report.used_indexes
        assert report.pruned == 0

    def test_explain_is_a_dry_run(self, people):
        version = people.version
        snapshot = people.indexes.snapshot()
        values = [tree.to_value() for _, tree in people.documents()]
        report = people.explain_update({}, {"$inc": {"age": 1}})
        assert report.modified == len(values)
        assert people.version == version
        assert people.indexes.snapshot() == snapshot
        assert [t.to_value() for _, t in people.documents()] == values


class TestCompileCache:
    def test_update_programs_are_cached(self):
        first = compile_update({"$inc": {"age": 1}})
        again = compile_update({"$inc": {"age": 1}})
        assert first is again

    def test_operator_order_is_part_of_the_key(self):
        merged = compile_update({"$inc": {"n": 1}, "$mul": {"n": 10}})
        reversed_doc = compile_update({"$mul": {"n": 10}, "$inc": {"n": 1}})
        assert merged is not reversed_doc
        assert merged.apply({"n": 2})[0] == {"n": 30}
        assert reversed_doc.apply({"n": 2})[0] == {"n": 21}

    def test_cache_none_compiles_fresh(self):
        first = compile_update({"$inc": {"age": 1}}, cache=None)
        again = compile_update({"$inc": {"age": 1}}, cache=None)
        assert first is not again


# ---------------------------------------------------------------------------
# Randomised differential suites (scaled by REPRO_DIFF_SCALE).
# ---------------------------------------------------------------------------


FILTERS = [
    {},
    {"address.city": "Talca"},
    {"name.first": "Sue"},
    {"age": {"$gt": 60}},
    {"age": {"$gte": 30, "$lte": 50}},
    {"hobbies": "yoga"},
    {"$or": [{"address.city": "Lille"}, {"address.city": "Oxford"}]},
    {"name.first": "Sue", "name.last": "Chen"},
    {"counters.visits": {"$gt": 2}},
]

_FIRST_NAMES = ("John", "Sue", "Ana", "Li", "Omar", "Mia")
_CITIES = ("Santiago", "Lille", "Oxford", "Talca")
_HOBBIES = ("fishing", "yoga", "chess", "running", "painting")


def _random_update(rng: random.Random) -> dict:
    pool = [
        lambda: ("$inc", {"age": rng.choice([-2, -1, 1, 3])}),
        lambda: ("$inc", {"counters.visits": 1}),
        lambda: ("$mul", {"age": rng.choice([1, 2])}),
        lambda: ("$set", {"name.first": rng.choice(_FIRST_NAMES)}),
        lambda: ("$set", {"address.city": rng.choice(_CITIES)}),
        lambda: ("$set", {"badges.latest": rng.choice(_HOBBIES)}),
        lambda: ("$unset", {"badges": ""}),
        lambda: ("$unset", {"address.zip": ""}),
        lambda: ("$push", {"hobbies": rng.choice(_HOBBIES)}),
        lambda: (
            "$push",
            {"hobbies": {"$each": rng.sample(_HOBBIES, k=rng.randrange(0, 3))}},
        ),
        lambda: ("$addToSet", {"hobbies": rng.choice(_HOBBIES)}),
        lambda: ("$pull", {"hobbies": rng.choice(_HOBBIES)}),
        lambda: ("$pull", {"hobbies": {"$in": list(rng.sample(_HOBBIES, k=2))}}),
        lambda: ("$pop", {"hobbies": rng.choice([1, -1])}),
        lambda: ("$rename", {"address.zip": "zipcode"}),
        lambda: ("$rename", {"zipcode": "address.zip"}),
    ]
    update: dict = {}
    for _ in range(rng.randrange(1, 4)):
        operator, fields = rng.choice(pool)()
        update.setdefault(operator, {}).update(fields)
    return update


class TestRandomisedDifferential:
    def test_compiled_equals_naive_and_indexes_stay_consistent(self):
        rng = random.Random(4242)
        collection = api.collection(copy.deepcopy(PEOPLE))
        mirror: list = copy.deepcopy(PEOPLE)
        for round_number in range(12 * _SCALE):
            filter_doc = rng.choice(FILTERS)
            update_doc = _random_update(rng)
            result = collection.update_many(filter_doc, update_doc)
            expected_matched = 0
            for position, doc in enumerate(mirror):
                if doc is not None and match_value(filter_doc, doc):
                    expected_matched += 1
                    mirror[position] = naive_update_value(update_doc, doc)
            assert result.matched_count == expected_matched, (
                filter_doc,
                update_doc,
            )
            if rng.random() < 0.2 and collection.doc_ids():
                victim = rng.choice(collection.doc_ids())
                collection.remove(victim)
                mirror[victim] = None
            if rng.random() < 0.2:
                fresh = people_collection(3, seed=round_number)
                collection.insert_many(fresh)
                mirror.extend(copy.deepcopy(fresh))
            if rng.random() < 0.3:
                # Interleave reads so some rounds hit dirty documents
                # and some hit freshly rebuilt trees.
                assert_oracle(collection)
        for doc_id, tree in collection.documents():
            assert tree.to_value() == mirror[doc_id], doc_id
        assert_oracle(collection)

    def test_delta_equals_rebuild_maintenance(self):
        rng = random.Random(77)
        docs = people_collection(80, seed=21)
        delta = api.collection(copy.deepcopy(docs))
        rebuild = api.collection(copy.deepcopy(docs))
        for _ in range(10 * _SCALE):
            filter_doc = rng.choice(FILTERS)
            update_doc = _random_update(rng)
            left = delta.update_many(filter_doc, update_doc)
            right, _ = rebuild_update_many(rebuild, filter_doc, update_doc)
            assert (left.matched_count, left.modified_count) == (
                right.matched_count,
                right.modified_count,
            ), (filter_doc, update_doc)
        left_values = [tree.to_value() for _, tree in delta.documents()]
        right_values = [tree.to_value() for _, tree in rebuild.documents()]
        assert left_values == right_values
        assert delta.indexes.snapshot() == rebuild.indexes.snapshot()

    def test_repeated_updates_to_the_same_documents(self):
        # The counter workload: many updates per document between
        # reads, so most rounds run against the pending-value mirror.
        collection = api.collection(people_collection(25, seed=9))
        mirror = people_collection(25, seed=9)
        rng = random.Random(31)
        for _ in range(20 * _SCALE):
            update_doc = _random_update(rng)
            collection.update_many({}, update_doc)
            mirror = [naive_update_value(update_doc, doc) for doc in mirror]
        for doc_id, tree in collection.documents():
            assert tree.to_value() == mirror[doc_id]
        assert_oracle(collection)


_SUMMARY_KEYS = ("a", "b", "c")
_SUMMARY_PATHS = ("a", "b", "c", "a.b", "b.c", "a.0", "c.1", "d")


def _summary_value(rng: random.Random, depth: int = 0):
    """A small value of any kind: scalars, objects, arrays of arrays."""
    roll = rng.random()
    if depth >= 2 or roll < 0.4:
        return rng.choice([rng.randrange(-50, 50), rng.choice("xyz")])
    if roll < 0.7:
        return {
            key: _summary_value(rng, depth + 1)
            for key in rng.sample(_SUMMARY_KEYS, rng.randrange(0, 3))
        }
    return [_summary_value(rng, depth + 1) for _ in range(rng.randrange(0, 3))]


def _summary_doc(rng: random.Random) -> dict:
    doc = {"k": rng.randrange(3)}
    for key in rng.sample(_SUMMARY_KEYS, rng.randrange(1, 4)):
        doc[key] = _summary_value(rng)
    return doc


def _summary_update(rng: random.Random) -> dict:
    """One operator of every kind, at paths whose kinds vary per doc."""
    path = rng.choice(_SUMMARY_PATHS)
    scalar = rng.choice([rng.randrange(-50, 50), rng.choice("xyz")])
    return rng.choice(
        [
            lambda: {"$set": {path: _summary_value(rng)}},
            lambda: {"$unset": {path: ""}},
            lambda: {"$inc": {rng.choice(["k", "a", "d"]): rng.choice([-90, 1, 90])}},
            lambda: {"$mul": {rng.choice(["k", "b"]): rng.choice([2, -3])}},
            lambda: {"$rename": {rng.choice("ab"): rng.choice(["d", "e.f"])}},
            lambda: {"$push": {path: {"$each": [_summary_value(rng), scalar]}}},
            lambda: {"$addToSet": {path: _summary_value(rng)}},
            lambda: {"$pull": {path: scalar}},
            lambda: {"$pop": {path: rng.choice([1, -1])}},
        ]
    )()


class TestRandomisedDifferentialSummary:
    """The structural summary widens from each update's entry delta; a
    summary that walks every post-image is the oracle.  Both must render
    the same premise after every write, and move ``revision`` on the
    same writes (a missed move would keep a stale verdict cached)."""

    def test_delta_fed_summary_equals_post_image_walk(self):
        rng = random.Random(9090)
        writes = 0
        for _ in range(10 * _SCALE):
            collection = api.collection([_summary_doc(rng) for _ in range(6)])
            summary = collection._summary
            oracle = StructuralSummary()
            for doc_id in collection.doc_ids():
                oracle.observe_tree(collection.get(doc_id))
            for _ in range(20):
                before = (summary.revision, oracle.revision)
                target = {"k": rng.randrange(4)}  # k == 3: upsert seeds
                roll = rng.random()
                try:
                    if roll < 0.5:
                        collection.update_many(target, _summary_update(rng))
                    elif roll < 0.7:
                        collection.update_one(
                            target,
                            _summary_update(rng),
                            upsert=rng.random() < 0.3,
                        )
                    elif roll < 0.85:
                        collection.replace_one(
                            target,
                            _summary_doc(rng),
                            upsert=rng.random() < 0.3,
                        )
                    elif roll < 0.95:
                        collection.insert(_summary_doc(rng))
                    elif collection.doc_ids():
                        collection.remove(rng.choice(collection.doc_ids()))
                except (UpdateError, ParseError):
                    continue  # a rejected write changes nothing
                writes += 1
                # Pending values stay pending: the oracle reads them
                # without flushing, so later deltas still start there.
                for doc_id in collection.doc_ids():
                    oracle.observe_tree(
                        JSONTree.from_value(collection._peek_value(doc_id))
                    )
                assert summary.formula() == oracle.formula()
                assert (summary.revision != before[0]) == (
                    oracle.revision != before[1]
                )
            assert not summary.disabled
        assert writes > 100 * _SCALE


# ---------------------------------------------------------------------------
# Multiplicities: postings are the membership record, and the few
# entries a document contributes more than once live in one sparse table.
# ---------------------------------------------------------------------------


def multiplicity(collection: Collection) -> dict:
    return collection.indexes.snapshot()["multiplicity"]


class TestMultiplicities:
    def test_duplicates_leave_one_element_at_a_time(self):
        collection = api.collection([{"a": [5, 5, 5]}])
        # path/kind of the three elements + the array node; eq/tail/val
        # of the three equal leaves.
        assert multiplicity(collection) == {
            ("path", ("a",)): {0: 3},
            ("kind", ("a",), Kind.NUMBER): {0: 2},
            ("eq", ("a",), 5): {0: 2},
            ("tail", "a", 5): {0: 2},
            ("val", 5): {0: 2},
        }
        steps = [
            {"$pop": {"a": 1}},  # [5, 5]
            {"$set": {"a.0": 6}},  # [6, 5]: the last duplicate leaf goes
            {"$pull": {"a": 5}},  # [6]
            {"$pop": {"a": -1}},  # []
        ]
        for step in steps:
            assert collection.update_one({}, step).modified_count == 1
            assert_oracle(collection)
        assert collection.find({}) == [{"a": []}]
        assert multiplicity(collection) == {}
        assert collection.indexes.docs_with_any_value(5) == frozenset()

    def test_equal_leaves_under_different_keys(self):
        collection = api.collection([{"x": 7, "y": 7, "z": {"x": 7}}])
        assert multiplicity(collection) == {
            ("val", 7): {0: 2},
            ("tail", "x", 7): {0: 1},
            ("key", "x"): {0: 1},
        }
        collection.update_one({}, {"$set": {"y": 8}})
        assert_oracle(collection)
        assert multiplicity(collection)[("val", 7)] == {0: 1}
        collection.update_one({}, {"$unset": {"z": ""}})
        assert_oracle(collection)
        assert multiplicity(collection) == {}
        assert collection.indexes.docs_with_any_value(7) == {0}
        collection.update_one({}, {"$inc": {"x": 1}})
        assert_oracle(collection)
        assert multiplicity(collection) == {("val", 8): {0: 1}}
        assert 7 not in collection.indexes.snapshot()["values"]

    def test_remove_then_reinsert_of_the_same_id_range(self):
        docs = [{"t": ["a", "a", "b"], "n": index % 2} for index in range(6)]
        collection = api.collection(docs)
        before = collection.indexes.snapshot()
        for doc_id in range(6):
            collection.remove(doc_id)
            assert_oracle(collection)
        emptied = collection.indexes.snapshot()
        assert all(not table for table in emptied.values()), emptied
        # Ids are never reused by the collection, so re-post the same
        # id range straight into the (emptied) indexes.
        for doc_id, value in enumerate(docs):
            collection.indexes.add(doc_id, JSONTree.from_value(value))
        assert collection.indexes.snapshot() == before

    def test_replace_one_there_and_back(self):
        first = {"k": 1, "tags": ["x", "x"], "m": {"k": 1}}
        second = {"k": 1, "tags": ["y"], "other": [1, 1, 1]}
        collection = api.collection([first, {"k": 2}])
        start = collection.indexes.snapshot()
        collection.replace_one({"k": 1}, second)
        assert_oracle(collection)
        assert ("eq", ("tags",), "x") not in multiplicity(collection)
        assert multiplicity(collection)[("val", 1)] == {0: 3}
        collection.replace_one({"k": 1}, first)
        assert_oracle(collection)
        assert collection.indexes.snapshot() == start

    def test_seeded_random_sequence_over_repeated_scalars(self):
        rng = random.Random(2121)

        def document() -> dict:
            return {
                "k": rng.randrange(4),
                "a": [rng.randrange(3) for _ in range(rng.randrange(5))],
                "b": {"k": rng.randrange(4), "a": [rng.choice("xy")] * 2},
            }

        updates = [
            lambda: {"$push": {"a": rng.randrange(3)}},
            lambda: {"$pull": {"a": rng.randrange(3)}},
            lambda: {"$pop": {"a": rng.choice([1, -1])}},
            lambda: {"$set": {"a.0": rng.randrange(3)}},
            lambda: {"$set": {"b.k": rng.randrange(4)}},
            lambda: {"$inc": {"k": rng.choice([-1, 1])}},
            lambda: {"$addToSet": {"b.a": rng.choice("xyz")}},
            lambda: {"$unset": {"b.a": ""}},
            lambda: {"$set": {"b.a": [rng.choice("xy")] * rng.randrange(4)}},
        ]
        collection = api.collection([document() for _ in range(20)])
        for _ in range(60 * _SCALE):
            roll = rng.random()
            target = {"k": rng.randrange(4)}
            if roll < 0.15:
                collection.insert_many([document() for _ in range(2)])
            elif roll < 0.25 and collection.doc_ids():
                collection.remove(rng.choice(collection.doc_ids()))
            elif roll < 0.4:
                collection.replace_one(target, document())
            elif roll < 0.5:
                rebuild_update_many(collection, target, rng.choice(updates)())
            else:
                collection.update_many(target, rng.choice(updates)())
            # The comparison reads the documents, so every round also
            # crosses the pending-value rebuild.
            assert_oracle(collection)
            for doc_id in collection.doc_ids():
                assert collection.indexes.entry_counts(
                    doc_id
                ) == tree_entry_counts(collection.get(doc_id))

    def test_entry_counts_needs_the_owning_collection(self):
        bare = rebuilt(api.collection([{"a": 1}]))
        with pytest.raises(StoreError):
            bare.entry_counts(0)
