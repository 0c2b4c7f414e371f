"""The document store: collections, index maintenance, schema enforcement."""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import DocumentRejectedError, StoreError
from repro.model.tree import JSONTree, Kind
from repro.store import Collection, DocumentIndexes
from repro.store.indexes import (
    DeltaOps,
    index_entries,
    tree_entry_counts,
    value_entry_counts,
)
from repro.query import ir, planner
from repro.reference.rebuild_update import rebuild_update_many
from repro import api

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))

PEOPLE = [
    {"name": {"first": "Sue", "last": "Doe"}, "age": 35,
     "hobbies": ["yoga", "chess"]},
    {"name": {"first": "Bob", "last": "Chen"}, "age": 28, "hobbies": []},
    {"name": {"first": "Ana", "last": "Doe"}, "age": 61,
     "address": {"city": "Talca"}},
]


def rebuilt(collection: Collection) -> DocumentIndexes:
    """Full-rescan reference: fresh indexes over the live documents."""
    fresh = DocumentIndexes()
    for doc_id, tree in collection.documents():
        fresh.add(doc_id, tree)
    return fresh


class TestCollectionBasics:
    def test_insert_assigns_dense_ids(self):
        collection = api.collection(PEOPLE)
        assert collection.doc_ids() == [0, 1, 2]
        assert len(collection) == 3
        new_id = collection.insert({"name": {"first": "Li"}})
        assert new_id == 3

    def test_ids_never_reused_after_remove(self):
        collection = api.collection(PEOPLE)
        collection.remove(1)
        assert collection.doc_ids() == [0, 2]
        assert collection.insert({"x": 1}) == 3
        assert 1 not in collection
        with pytest.raises(StoreError):
            collection.get(1)

    def test_version_bumps_on_mutation_only(self):
        collection = api.collection(PEOPLE)
        v0 = collection.version
        collection.find({"age": {"$gt": 30}})
        assert collection.version == v0
        collection.insert({"a": 1})
        collection.remove(0)
        assert collection.version == v0 + 2

    def test_accepts_prebuilt_trees(self):
        tree = JSONTree.from_value({"k": "v"})
        collection = api.collection([tree])
        assert collection.get(0) is tree

    def test_shared_interning_across_batches(self):
        collection = api.collection([{"name": "a"}])
        before = collection.interned_strings()
        collection.insert({"name": "b"})
        # "name" was already interned; only "b" is new.
        assert collection.interned_strings() == before + 1
        key_a = next(iter(collection.get(0).object_keys(0)))
        key_b = next(iter(collection.get(1).object_keys(0)))
        assert key_a is key_b

    def test_unindexed_collection_still_answers(self):
        collection = api.collection(PEOPLE, indexed=False)
        assert collection.indexes is None
        assert collection.count({"name.last": "Doe"}) == 2
        explain = collection.explain({"name.last": "Doe"})
        assert not explain.used_indexes
        assert explain.scanned == 3

    def test_from_json_lines(self):
        text = '{"a": 1}\n\n{"a": 2}\n'
        collection = Collection.from_json_lines(text)
        assert len(collection) == 2
        assert collection.count({"a": 2}) == 1

    def test_from_json_lines_is_strict_by_default(self):
        from repro.errors import DuplicateKeyError

        with pytest.raises(DuplicateKeyError):
            Collection.from_json_lines('{"a": 1, "a": 2}')
        lenient = Collection.from_json_lines('{"a": 1, "a": 2}', strict=False)
        assert lenient.count({"a": 2}) == 1  # json.loads keeps the last


class TestIndexMaintenance:
    def test_insert_matches_full_rescan(self):
        collection = api.collection(PEOPLE)
        assert collection.indexes.snapshot() == rebuilt(collection).snapshot()

    def test_remove_unwinds_postings(self):
        collection = api.collection(PEOPLE)
        collection.remove(0)
        assert collection.indexes.snapshot() == rebuilt(collection).snapshot()

    def test_remove_everything_empties_every_table(self):
        collection = api.collection(PEOPLE)
        for doc_id in collection.doc_ids():
            collection.remove(doc_id)
        snapshot = collection.indexes.snapshot()
        assert all(not table for table in snapshot.values())

    def test_random_mutation_sequence_matches_rescan(self):
        rng = random.Random(20260727)
        collection = api.collection()
        pool = [
            {"user": {"id": i, "tag": f"t{i % 7}"},
             "scores": [i % 5, (i * 3) % 11],
             "meta": {"active": "yes" if i % 2 else "no"}}
            for i in range(40)
        ]
        for step, doc in enumerate(pool):
            collection.insert(doc)
            alive = collection.doc_ids()
            if alive and rng.random() < 0.4:
                collection.remove(rng.choice(alive))
            if step % 10 == 9:
                assert (
                    collection.indexes.snapshot()
                    == rebuilt(collection).snapshot()
                )
        assert collection.indexes.snapshot() == rebuilt(collection).snapshot()

    def test_entries_strip_array_positions(self):
        entries = index_entries(JSONTree.from_value({"a": {"b": [5, [6]]}}))
        assert ("a", "b") in entries.paths
        assert (("a", "b"), 5) in entries.leaves
        assert (("a", "b"), 6) in entries.leaves  # nested array, same path
        assert ("b", 5) in entries.tails
        assert entries.keys == frozenset({"a", "b"})

    def test_a_rejected_delta_commits_none_of_its_entries(self):
        indexes = rebuilt(api.collection([{"v": [9, 9]}, {"v": 4}]))
        before = indexes.snapshot()
        into = DeltaOps()
        # ("val", 3) is not on document 1: the whole delta is refused,
        # also the entries that precede the offender.
        with pytest.raises(ValueError, match="below zero"):
            indexes.apply_entry_delta(
                1, {("val", 9): 1, ("val", 4): -1, ("val", 3): -1}, into=into
            )
        assert indexes.snapshot() == before
        assert into == DeltaOps()
        # One contribution too many off a counted entry.
        with pytest.raises(ValueError, match="below zero"):
            indexes.apply_entry_delta(0, {("val", 4): 1, ("val", 9): -3})
        assert indexes.snapshot() == before

    def test_a_dry_run_delta_mutates_nothing(self):
        indexes = rebuilt(api.collection([{"v": [9, 9]}]))
        before = indexes.snapshot()
        ops = indexes.apply_entry_delta(
            0,
            {("val", 9): -2, ("val", 3): 2, ("eq", ("v",), 9): -1},
            commit=False,
        )
        assert (ops.entries_added, ops.entries_removed, ops.adjusted) == (1, 1, 1)
        assert indexes.snapshot() == before
        # An id the indexes never saw gets no record either.
        ops = indexes.apply_entry_delta(
            77, {("val", 9): 1, ("key", "w"): 2}, commit=False
        )
        assert ops.entries_added == 2
        assert indexes.snapshot() == before

    # One entry in each of the six tables (besides the root's own).
    LEAF = {"k": {"t": "v"}}

    @staticmethod
    def holds(indexes: DocumentIndexes, members: int) -> None:
        """Every posting the ``LEAF`` subtree feeds holds ``members``
        ids -- as the bare id while it is alone."""
        nested = [
            indexes._eq.get(("k", "t"), {}).get("v"),
            indexes._kinds.get(("k", "t"), {}).get(Kind.STRING),
            indexes._tails.get("t", {}).get("v"),
        ]
        flat = [
            indexes._paths.get(("k", "t")),
            indexes._keys.get("t"),
            indexes._values.get("v"),
        ]
        for postings in nested + flat:
            if members == 0:
                assert postings is None
            elif members == 1:
                assert type(postings) is int
            else:
                assert type(postings) is set and len(postings) == members

    @staticmethod
    def reference(documents: dict) -> dict:
        fresh = DocumentIndexes()
        for doc_id, value in documents.items():
            fresh.add(doc_id, JSONTree.from_value(value))
        return fresh.snapshot()

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_postings_walk_0_1_2_1_0_by_add_and_remove(self, first_out):
        indexes = DocumentIndexes()
        tree = JSONTree.from_value(self.LEAF)
        live: dict = {}
        self.holds(indexes, 0)
        for doc_id in (0, 1):
            indexes.add(doc_id, tree)
            live[doc_id] = self.LEAF
            self.holds(indexes, len(live))
            assert indexes.snapshot() == self.reference(live)
        for doc_id in (first_out, 1 - first_out):
            indexes.remove(doc_id, tree)
            del live[doc_id]
            self.holds(indexes, len(live))
            assert indexes.snapshot() == self.reference(live)
        assert all(not table for table in indexes.snapshot().values())

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_postings_walk_0_1_2_1_0_by_entry_deltas(self, first_out):
        indexes = DocumentIndexes()
        live: dict = {0: {}, 1: {}}
        for doc_id in live:
            indexes.add(doc_id, JSONTree.from_value({}))
        grow = value_entry_counts(self.LEAF["k"], ("k",), "k")
        shrink = value_entry_counts(self.LEAF["k"], ("k",), "k", sign=-1)
        steps = [(0, grow), (1, grow), (first_out, shrink), (1 - first_out, shrink)]
        for members, (doc_id, delta) in zip((1, 2, 1, 0), steps):
            before = indexes.snapshot()
            # Shrinking a document that never grew is refused whole ...
            if not live[1 - doc_id]:
                with pytest.raises(ValueError, match="below zero"):
                    indexes.apply_entry_delta(1 - doc_id, shrink)
                assert indexes.snapshot() == before
            # ... the dry run reports the real run and moves nothing.
            planned = indexes.apply_entry_delta(doc_id, delta, commit=False)
            assert indexes.snapshot() == before
            assert indexes.apply_entry_delta(doc_id, delta) == planned
            live[doc_id] = self.LEAF if delta is grow else {}
            self.holds(indexes, members)
            assert indexes.snapshot() == self.reference(live)

    def test_a_lone_posting_is_handed_out_as_a_fresh_set(self):
        collection = api.collection([self.LEAF, {"other": 1}])
        indexes = collection.indexes
        before = indexes.snapshot()
        lookups = [
            lambda: indexes.docs_with_path(("k", "t")),
            lambda: indexes.docs_with_value(("k", "t"), "v"),
            lambda: indexes.docs_with_kind(("k", "t"), Kind.STRING),
            lambda: indexes.docs_with_key("t"),
            lambda: indexes.docs_with_tail_value("t", "v"),
            lambda: indexes.docs_with_any_value("v"),
        ]
        for lookup in lookups:
            found = lookup()
            assert found == {0}
            found.add(99)
            found.discard(0)
            assert lookup() == {0}
        assert indexes.docs_in_range(("other",), 0, 2) == {1}
        assert indexes.snapshot() == before == rebuilt(collection).snapshot()
        assert collection.count({"k.t": "v"}) == 1

    def test_stats_counters(self):
        stats = api.collection(PEOPLE).index_stats()
        assert stats.documents == 3
        assert stats.keys >= 6  # name, first, last, age, hobbies, ...


class TestEveryDocumentPostings:
    """A posting that holds every live id is stored as the live-id set
    itself: materialised once when a document lacks its entry, the
    sentinel again when a posting grows back to every live id, kept
    through ``remove`` -- and ``snapshot()`` never tells the difference."""

    FIELDS = ("a", "b", "c")

    @classmethod
    def random_field(cls, rng):
        return rng.choice([0, 1, 2, "s", [0, 1], [1, [2]], {"x": 0}, {"x": [1]}])

    @classmethod
    def random_document(cls, rng):
        # Mostly every field, so most postings are every document's.
        return {
            field: cls.random_field(rng)
            for field in cls.FIELDS
            if rng.random() < 0.85
        }

    @staticmethod
    def check(indexes: DocumentIndexes, live: dict) -> None:
        assert indexes.snapshot() == TestIndexMaintenance.reference(live)
        assert indexes.live_ids == set(live)
        assert indexes.stats().documents == len(live)
        for entry in indexes._every:
            table, nested = indexes._tables[entry[0]]
            if nested:
                table = table[entry[1]]
            assert table[entry[-1]] is indexes.live_ids
            assert len(live) >= 2

    def test_model_equals_rebuild_after_every_step(self):
        rng = random.Random(20261016)
        sentinels = 0
        for _ in range(8 * _SCALE):
            indexes = DocumentIndexes()
            live: dict[int, dict] = {}
            next_id = 0
            for _ in range(40):
                roll = rng.random()
                if roll < 0.35 or len(live) < 2:
                    value = self.random_document(rng)
                    indexes.add(next_id, JSONTree.from_value(value))
                    live[next_id] = value
                    next_id += 1
                elif roll < 0.5:
                    doc_id = rng.choice(sorted(live))
                    indexes.remove(doc_id, JSONTree.from_value(live.pop(doc_id)))
                elif roll < 0.8:
                    # One field set, replaced or unset: a delta each way.
                    doc_id = rng.choice(sorted(live))
                    field = rng.choice(self.FIELDS)
                    value = dict(live[doc_id])
                    delta: dict = {}
                    if field in value:
                        value_entry_counts(
                            value.pop(field), (field,), field, counts=delta, sign=-1
                        )
                    if rng.random() < 0.6:
                        value[field] = self.random_field(rng)
                        value_entry_counts(value[field], (field,), field, counts=delta)
                    indexes.apply_entry_delta(doc_id, delta)
                    live[doc_id] = value
                else:  # rebuild-replace: remove and add under the same id
                    doc_id = rng.choice(sorted(live))
                    value = self.random_document(rng)
                    indexes.remove(doc_id, JSONTree.from_value(live[doc_id]))
                    indexes.add(doc_id, JSONTree.from_value(value))
                    live[doc_id] = value
                self.check(indexes, live)
                sentinels += len(indexes._every)
        assert sentinels  # the generator bites

    def test_lookups_hand_out_the_live_set_read_only(self):
        collection = api.collection([{"a": i, "b": [i, 1]} for i in range(5)])
        indexes = collection.indexes
        live = indexes.live_ids
        assert indexes.docs_with_path(("a",)) is live
        assert indexes.docs_with_value(("b",), 1) is live
        assert planner.candidate_ids(ir.PathExists(("a",)), indexes) is live
        # ALL and X is X; ALL or X is ALL -- neither copies the live set.
        narrowed = ir.AndPred((ir.PathExists(("a",)), ir.PathEq(("a",), 3)))
        assert planner.candidate_ids(narrowed, indexes) == {3}
        widened = ir.OrPred((ir.PathExists(("a",)), ir.PathEq(("a",), 3)))
        assert planner.candidate_ids(widened, indexes) is live
        assert collection.count({"b": 1}) == 5
        assert live == set(range(5))

    def test_rebuild_replace_never_copies_the_live_set(self, monkeypatch):
        collection = api.collection(
            [{"user": i, "tags": ["x", "y"], "age": i % 7} for i in range(50)]
        )
        copies = []
        copy = DocumentIndexes._live_copy
        monkeypatch.setattr(
            DocumentIndexes,
            "_live_copy",
            lambda self, *args: copies.append(args) or copy(self, *args),
        )
        result, _ = rebuild_update_many(collection, {"age": 3}, {"$inc": {"user": 100}})
        assert result.modified_count == 7
        assert copies == []
        assert collection.indexes.snapshot() == rebuilt(collection).snapshot()
        # A document lacking every-document entries materialises each
        # of them once, and only those.
        every = set(collection.indexes._every)
        lacking = every - tree_entry_counts(JSONTree.from_value({"user": -1})).keys()
        assert lacking
        collection.insert({"user": -1})
        assert len(copies) == len(lacking)
        assert collection.indexes._every == every - lacking
        assert collection.indexes.snapshot() == rebuilt(collection).snapshot()


class TestMutationFreshness:
    """Mutated collections never serve stale answers through cached plans."""

    FILTER = {"name.first": "Sue"}

    def test_results_track_inserts_and_removes(self):
        collection = api.collection(PEOPLE)
        assert collection.count(self.FILTER) == 1
        new_id = collection.insert(
            {"name": {"first": "Sue", "last": "Novak"}, "age": 50}
        )
        # Same filter text -> same cached plan; fresh candidates.
        assert collection.count(self.FILTER) == 2
        collection.remove(new_id)
        collection.remove(0)
        assert collection.count(self.FILTER) == 0

    def test_two_collections_share_plans_not_results(self):
        left = api.collection([{"k": "match"}])
        right = api.collection([{"k": "other"}])
        assert left.count({"k": "match"}) == 1
        assert right.count({"k": "match"}) == 0

    def test_a_pending_document_keeps_one_resident_form(self, tmp_path):
        """A delta update keeps the new value pending and drops the old
        tree; reads, pins, removal and checkpoints see the new value."""
        with api.connect(str(tmp_path)) as database:
            collection = database.collection(
                "c", documents=[{"n": n} for n in range(5)]
            )
            collection.update_many({"n": {"$gte": 1}}, {"$inc": {"n": 10}})
            assert collection.pending_updates == 4
            slots = collection.all_slots()
            assert not any(isinstance(slots[i], JSONTree) for i in range(1, 5))
            assert collection.get(1).to_value() == {"n": 11}
            assert collection.find({"n": {"$gt": 11}}) == [
                {"n": 12}, {"n": 13}, {"n": 14}
            ]
            pinned = collection.snapshot_view()
            assert collection.pending_updates == 0
            collection.update_one({"n": 12}, {"$set": {"n": 22}})
            assert not isinstance(collection.all_slots()[2], JSONTree)
            assert [tree.to_value() for _, tree in pinned.documents()] == [
                {"n": 0}, {"n": 11}, {"n": 12}, {"n": 13}, {"n": 14}
            ]
            assert collection.remove(2).to_value() == {"n": 22}
            assert collection.count({"n": 22}) == 0
            collection.update_one({"n": 13}, {"$inc": {"n": 100}})
            assert collection.pending_updates == 1
            database.compact("c")
            expected = [{"n": 0}, {"n": 11}, {"n": 113}, {"n": 14}]
            assert collection.find({}) == expected
        with api.connect(str(tmp_path)) as database:
            assert database.collection("c").find({}) == expected

    def test_select_tracks_mutations(self):
        collection = api.collection(PEOPLE)
        rows = dict(collection.select("$.hobbies[*]"))
        assert rows[0] == ["yoga", "chess"]
        collection.remove(0)
        rows = dict(collection.select("$.hobbies[*]"))
        assert 0 not in rows


class TestSchemaEnforcement:
    SCHEMA = {
        "type": "object",
        "required": ["name"],
        "properties": {"age": {"type": "number", "maximum": 120}},
    }

    def test_valid_documents_ingest(self):
        collection = api.collection(
            [{"name": "a", "age": 10}], schema=self.SCHEMA
        )
        assert len(collection) == 1
        assert collection.schema_enforced

    def test_reject_on_insert(self):
        collection = api.collection(schema=self.SCHEMA)
        with pytest.raises(DocumentRejectedError):
            collection.insert({"age": 10})
        assert len(collection) == 0

    def test_batch_rejection_is_atomic(self):
        collection = api.collection(schema=self.SCHEMA)
        with pytest.raises(DocumentRejectedError) as excinfo:
            collection.insert_many(
                [{"name": "ok"}, {"name": "bad", "age": 200}, {"name": "ok2"}]
            )
        assert excinfo.value.position == 1
        assert len(collection) == 0
        assert collection.indexes.snapshot() == rebuilt(collection).snapshot()
        assert collection.version == 0

    def test_prebuilt_validator(self):
        from repro.schema.parser import parse_schema
        from repro.validate import compile_schema_validator

        validator = compile_schema_validator(parse_schema(self.SCHEMA))
        collection = api.collection(validator=validator)
        collection.insert({"name": "x"})
        with pytest.raises(DocumentRejectedError):
            collection.insert({})

    def test_schema_and_validator_conflict(self):
        with pytest.raises(StoreError):
            api.collection(schema=self.SCHEMA, validator=object())


class TestDocumentsById:
    """``documents(ids)``: the by-id survivor accessor, on the live
    collection and on its snapshots."""

    @pytest.fixture
    def collection(self):
        collection = api.collection(PEOPLE + [{"n": 3}, {"n": 4}])
        collection.remove(1)
        return collection

    @pytest.fixture(params=["collection", "snapshot"])
    def view(self, request, collection):
        if request.param == "snapshot":
            return collection.snapshot_view()
        return collection

    def test_membership_of_non_ids_is_false(self, view):
        assert 0 in view and 4 in view
        assert 1 not in view  # removed
        assert 99 not in view and -1 not in view
        assert "x" not in view
        assert 1.0 not in view and 0.0 not in view
        # ``False == 0`` and document 0 is live: a bool is still no id.
        assert False not in view and True not in view

    def test_ascending_whatever_the_input_order(self, view):
        rows = list(view.documents([4, 0, 3]))
        assert [doc_id for doc_id, _ in rows] == [0, 3, 4]
        assert rows == [
            pair for pair in view.documents() if pair[0] in (0, 3, 4)
        ]
        assert list(view.documents({2})) == [(2, view.get(2))]
        assert list(view.documents([])) == []
        assert list(view.documents(None)) == list(view.documents())

    @pytest.mark.parametrize(
        "ids",
        [
            [99],
            [-1],
            [0, 5],
            [1],
            [0, 1, 2],
            ["x"],
            [0, "x"],
            [1.0],
            [0, 2.5],
            [False],
            [0, True],
            [False, 2],
        ],
    )
    def test_unknown_removed_and_non_int_ids_raise(self, view, ids):
        with pytest.raises(StoreError):
            list(view.documents(ids))
        for doc_id in ids:
            if doc_id not in view:
                with pytest.raises(StoreError):
                    view.get(doc_id)

    def test_a_boolean_never_removes_a_document(self, collection):
        before = collection.doc_ids()
        for doc_id in (False, True):
            with pytest.raises(StoreError):
                collection.remove(doc_id)
        assert collection.doc_ids() == before and 0 in collection

    def test_pending_updates_are_rebuilt_on_the_way_out(self, collection):
        collection.update_many({"n": {"$gte": 3}}, {"$inc": {"n": 10}})
        assert collection.pending_updates == 2
        [(doc_id, tree)] = collection.documents([4])
        assert (doc_id, tree.to_value()) == (4, {"n": 14})
        assert collection.pending_updates == 1
        walked = {doc_id: tree for doc_id, tree in collection.documents()}
        assert walked[3].to_value() == {"n": 13}
        assert walked[4] is tree  # rebuilt once, then shared


class TestRangeLookup:
    """``docs_in_range`` bisects a cached sorted key array: it must
    answer like a brute-force pass whatever happened since the last
    range query."""

    PATH = ("n",)

    @staticmethod
    def brute(collection, low, high):
        hits = set()
        for doc_id, tree in collection.documents():
            value = tree.to_value()
            numbers = value["n"] if isinstance(value["n"], list) else [value["n"]]
            for number in numbers:
                if (
                    isinstance(number, int)
                    and (low is None or number > low)
                    and (high is None or number < high)
                ):
                    hits.add(doc_id)
        return hits

    def check(self, collection, rng):
        low = rng.choice([None, rng.randint(-5, 60)])
        high = rng.choice([None, rng.randint(-5, 60)])
        assert collection.indexes.docs_in_range(
            self.PATH, low, high
        ) == self.brute(collection, low, high), (low, high)

    def test_matches_brute_force_between_mutations(self):
        rng = random.Random(14)
        collection = api.collection()
        for step in range(300):
            alive = collection.doc_ids()
            roll = rng.random()
            if roll < 0.4 or not alive:
                number = rng.randint(0, 50)
                collection.insert(
                    {"n": [number, rng.randint(0, 50)] if roll < 0.1 else number}
                )
            elif roll < 0.6:
                pivot = rng.randint(0, 50)  # a range: arrays never match
                collection.update_one(
                    {"n": {"$gt": pivot - 3, "$lt": pivot + 3}},
                    {"$inc": {"n": rng.randint(1, 9)}},
                )
            elif roll < 0.75:
                collection.update_one(
                    {"n": {"$type": "number"}}, {"$set": {"n": f"s{step}"}}
                )
            else:
                collection.remove(rng.choice(alive))
            self.check(collection, rng)
            self.check(collection, rng)
        assert collection.indexes.snapshot() == rebuilt(collection).snapshot()

    def test_empty_one_sided_and_inverted_intervals(self):
        collection = api.collection(
            [{"n": 1}, {"n": 5}, {"n": 5}, {"n": "5"}, {"n": [7, 9]}, {"m": 5}]
        )
        in_range = collection.indexes.docs_in_range
        assert in_range(self.PATH, None, None) == {0, 1, 2, 4}
        assert in_range(self.PATH, 4, None) == {1, 2, 4}
        assert in_range(self.PATH, None, 5) == {0}
        assert in_range(self.PATH, 4, 6) == {1, 2}
        assert in_range(self.PATH, 5, 6) == set()  # open interval, no integer
        assert in_range(self.PATH, 5, 5) == set()
        assert in_range(self.PATH, 9, 1) == set()  # inverted
        assert in_range(("absent",), None, None) == set()
        assert in_range(("m",), 4, 6) == {5}

    def test_a_new_value_is_seen_by_the_next_range_query(self):
        collection = api.collection([{"n": 1}, {"n": 9}])
        in_range = collection.indexes.docs_in_range
        assert in_range(self.PATH, 3, 7) == set()
        new_id = collection.insert({"n": 5})
        assert in_range(self.PATH, 3, 7) == {new_id}
        collection.update_one({"n": 5}, {"$inc": {"n": 1}})
        assert in_range(self.PATH, 5, 7) == {new_id}
        assert in_range(self.PATH, 3, 6) == set()
        collection.remove(new_id)
        assert in_range(self.PATH, 3, 7) == set()
