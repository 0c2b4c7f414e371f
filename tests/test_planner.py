"""The collection planner: differential correctness and real pruning.

The acceptance bar for the store refactor: every front-end, routed
through IR -> planner -> indexes, returns results *identical* to the
pre-refactor per-tree engines over a differential corpus -- and the
candidate sets are always supersets of the true matches (pruning skips
work; it answers only where ``TestCoveredReads`` pins that the index
predicate is exact: array-free paths, or one flat array at the end of a
path, checked against the live index).
"""

from __future__ import annotations

import json

import pytest

from repro.explain import Explain
from repro.query import batch, compile_mongo_find, compile_query, planner
from repro.reference.workloads import people_collection
from repro import api

# A corpus mixing realistic records with structural edge cases: missing
# keys, nested arrays, scalar and array roots, empty containers, values
# repeated at different paths.
TRICKY = [
    {"a": {"b": [5, {"c": 1}]}},
    {"a": {"b": 5}},
    {"a": [{"b": 5}], "c": 1},
    {"b": 5},
    {"a": {}},
    {},
    ["top", "level", {"a": {"b": [7]}}],
    "scalar-doc",
    7,
    {"deep": {"deep": {"deep": {"needle": "x"}}}},
    {"mixed": [0, "0", [0], {"zero": 0}]},
]

DOCS = people_collection(60, seed=3) + TRICKY

MONGO_FILTERS = [
    {},
    {"name.first": "Sue"},
    {"age": {"$gte": 30, "$lt": 60}},
    {"hobbies": "yoga"},  # scalar-vs-array containment
    {"age": {"$ne": 28}},
    {"name.first": {"$exists": False}},
    {"$or": [{"name.last": "Chen"}, {"age": {"$gt": 80}}]},
    {"hobbies": {"$elemMatch": {"$regex": "yo"}}},
    {"hobbies": {"$size": 2}},
    {"a.b": 5},
    {"a.b.c": 1},
    {"a.0.b": 5},
    {"age": {"$type": "number"}},
    {"name": {"first": "Sue", "last": "Doe"}},  # exact object equality
    {"mixed": 0},
]

JSONPATHS = [
    "$.name.first",
    "$..first",
    "$.hobbies[*]",
    '$.hobbies[?(@ == "yoga")]',
    "$.a.b[1].c",
    "$.*.first",
    "$.hobbies[0:2]",
    "$..b",
    "$[0,2]",
    "$..[1]",
    "$.deep.deep.deep.needle",
]

JNL_FORMULAS = [
    "has(.name.first)",
    'matches(.name.first, "Sue") or matches(.name.first, "Ana")',
    "not has(.name)",
    "has(.hobbies[0:5])",
    "has((.*|[*])* .c)",
    "matches(.a.b, 5)",
    "has(.age<test(min(50))>)",
]


@pytest.fixture(scope="module")
def collection():
    return api.collection(DOCS)


def all_queries():
    for filter_doc in MONGO_FILTERS:
        yield compile_mongo_find(filter_doc)
    for text in JSONPATHS:
        yield compile_query(text, "jsonpath")
    for text in JNL_FORMULAS:
        yield compile_query(text, "jnl")


class TestDifferential:
    """Planner-backed answers == pre-refactor per-tree evaluation."""

    def test_match_flags_identical(self, collection):
        for query in all_queries():
            reference = [query.matches(tree) for tree in collection.trees]
            assert planner.match_flags(collection, query) == reference, (
                query.dialect,
                query.source,
            )

    def test_selected_nodes_identical(self, collection):
        for query in all_queries():
            reference = [query.select(tree) for tree in collection.trees]
            rows = [nodes for _, nodes in planner.select_nodes(collection, query)]
            assert rows == reference, (query.dialect, query.source)

    def test_find_documents_identical(self, collection):
        for filter_doc in MONGO_FILTERS:
            query = compile_mongo_find(filter_doc)
            reference = [
                value
                for tree in collection.trees
                if (value := query.apply(tree)) is not None
            ]
            assert planner.find_documents(collection, query) == reference

    def test_projection_applies(self, collection):
        query = compile_mongo_find({"name.last": "Doe"}, {"name": 1})
        results = planner.find_documents(collection, query)
        assert results and all(set(doc) == {"name"} for doc in results)

    def test_indexed_and_unindexed_agree(self):
        indexed = api.collection(DOCS)
        unindexed = api.collection(DOCS, indexed=False)
        for query in all_queries():
            assert planner.match_ids(indexed, query) == planner.match_ids(
                unindexed, query
            ), (query.dialect, query.source)


class TestSoundness:
    """Candidates are always supersets of the true matches."""

    def test_match_candidates_cover_matches(self, collection):
        for query in all_queries():
            candidates = planner.candidate_ids(
                query.plan.match_predicate, collection.indexes
            )
            if candidates is None:
                continue
            matched = set(planner.match_ids(collection, query))
            assert matched <= candidates, (query.dialect, query.source)

    def test_node_candidates_cover_selections(self, collection):
        for query in all_queries():
            predicate = (
                query.plan.node_predicate
                if query.plan.mode == "filter"
                else query.plan.match_predicate
            )
            candidates = planner.candidate_ids(predicate, collection.indexes)
            if candidates is None:
                continue
            selecting = {
                doc_id
                for doc_id, tree in collection.documents()
                if query.select(tree)
            }
            assert selecting <= candidates, (query.dialect, query.source)


class TestPruningEffectiveness:
    def test_selective_equality_prunes(self, collection):
        explain = planner.explain(
            collection, compile_mongo_find({"deep.deep.deep.needle": "x"})
        )
        assert explain.used_indexes
        assert explain.scanned == 1
        assert explain.matched == 1
        assert explain.pruned == explain.total - 1

    def test_opaque_query_falls_back_to_full_scan(self, collection):
        query = compile_mongo_find({"a": {"$exists": False}})
        explain = planner.explain(collection, query)
        assert not explain.used_indexes
        assert explain.scanned == explain.total

    def test_explain_counts_are_consistent(self, collection):
        for query in all_queries():
            explain = planner.explain(collection, query)
            assert explain.total == len(collection)
            semantics = explain.semantics
            if semantics is not None and (
                semantics.verdict in ("empty", "all", "covered")
            ):
                # A discharged verdict (or an exact index cover) answers
                # without scanning: the planner reports the honest
                # zero-scan counters.
                assert explain.scanned == 0
                if semantics.verdict == "empty":
                    expected = 0
                elif explain.candidates is not None:
                    expected = explain.candidates
                else:
                    expected = explain.total
                assert explain.matched == expected
            else:
                assert explain.matched <= explain.scanned <= explain.total
            assert explain.matched == len(planner.match_ids(collection, query))

    def test_explain_counts_are_consistent_without_semantics(self, collection):
        for query in all_queries():
            explain = planner.explain(collection, query, no_semantic=True)
            assert explain.semantics is None
            assert explain.total == len(collection)
            assert explain.matched <= explain.scanned <= explain.total


    def test_pruned_counts_the_fold_not_the_scan(self):
        # A read that scans nothing has not pruned what it returns.
        docs = [{"a": i % 3} for i in range(9)]
        plain = api.collection(docs)
        report = plain.explain({"a": 1})
        assert report.semantics.verdict == "covered"
        assert (report.total, report.candidates, report.scanned) == (9, 3, 0)
        assert report.matched == 3 and report.pruned == 6
        for covered in ({"a": 1}, {"a": {"$in": [0, 2]}}, {"a": 7}, {}):
            report = plain.explain(covered)
            assert report.semantics.verdict == "covered"
            assert report.pruned + report.matched == report.total
        piped = plain.explain_aggregate([{"$match": {"a": 1}}, {"$count": "n"}])
        assert piped.scanned == 0 and piped.pruned == 6
        # Verified reads scan their candidates: the same number.
        assert plain.explain({"a": 1}, hint={"no_semantic": True}).pruned == 6
        with api.collection(docs, shards=3, parallel=False) as fleet:
            sharded = fleet.explain_aggregate(
                [{"$match": {"a": 1}}, {"$group": {"_id": "$a"}}]
            )
            assert sharded.pruned == 6
            for shard in sharded.shards:
                assert shard.scanned == 0
                assert shard.pruned + shard.matched == shard.total
        # Where no fold ran: everything for a proved-empty filter,
        # nothing for a proved-all one (and nothing for a full scan).
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer", "minimum": 0, "maximum": 2}},
        }
        typed = api.collection(docs, schema=schema)
        empty = typed.explain({"a": {"$not": {"$lte": 100}}})
        assert empty.semantics.verdict == "empty"
        assert (empty.matched, empty.pruned) == (0, 9)
        everything = typed.explain({"a": {"$not": {"$gt": 100}}})
        assert everything.semantics.verdict == "all"
        assert (everything.matched, everything.pruned) == (9, 0)
        scan = plain.explain({"a": {"$exists": False}}, hint={"no_semantic": True})
        assert (scan.scanned, scan.pruned) == (9, 0)


class TestBatchRouting:
    """The PR-1 batch APIs route collections through the planner."""

    def test_match_many_accepts_collections(self, collection):
        query = compile_mongo_find({"name.last": "Doe"})
        assert batch.match_many(query, collection) == batch.match_many(
            query, collection.trees
        )

    def test_filter_many_accepts_collections(self, collection):
        query = compile_mongo_find({"age": {"$gt": 40}})
        assert batch.filter_many(query, collection) == batch.filter_many(
            query, collection.trees
        )

    def test_select_and_evaluate_many_accept_collections(self, collection):
        query = compile_query("$.hobbies[*]", "jsonpath")
        assert batch.select_many(query, collection) == batch.select_many(
            query, collection.trees
        )
        assert batch.evaluate_many(query, collection) == batch.evaluate_many(
            query, collection.trees
        )

    def test_jsonpath_collection_helper(self, collection):
        from repro.jsonpath import jsonpath_collection

        rows = jsonpath_collection(collection, "$.name.first")
        reference = {
            doc_id: compile_query("$.name.first", "jsonpath").values(tree)
            for doc_id, tree in collection.documents()
        }
        assert dict(rows) == reference


class TestCollectionCLI:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [
            {"name": {"first": "Sue"}, "age": 35},
            {"name": {"first": "Bob"}, "age": 28},
            {"name": {"first": "Ana"}, "age": 61, "tags": ["x"]},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines))
        return str(path)

    def test_query_collection_jsonpath(self, corpus_file, capsys):
        from repro.cli import main

        assert main(
            ["query", "--collection", corpus_file, "--jsonpath", "$.tags[*]"]
        ) == 0
        assert capsys.readouterr().out.splitlines() == ['2\t"x"']

    def test_query_collection_jnl_matches_docs(self, corpus_file, capsys):
        from repro.cli import main

        assert main(
            ["query", "--collection", corpus_file, "--jnl",
             "has(.age<test(min(30))>)"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in out] == ["0", "2"]

    def test_query_collection_node_ids(self, corpus_file, capsys):
        from repro.cli import main

        assert main(
            ["query", "--collection", corpus_file, "--path", ".tags[0]",
             "--node-ids"]
        ) == 0
        doc_id, node = capsys.readouterr().out.split()
        assert doc_id == "2" and node.isdigit()

    def test_find_collection(self, corpus_file, capsys):
        from repro.cli import main

        assert main(
            ["find", "--collection", corpus_file,
             "--filter", '{"age": {"$gt": 30}}',
             "--project", '{"name": 1}']
        ) == 0
        rows = [
            line.split("\t") for line in capsys.readouterr().out.splitlines()
        ]
        assert [row[0] for row in rows] == ["0", "2"]
        assert json.loads(rows[0][1]) == {"name": {"first": "Sue"}}

    def test_find_collection_no_match_exit(self, corpus_file):
        from repro.cli import main

        assert main(
            ["find", "--collection", corpus_file,
             "--filter", '{"age": {"$gt": 99}}']
        ) == 1

    def test_both_inputs_rejected(self, corpus_file):
        from repro.cli import main

        assert main(
            ["query", corpus_file, "--collection", corpus_file, "--jnl", "true"]
        ) == 2
        assert main(["find", "--filter", "{}"]) == 2


class TestSurvivorSource:
    """Indexed reads fetch their survivors by id: with indexes present
    and a predicate that prunes, no entry point walks the collection,
    and exactly the candidates' slots are touched."""

    # Each matches some but not all of DOCS, so no semantic verdict can
    # settle it without scanning.
    FILTERS = [
        {"name.last": "Doe"},
        {"age": {"$gte": 30, "$lt": 60}},
        {"hobbies": "yoga"},
        {"a.b": 5},
        {"$or": [{"name.last": "Chen"}, {"age": {"$gt": 80}}]},
    ]

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records ``(ids argument, pairs yielded)`` per ``documents``
        call, on collections and snapshots alike."""
        from repro.store import Collection
        from repro.store.snapshot import CollectionSnapshot

        calls: list[list] = []
        for owner in (Collection, CollectionSnapshot):
            original = owner.documents

            def documents(self, ids=None, _original=original):
                call = [ids, 0]
                calls.append(call)
                for pair in _original(self, ids):
                    call[1] += 1
                    yield pair

            monkeypatch.setattr(owner, "documents", documents)
        return calls

    @staticmethod
    def entry_points(view, filter_doc):
        """Every indexed read of one filter: ``(name, thunk)``."""
        return [
            ("find", lambda: view.find(filter_doc)),
            ("count", lambda: view.count(filter_doc)),
            ("match_ids", lambda: view.match_ids(compile_mongo_find(filter_doc))),
            ("explain", lambda: view.explain(filter_doc).matched),
            (
                "aggregate",
                lambda: view.aggregate(
                    [{"$match": filter_doc}, {"$project": {"age": 1}}]
                ),
            ),
        ]

    def assert_fetched_by_id(self, view, indexes, spy):
        for filter_doc in self.FILTERS:
            candidates = planner.candidate_ids(
                compile_mongo_find(filter_doc).plan.match_predicate, indexes
            )
            assert candidates is not None and len(candidates) < len(view)
            for name, run in self.entry_points(view, filter_doc):
                del spy[:]
                run()
                assert [(set(ids), touched) for ids, touched in spy] == [
                    (candidates, len(candidates))
                ], (name, filter_doc)

    def test_live_collection(self, spy):
        collection = api.collection(DOCS)
        self.assert_fetched_by_id(collection, collection.indexes, spy)

    def test_current_snapshot(self, spy):
        collection = api.collection(DOCS)
        snapshot = collection.snapshot_view()
        assert snapshot.current
        self.assert_fetched_by_id(snapshot, collection.indexes, spy)

    def test_pending_updates_are_fetched_by_id_too(self, spy):
        collection = api.collection(DOCS)
        reference = api.collection(DOCS, indexed=False)
        for target in (collection, reference):
            target.update_many({"name.last": "Doe"}, {"$inc": {"age": 1}})
        assert collection.pending_updates
        self.assert_fetched_by_id(collection, collection.indexes, spy)
        # The first read rebuilt its survivors; dirty again for the rows.
        collection.update_many({"name.last": "Doe"}, {"$inc": {"age": 1}})
        reference.update_many({"name.last": "Doe"}, {"$inc": {"age": 1}})
        assert collection.pending_updates
        for filter_doc in self.FILTERS:
            assert collection.find(filter_doc) == reference.find(filter_doc)

    def test_stale_snapshot_full_scans_its_pinned_trees(self, spy):
        collection = api.collection(DOCS)
        snapshot = collection.snapshot_view()
        expected = [
            [run() for _, run in self.entry_points(snapshot, filter_doc)]
            for filter_doc in self.FILTERS
        ]
        collection.update_many(
            {"name.last": {"$exists": True}},
            {"$set": {"name.last": "Gone", "age": 0, "hobbies": []}},
        )
        collection.remove(0)
        assert not snapshot.current and snapshot.indexes is None
        for filter_doc, answers in zip(self.FILTERS, expected):
            for (name, run), answer in zip(
                self.entry_points(snapshot, filter_doc), answers
            ):
                del spy[:]
                assert run() == answer, (name, filter_doc)
                assert spy and all(ids is None for ids, _ in spy), name

    def test_answers_equal_full_evaluation(self):
        collection = api.collection(DOCS)
        snapshot = collection.snapshot_view()
        for filter_doc in MONGO_FILTERS:
            query = compile_mongo_find(filter_doc)
            full = [
                (doc_id, tree.to_value())
                for doc_id, tree in collection.documents()
                if query.matches(tree)
            ]
            for view in (collection, snapshot):
                assert planner.find_rows(view, query) == full, filter_doc
                assert view.find(filter_doc) == [row for _, row in full]
                assert view.find(
                    filter_doc, hint={"no_semantic": True}
                ) == [row for _, row in full]
                assert view.count(filter_doc) == len(full)
                assert view.aggregate([{"$match": filter_doc}]) == [
                    row for _, row in full
                ]
                report = view.explain(filter_doc, hint={"no_semantic": True})
                assert report.matched == len(full)
                assert report.scanned == (
                    report.total
                    if report.candidates is None
                    else report.candidates
                )


# ---------------------------------------------------------------------------
# Rung 0, the exact index cover: on array-free paths the postings are
# the answer -- nothing is verified and nothing is proved.
# ---------------------------------------------------------------------------

HINT = {"no_semantic": True}


def verdict_of(target, filter_doc, **kwargs):
    """The explain verdict of a find; pins a covered report's shape."""
    report = target.explain(filter_doc, **kwargs)
    if report.semantics is None:
        return None
    if report.semantics.verdict == "covered":
        assert report.semantics.source == "index"
        assert report.scanned == 0  # "scanned" still means "verified"
        assert report.matched == (
            report.total if report.candidates is None else report.candidates
        )
        wire = json.loads(json.dumps(report.to_json()))
        assert Explain.from_json(wire) == report
    return report.semantics.verdict


class TestCoveredReads:
    USER = {"user": 5}
    NESTED = {"profile.age": {"$gte": 7, "$lt": 9}}

    @pytest.fixture
    def users(self):
        return api.collection(
            [
                {
                    "user": i % 10,
                    "city": f"c{i % 3}",
                    "profile": {"age": i % 12},
                    "tags": ["x", f"t{i % 4}"],
                }
                for i in range(40)
            ]
        )

    @staticmethod
    def same_answers(target, filter_doc):
        """Covered (or whatever the rung decides) == prune-and-verify
        == brute force; returns the matching ids."""
        query = compile_mongo_find(filter_doc)
        full = [
            (doc_id, tree.to_value())
            for doc_id, tree in target.documents()
            if query.matches(tree)
        ]
        values = [value for _, value in full]
        tally = [{"n": len(full)}] if full else []
        pipeline = [{"$match": filter_doc}, {"$count": "n"}]
        for hint in (None, HINT):
            assert target.find(filter_doc, hint=hint) == values
            assert target.count(filter_doc, hint=hint) == len(full)
            assert target.aggregate(pipeline, hint=hint) == tally
            assert target.match_ids(query, hint=hint) == [i for i, _ in full]
            assert [
                tree.to_value()
                for tree in target.find_trees(filter_doc, hint=hint)
            ] == values
        return [doc_id for doc_id, _ in full]

    def test_array_free_paths_are_covered(self, users):
        for filter_doc in (
            {},
            self.USER,
            self.NESTED,
            {"city": {"$in": ["c0", "c2"]}, "user": {"$gt": 6}},
            {"$or": [{"user": 1}, {"profile.age": 11}]},
            {"user.0": 5},  # exact, and empty: no array to step into
            {"missing": {"$exists": True}},
            # ``tags`` is a flat array: membership is a posting look-up.
            {"tags": "t1"},
            {"user": 5, "tags": "x"},
            {"tags": {"$in": ["t0", "t3", "nope"]}},
            {"tags": {"$elemMatch": {"$in": ["t2"]}}},
            {"tags": {"$type": "array"}},
        ):
            assert verdict_of(users, filter_doc) == "covered", filter_doc
            self.same_answers(users, filter_doc)
        # What reads the array node itself, what needs one element to
        # witness two atoms and everything the rules do not certify
        # stay on the verified path ...
        uncovered = (
            {"tags": {"$type": "string"}},
            {"tags.1": "t1"},
            {"tags": {"$elemMatch": {"$regex": "^t", "$ne": "t1"}}},
            {"user": {"$ne": 5}},
            {"city": {"$regex": "^c1"}},
        )
        for filter_doc in uncovered:
            assert verdict_of(users, filter_doc) != "covered", filter_doc
            self.same_answers(users, filter_doc)
        # ... joined by membership once an array sits inside the array.
        users.insert({"user": 5, "tags": ["x", ["t1"]]})
        for filter_doc in uncovered + ({"tags": "t1"}, {"user": 5, "tags": "x"}):
            assert verdict_of(users, filter_doc) != "covered", filter_doc
            self.same_answers(users, filter_doc)

    def test_an_array_on_the_path_uncovers_it_until_it_is_gone(self, users):
        fives = self.same_answers(users, self.USER)
        assert len(fives) == 4 and verdict_of(users, self.USER) == "covered"

        # insert / remove
        doc_id = users.insert({"user": [[5]]})  # in the posting, no match
        assert verdict_of(users, self.USER) != "covered"
        assert self.same_answers(users, self.USER) == fives
        assert verdict_of(users, self.NESTED) == "covered"  # other paths
        users.remove(doc_id)
        assert verdict_of(users, self.USER) == "covered"

        # $set to a flat list: still covered, now by containment ...
        users.update_one({"user": 3}, {"$set": {"user": [3, 5]}})
        assert verdict_of(users, self.USER) == "covered"
        assert len(self.same_answers(users, self.USER)) == 5
        # ... a list pushed into it nests it / pulled out again
        users.update_one({"user": 3}, {"$push": {"user": [5]}})
        assert verdict_of(users, self.USER) != "covered"
        assert len(self.same_answers(users, self.USER)) == 5
        users.update_one({"user": 3}, {"$pull": {"user": [5]}})
        assert verdict_of(users, self.USER) == "covered"
        users.update_one({"user": [3, 5]}, {"$set": {"user": 3}})
        assert verdict_of(users, self.USER) == "covered"
        assert self.same_answers(users, self.USER) == fives

        # $push onto a missing field / $unset
        extra = {"extra": 1}
        assert verdict_of(users, extra) == "covered"
        assert users.count(extra) == 0
        users.update_one({"user": 1}, {"$push": {"extra": [1]}})
        assert verdict_of(users, extra) != "covered"
        assert len(self.same_answers(users, extra)) == 0
        users.update_one({"user": 1}, {"$push": {"extra": 1}})
        assert len(self.same_answers(users, extra)) == 1
        users.update_one({"user": 1}, {"$unset": {"extra": ""}})
        assert verdict_of(users, extra) == "covered"
        assert users.count(extra) == 0

        # replace_one, there and back
        users.replace_one({"user": 2}, {"user": [[2]], "was": 2})
        assert verdict_of(users, self.USER) != "covered"
        users.replace_one({"was": 2}, {"user": [2]})
        assert verdict_of(users, self.USER) == "covered"
        assert self.same_answers(users, self.USER) == fives

    def test_an_array_on_a_prefix_uncovers_it(self, users):
        ages = self.same_answers(users, self.NESTED)
        assert ages and verdict_of(users, self.NESTED) == "covered"
        doc_id = users.insert({"profile": [{"age": 7}]})
        assert verdict_of(users, self.NESTED) != "covered"
        assert verdict_of(users, self.USER) == "covered"
        assert self.same_answers(users, self.NESTED) == ages
        users.remove(doc_id)
        assert verdict_of(users, self.NESTED) == "covered"
        # A root-array document is an array on every prefix.
        doc_id = users.insert([{"user": 5, "profile": {"age": 7}}])
        for filter_doc in (self.USER, self.NESTED):
            assert verdict_of(users, filter_doc) != "covered"
        assert self.same_answers(users, self.NESTED) == ages
        assert verdict_of(users, {}) == "covered"  # needs no path at all
        assert users.count({}) == len(users) == 41
        users.remove(doc_id)
        for filter_doc in (self.USER, self.NESTED):
            assert verdict_of(users, filter_doc) == "covered"

    def test_pending_updates_are_covered_and_current(self, users):
        users.update_many(self.USER, {"$set": {"city": "moved"}})
        assert users.pending_updates == 4
        moved = {"city": "moved"}
        # The postings are exact the moment the delta lands; a covered
        # count reads them and leaves the rebuilds pending ...
        assert users.count(moved) == 4 and users.pending_updates == 4
        assert verdict_of(users, moved) == "covered"
        # ... and a covered find hands out the post-update trees.
        assert len(self.same_answers(users, moved)) == 4
        assert users.pending_updates == 0

    def test_snapshots_take_the_rung_only_while_current(self, users):
        view = users.snapshot_view()
        assert verdict_of(view, self.USER) == "covered"
        pinned = self.same_answers(view, self.USER)
        users.insert({"user": 5})
        assert not view.current and view.indexes is None
        assert verdict_of(view, self.USER) != "covered"
        assert self.same_answers(view, self.USER) == pinned
        assert len(self.same_answers(users, self.USER)) == len(pinned) + 1

    def test_hinted_unindexed_and_extended_reads_verify(self, users):
        docs = [tree.to_value() for _, tree in users.documents()]
        assert verdict_of(users, self.USER, hint=HINT) is None
        report = users.explain(self.USER, hint=HINT)
        assert report.scanned == report.candidates == 4
        unindexed = api.collection(docs, indexed=False)
        assert verdict_of(unindexed, self.USER) != "covered"
        assert verdict_of(api.collection(docs, extended=True), self.USER) is None
        self.same_answers(unindexed, self.USER)

    def test_a_covered_read_verifies_and_proves_nothing(
        self, users, monkeypatch
    ):
        from repro.mongo.aggregate import compile_pipeline
        from repro.query import optimizer
        from repro.query.compiled import CompiledQuery

        def forbidden(*args, **kwargs):
            raise AssertionError("a covered read must not get here")

        expected = users.find(self.USER, hint=HINT)
        query = compile_mongo_find(self.USER)
        pipeline = compile_pipeline(
            [{"$match": self.USER}, {"$group": {"_id": "$city", "n": {"$sum": 1}}}],
            cache=None,
        )
        grouped = pipeline.execute(users, no_semantic=True)
        monkeypatch.setattr(CompiledQuery, "matches", forbidden)
        monkeypatch.setattr(optimizer, "semantic_plan", forbidden)
        monkeypatch.setattr(optimizer, "unsat", forbidden)
        pipeline.lead_pred = forbidden
        optimizer.reset_verify_calls()
        assert users.find(self.USER) == expected
        assert users.match_ids(query) == [5, 15, 25, 35]
        assert len(users.find_trees(self.USER)) == 4
        assert users.explain(self.USER).matched == 4
        assert pipeline.execute(users) == grouped
        assert pipeline.explain(users).matched == 4
        assert pipeline.execute_partial(users, explain=True)["report"].scanned == 0
        # A count does not even fetch -- array membership included.
        monkeypatch.setattr(type(users), "documents", forbidden)
        assert users.count(self.USER) == 4
        assert users.count({}) == 40
        assert users.count({"tags": "t1"}) == 10
        assert users.count({"tags": {"$in": ["t1", "t2"]}}) == 20
        assert users.count({"city": "c0", "tags": "x"}) == 14
        assert optimizer.verify_calls() == 0
