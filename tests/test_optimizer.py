"""The schema-aware semantic optimizer and the unified Explain API.

Covers the verdict ladder (unsat => empty, implied => all, partial =>
residual, unknown => none), the widen-only structural summary for
schemaless collections, process-wide verdict caching keyed by schema
fingerprint, the ``hint={"no_semantic": True}`` switch -- the one way
to turn the optimizer off -- and the single read-side door to the
prover (``planner.decide``), and the versioned Explain ``semantics``
section.

``TestProverSession`` pins the warm prover session behind the verdicts:
it answers as the cold one-shot solver does, in any order, without
growing, and never across a premise change; every verdict it yields is
cross-checked by brute force over the live documents.

``TestRandomisedDifferential`` pins the optimizer's first law -- it is
invisible in results -- by racing the default read against the same
read with the hint over randomised schemas x queries on every backend
(memory, durable, sharded, remote).  Scaled by ``REPRO_DIFF_SCALE``
(the nightly CI job sweeps it at 20x) alongside adversarial cases: a
prover starved to a
zero budget, a summary that widens between proof and execution, and
``not``-heavy schemas.  Its exact-vs-verified axis races the planner's
index cover (rung 0, no proof at all) against the hinted
prune-and-verify path and brute force, with arrays, objects and the
key ``"0"`` on the filtered paths and writes between the reads.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import threading

import pytest

from repro import api
from repro.explain import Explain, SemanticsExplain
from repro.query import compile_mongo_find, ir, optimizer, planner
from repro.store import ShardedCollection

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))

AGE_SCHEMA = {
    "type": "object",
    "required": ["age", "name"],
    "properties": {
        "age": {"type": "number", "minimum": 0, "maximum": 120},
        "name": {"type": "string"},
    },
}


def age_docs(count: int = 20) -> list[dict]:
    return [{"age": i % 100, "name": f"p{i}"} for i in range(count)]


def decision_for(collection, filter_doc, **kwargs):
    return optimizer.semantic_plan(
        collection, compile_mongo_find(filter_doc), **kwargs
    )


# ---------------------------------------------------------------------------
# The verdict ladder.
# ---------------------------------------------------------------------------


class TestVerdicts:
    @pytest.fixture()
    def people(self):
        return api.collection(age_docs(), schema=AGE_SCHEMA)

    def test_unsat_filter_proves_empty(self, people):
        decision = decision_for(people, {"age": {"$gt": 500}})
        assert decision.verdict.kind == "empty"
        assert people.find({"age": {"$gt": 500}}) == []
        assert people.count({"age": {"$gt": 500}}) == 0

    def test_implied_filter_proves_all(self, people):
        decision = decision_for(people, {"age": {"$gte": 0}})
        assert decision.verdict.kind == "all"
        assert decision.verdict.discharged
        assert people.count({"age": {"$gte": 0}}) == len(people)
        assert people.find({"age": {"$gte": 0}}) == people.find(
            {"age": {"$gte": 0}}, hint={"no_semantic": True}
        )

    def test_partially_implied_filter_leaves_a_residual(self, people):
        filter_doc = {"age": {"$gte": 0}, "name": "p3"}
        decision = decision_for(people, filter_doc)
        assert decision.verdict.kind == "residual"
        assert decision.verdict.discharged  # the age conjunct
        assert decision.verdict.residual  # the name conjunct survives
        assert people.find(filter_doc) == people.find(
            filter_doc, hint={"no_semantic": True}
        )

    def test_unknown_filter_proves_nothing(self, people):
        decision = decision_for(people, {"hobby": "chess"})
        assert decision.verdict.kind == "none"
        assert not decision.verdict.discharged

    def test_extended_collections_opt_out(self):
        extended = api.collection([{"age": 1}], extended=True)
        assert extended.semantic_context is None
        assert decision_for(extended, {"age": {"$gt": 500}}) is None

    def test_update_targets_use_the_same_verdicts(self, people):
        result = people.update_many({"age": {"$gt": 500}}, {"$inc": {"age": 1}})
        assert result.matched_count == 0
        report = people.explain_update({"age": {"$gt": 500}}, {"$inc": {"age": 1}})
        assert report.semantics is not None
        assert report.semantics.verdict == "empty"
        assert report.matched == 0 and report.scanned == 0

    def test_aggregate_lead_match_uses_the_same_verdicts(self, people):
        # ``$not`` keeps both filters outside the index cover, so the
        # prover -- not the postings -- is what answers them.
        assert people.aggregate(
            [{"$match": {"age": {"$not": {"$lte": 500}}}}, {"$count": "n"}]
        ) == []
        report = people.explain_aggregate(
            [{"$match": {"age": {"$not": {"$gt": 200}}}}, {"$count": "n"}]
        )
        assert report.semantics is not None
        assert report.semantics.verdict == "all"
        assert report.scanned == 0 and report.matched == len(people)


# ---------------------------------------------------------------------------
# The widen-only structural summary (schemaless collections).
# ---------------------------------------------------------------------------


class TestStructuralSummary:
    def test_out_of_envelope_query_proves_empty(self):
        plain = api.collection([{"n": i} for i in range(30)])
        decision = decision_for(plain, {"n": {"$gt": 1000}})
        assert decision is not None
        assert decision.verdict.kind == "empty"
        assert decision.verdict.source == "summary"
        assert plain.count({"n": {"$gt": 1000}}) == 0

    def test_summary_widens_on_insert(self):
        plain = api.collection([{"n": i} for i in range(10)])
        assert plain.count({"n": {"$gt": 100}}) == 0  # proved empty
        plain.insert({"n": 150})
        # The widened summary invalidates the cached verdict: the new
        # document is visible immediately.
        assert plain.count({"n": {"$gt": 100}}) == 1

    def test_summary_widens_on_update(self):
        plain = api.collection([{"n": i} for i in range(10)])
        assert plain.count({"n": {"$gt": 100}}) == 0
        plain.update_many({"n": 3}, {"$set": {"n": 300}})
        assert plain.count({"n": {"$gt": 100}}) == 1

    def test_updates_feed_the_summary_without_a_document_walk(self, monkeypatch):
        from repro.store.summary import StructuralSummary

        assert not hasattr(StructuralSummary, "observe_value")
        plain = api.collection([{"n": i, "tags": ["a"]} for i in range(10)])
        summary = plain._summary
        walks = []
        monkeypatch.setattr(
            StructuralSummary,
            "observe_tree",
            lambda self, tree: walks.append(tree),
        )
        revision = summary.revision
        # No new fact: every post-image stays inside the envelope.
        plain.update_many({"n": {"$lt": 5}}, {"$inc": {"n": 1}})
        plain.update_one({"n": 6}, {"$push": {"tags": "a"}})
        assert plain.count({"tags": "a"}) == 10
        assert summary.revision == revision
        plain.update_one({"n": 7}, {"$set": {"m": {"x": "s"}}})
        plain.replace_one({"n": 8}, {"n": 500, "z": [[1]]})
        assert summary.revision > revision
        assert walks == []
        # The widened premise admits exactly what was written.
        assert plain.count({"m.x": "s"}) == 1
        assert plain.count({"n": {"$gt": 100}}) == 1
        assert plain.count({"z": [[1]]}) == 1

    def test_a_tuple_written_by_an_update_is_an_array(self):
        # The model accepts tuples wherever it accepts lists; the
        # summary must classify them the same way, or every read after
        # the (legal) write dies rendering a NUMBER envelope of tuples.
        plain = api.collection([{"a": 1, "n": 3}, {"a": 2, "n": 4}])
        result = plain.update_one({"a": 1}, {"$set": {"t": (7, 8)}})
        assert result.modified_count == 1
        hint = {"no_semantic": True}
        reads = [{"a": 1}, {"t": 7}, {"t": {"$gt": 7}}, {"n": {"$gt": 50}}, {}]
        for filter_doc in reads:
            assert plain.find(filter_doc) == plain.find(filter_doc, hint=hint)
            assert plain.count(filter_doc) == plain.count(filter_doc, hint=hint)
            pipeline = [{"$match": filter_doc}, {"$project": {"t": 1}}]
            assert plain.aggregate(pipeline) == plain.aggregate(
                pipeline, hint=hint
            )
        assert plain.find({"t": 8}) == [{"a": 1, "n": 3, "t": [7, 8]}]
        assert plain.count({"t": {"$gt": 100}}) == 0
        assert decision_for(plain, {"t": {"$gt": 100}}).verdict.kind == "empty"

    def test_the_summary_is_there_before_the_first_query(
        self, tmp_path, monkeypatch
    ):
        # Fed by insert and by recovery alike, so the first query finds
        # its premise ready instead of walking the collection for it.
        from repro.store import Collection

        docs = [{"n": i, "t": [i, i]} for i in range(30)]
        with api.connect(tmp_path) as database:
            database.collection("c", documents=docs).compact()
        with api.connect(tmp_path) as database:
            reopened = database.collection("c")
            restored = Collection.from_snapshot(reopened.snapshot())
            fresh = api.collection(docs)
            monkeypatch.setattr(Collection, "documents", None)
            for collection in (fresh, reopened, restored):
                decision = decision_for(collection, {"t": {"$gt": 1000}})
                assert decision.verdict.kind == "empty"
                assert decision.verdict.source == "summary"
        for off in (
            api.collection(docs, extended=True),
            api.collection(docs, schema={"type": "object"}),
        ):
            assert off._summary is None

    def test_snapshot_pins_the_premise(self):
        plain = api.collection([{"n": i} for i in range(10)])
        view = plain.snapshot_view()
        plain.insert({"n": 150})
        # The snapshot's pinned universe still has n <= 9; its captured
        # premise stays sound (widening only weakens it).
        assert view.count({"n": {"$gt": 100}}) == 0
        assert plain.count({"n": {"$gt": 100}}) == 1

    def test_every_document_satisfies_the_inferred_formula(self):
        from repro.jsl.entailment import SolverConfig, conjoin, unsat

        docs = [
            {"a": 1, "b": "x"},
            {"a": 2, "c": [1, 2, 3]},
            {"a": 3, "b": "y", "d": {"e": 9}},
        ]
        plain = api.collection(docs)
        context = plain.semantic_context
        assert context is not None
        # The summary's formula admits a model at all (it is not a
        # vacuous bottom) ...
        proved, complete = unsat(context.formula, SolverConfig())
        assert not proved
        # ... and refuting it against itself is absurd: conjoining two
        # copies (hygienically renamed) stays satisfiable.
        doubled = conjoin(context.formula, context.formula)
        proved, complete = unsat(doubled, SolverConfig())
        assert not proved

    def test_mixed_kinds_stay_sound(self):
        docs = [{"v": 1}, {"v": "text"}, {"v": [1]}, {"v": {"k": 2}}]
        plain = api.collection(docs)
        for filter_doc in ({"v": 1}, {"v": "text"}, {"v": {"$gt": 0}}):
            assert plain.find(filter_doc) == plain.find(
                filter_doc, hint={"no_semantic": True}
            ), filter_doc


# ---------------------------------------------------------------------------
# The one switch, and the one door to the prover.
# ---------------------------------------------------------------------------


class TestOneSwitch:
    def test_hint_escape_hatch(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        report = people.explain(
            {"age": {"$gt": 500}}, hint={"no_semantic": True}
        )
        assert report.semantics is None
        assert people.count({"age": {"$gt": 500}}, hint={"no_semantic": True}) == 0

    def test_reads_reach_the_prover_only_through_decide(self, monkeypatch):
        """Every read of a collection -- a shard's included -- asks
        ``planner.decide``, never ``semantic_plan`` directly; only a
        sharded coordinator, which holds no index, proves a filter
        outside the index cover itself, once for its shards."""
        deciding = [0]
        planned: list = []
        decide, semantic_plan = planner.decide, optimizer.semantic_plan

        def spy_decide(*args, **kwargs):
            deciding[0] += 1
            try:
                return decide(*args, **kwargs)
            finally:
                deciding[0] -= 1

        def spy_plan(collection, query, **kwargs):
            coordinator = isinstance(collection, ShardedCollection)
            assert deciding[0] or (coordinator and query.plan.cover is None), (
                "semantic_plan reached outside planner.decide"
            )
            planned.append(collection)
            return semantic_plan(collection, query, **kwargs)

        monkeypatch.setattr(planner, "decide", spy_decide)
        monkeypatch.setattr(optimizer, "semantic_plan", spy_plan)
        # A negation: outside the index cover, so the prover answers.
        refuted = {"age": {"$not": {"$lte": 500}}}
        pipeline = [{"$match": refuted}, {"$count": "n"}]
        local = api.collection(age_docs(), schema=AGE_SCHEMA)
        assert local.aggregate(pipeline) == []
        assert local in planned
        with api.collection(
            age_docs(), schema=AGE_SCHEMA, shards=2, parallel=False
        ) as fleet:
            for read, expected in (
                (lambda: fleet.find(refuted), []),
                (lambda: fleet.count(refuted), 0),
                (lambda: fleet.match_ids(refuted), []),
                (lambda: fleet.aggregate(pipeline), []),
                (lambda: fleet.explain_aggregate(pipeline).results, 0),
            ):
                del planned[:]
                assert read() == expected
                assert fleet in planned  # the coordinator decided


# ---------------------------------------------------------------------------
# Verdict caching.
# ---------------------------------------------------------------------------


class TestVerdictCache:
    def test_collections_sharing_a_schema_share_verdicts(self):
        schema = {
            "type": "object",
            "required": ["cache_probe"],
            "properties": {
                "cache_probe": {"type": "number", "minimum": 0, "maximum": 77}
            },
        }
        first = api.collection([{"cache_probe": 1}], schema=schema)
        second = api.collection([{"cache_probe": 2}], schema=schema)
        filter_doc = {"cache_probe": {"$gt": 9999}}
        one = decision_for(first, filter_doc)
        two = decision_for(second, filter_doc)
        assert one.verdict.kind == "empty"
        assert two.verdict.kind == "empty"
        assert two.cached  # same canonical schema text, same query
        assert two.verdict == one.verdict

    def test_schema_premise_is_built_once(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        context = people.semantic_context
        assert context.source == "schema"
        assert people.semantic_context is context
        assert people.snapshot_view().semantic_context is context
        with api.collection(
            age_docs(), schema=AGE_SCHEMA, shards=2, parallel=False
        ) as fleet:
            assert fleet.semantic_context is fleet.semantic_context
            assert fleet.semantic_context.fingerprint == context.fingerprint

    def test_budget_is_part_of_the_cache_key(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        filter_doc = {"age": {"$lt": -3}, "name": "only-in-this-test"}
        eager = decision_for(people, filter_doc)
        assert eager.verdict.kind == "empty"
        starved = decision_for(
            people, filter_doc, config=optimizer.OptimizerConfig(budget_ms=0.0)
        )
        # A different budget must not reuse the eager verdict blindly;
        # whatever it proves must still be sound.
        assert starved.verdict.kind in ("empty", "none")


# ---------------------------------------------------------------------------
# The Explain semantics section (pinned scenarios).
# ---------------------------------------------------------------------------


class TestExplainSemantics:
    def test_unsat_find_reports_the_discharged_predicate(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        # A negated bound: outside the index cover, so the proof runs.
        report = people.explain({"age": {"$not": {"$lte": 500}}})
        assert isinstance(report, Explain)
        assert report.format == "repro-explain" and report.version == 1
        semantics = report.semantics
        assert semantics is not None
        assert semantics.verdict == "empty"
        assert semantics.source == "schema"
        assert list(semantics.discharged) == ["[X_age.<~Max(501)>]"]
        assert report.scanned == 0 and report.matched == 0

    def test_implied_find_reports_every_discharged_conjunct(self):
        schema = {
            "type": "object",
            "required": ["age", "score"],
            "properties": {
                "age": {"type": "number", "minimum": 0, "maximum": 120},
                "score": {"type": "number", "minimum": 0, "maximum": 10},
            },
        }
        docs = [{"age": i, "score": i % 10} for i in range(15)]
        people = api.collection(docs, schema=schema)
        report = people.explain(
            {"age": {"$not": {"$lt": 0}}, "score": {"$not": {"$gt": 1000}}}
        )
        semantics = report.semantics
        assert semantics is not None and semantics.verdict == "all"
        # Both conjuncts were discharged: each field shows up in the
        # proved formula text.
        discharged_text = " ".join(semantics.discharged)
        assert "X_age" in discharged_text and "X_score" in discharged_text
        assert report.matched == len(people) and report.scanned == 0

    def test_residual_reports_both_halves(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        report = people.explain({"age": {"$not": {"$lt": 0}}, "name": "p3"})
        semantics = report.semantics
        assert semantics is not None and semantics.verdict == "residual"
        assert semantics.discharged and semantics.residual
        assert report.matched == 1

    def test_semantics_survive_the_wire_format(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        report = people.explain({"age": {"$gt": 500}})
        rehydrated = Explain.from_json(
            json.loads(json.dumps(report.to_json()))
        )
        assert rehydrated == report
        assert isinstance(rehydrated.semantics, SemanticsExplain)

    def test_semantics_decode_an_older_mode_field(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        semantics = people.explain({"age": {"$not": {"$lte": 500}}}).semantics
        wire = semantics.to_json()
        assert "mode" not in wire
        assert SemanticsExplain.from_json({**wire, "mode": "on"}) == semantics

    def test_verify_counter_counts_only_real_verification(self):
        people = api.collection(age_docs(), schema=AGE_SCHEMA)
        optimizer.reset_verify_calls()
        people.find({"age": {"$gte": 0}})  # proved "all": verify-free
        assert optimizer.verify_calls() == 0
        people.find({"age": {"$gte": 0}}, hint={"no_semantic": True})
        assert optimizer.verify_calls() == len(people)


# ---------------------------------------------------------------------------
# Entailment hygiene.
# ---------------------------------------------------------------------------


class TestEntailmentHygiene:
    def test_conjoin_renames_clashing_definitions(self):
        from repro.jsl.entailment import SolverConfig, conjoin, unsat

        # Two summaries use the same generated definition names (n0,
        # n1, ...); a naive conjunction would capture references across
        # operands.  The hygienic one renames them apart per operand.
        low = api.collection([{"n": i} for i in range(5)])
        high = api.collection([{"n": 1000 + i} for i in range(5)])
        left = low.semantic_context.formula
        right = high.semantic_context.formula
        merged = conjoin(left, right)
        names = [name for name, _body in merged.definitions]
        expected = len(left.definitions) + len(right.definitions)
        assert len(names) == len(set(names)) == expected
        assert {name.split("_", 2)[1] for name in names} == {"e0", "e1"}
        # Box-style summaries admit the empty object, so the merged
        # formula stays satisfiable -- and the solver completes on it.
        proved, complete = unsat(merged, SolverConfig())
        assert not proved and complete

    def test_entailment_of_top_completes(self):
        from repro.jsl import ast
        from repro.jsl.entailment import SolverConfig, entails

        plain = api.collection([{"n": i} for i in range(5)])
        formula = plain.semantic_context.formula
        proved, complete = entails(formula, ast.Top(), SolverConfig())
        assert proved and complete


# ---------------------------------------------------------------------------
# Randomised on-vs-off differential, all four backends (nightly: 20x).
# ---------------------------------------------------------------------------


def _random_schema(rng: random.Random) -> tuple[dict, list[dict]]:
    """A random numeric-envelope schema and documents satisfying it."""
    fields = {}
    for name in ("a", "b", "c")[: rng.randint(1, 3)]:
        low = rng.randint(0, 50)
        high = low + rng.randint(1, 100)
        fields[name] = (low, high)
    schema = {
        "type": "object",
        "required": sorted(fields),
        "properties": {
            name: {"type": "number", "minimum": low, "maximum": high}
            for name, (low, high) in fields.items()
        },
    }
    docs = [
        {name: rng.randint(low, high) for name, (low, high) in fields.items()}
        for _ in range(rng.randint(5, 40))
    ]
    return schema, docs


def _random_filter(rng: random.Random, schema: dict) -> dict:
    """A random comparison filter: some unsat, some implied, some real."""
    filter_doc: dict = {}
    for name, spec in schema["properties"].items():
        if rng.random() < 0.4:
            continue
        low, high = spec["minimum"], spec["maximum"]
        op = rng.choice(["$gt", "$gte", "$lt", "$lte", "$eq"])
        pivot = rng.choice(
            [
                rng.randint(low, high),  # selective
                high + rng.randint(1, 50),  # often unsat / implied
                low - rng.randint(1, 50),  # often unsat / implied
            ]
        )
        filter_doc[name] = {op: pivot}
    return filter_doc


# The exact-vs-verified axis: documents put scalars, objects, arrays,
# nested arrays and the key "0" *on* the filtered paths, filters come
# from both lists of the cover rules (repro.query.ir).  A corpus has
# one of three shapes: no array anywhere; flat arrays -- of scalars and
# of objects, never directly of arrays -- at the filtered paths and at
# their prefixes; or arrays nested at will.

_COVER_FIELDS = ("a", "b", "a.b", "a.0", "b.a", "c")
_COVER_SHAPES = ("scalar", "flat", "nested")


def _cover_value(
    rng: random.Random, shape: str, depth: int = 0, element: bool = False
):
    roll = rng.random()
    if roll < 0.5 or depth >= 2:
        return rng.choice([rng.randint(0, 9), rng.randint(0, 9), "s", "t"])
    if roll < 0.75 and shape != "scalar" and not (shape == "flat" and element):
        return [
            _cover_value(rng, shape, depth + 1, element=True)
            for _ in range(rng.randint(0, 3))
        ]
    return {
        key: _cover_value(rng, shape, depth + 1)
        for key in rng.sample(["a", "b", "0"], rng.randint(0, 2))
    }


def _cover_document(rng: random.Random, shape: str):
    if shape == "nested" and rng.random() < 0.05:  # an array at the root
        return [_cover_value(rng, shape) for _ in range(rng.randint(0, 2))]
    document = {
        key: _cover_value(rng, shape)
        for key in rng.sample(["a", "b"], rng.randint(0, 2))
    }
    document["c"] = rng.randint(0, 5)  # what the random updates target
    return document


def _cover_condition(rng: random.Random):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice([rng.randint(0, 9), "s"])
    if roll < 0.5:
        operators = rng.sample(["$gt", "$gte", "$lt", "$lte"], rng.randint(1, 2))
        return {op: rng.randint(-1, 10) for op in operators}
    if roll < 0.6:
        return {"$in": [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]}
    if roll < 0.7:
        return rng.choice(
            [
                {"$exists": True},
                {"$type": "number"},
                {"$type": "object"},
                {"$type": "array"},
            ]
        )
    if roll < 0.8:
        low = rng.randint(0, 9)
        return {
            "$elemMatch": rng.choice(
                [
                    {"$gt": low},
                    {"$gte": low, "$lt": low + rng.randint(0, 4)},
                    {"$in": [low, "s"]},
                    {"$type": "object"},
                    {"$gt": low, "$type": "number"},  # two atoms
                    {"a": low, "b": rng.randint(0, 9)},
                ]
            )
        }
    return rng.choice(
        [
            [1],
            {"a": 1},
            {"$ne": rng.randint(0, 9)},
            {"$nin": [1, 2]},
            {"$regex": "^s"},
            {"$size": 1},
            {"$exists": False},
            {"$not": {"$gt": 4}},
            {"$in": [1, [2]]},
        ]
    )


def _cover_filter(rng: random.Random, depth: int = 0) -> dict:
    if rng.random() < 0.2 and depth < 2:
        return {
            rng.choice(["$and", "$or"]): [
                _cover_filter(rng, depth + 1)
                for _ in range(rng.randint(1, 3))
            ]
        }
    return {
        field: _cover_condition(rng)
        for field in rng.sample(_COVER_FIELDS, rng.randint(1, 2))
    }


_HINT = {"no_semantic": True}


def _assert_reads(target, filter_doc: dict, rows: list) -> None:
    """Every read of ``target``, hinted (verified) and not (covered
    where the rung applies), answers exactly ``rows``."""
    values = [value for _, value in rows]
    ids = [doc_id for doc_id, _ in rows]
    tally = [{"n": len(rows)}] if rows else []
    pipeline = [{"$match": filter_doc}, {"$count": "n"}]
    for hint in (None, _HINT):
        assert target.find(filter_doc, hint=hint) == values, filter_doc
        assert target.count(filter_doc, hint=hint) == len(rows), filter_doc
        assert target.aggregate(pipeline, hint=hint) == tally, filter_doc
        if hasattr(target, "find_trees"):  # a collection or a snapshot
            query = compile_mongo_find(filter_doc)
            assert target.match_ids(query, hint=hint) == ids, filter_doc
        elif hasattr(target, "match_ids"):  # the fleet takes the filter
            assert target.match_ids(filter_doc, hint=hint) == ids, filter_doc


def _brute_force(view, filter_doc: dict) -> list:
    query = compile_mongo_find(filter_doc)
    return [
        (doc_id, tree.to_value())
        for doc_id, tree in view.documents()
        if query.matches(tree)
    ]

@contextlib.contextmanager
def _serving(database):
    """A ``ReproServer`` over ``database`` on a background event loop;
    yields its address."""
    from repro.server import ReproServer

    server = ReproServer(database)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    started.wait()
    try:
        yield server.address
    finally:
        future = asyncio.run_coroutine_threadsafe(server.aclose(), loop)
        future.result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


def _assert_hint_invisible(target, filter_doc: dict, aggregate=True) -> None:
    """The default read of ``target`` answers as the hinted one does."""
    assert target.find(filter_doc) == target.find(
        filter_doc, hint=_HINT
    ), filter_doc
    assert target.count(filter_doc) == target.count(filter_doc, hint=_HINT)
    if aggregate:
        pipeline = [{"$match": filter_doc}, {"$count": "n"}]
        assert target.aggregate(pipeline) == target.aggregate(
            pipeline, hint=_HINT
        ), filter_doc


class TestRandomisedDifferential:
    def test_memory_default_equals_hinted(self):
        rng = random.Random(20170508)
        for _ in range(10 * _SCALE):
            schema, docs = _random_schema(rng)
            people = api.collection(docs, schema=schema)
            for _ in range(8):
                _assert_hint_invisible(people, _random_filter(rng, schema))

    def test_memory_summary_default_equals_hinted(self):
        rng = random.Random(1138)
        for _ in range(10 * _SCALE):
            schema, docs = _random_schema(rng)
            plain = api.collection(docs)  # schemaless: summary premise
            for _ in range(8):
                _assert_hint_invisible(
                    plain, _random_filter(rng, schema), aggregate=False
                )

    def test_durable_default_equals_hinted(self, tmp_path):
        rng = random.Random(4)
        schema, docs = _random_schema(rng)
        with api.connect(tmp_path / "db") as db:
            handle = db.collection(documents=docs, schema=schema)
            for _ in range(10 * _SCALE):
                filter_doc = _random_filter(rng, schema)
                assert handle.find(filter_doc) == handle.find(
                    filter_doc, hint=_HINT
                ), filter_doc

    def test_sharded_default_equals_hinted(self):
        rng = random.Random(99)
        schema, docs = _random_schema(rng)
        with api.collection(
            docs, schema=schema, shards=3, parallel=False
        ) as fleet:
            for _ in range(10 * _SCALE):
                _assert_hint_invisible(fleet, _random_filter(rng, schema))

    def test_remote_default_equals_hinted(self):
        from repro.client import connect

        rng = random.Random(7)
        schema, docs = _random_schema(rng)
        database = api.connect()
        database.collection(documents=docs, schema=schema)
        with _serving(database) as address, connect(address) as client:
            remote = client.collection()
            for _ in range(10 * _SCALE):
                _assert_hint_invisible(
                    remote, _random_filter(rng, schema), aggregate=False
                )
            refuted = {"a": {"$not": {"$lte": 10_000}}}
            report = remote.explain(refuted)
            assert report.semantics is not None
            assert report.semantics.verdict == "empty"
            assert remote.explain(refuted, hint=_HINT).semantics is None

    def test_exact_cover_equals_verified(self):
        """Covered reads against the hinted prune-and-verify path and
        against brute force, while documents come, go and change shape
        -- array-free, flat and nested corpora on memory, a current and
        a stale snapshot, a 3-shard fleet and a server over TCP."""
        from repro.client import connect

        rng = random.Random(20261004)
        database = api.connect()
        tally = dict.fromkeys(("checks", "covered", "stale", "a", "b", "c"), 0)
        with _serving(database) as address, connect(address) as client:
            for corpus in range(6 * _SCALE):
                shape = _COVER_SHAPES[corpus % 3]
                docs = [
                    _cover_document(rng, shape)
                    for _ in range(rng.randint(8, 40))
                ]
                database.collection(f"c{corpus}", documents=docs)
                remote = client.collection(f"c{corpus}")
                with api.collection(docs, shards=3, parallel=False) as fleet:
                    self._cover_rounds(
                        rng, shape, api.collection(docs), fleet, remote, tally
                    )
        # The generator bites on both sides of the rung, on stale views,
        # and on each rule that certifies a flat array.
        checks, covered = tally["checks"], tally["covered"]
        assert covered >= 3 * checks // 10 and checks - covered >= checks // 5
        assert tally["stale"] >= checks // 2
        assert tally["a"] and tally["b"] and tally["c"], tally

    @staticmethod
    def _flat_rule(filter_doc: dict) -> str | None:
        """The rule of ``repro.query.ir`` that certifies a one-condition
        filter on a flat array, if one does."""
        if len(filter_doc) != 1:
            return None
        (condition,) = filter_doc.values()
        if condition in ({"$exists": True}, {"$type": "array"}):
            return "a"
        if isinstance(condition, dict):
            return {"$elemMatch": "b", "$in": "c"}.get(next(iter(condition), None))
        return None if isinstance(condition, list) else "c"

    @classmethod
    def _cover_rounds(cls, rng, shape, memory, fleet, remote, tally) -> None:
        """Four rounds of eight random filters, and one aimed at each
        flat-array rule, over one corpus kept in step on three
        backends, with writes between the rounds."""
        stale = None
        for _ in range(4):
            current = memory.snapshot_view()
            field = rng.choice(["a", "b"])
            for filter_doc in [_cover_filter(rng) for _ in range(8)] + [
                {field: rng.choice([{"$exists": True}, {"$type": "array"}])},
                {field: {"$elemMatch": {"$gt": rng.randint(0, 9)}}},
                {field: rng.randint(0, 9)},
            ]:
                query = compile_mongo_find(filter_doc)
                decision = planner.decide(memory, query)
                covered = optimizer.effective_kind(decision) == "covered"
                tally["checks"] += 1
                tally["covered"] += covered
                rule = cls._flat_rule(filter_doc)
                if covered and rule and not memory.indexes.covers(
                    (path, ir.SCALAR) for path, _ in query.plan.cover
                ):
                    # Covered only because an array may be flat.
                    tally[rule] += 1
                rows = _brute_force(memory, filter_doc)
                for target in (memory, current, fleet, remote):
                    _assert_reads(target, filter_doc, rows)
                if stale is not None:
                    # (Still current when the writes in between happened
                    # to be no-ops.)
                    tally["stale"] += not stale.current
                    _assert_reads(
                        stale, filter_doc, _brute_force(stale, filter_doc)
                    )
            stale = current
            # Interleaved writes, mostly in the corpus's own shape: now
            # and then an array lands on (or leaves) a path of an
            # array-free corpus, and a list pushed into a flat array
            # nests it until it is pulled out, set over or replaced.
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                written = shape if rng.random() < 0.8 else rng.choice(_COVER_SHAPES)
                field = rng.choice(["a", "b"])
                selector = {"c": rng.randint(0, 5)}
                is_array = {**selector, field: {"$type": "array"}}
                if roll < 0.4:
                    document = _cover_document(rng, written)
                    # (An array at the root is no replacement document.)
                    replace = roll >= 0.3 and isinstance(document, dict)
                    for target in (memory, fleet, remote):
                        if replace:
                            target.replace_one(selector, document)
                        else:
                            target.insert(document)
                elif roll < 0.6 and len(memory) > 4:
                    doc_id = rng.choice(memory.doc_ids())
                    for target in (memory, fleet, remote):
                        target.remove(doc_id)
                else:
                    selector, update = rng.choice(
                        [
                            (selector, {"$set": {field: _cover_value(rng, written)}}),
                            (selector, {"$unset": {field: ""}}),
                            (is_array, {"$push": {field: [rng.randint(0, 9)]}}),
                            (is_array, {"$pull": {field: {"$type": "array"}}}),
                        ]
                    )
                    for target in (memory, fleet, remote):
                        target.update_many(selector, update)

    # -- adversarial cases -------------------------------------------------

    def test_starved_prover_falls_through_soundly(self):
        rng = random.Random(55)
        schema, docs = _random_schema(rng)
        people = api.collection(docs, schema=schema)
        starved = optimizer.OptimizerConfig(budget_ms=0.0)
        for _ in range(10 * _SCALE):
            filter_doc = _random_filter(rng, schema)
            query = compile_mongo_find(filter_doc)
            decision = optimizer.semantic_plan(people, query, config=starved)
            if decision is not None and decision.verdict.timed_out:
                assert decision.verdict.kind == "none"
            # Whatever the verdict, execution stays exact.
            assert planner.find_documents(people, query) == people.find(
                filter_doc, hint={"no_semantic": True}
            ), filter_doc

    def test_summary_widened_between_proof_and_execution(self):
        rng = random.Random(666)
        for _ in range(5 * _SCALE):
            plain = api.collection([{"n": rng.randint(0, 9)} for _ in range(10)])
            # Prime the verdict cache with an "empty" proof...
            assert plain.count({"n": {"$gt": 100}}) == 0
            # ... then widen the universe it was proved against.
            outlier = rng.randint(101, 500)
            plain.insert({"n": outlier})
            assert plain.count({"n": {"$gt": 100}}) == 1
            assert plain.find({"n": {"$gt": 100}}) == [{"n": outlier}]

    def test_not_heavy_schemas(self):
        schema = {
            "type": "object",
            "required": ["v"],
            "properties": {
                "v": {
                    "allOf": [
                        {"not": {"type": "string"}},
                        {"not": {"type": "object"}},
                        {"type": "number", "minimum": 0, "maximum": 9},
                    ]
                }
            },
        }
        docs = [{"v": i} for i in range(10)]
        values = api.collection(docs, schema=schema)
        for filter_doc in (
            {"v": {"$gt": 100}},
            {"v": {"$gte": 0}},
            {"v": {"$lt": 5}},
            {"v": "text"},
        ):
            _assert_hint_invisible(values, filter_doc, aggregate=False)


# ---------------------------------------------------------------------------
# The warm prover session behind the verdicts (nightly: 20x).
# ---------------------------------------------------------------------------

# The people schema and filter templates of benchmarks/e2e (datagen.py).
PEOPLE_SCHEMA = {
    "type": "object",
    "required": ["user", "age", "city", "score", "address", "tags"],
    "properties": {
        "user": {"type": "integer"},
        "age": {"type": "integer", "minimum": 18, "maximum": 89},
        "city": {"type": "string"},
        "score": {"type": "integer"},
        "address": {
            "type": "object",
            "required": ["zip", "street"],
            "properties": {
                "zip": {"type": "integer", "maximum": 999},
                "street": {"type": "string"},
            },
        },
        "tags": {"type": "array", "additionalItems": {"type": "string"}},
    },
}


def people_docs(count: int = 60) -> list[dict]:
    rng = random.Random(f"people-{count}")
    return [
        {
            "user": user,
            "age": rng.randrange(18, 90),
            "city": f"city{rng.randrange(8):02d}",
            "score": rng.randrange(10_000),
            "address": {
                "zip": rng.randrange(1000),
                "street": f"{rng.randrange(1, 1000)} main street",
            },
            "tags": rng.sample([f"tag{i:02d}" for i in range(10)], 3),
        }
        for user in range(count)
    ]


def _template_filters(rng: random.Random) -> list[dict]:
    """One fresh-constant filter per e2e read/write template, plus the
    shapes that make the ladder produce every verdict kind."""
    low = rng.randrange(9_900)
    return [
        {"user": rng.randrange(100_000)},
        {"city": f"city{rng.randrange(40):02d}", "age": rng.randrange(18, 90)},
        {"address.zip": rng.randrange(1000)},
        {"score": {"$gte": low, "$lt": low + 100}},
        {"tags": f"tag{rng.randrange(30):02d}"},
        {"city": f"city{rng.randrange(40):02d}"},
        {"age": {"$gt": 89 + rng.randrange(1, 50)}},  # schema: empty
        {"age": {"$gte": rng.randrange(18)}},  # schema: all
        {"age": {"$lte": 89 + rng.randrange(50)}, "user": rng.randrange(60)},
    ]


def _obligations(filter_doc: dict) -> list:
    """The JSL payloads ``_prove`` poses for one filter."""
    from repro.jsl.entailment import negate
    from repro.translate.jnl_to_jsl import jnl_to_jsl

    payload = compile_mongo_find(filter_doc).plan.formula
    translated = jnl_to_jsl(payload)
    conjuncts = optimizer._conjuncts(payload)
    return [translated, negate(translated)] + [
        negate(jnl_to_jsl(conjunct))
        for conjunct in (conjuncts if len(conjuncts) > 1 else [])
    ]


def _premises_and_filters(rounds: int):
    """(collection, filters) pairs: the people corpus and random
    numeric-envelope corpora, each under a schema and a summary premise."""
    rng = random.Random(20260926)
    docs = people_docs()
    people_filters = [
        filter_doc for _ in range(rounds) for filter_doc in _template_filters(rng)
    ]
    yield api.collection(docs, schema=PEOPLE_SCHEMA), people_filters
    yield api.collection(docs), people_filters
    for _ in range(rounds):
        schema, docs = _random_schema(rng)
        filters = [_random_filter(rng, schema) for _ in range(8)]
        yield api.collection(docs, schema=schema), filters
        yield api.collection(docs), filters


class TestProverSession:
    def test_warm_session_agrees_with_cold_solver(self):
        from repro.jsl.entailment import conjoin, premise_session, unsat

        solver = optimizer.DEFAULT_CONFIG.solver
        proved_some = False
        for collection, filters in _premises_and_filters(3 * _SCALE):
            premise = collection.semantic_context.formula
            session = premise_session(premise, solver)
            for filter_doc in filters:
                for payload in _obligations(filter_doc):
                    warm = unsat(conjoin(session, payload))
                    cold = unsat(conjoin(premise, payload), solver)
                    # Identical verdicts; the warm run may only complete
                    # where the cold one ran into a bound, never the
                    # other way round.
                    assert warm[1] >= cold[1], filter_doc
                    assert warm[0] == cold[0] or not cold[1], filter_doc
                    proved_some = proved_some or warm[0]
        assert proved_some

    def test_verdicts_agree_with_brute_force(self):
        kinds = set()
        for collection, filters in _premises_and_filters(3 * _SCALE):
            trees = [tree for _doc_id, tree in collection.documents()]
            for filter_doc in filters:
                query = compile_mongo_find(filter_doc)
                verdict = optimizer.semantic_plan(collection, query).verdict
                matching = [tree for tree in trees if query.matches(tree)]
                kinds.add(verdict.kind)
                if verdict.kind == "empty":
                    assert not matching, filter_doc
                elif verdict.kind == "all":
                    assert len(matching) == len(trees), filter_doc
                elif verdict.kind == "residual":
                    residual = verdict.residual_query
                    assert matching == [
                        tree for tree in trees if residual.matches(tree)
                    ], filter_doc
        assert kinds == {"empty", "all", "residual", "none"}

    def test_session_state_is_bounded(self):
        from repro.jsl.entailment import conjoin, premise_session, unsat

        rng = random.Random(12)
        for collection in (
            api.collection(people_docs(), schema=PEOPLE_SCHEMA),
            api.collection(people_docs()),
        ):
            session = premise_session(
                collection.semantic_context.formula,
                optimizer.DEFAULT_CONFIG.solver,
            )
            asked = 0
            after_twenty = None
            while asked < 2000:
                for filter_doc in _template_filters(rng):
                    for payload in _obligations(filter_doc):
                        unsat(conjoin(session, payload))
                        asked += 1
                        if asked == 20:
                            after_twenty = session.resident_goals
            assert session.resident_goals == after_twenty > 0

    def test_premise_change_never_consults_the_old_session(self, monkeypatch):
        from repro.cache import LRUCache

        built = []
        real = optimizer.premise_session

        def recording(premise, config):
            session = real(premise, config)
            built.append(session)
            return session

        monkeypatch.setattr(optimizer, "premise_session", recording)
        cache = LRUCache(64)

        def plan(collection, filter_doc):
            return decision_for(collection, filter_doc, cache=cache)

        def retire(session):
            def refuse(*args, **kwargs):
                raise AssertionError("a stale prover session was consulted")

            monkeypatch.setattr(session, "satisfiable", refuse)

        # Two collections with the same schema text share one session.
        first = api.collection(people_docs(10), schema=PEOPLE_SCHEMA)
        second = api.collection(people_docs(20), schema=PEOPLE_SCHEMA)
        assert plan(first, {"user": 1}).verdict.kind == "none"
        assert plan(second, {"user": 2}).verdict.kind == "none"
        assert plan(second, {"age": {"$gt": 500}}).verdict.kind == "empty"
        assert len(built) == 1

        # A different schema text starts its own.
        retire(built[0])
        tighter = json.loads(json.dumps(PEOPLE_SCHEMA))
        tighter["properties"]["age"]["maximum"] = 70
        third = api.collection(
            [doc for doc in people_docs(30) if doc["age"] <= 70], schema=tighter
        )
        assert plan(third, {"age": {"$gt": 80}}).verdict.kind == "empty"
        assert len(built) == 2

        # A summary that widens (a new largest ``user``) does too.
        plain = api.collection(people_docs(10))
        assert plan(plain, {"user": {"$gt": 50}}).verdict.kind == "empty"
        assert len(built) == 3
        retire(built[2])
        plain.insert(dict(people_docs(10)[0], user=99))
        assert plan(plain, {"user": {"$gt": 60}}).verdict.kind == "none"
        assert len(built) == 4
