"""Shape-bound Mongo plans against literal compilation.

``compile_mongo_find`` lowers one filter per *shape* -- the filter with
its int/str constants as holes, which holes are equal once lowered, and
the order of the range bounds -- and binds every later call's constants
into that template.  Randomised differential: for each filter, the
bound plan must carry the predicate and cover the literal lowering of
that very filter gives, fold to the same candidates and return the same
results.  Constants come from a tiny pool so that equal and +-1 values
(``{"$gte": 2}`` is ``{"$gt": 1}``) collide within one filter, which is
where a shape that forgot equality or bound order would bind a wrong
plan.
"""

from __future__ import annotations

import os
import random

from repro import api
from repro.cache import LRUCache
from repro.mongo.find import compile_filter, filter_shape, unshape
from repro.query import compile_mongo_find, ir, planner
from repro.query.compiled import CompiledQuery, mongo_cache_key

from test_query_ir import TestNormalisedCandidatesDifferential as IRCorpus

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))

FIELDS = ("a", "b", "a.b", "b.a")
POOL = (0, 1, 2, "s", "t")
NUMBERS = (0, 1, 2, 3)
BOUNDS = ("$gt", "$gte", "$lt", "$lte")


def tiny_condition(rng: random.Random, pick: random.Random):
    """One condition: its structure drawn from ``rng``, its constants
    from ``pick`` (so one structure can be re-drawn with new ones)."""
    roll = rng.random()
    if roll < 0.2:
        return pick.choice(POOL)
    if roll < 0.45:
        return {
            op: pick.choice(NUMBERS) for op in rng.sample(BOUNDS, rng.randint(1, 4))
        }
    if roll < 0.6:
        return {"$in": [pick.choice(POOL) for _ in range(rng.randint(1, 4))]}
    if roll < 0.7:
        return {
            "$elemMatch": {"$gte": pick.choice(NUMBERS), "$lt": pick.choice(NUMBERS)}
        }
    if roll < 0.8:
        return {rng.choice(["$eq", "$ne"]): pick.choice(POOL)}
    if roll < 0.9:
        return {"$not": {rng.choice(BOUNDS): pick.choice(NUMBERS)}}
    return rng.choice([{"$exists": True}, {"$size": 1}, {"$nin": [1, "s"]}, [1]])


def tiny_filter(rng: random.Random, pick: random.Random, depth: int = 0) -> dict:
    if rng.random() < 0.25 and depth < 2:
        return {
            rng.choice(["$and", "$or"]): [
                tiny_filter(rng, pick, depth + 1) for _ in range(rng.randint(1, 3))
            ]
        }
    return {
        field: tiny_condition(rng, pick)
        for field in rng.sample(FIELDS, rng.randint(1, 3))
    }


def tiny_filters(rng: random.Random) -> list[dict]:
    """One filter structure, drawn eight times with fresh constants."""
    seed = rng.random()
    return [tiny_filter(random.Random(seed), rng) for _ in range(8)]


def key_sorted(value):
    """Objects with their keys in sorted order, as the shape walks them:
    the template then lowers conjuncts in the order a literal compile of
    any same-shape filter does, and predicates compare exactly."""
    if isinstance(value, dict):
        return {key: key_sorted(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [key_sorted(item) for item in value]
    return value


def assert_bound_equals_literal(collection, filter_doc, cache: LRUCache) -> None:
    bound = compile_mongo_find(filter_doc, cache=cache)
    formula = compile_filter(filter_doc)
    literal = ir.lower_formula(formula)
    assert bound.plan.match_predicate == literal.match_predicate, filter_doc
    assert bound.plan.cover == literal.cover, filter_doc
    assert bound.source == mongo_cache_key(filter_doc), filter_doc
    assert bound.formula == formula, filter_doc
    indexes = collection.indexes
    assert planner.candidate_ids(
        bound.plan.match_predicate, indexes
    ) == planner.candidate_ids(literal.match_predicate, indexes), filter_doc
    reference = CompiledQuery("mongo-find", bound.source, formula=formula)
    expected = [
        doc_id for doc_id, tree in collection.documents() if reference.matches(tree)
    ]
    assert planner.match_ids(collection, bound) == expected, filter_doc
    assert planner.count_matches(collection, bound) == len(expected), filter_doc


class TestShapeBoundDifferential:
    def run(self, rng, make_filters, trials: int) -> tuple[int, set, int]:
        """``(filters, distinct shapes, filters with equal holes)``."""
        cache = LRUCache(capacity=4096)
        filters, shapes, collided = 0, set(), 0
        for _ in range(trials):
            collection = api.collection(
                [IRCorpus.random_document(rng) for _ in range(rng.randint(5, 40))]
            )
            for _ in range(6):
                for filter_doc in make_filters(rng):
                    filter_doc = key_sorted(filter_doc)
                    assert_bound_equals_literal(collection, filter_doc, cache)
                    key, constants, raws = filter_shape(filter_doc)
                    filters += 1
                    shapes.add(key)
                    collided += len(constants) < len(raws)
        return filters, shapes, collided

    def test_tiny_constant_pool(self):
        filters, shapes, collided = self.run(
            random.Random(20261016), tiny_filters, 6 * _SCALE
        )
        # The generator bites: a quarter of the filters bind a template
        # another one built, and a quarter have equal holes.
        assert filters - len(shapes) > filters / 4
        assert collided > filters / 4

    def test_ir_differential_corpus(self):
        filters, shapes, _ = self.run(
            random.Random(20260927),
            lambda rng: [IRCorpus.random_filter(rng) for _ in range(6)],
            3 * _SCALE,
        )
        assert len(shapes) < filters

    def test_equal_lowered_constants_share_a_hole(self):
        # $gte 2 and $gt 1 both lower to Min(1): one hole, whichever way
        # the two are written, and apart from Min(2).
        same, lowered, _ = filter_shape({"a": {"$gte": 2, "$gt": 1}})
        again, _, _ = filter_shape({"a": {"$gte": 6, "$gt": 5}})
        apart, _, _ = filter_shape({"a": {"$gte": 2, "$gt": 2}})
        assert same == again != apart
        assert lowered == [1]
        # Bound order is part of the shape; an int is not a str is not
        # a bool, which stays literal.
        low, _, _ = filter_shape({"a": {"$gt": 1, "$lt": 5}})
        high, _, _ = filter_shape({"a": {"$gt": 5, "$lt": 1}})
        assert low != high
        assert filter_shape({"a": 1})[0] != filter_shape({"a": "1"})[0]
        assert filter_shape({"a": True})[0] != filter_shape({"a": 1})[0]
        assert filter_shape({"a": {"$size": 1}})[0] != filter_shape(
            {"a": {"$size": True}}
        )[0]

    def test_unshape_gives_the_filter_back(self):
        rng = random.Random(7)
        for _ in range(200 * _SCALE):
            filter_doc = tiny_filter(rng, rng)
            key, _, raws = filter_shape(filter_doc)
            assert mongo_cache_key(unshape(key, raws)) == mongo_cache_key(filter_doc)
