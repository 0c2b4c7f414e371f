"""The shared logical-plan IR: lowering, predicates, cache registration."""

from __future__ import annotations

import os
import random

import pytest

from repro.cache import artifact_cache, clear_artifact_cache
from repro.model.tree import Kind
from repro import api
from repro.query import compile_mongo_find, compile_query
from repro.query import ir, planner

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))


def match_pred(query):
    return query.plan.match_predicate


def conjuncts(pred) -> set:
    if isinstance(pred, ir.AndPred):
        return set(pred.parts)
    return {pred}


def leaves(pred) -> set:
    """All leaf predicates anywhere in the tree."""
    if isinstance(pred, (ir.AndPred, ir.OrPred)):
        return {leaf for part in pred.parts for leaf in leaves(part)}
    return {pred}


class TestFrontendsLowerToIR:
    """All three front-ends produce a LogicalPlan via the shared IR."""

    def test_jsonpath_lowers(self):
        plan = compile_query("$.a.b", "jsonpath").plan
        assert isinstance(plan, ir.LogicalPlan)
        assert plan.mode == ir.MODE_SELECT
        assert plan.path is not None

    def test_mongo_lowers(self):
        plan = compile_mongo_find({"a": 1}).plan
        assert isinstance(plan, ir.LogicalPlan)
        assert plan.mode == ir.MODE_FILTER
        assert plan.formula is not None

    def test_jnl_lowers(self):
        plan = compile_query("has(.a)", "jnl").plan
        assert isinstance(plan, ir.LogicalPlan)
        assert plan.mode == ir.MODE_FILTER

    def test_jnl_path_lowers(self):
        plan = compile_query(".a.b", "jnl-path").plan
        assert plan.mode == ir.MODE_SELECT

    def test_payload_is_the_frontend_ast(self):
        # The IR carries the front-end's AST verbatim: execution through
        # the plan is bit-for-bit the pre-IR engine.
        query = compile_query("has(.a)", "jnl")
        assert query.plan.payload is query.formula


class TestSargableExtraction:
    def test_mongo_equality(self):
        pred = match_pred(compile_mongo_find({"name.first": "Sue"}))
        assert ir.PathEq(("name", "first"), "Sue") in leaves(pred)

    def test_mongo_dotted_index_path_is_stripped(self):
        pred = match_pred(compile_mongo_find({"tags.0": "x"}))
        assert ir.PathEq(("tags",), "x") in leaves(pred)

    def test_mongo_range(self):
        pred = match_pred(
            compile_mongo_find({"age": {"$gte": 30, "$lt": 60}})
        )
        # Both bounds sit on one node: a single interval, and nothing
        # beside it (the range already implies the path exists).
        assert pred == ir.PathRange(("age",), 29, 60)

    def test_mongo_in_becomes_disjunction(self):
        pred = match_pred(compile_mongo_find({"c": {"$in": ["x", "y"]}}))
        ors = [p for p in conjuncts(pred) if isinstance(p, ir.OrPred)]
        assert ors and leaves(ors[0]) >= {
            ir.PathEq(("c",), "x"),
            ir.PathEq(("c",), "y"),
        }

    def test_mongo_exists(self):
        pred = match_pred(compile_mongo_find({"a.b": {"$exists": True}}))
        assert ir.PathExists(("a", "b")) in conjuncts(pred)

    def test_mongo_negations_do_not_prune(self):
        assert match_pred(
            compile_mongo_find({"a": {"$exists": False}})
        ) == ir.TRUE
        assert match_pred(compile_mongo_find({})) == ir.TRUE

    def test_mongo_type(self):
        pred = match_pred(compile_mongo_find({"a": {"$type": "string"}}))
        assert ir.PathKind(("a",), Kind.STRING) in conjuncts(pred)

    def test_jsonpath_key_chain(self):
        pred = match_pred(compile_query("$.store.book[0].title", "jsonpath"))
        assert ir.PathExists(("store", "book", "title")) in conjuncts(pred)
        assert ir.PathKind(("store", "book"), Kind.ARRAY) in conjuncts(pred)

    def test_jsonpath_descendant_uses_key_presence(self):
        pred = match_pred(compile_query("$..author", "jsonpath"))
        assert pred == ir.OrPred(
            (ir.PathExists(("author",)), ir.HasKey("author"))
        )

    def test_jsonpath_wildcard_filter_splits_on_kind(self):
        pred = match_pred(
            compile_query('$.hobbies[?(@ == "chess")]', "jsonpath")
        )
        assert isinstance(pred, ir.OrPred)
        array_branch = [
            branch for branch in pred.parts
            if ir.PathEq(("hobbies",), "chess") in conjuncts(branch)
        ]
        assert array_branch, pred

    def test_jnl_filter_anchored_and_floating(self):
        plan = compile_query("has(.name.first)", "jnl").plan
        assert plan.match_predicate == ir.PathExists(("name", "first"))
        assert conjuncts(plan.node_predicate) == {
            ir.HasKey("name"),
            ir.HasKey("first"),
        }

    def test_node_predicate_is_lowered_on_first_use(self, monkeypatch):
        # Only select_nodes reads it: a find pays one walk, not two.
        contexts = []
        lift = ir._lift

        def spy(ctx, formula):
            contexts.append(ctx)
            return lift(ctx, formula)

        monkeypatch.setattr(ir, "_lift", spy)
        plan = ir.lower_formula(compile_query("has(.name.first)", "jnl").formula)
        assert ir._FLOATING not in contexts
        assert plan.match_predicate == ir.PathExists(("name", "first"))
        floating = plan.node_predicate
        assert contexts.count(ir._FLOATING) == 1
        assert plan.node_predicate is floating  # lowered once
        selector = compile_query("$.a.b", "jsonpath").plan
        assert selector.node_predicate is selector.match_predicate

    def test_true_is_absorbing(self):
        assert ir.and_([ir.TRUE, ir.TRUE]) == ir.TRUE
        assert ir.or_([ir.PathExists(("a",)), ir.TRUE]) == ir.TRUE
        assert ir.and_([ir.PathExists(("a",)), ir.TRUE]) == ir.PathExists(("a",))


class TestNormalisation:
    """``and_``/``or_`` remove what the Mongo lowering repeats; both
    rewrites are equivalences of the predicate."""

    A = ir.PathEq(("a",), 5)
    B = ir.PathKind(("a",), Kind.ARRAY)
    C = ir.HasKey("c")

    def test_absorption(self):
        assert ir.or_([self.A, ir.and_([self.B, self.A])]) == self.A
        assert ir.or_([ir.and_([self.A, self.B]), self.A]) == self.A
        assert ir.or_(
            [self.A, ir.and_([self.B, self.A]), self.C, ir.and_([self.B, self.C])]
        ) == ir.OrPred((self.A, self.C))
        # Nothing absorbs a conjunction that shares no whole disjunct.
        kept = ir.or_([self.A, ir.and_([self.B, self.C])])
        assert kept == ir.OrPred((self.A, ir.AndPred((self.B, self.C))))

    @pytest.mark.parametrize(
        "implying",
        [
            ir.PathEq(("a",), 5),
            ir.PathRange(("a",), 2, None),
            ir.PathKind(("a",), Kind.OBJECT),
        ],
    )
    def test_exists_is_dropped_beside_what_implies_it(self, implying):
        exists = ir.PathExists(("a",))
        assert ir.and_([implying, exists]) == implying
        assert ir.and_([exists, implying]) == implying
        elsewhere = ir.PathExists(("b",))
        assert ir.and_([implying, elsewhere]) == ir.AndPred((implying, elsewhere))
        # A key-presence fact implies nothing about "a".
        assert ir.and_([self.C, exists]) == ir.AndPred((self.C, exists))

    def test_exists_is_dropped_beside_a_disjunction_that_locates_it(self):
        exists = ir.PathExists(("a",))
        either = ir.OrPred((self.A, ir.AndPred((self.B, self.C))))
        assert ir.and_([either, exists]) == either
        assert ir.and_([exists, either]) == either
        # One branch that says nothing about "a" keeps the look-up.
        loose = ir.OrPred((self.A, self.C))
        assert ir.and_([loose, exists]) == ir.AndPred((loose, exists))
        elsewhere = ir.OrPred((self.A, ir.PathEq(("b",), 5)))
        assert ir.and_([elsewhere, exists]) == ir.AndPred((elsewhere, exists))
        # Mongo's ``$in`` is the union of its equalities and nothing else.
        assert match_pred(compile_mongo_find({"a": {"$in": [1, 2]}})) == (
            ir.OrPred((ir.PathEq(("a",), 1), ir.PathEq(("a",), 2)))
        )

    def test_mongo_equality_is_one_lookup(self):
        assert match_pred(compile_mongo_find({"user": 5})) == ir.PathEq(
            ("user",), 5
        )
        assert match_pred(compile_mongo_find({"city": "x", "age": 7})) == (
            ir.AndPred((ir.PathEq(("city",), "x"), ir.PathEq(("age",), 7)))
        )

    def test_one_conjunction_one_interval(self):
        lowered = {
            "tightest": {"a": {"$gt": 2, "$gte": 7, "$lt": 50, "$lte": 20}},
            "empty": {"a": {"$gt": 9, "$lt": 3}},
        }
        assert match_pred(compile_mongo_find(lowered["tightest"])) == (
            ir.PathRange(("a",), 6, 21)
        )
        # An empty interval stays an interval: it prunes everything.
        assert match_pred(compile_mongo_find(lowered["empty"])) == (
            ir.PathRange(("a",), 9, 3)
        )
        plan = compile_query("has(.a<test(min(2)) and test(max(50))>)", "jnl").plan
        assert plan.match_predicate == ir.PathRange(("a",), 2, 50)
        assert plan.node_predicate == ir.HasKey("a")  # floating: no path

    def test_bounds_on_different_nodes_stay_apart(self):
        low, high = ir.PathRange(("a",), 2, None), ir.PathRange(("a",), None, 50)
        split = match_pred(
            compile_mongo_find({"$and": [{"a": {"$gt": 2}}, {"a": {"$lt": 50}}]})
        )
        assert conjuncts(split) == {low, high}
        # One bound on the field, the other on one of its elements.
        through_axis = match_pred(
            compile_mongo_find({"a": {"$gt": 2, "$elemMatch": {"$lt": 50}}})
        )
        assert {low, high} <= conjuncts(through_axis)
        jnl_axis = compile_query(
            "has(.a<test(min(2)) and has([0:]<test(max(50))>)>)", "jnl"
        ).plan.match_predicate
        assert {low, high} <= conjuncts(jnl_axis)
        # ... whereas one element carrying both bounds is one node.
        element = match_pred(
            compile_mongo_find({"a": {"$elemMatch": {"$gt": 2, "$lt": 50}}})
        )
        assert ir.PathRange(("a",), 2, 50) in conjuncts(element)

    def test_merged_range_no_longer_admits_the_straddling_array(self):
        # 1 satisfies "< 50" and 100 satisfies "> 2", but no single node
        # satisfies both: a candidate of the two half-ranges, not of the
        # interval (and never a match).
        collection = api.collection([{"a": [1, 100]}, {"a": 7}, {"a": [7]}])
        merged = compile_mongo_find({"a": {"$gt": 2, "$lt": 50}})
        halves = ir.AndPred(
            (ir.PathRange(("a",), 2, None), ir.PathRange(("a",), None, 50))
        )
        assert planner.candidate_ids(halves, collection.indexes) == {0, 1, 2}
        assert planner.candidate_ids(
            merged.plan.match_predicate, collection.indexes
        ) == {1, 2}
        assert planner.match_ids(collection, merged) == [1]


def _needs(need: str, dotted: tuple[str, ...]) -> frozenset:
    return frozenset(
        (tuple(path.split(".")) if path else (), need) for path in dotted
    )


def _paths(*dotted: str) -> frozenset:
    """Cover entries that want the path and its prefixes array-free."""
    return _needs(ir.SCALAR, dotted)


def _flat(*dotted: str) -> frozenset:
    """Cover entries that let the path end in one flat array."""
    return _needs(ir.FLAT, dotted)


class TestCover:
    """``plan.cover``: what each path must look like for the predicate
    to be equivalent to the payload -- array-free (``_paths``) or at
    most one flat array at its end (``_flat``) -- and ``None`` when the
    predicate is only necessary."""

    @pytest.mark.parametrize(
        "filter_doc, cover",
        [
            # -- exact on a flat array: equality and ``$in`` traverse,
            # existence and ``$type: "array"`` see the one array
            ({}, _paths()),
            ({"user": 5}, _flat("user")),
            ({"a.b": "x"}, _flat("a.b")),
            ({"a": {"$in": [1, "s"]}}, _flat("a")),
            ({"a": {"$exists": True}}, _flat("a")),
            ({"a": {"$type": "array"}}, _flat("a")),
            ({"a": {"$eq": 1}}, _flat("a")),
            ({"$or": [{"a": 1}, {"b.c": 2}]}, _flat("a", "b.c")),
            (
                {"$and": [{"a": 1}, {"$or": [{"b": 2}, {"c": {"$exists": True}}]}]},
                _flat("a", "b", "c"),
            ),
            ({"$and": []}, _paths()),
            # ... and so does an ``$elemMatch`` that puts one comparison
            # -- a bound, a folded range, an ``$in`` -- on one element.
            ({"a": {"$elemMatch": {"$gt": 3}}}, _flat("a")),
            ({"a": {"$elemMatch": {"$gte": 3, "$lt": 9}}}, _flat("a")),
            ({"a": {"$elemMatch": {"$in": [1, "s"]}}}, _flat("a")),
            ({"a": {"$elemMatch": {"$type": "object"}}}, _flat("a")),
            # -- exact on array-free paths only: a comparison or type on
            # the node itself does not traverse here ...
            ({"a": {"$type": "string"}}, _paths("a")),
            ({"a": {"$gt": 3}}, _paths("a")),
            ({"a": {"$gte": 3}}, _paths("a")),
            ({"a": {"$gte": 3, "$lt": 9}}, _paths("a")),
            ({"a": 1, "b.c": {"$lte": 4}}, _flat("a") | _paths("b.c")),
            # ... a path wanted both ways is wanted the stronger way ...
            ({"a": {"$exists": True, "$gt": 3}}, _paths("a")),
            ({"$and": [{"a": 1}, {"a": {"$lt": 4}}]}, _paths("a")),
            # ... positional forms match nothing on an array-free path,
            # and their predicate (``PathKind(a, ARRAY) and ...``) says
            # so: exact whatever follows the array step ...
            ({"a.0": 5}, _paths("a")),
            ({"a.0.b": {"$ne": 5}}, _paths("a")),
            # ... and two atoms behind one array step may be witnessed
            # by different elements.
            ({"a": {"$elemMatch": {"b": {"$regex": "x"}}}}, _paths("a")),
            ({"a": {"$elemMatch": {"b": 1, "c": 2}}}, _paths("a")),
            ({"a": {"$elemMatch": {"$gt": 1, "$type": "number"}}}, _paths("a")),
            ({"a": {"$elemMatch": {"$type": "array"}}}, _paths("a")),
            # -- necessary only
            ({"a": [1]}, None),
            ({"a": {"b": 1}}, None),
            ({"a": {"$in": [1, [2]]}}, None),
            ({"a": {"$ne": 3}}, None),
            ({"a": {"$nin": [1]}}, None),
            ({"a": {"$exists": False}}, None),
            ({"a": {"$not": {"$gt": 3}}}, None),
            ({"$nor": [{"a": 1}]}, None),
            ({"a": {"$regex": "^x"}}, None),
            ({"a": {"$size": 2}}, None),
            ({"a": 1, "b": {"$ne": 2}}, None),
            ({"$or": [{"a": 1}, {"b": {"$regex": "x"}}]}, None),
        ],
    )
    def test_mongo_filters(self, filter_doc, cover):
        assert compile_mongo_find(filter_doc).plan.cover == cover

    @pytest.mark.parametrize(
        "text, cover",
        [
            ("true", _paths()),
            ("has(.a.b)", _flat("a.b")),
            ("matches(.a, 5)", _paths("a")),  # the node itself: no axis
            (
                "has(.a<test(object)>.b<test(min(2)) and test(max(9))>)",
                _paths("a", "a.b"),
            ),
            ("test(object) and has(.a)", _paths("") | _flat("a")),
            ("has(.a[1:3].b)", _paths("a")),
            ("has(.a[0])", _paths("a")),
            # The full axis followed by one element atom ...
            ("matches(.a[0:], 5)", _flat("a")),
            ("has(.a[0:]<test(min(2)) and test(max(9))>)", _flat("a")),
            ("has([0:]<test(string)>)", _flat("")),
            ("has(.a<test(object)>.b[0:]<test(min(2))>)", _paths("a") | _flat("a.b")),
            ("has(.a<matches(eps, 5) or matches([0:], 5)>)", _flat("a")),
            # ... but not by none, by two, by another array step, or by
            # a step further down.
            ("has(.a[0:])", _paths("a")),
            ("has(.a[0:]<test(min(2))><test(number)>)", _paths("a")),
            ("has(.a[0:][0:]<test(min(2))>)", _paths("a")),
            ("has(.a[0:].b<test(min(2))>)", _paths("a")),
            ('has(.a[0:]<test(pattern("x.*"))>)', _paths("a")),
            ("matches(.a, [5])", None),
            ("eq(.a, .b)", None),
            ('has(.a<test(pattern("x.*"))>)', None),
            ("has(.a<test(multipleof(3))>)", None),
            ("has(.a<test(unique)>)", None),
            ("has(.a<test(minch(1))>)", None),
            ("has(.a<test(maxch(1))>)", None),
            ("has(.a|.b)", None),
            ("has((.a)* .b)", None),
            ("has(.a([0:])* <test(number)>)", None),
            ("has(./a.*/)", None),
            ("has(.* .b)", None),
            ("not has(.a)", None),
            ("has(.a) and not has(.b)", None),
        ],
    )
    def test_jnl_formulas(self, text, cover):
        assert compile_query(text, "jnl").plan.cover == cover

    def test_selector_plans_are_never_exact(self):
        assert compile_query("$.a.b", "jsonpath").plan.cover is None
        assert compile_query(".a.b", "jnl-path").plan.cover is None

    def test_floating_context_certifies_nothing(self):
        # The node predicate is lifted at a floating context: its cover
        # is dropped, and a floating walk inside an anchored formula
        # (past a wildcard) takes exactness with it.
        formula = compile_query("matches(.a, 5)", "jnl").formula
        floating, cover = ir._lift(ir._FLOATING, formula)
        assert floating == ir.AndPred((ir.HasKey("a"), ir.TailEq("a", 5)))
        assert cover is None

    def test_a_branch_cut_by_the_budget_is_not_exact(self):
        forks = " ".join(["(.a|.b)"] * 8)  # 2**8 branches > the budget
        plan = compile_query(f"has({forks})", "jnl").plan
        assert plan.cover is None
        # An array step in front still settles it: the predicate keeps
        # ``PathKind(c, ARRAY)`` whatever the cut branches dissolve to.
        plan = compile_query(f"has(.c[0] {forks})", "jnl").plan
        assert plan.cover == _paths("c")
        assert ir.PathKind(("c",), Kind.ARRAY) in conjuncts(plan.match_predicate)


def _plain_and(parts):
    """``and_`` as it was before normalisation (the reference)."""
    seen = []
    for part in ir._flatten(parts, ir.AndPred):
        if part != ir.TRUE and part not in seen:
            seen.append(part)
    if len(seen) == 1:
        return seen[0]
    return ir.AndPred(tuple(seen)) if seen else ir.TRUE


def _plain_or(parts):
    """``or_`` as it was before normalisation (the reference)."""
    seen = []
    for part in ir._flatten(parts, ir.OrPred):
        if part == ir.TRUE:
            return ir.TRUE
        if part not in seen:
            seen.append(part)
    if len(seen) == 1:
        return seen[0]
    return ir.OrPred(tuple(seen)) if seen else ir.TRUE


def _split_ranges(pred):
    """Every two-sided interval as the two half-ranges it used to be."""
    if isinstance(pred, (ir.AndPred, ir.OrPred)):
        return type(pred)(tuple(_split_ranges(part) for part in pred.parts))
    if (
        isinstance(pred, ir.PathRange)
        and pred.low is not None
        and pred.high is not None
    ):
        return ir.AndPred(
            (
                ir.PathRange(pred.path, pred.low, None),
                ir.PathRange(pred.path, None, pred.high),
            )
        )
    return pred


class TestNormalisedCandidatesDifferential:
    """Random filters over documents that put arrays, nested arrays,
    objects and array roots *on* the filtered paths."""

    FIELDS = ("a", "b", "a.b", "a.0", "b.a")

    @staticmethod
    def random_value(rng, depth=0):
        roll = rng.random()
        if roll < 0.45 or depth >= 2:
            return rng.choice([rng.randint(0, 12), rng.randint(0, 60), "s", "t"])
        if roll < 0.75:
            return [
                TestNormalisedCandidatesDifferential.random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 3))
            ]
        return {
            key: TestNormalisedCandidatesDifferential.random_value(rng, depth + 1)
            for key in rng.sample(["a", "b"], rng.randint(0, 2))
        }

    @classmethod
    def random_document(cls, rng):
        roll = rng.random()
        if roll < 0.1:
            return cls.random_value(rng, 2)  # scalar root
        if roll < 0.25:
            return [cls.random_value(rng) for _ in range(rng.randint(0, 3))]
        return {
            key: cls.random_value(rng)
            for key in rng.sample(["a", "b", "c"], rng.randint(0, 3))
        }

    @classmethod
    def random_condition(cls, rng):
        roll = rng.random()
        if roll < 0.3:
            return rng.choice([rng.randint(0, 12), "s", [1], {"a": 1}])
        if roll < 0.7:
            operators = rng.sample(["$gt", "$gte", "$lt", "$lte"], rng.randint(1, 3))
            return {op: rng.randint(-2, 60) for op in operators}
        if roll < 0.8:
            return {"$in": [rng.randint(0, 12) for _ in range(rng.randint(1, 3))]}
        if roll < 0.9:
            return {
                "$elemMatch": {"$gt": rng.randint(0, 30), "$lt": rng.randint(0, 60)}
            }
        return rng.choice(
            [{"$exists": True}, {"$type": "number"}, {"$size": 2}, {"$ne": 3}]
        )

    @classmethod
    def random_filter(cls, rng, depth=0):
        roll = rng.random()
        if roll < 0.15 and depth < 2:
            return {
                rng.choice(["$and", "$or"]): [
                    cls.random_filter(rng, depth + 1)
                    for _ in range(rng.randint(1, 3))
                ]
            }
        return {
            field: cls.random_condition(rng)
            for field in rng.sample(cls.FIELDS, rng.randint(1, 2))
        }

    def test_candidates_cover_matches_and_equal_the_plain_lowering(
        self, monkeypatch
    ):
        rng = random.Random(20260927)
        merged_somewhere = shrunk_somewhere = 0
        for _ in range(6 * _SCALE):
            collection = api.collection(
                [self.random_document(rng) for _ in range(rng.randint(5, 60))]
            )
            indexes = collection.indexes
            for _ in range(60):
                filter_doc = self.random_filter(rng)
                query = compile_mongo_find(filter_doc)
                matches = {
                    doc_id
                    for doc_id, tree in collection.documents()
                    if query.matches(tree)
                }
                for name in ("match_predicate", "node_predicate"):
                    normalised = getattr(query.plan, name)
                    with monkeypatch.context() as patch:
                        patch.setattr(ir, "and_", _plain_and)
                        patch.setattr(ir, "or_", _plain_or)
                        plain = getattr(ir.lower_formula(query.formula), name)
                    fold = planner.candidate_ids
                    candidates = fold(normalised, indexes)
                    # Absorption and subsumption are equivalences: the
                    # very same candidate set, from fewer look-ups.
                    assert candidates == fold(plain, indexes), filter_doc
                    # The merged interval only ever tightens.
                    split = fold(_split_ranges(plain), indexes)
                    if candidates is None:
                        assert split is None
                        continue
                    assert candidates <= split, filter_doc
                    merged_somewhere += _split_ranges(plain) != plain
                    shrunk_somewhere += candidates < split
                    if name == "match_predicate":
                        assert matches <= candidates, filter_doc
                assert planner.match_ids(collection, query) == sorted(matches)
        assert merged_somewhere and shrunk_somewhere  # the generator bites


class TestPlanCacheRegistration:
    def test_plans_register_in_artifact_cache(self):
        clear_artifact_cache()
        try:
            query = compile_query("$.cached.plan.probe", "jsonpath")
            _ = query.plan
            assert ("ir-plan", ir.MODE_SELECT, query.path) in artifact_cache()
        finally:
            clear_artifact_cache()

    def test_structurally_equal_payloads_share_one_plan(self):
        from repro.jnl.parser import parse_jnl

        clear_artifact_cache()
        try:
            formula = parse_jnl("has(.shared.plan)")
            twin = parse_jnl("has(.shared.plan)")
            assert formula == twin
            first = ir.plan_for(formula=formula)
            second = ir.plan_for(formula=twin)
            assert first is second
        finally:
            clear_artifact_cache()

    def test_cache_none_bypasses(self):
        from repro.jnl.parser import parse_jnl

        formula = parse_jnl("has(.uncached)")
        assert ir.plan_for(formula=formula, cache=None) is not ir.plan_for(
            formula=formula, cache=None
        )

    def test_exactly_one_payload(self):
        with pytest.raises(ValueError):
            ir.plan_for()
