"""The collection query planner: prune via indexes, evaluate survivors.

The execution model for a query over an indexed collection
(:class:`repro.store.Collection`) has three stages:

1. **Plan** -- the front-end's compiled query carries a
   :class:`~repro.query.ir.LogicalPlan` whose predicates are necessary
   conditions for a match (sargable path/value/kind/key facts);
2. **Prune** -- :func:`candidate_ids` folds the predicate tree over
   the collection's secondary indexes: leaves look up postings,
   conjunctions intersect (smallest first), disjunctions union, and
   anything unindexable dissolves to "all documents";
3. **Fetch and scan survivors** -- :func:`survivors` fetches the
   candidates *by id* (``collection.documents(ids)``: direct slot
   access in ascending id order, never a pass over the collection) and
   the PR-1 compiled per-tree evaluation (``matches``/``select``/
   ``apply``) runs on them only, so results are *identical* to a full
   scan.

The indexes decide a match in exactly one case, the **covered** read:
the plan's predicate is equivalent to its payload on documents whose
filtered paths have the shape its :attr:`~repro.query.ir.LogicalPlan.
cover` names -- no array at all, or for membership-style conditions
(``{"tags": t}``, ``$in``, a one-comparison ``$elemMatch``) at most one
flat array at the end -- and the live index shows every document so
shaped (``DocumentIndexes.covers``).  The stripped paths then name one
node per document, or one array and its elements; the candidate fold
*is* the result, and stage 3 fetches without verifying -- a count
fetches nothing at all.  Everywhere else the indexes only skip
documents that provably cannot match.

A read therefore costs the postings its fold touches plus the survivors
it fetches (and, outside the cover, verifies) -- not the size of the
collection.  Candidates are recomputed from the live indexes on every
call (plans are tree-independent and cached process-wide; candidate
sets and cover checks never are), so a mutated collection can never
serve stale answers.

Before stages 2 and 3 :func:`decide` picks how the read executes.  Rung
0 is the cover, which needs no premise, no proof and no cache; past it
the schema-aware semantic optimizer (:mod:`repro.query.optimizer`)
runs: an enforced ``"empty"`` verdict answers without touching an
index, ``"all"`` streams every live document verify-free, and
``"residual"`` verifies only the conjuncts the schema could not
discharge.  Collections opt in by exposing a ``semantic_context``;
everything else (and every ``no_semantic=True`` call) takes the classic
prune-and-verify path.

The module is deliberately ignorant of :mod:`repro.store` internals:
anything with ``indexes``, ``__len__`` and ``documents(ids=None)`` --
every live ``(doc_id, tree)`` in id order, or with ``ids`` just those
documents, still in id order -- duck-types as a collection, which keeps
the import graph acyclic (store builds on the planner, not vice versa).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.explain import Explain
from repro.model.tree import JSONTree, JSONValue
from repro.query import ir, optimizer
from repro.query.compiled import CompiledQuery
from repro.query.optimizer import SemanticDecision, SemanticVerdict

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.store.collection import Collection
    from repro.store.indexes import DocumentIndexes

__all__ = [
    "candidate_ids",
    "survivors",
    "decide",
    "match_ids",
    "match_flags",
    "count_matches",
    "find_documents",
    "find_rows",
    "select_nodes",
    "select_values",
    "explain",
]


# ---------------------------------------------------------------------------
# Stage 2: predicate -> candidate document ids.
# ---------------------------------------------------------------------------


def candidate_ids(
    predicate: ir.Pred, indexes: "DocumentIndexes"
) -> set[int] | None:
    """Documents possibly satisfying ``predicate``; ``None`` = all.

    Sound by construction: the returned set is a superset of the
    documents where the predicate holds, hence (the predicate being a
    necessary condition) of the documents the query matches.  The
    returned set is read-only and only valid until the next write: it
    may be a live index posting, or
    :attr:`~repro.store.indexes.DocumentIndexes.live_ids` itself when
    every document is a candidate.  Every caller takes its length or
    sorts it at once, so a count or a point read copies nothing.
    """
    return _fold_candidates(predicate, indexes)[0]


def _fold_candidates(
    predicate: ir.Pred, indexes: "DocumentIndexes"
) -> tuple[set[int] | None, bool]:
    """The candidate fold proper, returning ``(candidates, owned)``.

    Leaves return the live (read-only) index postings without copying
    (``owned=False``); connectives copy only when they genuinely
    combine -- a conjunction copies just its smallest operand, a
    disjunction with one non-empty branch passes it through.  So a
    selective query never materialises the big ``PathExists``-style
    postings it intersects against, and an every-document posting (the
    live-id set itself) is never combined at all: ``ALL and X`` is
    ``X``, ``ALL or X`` is ``ALL``.
    """
    if isinstance(predicate, ir.TruePred):
        return None, True
    if isinstance(predicate, ir.AndPred):
        narrowed = [
            folded
            for part in predicate.parts
            if (folded := _fold_candidates(part, indexes))[0] is not None
        ]
        if not narrowed:
            return None, True
        live = indexes.live_ids
        narrowed = [folded for folded in narrowed if folded[0] is not live] or [
            (live, False)
        ]
        narrowed.sort(key=lambda folded: len(folded[0]))
        smallest, owned = narrowed[0]
        if len(narrowed) == 1:
            return smallest, owned
        result = set(smallest)
        for other, _ in narrowed[1:]:
            result &= other
            if not result:
                break
        return result, True
    if isinstance(predicate, ir.OrPred):
        parts: list[tuple[set[int], bool]] = []
        for part in predicate.parts:
            folded = _fold_candidates(part, indexes)
            if folded[0] is None:
                return None, True
            if folded[0]:
                parts.append(folded)
        if not parts:
            return set(), True
        live = indexes.live_ids
        if any(folded[0] is live for folded in parts):
            return live, False
        if len(parts) == 1:
            return parts[0]
        result = set(parts[0][0])
        for other, _ in parts[1:]:
            result |= other
        return result, True
    if isinstance(predicate, ir.PathRange):
        return (
            indexes.docs_in_range(predicate.path, predicate.low, predicate.high),
            True,
        )
    if isinstance(predicate, ir.PathEq):
        found = indexes.docs_with_value(predicate.path, predicate.value)
    elif isinstance(predicate, ir.PathExists):
        found = indexes.docs_with_path(predicate.path)
    elif isinstance(predicate, ir.PathKind):
        found = indexes.docs_with_kind(predicate.path, predicate.kind)
    elif isinstance(predicate, ir.HasKey):
        found = indexes.docs_with_key(predicate.key)
    elif isinstance(predicate, ir.TailEq):
        found = indexes.docs_with_tail_value(predicate.key, predicate.value)
    elif isinstance(predicate, ir.AnyEq):
        found = indexes.docs_with_any_value(predicate.value)
    else:
        return None, True  # Unknown predicate: never prune on it.
    return found, False


def survivors(
    collection: "Collection", predicate: ir.Pred
) -> tuple[list[tuple[int, JSONTree]], int | None]:
    """The one survivor source: ``(pairs, candidate count)``.

    ``pairs`` are the live ``(doc_id, tree)`` to evaluate, in
    document-id order, fetched *by id* from the candidate set -- so a
    read costs the postings it touches plus the survivors it returns,
    never a pass over the collection.  The count is ``None`` (and the
    pairs are every live document) when nothing prunes: no indexes, or
    a predicate that dissolves to "all documents".
    """
    indexes = collection.indexes
    candidates = None
    if indexes is not None:
        candidates = candidate_ids(predicate, indexes)
    pairs = list(collection.documents(candidates))
    return pairs, None if candidates is None else len(candidates)


# ---------------------------------------------------------------------------
# The decision every read consults: covered, a semantic verdict, or
# plain prune-and-verify.
# ---------------------------------------------------------------------------

# Never cached: the shape of a path is a property of one collection's
# live index, not of a premise fingerprint.
_COVERED = SemanticDecision(
    verdict=SemanticVerdict(kind="covered", source="index"), cached=False
)


def decide(
    collection: "Collection",
    query: CompiledQuery | None,
    *,
    no_semantic: bool = False,
) -> SemanticDecision | None:
    """How a read of ``query`` over ``collection`` executes.

    ``"covered"`` when the plan's predicate is exact on paths shaped
    as its cover says (array-free, or ending in one flat array) and the
    live index shows every document's are: the candidate fold is the
    result, nothing is verified and nothing is proved.  The rung
    applies exactly where a verdict would -- a ``SemanticContext`` and
    no ``no_semantic`` hint -- so hinted calls stay the
    prune-and-verify reference.  Otherwise the decision is
    :func:`repro.query.optimizer.semantic_plan`'s.  Every read path
    decides here; only update target selection, which never takes the
    covered rung, asks the optimizer directly.
    """
    if not no_semantic and query is not None and query.plan.cover is not None:
        indexes = getattr(collection, "indexes", None)
        if (
            getattr(collection, "semantic_context", None) is not None
            and indexes is not None
            and indexes.covers(query.plan.cover)
        ):
            return _COVERED
    return optimizer.semantic_plan(collection, query, no_semantic=no_semantic)


# ---------------------------------------------------------------------------
# Stage 3: evaluate the compiled payload on the survivors.
# ---------------------------------------------------------------------------


def _matching(
    collection: "Collection",
    query: CompiledQuery,
    decision: SemanticDecision | None = None,
    report: dict[str, int | None] | None = None,
) -> Iterable[tuple[int, JSONTree]]:
    """The matching ``(doc_id, tree)`` pairs, in document-id order.

    ``report`` is :func:`explain`'s out-parameter: it receives the
    ``candidates`` count and the number of survivors ``scanned``, i.e.
    verified (both stay unset when a semantic verdict answers without
    scanning; a covered read scans none of its candidates).
    """
    kind = optimizer.effective_kind(decision)
    if kind == "empty":
        return
    if kind == "all":
        # The premise entails the query: every live document matches.
        yield from collection.documents()
        return
    pairs, candidates = survivors(collection, query.plan.match_predicate)
    if report is not None:
        report["candidates"] = candidates
        report["scanned"] = 0 if kind == "covered" else len(pairs)
    if kind == "covered":
        # The predicate is exact here: the candidates are the matches.
        yield from pairs
        return
    if kind == "residual":
        verify = decision.verdict.residual_query.matches
    else:
        verify = query.matches
    count = optimizer.count_verify
    for doc_id, tree in pairs:
        count()
        if verify(tree):
            yield doc_id, tree


def match_ids(
    collection: "Collection",
    query: CompiledQuery,
    *,
    no_semantic: bool = False,
) -> list[int]:
    """Ids of the documents the query matches (root match / non-empty
    selection), in document-id order."""
    decision = decide(collection, query, no_semantic=no_semantic)
    return [doc_id for doc_id, _ in _matching(collection, query, decision)]


def match_flags(
    collection: "Collection",
    query: CompiledQuery,
    *,
    no_semantic: bool = False,
) -> list[bool]:
    """One verdict per live document, aligned with ``documents()`` order.

    Pruned documents are reported ``False`` without being evaluated --
    the planner's equivalent of :func:`repro.query.batch.match_many`.
    """
    matched = set(match_ids(collection, query, no_semantic=no_semantic))
    return [doc_id in matched for doc_id, _ in collection.documents()]


def count_matches(
    collection: "Collection",
    query: CompiledQuery,
    *,
    no_semantic: bool = False,
) -> int:
    decision = decide(collection, query, no_semantic=no_semantic)
    kind = optimizer.effective_kind(decision)
    if kind == "empty":
        return 0
    if kind == "all":
        return len(collection)
    if kind == "covered":
        # The fold is the answer: no document is fetched.
        candidates = candidate_ids(
            query.plan.match_predicate, collection.indexes
        )
        return len(collection) if candidates is None else len(candidates)
    return sum(1 for _ in _matching(collection, query, decision))


def find_documents(
    collection: "Collection",
    query: CompiledQuery,
    *,
    no_semantic: bool = False,
) -> list[JSONValue]:
    """Mongo ``find`` over a collection: (projected) matching documents."""
    decision = decide(collection, query, no_semantic=no_semantic)
    results: list[JSONValue] = []
    projection = query.projection
    for _, tree in _matching(collection, query, decision):
        results.append(
            projection.value_of(tree) if projection else tree.to_value()
        )
    return results


def find_rows(
    collection: "Collection",
    query: CompiledQuery,
    *,
    no_semantic: bool = False,
) -> list[tuple[int, JSONValue]]:
    """``(doc_id, projected value)`` pairs for the matching documents.

    The id-carrying twin of :func:`find_documents`: scatter-gather
    execution fans this out per shard and k-way merges the returned
    rows by the globally unique doc-id, which reproduces the single
    collection's document-id answer order exactly.
    """
    decision = decide(collection, query, no_semantic=no_semantic)
    rows: list[tuple[int, JSONValue]] = []
    projection = query.projection
    for doc_id, tree in _matching(collection, query, decision):
        rows.append(
            (doc_id, projection.value_of(tree) if projection else tree.to_value())
        )
    return rows


def find_trees(
    collection: "Collection",
    query: CompiledQuery,
    *,
    no_semantic: bool = False,
) -> list[JSONTree]:
    """The matching documents as trees (no projection applied)."""
    decision = decide(collection, query, no_semantic=no_semantic)
    return [tree for _, tree in _matching(collection, query, decision)]


def select_nodes(
    collection: "Collection", query: CompiledQuery
) -> list[tuple[int, list[int]]]:
    """Per-document selected node ids, one row per live document.

    Pruning uses the plan's *node* predicate for filter plans (a nested
    node can satisfy a formula whose root-anchored condition fails) and
    the root-anchored predicate for selector plans.  Pruned documents
    get an empty selection without being evaluated.
    """
    predicate = (
        query.plan.node_predicate
        if query.plan.mode == ir.MODE_FILTER
        else query.plan.match_predicate
    )
    pairs, _ = survivors(collection, predicate)
    selected = {doc_id: query.select(tree) for doc_id, tree in pairs}
    return [
        (doc_id, selected.get(doc_id, []))
        for doc_id, _ in collection.documents()
    ]


def select_values(
    collection: "Collection", query: CompiledQuery
) -> list[tuple[int, list[JSONValue]]]:
    """Like :func:`select_nodes` but materialising the subdocuments."""
    rows: list[tuple[int, list[JSONValue]]] = []
    for doc_id, nodes in select_nodes(collection, query):
        if not nodes:
            rows.append((doc_id, []))
            continue
        tree = collection.get(doc_id)
        rows.append((doc_id, [tree.to_value(node) for node in nodes]))
    return rows


def explain(
    collection: "Collection",
    query: CompiledQuery,
    *,
    no_semantic: bool = False,
) -> Explain:
    """Run the match pipeline, reporting pruning effectiveness."""
    decision = decide(collection, query, no_semantic=no_semantic)
    report: dict[str, int | None] = {}
    matched = sum(1 for _ in _matching(collection, query, decision, report))
    return Explain(
        kind="find",
        dialect=query.dialect,
        source=query.source,
        total=len(collection),
        candidates=report.get("candidates"),
        scanned=report.get("scanned", 0),
        matched=matched,
        semantics=None if decision is None else decision.semantics_explain(),
    )
