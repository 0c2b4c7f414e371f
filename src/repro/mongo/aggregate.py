"""MongoDB-style aggregation pipelines, compiled and index-pruned.

The paper's MongoDB treatment stops at ``find``-style navigation;
production document-database traffic is dominated by multi-stage
*aggregation*, a composable stage algebra over whole collections.  This
module implements its practical core -- ``$match``, ``$project``,
``$unwind``, ``$group`` (with ``$sum``/``$count``/``$min``/``$max``/
``$avg``/``$push`` accumulators), ``$sort``, ``$skip``/``$limit`` and
``$count`` -- on top of the existing store/IR/planner stack:

* a pipeline compiles **once** into a :class:`CompiledPipeline`
  (registered in the process-wide artifact cache of :mod:`repro.cache`
  under the ``"mongo-aggregate"`` namespace, keyed on the canonical
  JSON text of the pipeline);
* the **leading run of ``$match`` stages** is merged into one find
  filter and compiled through :func:`repro.query.compiled.
  compile_mongo_find` -- so it lowers into the shared logical-plan IR,
  and over an indexed collection the planner prunes candidates via the
  secondary indexes before any per-document work, exactly like ``find``;
* every stage declares the dotted paths it navigates, and compilation
  folds them into the pipeline's **read set** (``CompiledPipeline.
  reads``: everything named up to and including the first stage that
  resets the row shape).  One row source feeds ``execute``,
  ``execute_partial`` and ``explain``: each surviving document is
  materialised once, through ``JSONTree.to_value(paths=reads)`` -- only
  the subtrees the pipeline navigates, the whole document when rows can
  reach the output unreset -- and the leading match is decided on that
  same row;
* except where no row is needed: an unfiltered ``[$unwind]? $group``
  whose key and inputs the live index shows array-free (the
  *covered-group* rung, :meth:`CompiledPipeline._covered`) takes each
  group from one ``eq`` posting of its key, and each accumulator input
  from a ``{doc_id: value}`` column inverted from that path's postings
  on every call, so no document is materialised and nothing is cached;
* every **downstream stage** runs as a streaming generator
  (:mod:`repro.query.stages`) over those rows -- nothing is
  materialised between stages except where ``$sort``/``$group``/
  ``$count`` inherently must.

All ``$match`` evaluation happens in value space, through
:func:`repro.mongo.find.compile_value_filter`; the compiled JNL form of
the leading run exists only for its logical plan, i.e. for index
pruning.  Whether a pipeline is *accepted* never depends on stage
position: when the leading run is valid in value space but outside the
JNL lowering (a float comparison bound, a ``$regex`` beyond the KeyLang
subset such as ``(?i)``), the pipeline still runs with identical
semantics -- the leading match just scans instead of pruning, which the
explain report surfaces as ``"streamed"``.
"""

from __future__ import annotations

import heapq
import json
from itertools import islice
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.errors import ParseError
from repro.explain import Explain, ShardExplain, StageExplain
from repro.model.tree import JSONTree, Kind
from repro.mongo.find import compile_value_filter
from repro.mongo.projection import Projection
from repro.query import ir, optimizer, planner
from repro.query.compiled import CompiledQuery, compile_mongo_find
from repro.query.stages import (
    ACCUMULATORS,
    CountStage,
    FilterStage,
    GroupStage,
    LimitStage,
    ProjectStage,
    SkipStage,
    SortStage,
    Stage,
    UnwindStage,
    compile_expr,
    composite_sort_key,
    is_index_segment,
    path_trie,
    resolve_path,
    run_stages,
    run_stages_ranked,
    split_field_path,
)

__all__ = [
    "STAGE_OPS",
    "CompiledPipeline",
    "compile_pipeline",
    "pipeline_cache_key",
    "parse_pipeline",
    "partial_aggregate",
]

STAGE_OPS = (
    "$match",
    "$project",
    "$unwind",
    "$group",
    "$sort",
    "$skip",
    "$limit",
    "$count",
)

_DIALECT = "mongo-aggregate"


# ---------------------------------------------------------------------------
# Pipeline parsing and stage construction.
# ---------------------------------------------------------------------------


def parse_pipeline(pipeline: Any) -> tuple[tuple[str, Any], ...]:
    """Normalise a pipeline into ``(op, spec)`` pairs, shape-checked."""
    if not isinstance(pipeline, list):
        raise ParseError("a pipeline is a JSON array of stage documents")
    parsed: list[tuple[str, Any]] = []
    for position, stage in enumerate(pipeline):
        if not isinstance(stage, dict) or len(stage) != 1:
            raise ParseError(
                f"stage {position} must be a single-operator document, "
                f"got {stage!r}"
            )
        ((op, spec),) = stage.items()
        if op not in STAGE_OPS:
            raise ParseError(
                f"unsupported pipeline stage {op!r} "
                f"(supported: {', '.join(STAGE_OPS)})"
            )
        parsed.append((op, spec))
    return tuple(parsed)


def _group_field_name(name: Any) -> str:
    if (
        not isinstance(name, str)
        or not name
        or name.startswith("$")
        or "." in name
    ):
        raise ParseError(f"invalid $group output field {name!r}")
    return name


def _build_group(spec: Any) -> GroupStage:
    if not isinstance(spec, dict) or "_id" not in spec:
        raise ParseError("$group takes a document with an _id expression")
    paths: list[tuple[str, ...]] = []
    fields = []
    for name, accumulator_spec in spec.items():
        if name == "_id":
            continue
        _group_field_name(name)
        if not isinstance(accumulator_spec, dict) or len(accumulator_spec) != 1:
            raise ParseError(
                f"$group field {name!r} takes one accumulator, "
                f"got {accumulator_spec!r}"
            )
        ((accumulator, operand),) = accumulator_spec.items()
        factory = ACCUMULATORS.get(accumulator)
        if factory is None:
            raise ParseError(
                f"unsupported accumulator {accumulator!r} "
                f"(supported: {', '.join(sorted(ACCUMULATORS))})"
            )
        if accumulator == "$count":
            if operand != {}:
                raise ParseError("$count (accumulator) takes {}")
            expr = compile_expr(None)
        else:
            expr = compile_expr(operand, paths)
        fields.append((name, factory, expr))
    id_expr = compile_expr(spec["_id"], paths)
    return GroupStage(id_expr, tuple(fields), tuple(paths))


def _sort_spec_keys(spec: Any) -> list[tuple[tuple[str, ...], int]]:
    """Validated ``(path segments, 1|-1)`` pairs of a ``$sort`` spec
    (shared by the staged executor and the naive reference, so both
    reject invalid specs identically)."""
    if not isinstance(spec, dict) or not spec:
        raise ParseError("$sort takes a non-empty document of path: 1|-1")
    keys = []
    for path, direction in spec.items():
        if direction not in (1, -1) or isinstance(direction, bool):
            raise ParseError(
                f"$sort direction for {path!r} must be 1 or -1, "
                f"got {direction!r}"
            )
        keys.append((split_field_path(path), direction))
    return keys


def _skip_count(spec: Any) -> int:
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 0:
        raise ParseError(f"$skip takes a non-negative integer, got {spec!r}")
    return spec


def _limit_count(spec: Any) -> int:
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 1:
        raise ParseError(f"$limit takes a positive integer, got {spec!r}")
    return spec


def _count_field(spec: Any) -> str:
    if not isinstance(spec, str) or not spec or spec.startswith("$") or "." in spec:
        raise ParseError(f"$count takes an output field name, got {spec!r}")
    return spec


def _unwind_segments(spec: Any) -> tuple[str, ...]:
    if isinstance(spec, dict):
        spec = spec.get("path")
    if not isinstance(spec, str) or not spec.startswith("$"):
        raise ParseError(
            f'$unwind takes a "$path" string (or {{"path": "$path"}}), '
            f"got {spec!r}"
        )
    return split_field_path(spec[1:])


def _build_stage(op: str, spec: Any) -> Stage:
    """Validate one non-leading stage spec and build its executor."""
    if op == "$match":
        paths: list[tuple[str, ...]] = []
        return FilterStage(compile_value_filter(spec, paths), tuple(paths))
    if op == "$project":
        projection = Projection(spec)
        kept = None
        if projection.include:
            kept = tuple(tuple(key.split(".")) for key in spec)
        return ProjectStage(projection.apply_value, kept)
    if op == "$unwind":
        return UnwindStage(_unwind_segments(spec))
    if op == "$group":
        return _build_group(spec)
    if op == "$sort":
        return SortStage(
            tuple(
                (segments, direction == -1)
                for segments, direction in _sort_spec_keys(spec)
            )
        )
    if op == "$skip":
        return SkipStage(_skip_count(spec))
    if op == "$limit":
        return LimitStage(_limit_count(spec))
    if op == "$count":
        return CountStage(_count_field(spec))
    raise ParseError(f"unsupported pipeline stage {op!r}")  # pragma: no cover


def _field_ref(spec: Any) -> tuple[str, ...] | None:
    """The object keys a ``"$a.b"`` reference names, or ``None`` for
    anything else -- a literal, an expression, or a path with an array
    index, which value space reads by position and the index does not."""
    if not isinstance(spec, str) or not spec.startswith("$"):
        return None
    segments = split_field_path(spec[1:])
    if any(is_index_segment(segment) for segment in segments):
        return None
    return segments


def _group_cover(
    body: tuple[tuple[str, Any], ...],
) -> tuple[tuple[str, ...], bool, tuple[tuple[str, ...] | None, ...]] | None:
    """``(key, unwound, inputs)`` when the stages after the leading
    match start ``[$unwind "$p"]? $group{_id: "$k", ...}`` -- with
    ``k == p`` under the unwind -- and every accumulator counts rows
    (``$count``, ``$sum: 1``) or, without the unwind, reads one field
    reference; ``None`` otherwise.  ``inputs`` holds per field the path
    it reads, ``None`` for a row count.  The specs are already valid.
    """
    unwound = bool(body) and body[0][0] == "$unwind"
    if len(body) <= unwound or body[unwound][0] != "$group":
        return None
    spec = body[unwound][1]
    key = _field_ref(spec["_id"])
    if key is None or (unwound and key != _unwind_segments(body[0][1])):
        return None
    inputs: list[tuple[str, ...] | None] = []
    for name, accumulator_spec in spec.items():
        if name == "_id":
            continue
        ((accumulator, operand),) = accumulator_spec.items()
        if accumulator == "$count" or (
            accumulator == "$sum" and operand.__class__ is int and operand == 1
        ):
            inputs.append(None)
            continue
        path = None if unwound else _field_ref(operand)
        if path is None:
            return None
        inputs.append(path)
    return key, unwound, tuple(inputs)


# ---------------------------------------------------------------------------
# The compiled pipeline.
# ---------------------------------------------------------------------------


def _window_bound(stages: tuple[Stage, ...]) -> int | None:
    """How many input rows the leading ``$skip``/``$limit`` run of
    ``stages`` can consume, or ``None`` when unbounded.

    The composed window over input-stream indices: sound as a per-shard
    truncation hint because the global first ``bound`` rows are always
    a subset of the union of each shard's local first ``bound`` rows.
    """
    start = 0
    stop: int | None = None
    for stage in stages:
        if isinstance(stage, SkipStage):
            start += stage.count
        elif isinstance(stage, LimitStage):
            bound = start + stage.count
            stop = bound if stop is None else min(stop, bound)
        else:
            break
    return stop


_row = itemgetter(1)

# What the covered-group rung reads off an index: one leaf per document
# at a key or input path, or at an unwound key a flat array of leaves.
_LEAF_KINDS = frozenset({Kind.STRING, Kind.NUMBER})
_UNWOUND_KINDS = _LEAF_KINDS | {Kind.ARRAY}


def _tallied(
    pairs: Iterable[tuple[int, Any]], tally: list[int]
) -> Iterator[tuple[int, Any]]:
    """``pairs`` unchanged, counting into ``tally[0]`` as they pass."""
    for pair in pairs:
        tally[0] += 1
        yield pair


def _scanned(kind: str, total: int, candidates: set[int] | None) -> int:
    """Documents the leading match had to verify."""
    if kind in ("empty", "all", "covered"):
        return 0
    return total if candidates is None else len(candidates)


class CompiledPipeline:
    """An executable aggregation plan, reusable across collections.

    ``lead_query`` is the merged leading-``$match`` run compiled as a
    Mongo find filter (``None`` when the pipeline does not start with a
    match, or when the filter falls outside the find compiler's
    dialect and so cannot carry a logical plan): it carries the shared
    logical-plan IR, so collection execution prunes candidates through
    the secondary indexes exactly like ``find``.  ``lead_pred`` is the
    authoritative value-space matcher for the same run (``None`` only
    without a leading match).  ``stages`` are the downstream physical
    stages, run
    as a generator chain over the survivors.  No evaluation state lives
    on the compiled object, so one pipeline can be shared freely across
    collections and mutations.

    Compilation also fixes the pipeline's **shard decomposition** (the
    commuting-stages split of the Botoeva et al. formalisation): the
    maximal prefix of per-row stages after the leading match commutes
    with any partition of the input and runs map-side
    (``shard_map_count``), and the first blocking stage picks the
    coordinator's ``merge_strategy`` -- ``$group`` ships mergeable
    partial accumulator states (``"group-merge"``), ``$sort`` ships
    locally sorted runs for a k-way heap merge (``"sort-merge"``,
    truncated per shard to ``local_limit`` rows when a following
    ``$skip``/``$limit`` window bounds what the merge can consume),
    ``$count`` ships plain counts (``"count-sum"``), and anything else
    streams rank-ordered rows (``"stream"``).

    And its **read set** ``reads``: the trie (:func:`~repro.query.
    stages.path_trie`) of every path the leading match and the stages
    up to and including the first shape-resetting one (``$group``,
    ``$count``, inclusion ``$project``) navigate -- rows are
    materialised through ``JSONTree.to_value(paths=reads)``, so a
    pipeline allocates only what it names.  ``None`` is the whole
    document: some stage needs whole rows (exclusion ``$project``), or
    rows can reach the output unreset.

    ``group_cover`` is ``(key, unwound, inputs)`` when the stages after
    the leading match start ``[$unwind "$k"]? $group{_id: "$k", ...}``
    with only row counts or field references as accumulators (only row
    counts under the unwind): what :meth:`_covered` may fold from the
    index postings instead of from rows, when the live index allows it.
    """

    __slots__ = (
        "source",
        "pipeline",
        "lead_filter",
        "lead_pred",
        "lead_count",
        "lead_query",
        "stages",
        "reads",
        "shard_map_count",
        "merge_strategy",
        "local_limit",
        "group_cover",
    )

    def __init__(self, pipeline: list[Any]) -> None:
        self.source = pipeline_cache_key(pipeline)
        self.pipeline = pipeline
        parsed = parse_pipeline(pipeline)
        lead: list[dict[str, Any]] = []
        split = 0
        for op, spec in parsed:
            if op != "$match":
                break
            if not isinstance(spec, dict):
                raise ParseError("$match takes a filter document")
            lead.append(spec)
            split += 1
        self.lead_count = split
        self.lead_filter: dict[str, Any] | None = None
        self.lead_query: CompiledQuery | None = None
        self.lead_pred = None
        paths: list[tuple[str, ...]] = []
        if lead:
            self.lead_filter = lead[0] if len(lead) == 1 else {"$and": lead}
            # The value-space compilation is authoritative: it validates
            # the filter and delivers the verdict on every candidate.
            self.lead_pred = compile_value_filter(self.lead_filter, paths)
            try:
                self.lead_query = compile_mongo_find(self.lead_filter)
            except ParseError:
                # Valid in value space but outside the find compiler's
                # dialect (a float operand, a $regex beyond the
                # KeyLang subset): keep the match leading, without the
                # logical plan -- so no index pruning, a full scan.
                self.lead_query = None
        self.stages: tuple[Stage, ...] = tuple(
            _build_stage(op, spec) for op, spec in parsed[split:]
        )
        self.group_cover = _group_cover(parsed[split:])
        self.reads: dict | None = None
        for stage in self.stages:
            if stage.paths is None:
                break
            paths.extend(stage.paths)
            if stage.resets:
                self.reads = path_trie(paths)
                break
        count = 0
        while count < len(self.stages) and isinstance(
            self.stages[count], (FilterStage, ProjectStage, UnwindStage)
        ):
            count += 1
        self.shard_map_count = count
        self.local_limit: int | None = None
        boundary = self.stages[count] if count < len(self.stages) else None
        if isinstance(boundary, GroupStage):
            self.merge_strategy = "group-merge"
        elif isinstance(boundary, SortStage):
            self.merge_strategy = "sort-merge"
            self.local_limit = _window_bound(self.stages[count + 1 :])
        elif isinstance(boundary, CountStage):
            self.merge_strategy = "count-sum"
        else:
            self.merge_strategy = "stream"
            self.local_limit = _window_bound(self.stages[count:])

    # ------------------------------------------------------------------

    def _candidates(self, collection: Any, kind: str) -> set[int] | None:
        """Index candidates of the leading match (a sound superset of
        its survivors); ``None`` = every live document -- no indexes,
        no logical plan, or a semantic verdict that settles the match."""
        if (
            kind in ("empty", "all")
            or collection.indexes is None
            or self.lead_query is None
        ):
            return None
        return planner.candidate_ids(
            self.lead_query.plan.match_predicate, collection.indexes
        )

    def _survivors(
        self, collection: Any, kind: str, candidates: set[int] | None
    ) -> Iterator[tuple[int, Any]]:
        """``(doc_id, row)`` per leading-match survivor of a store
        collection, in document-id order -- the one row source behind
        :meth:`stream`, :meth:`execute_partial` and :meth:`explain`.

        ``kind`` is the enforced decision: ``"empty"`` yields nothing,
        ``"all"`` every live document and ``"covered"`` every candidate
        verify-free; otherwise the candidates (index-pruned by
        :meth:`_candidates` and fetched by id, so the pruned documents
        are never touched) are verified by the value-space matcher.  A
        row is materialised once, through the pipeline's read set, and
        the matcher runs on that same projected row.
        """
        if kind == "empty":
            return
        reads = self.reads
        documents = collection.documents(candidates)
        lead_pred = self.lead_pred
        if kind in ("all", "covered") or lead_pred is None:
            for doc_id, tree in documents:
                yield doc_id, tree.to_value(None, reads)
            return
        count = optimizer.count_verify
        for doc_id, tree in documents:
            row = tree.to_value(None, reads)
            count()
            if lead_pred(row):
                yield doc_id, row

    def _covered(
        self, collection: Any, kind: str, no_semantic: bool
    ) -> Iterator[Any] | None:
        """The pipeline's output with its group table read off the live
        index, or ``None`` when the covered-group rung declines.

        The rung needs a :attr:`group_cover`, what the covered read rung
        of :func:`repro.query.planner.decide` needs (a semantic context,
        no ``no_semantic`` hint, indexes that describe the documents),
        no leading match or one the premise entails (``"all"``), and a
        live index showing the key and every input path array-free and
        holding leaves only (the unwound key: leaves or flat arrays of
        them).  Then each key value's ``eq`` posting is one group, whose
        rows are the posting plus the repeats the multiplicity table
        records; the documents without the key are the ``null`` group;
        and every other input is a column inverted from its postings on
        each call.  Groups keep the row path's first-seen order: by
        first document, then (unwound) by first position in its array.
        """
        cover = self.group_cover
        if cover is None or no_semantic or (self.lead_count and kind != "all"):
            return None
        indexes = collection.indexes
        if indexes is None or getattr(collection, "semantic_context", None) is None:
            return None
        key, unwound, inputs = cover
        paths = {path for path in inputs if path is not None}
        if not (
            indexes.covers(
                [(key, ir.FLAT if unwound else ir.SCALAR)]
                + [(path, ir.SCALAR) for path in paths]
            )
            and (_UNWOUND_KINDS if unwound else _LEAF_KINDS).issuperset(
                indexes.kinds_at(key)
            )
            and all(_LEAF_KINDS.issuperset(indexes.kinds_at(p)) for p in paths)
        ):
            return None
        groups = [
            [(min(posting), 0), value, posting, len(posting) + extra]
            for value, posting, extra in indexes.value_postings(key)
        ]
        if unwound:
            self._break_first_seen_ties(collection, key, groups)
        else:
            live = indexes.live_ids
            keyed = indexes.docs_with_path(key)
            if len(keyed) < len(live):
                missing = live - keyed
                groups.append([(min(missing), 0), None, missing, len(missing)])
        columns = {path: indexes.value_column(path) for path in paths}
        group = self.stages[unwound]
        rows = group.run_covered(
            groups, [None if path is None else columns[path] for path in inputs]
        )
        return run_stages(self.stages[unwound + 1 :], rows)

    def _break_first_seen_ties(
        self, collection: Any, key: tuple[str, ...], groups: list[list[Any]]
    ) -> None:
        """Rank unwound groups first seen in one document by where that
        document's array first holds their value."""
        firsts: dict[int, list[list[Any]]] = {}
        for group in groups:
            firsts.setdefault(group[0][0], []).append(group)
        tied = [doc_id for doc_id, found in firsts.items() if len(found) > 1]
        for doc_id, tree in collection.documents(tied):
            elements = resolve_path(tree.to_value(None, self.reads), key)
            position: dict[tuple[type, Any], int] = {}
            for index, element in enumerate(elements):
                position.setdefault((element.__class__, element), index)
            for group in firsts[doc_id]:
                group[0] = (doc_id, position[(group[1].__class__, group[1])])

    def _item_rows(self, items: Iterable[Any]) -> Iterator[Any]:
        """Leading-match survivors of bare trees/values (no indexes).

        Trees materialise first (whole: a value in the same iterable is
        whole too) and are matched by the same value-space predicate as
        every other path, so a pipeline yields identical rows whatever
        flavour the input arrives in.
        """
        for item in items:
            if isinstance(item, JSONTree):
                item = item.to_value()
            if self.lead_pred is None or self.lead_pred(item):
                yield item

    def _scatter_payload(
        self, decision: "optimizer.SemanticDecision | None", no_semantic: bool
    ) -> dict[str, Any]:
        """The scatter envelope, with the coordinator's verdict attached.

        The coordinator decides once (against the fleet-wide schema,
        when there is one) and the shards inherit: ``"semantic"``
        carries an ``"empty"``/``"all"`` verdict, ``None`` to let each
        shard consult its own summary, or ``"off"`` to disable the
        pass shard-side too.
        """
        if no_semantic:
            semantic = "off"
        else:
            kind = optimizer.effective_kind(decision)
            semantic = kind if kind in ("empty", "all") else None
        return {"pipeline": self.pipeline, "semantic": semantic}

    def execute(self, source: Any, *, no_semantic: bool = False) -> list[Any]:
        """Run the pipeline over a collection (index-pruned), a sharded
        collection (scatter-gather) or an iterable of trees/values
        (streamed), returning the result rows."""
        scatter = getattr(source, "scatter_partial_aggregate", None)
        if scatter is not None:
            decision = planner.decide(
                source, self.lead_query, no_semantic=no_semantic
            )
            payload = self._scatter_payload(decision, no_semantic)
            if payload["semantic"] == "empty":  # nothing to scatter for
                return self.merge_partials([])
            return self.merge_partials(scatter(payload))
        return list(self.stream(source, no_semantic=no_semantic))

    def stream(
        self, source: Any, *, no_semantic: bool = False
    ) -> Iterator[Any]:
        """Lazy variant of :meth:`execute` (one generator per stage)."""
        if hasattr(source, "documents") and hasattr(source, "indexes"):
            decision = planner.decide(
                source, self.lead_query, no_semantic=no_semantic
            )
            kind = optimizer.effective_kind(decision)
            covered = self._covered(source, kind, no_semantic)
            if covered is not None:
                return covered
            candidates = self._candidates(source, kind)
            rows: Iterator[Any] = map(
                _row, self._survivors(source, kind, candidates)
            )
        else:
            rows = self._item_rows(source)
        return run_stages(self.stages, rows)

    # ------------------------------------------------------------------
    # Scatter-gather execution (one partial per shard, merged here).
    # ------------------------------------------------------------------

    def execute_partial(
        self, collection: Any, *, verdict: "str | None" = None
    ) -> dict[str, Any]:
        """The map-side share of this pipeline over one shard.

        Runs the leading match (index-pruned as usual) plus the per-row
        stage prefix, then folds into the merge strategy's partial form.
        Everything in the returned dict is picklable -- rows are plain
        JSON values tagged with ``(doc_id, seq)`` ranks, group tables
        carry exported accumulator partials -- so it can cross a worker
        process boundary to :meth:`merge_partials` unchanged.

        ``verdict`` is the coordinator's inherited semantic verdict
        (``"empty"``/``"all"``: enforce without re-proving; ``"off"``:
        skip the semantic pass; ``None``: decide locally against this
        shard's own context).
        """
        if verdict is None:
            decision = planner.decide(collection, self.lead_query)
            kind = optimizer.effective_kind(decision)
        elif verdict == "off":
            kind = "none"
        else:
            kind = verdict
        candidates = self._candidates(collection, kind)
        matched = [0]
        ranked = run_stages_ranked(
            self.stages[: self.shard_map_count],
            _tallied(self._survivors(collection, kind, candidates), matched),
        )
        strategy = self.merge_strategy
        data: Any
        if strategy == "group-merge":
            group = self.stages[self.shard_map_count]
            data = group.fold_partial(ranked)
            returned = len(data)
        elif strategy == "sort-merge":
            sort = self.stages[self.shard_map_count]
            run = sorted(ranked, key=composite_sort_key(sort.keys))
            if self.local_limit is not None:
                del run[self.local_limit :]
            data = run
            returned = len(run)
        elif strategy == "count-sum":
            data = sum(1 for _ in ranked)
            returned = 1 if data else 0
        else:  # "stream"
            if self.local_limit is not None:
                ranked = islice(ranked, self.local_limit)
            data = list(ranked)
            returned = len(data)
        total = len(collection)
        return {
            "strategy": strategy,
            "total": total,
            "candidates": None if candidates is None else len(candidates),
            "scanned": _scanned(kind, total, candidates),
            "matched": matched[0],
            "returned": returned,
            "data": data,
        }

    def merge_partials(self, partials: list[dict[str, Any]]) -> list[Any]:
        """The reduce-side share: merge per-shard partials, finalise,
        and run the coordinator's stage suffix."""
        split = self.shard_map_count
        strategy = self.merge_strategy
        rows: Iterator[Any]
        if strategy == "group-merge":
            group = self.stages[split]
            rows = group.merge_partial(part["data"] for part in partials)
            rest = self.stages[split + 1 :]
        elif strategy == "sort-merge":
            sort = self.stages[split]
            merged = heapq.merge(
                *(part["data"] for part in partials),
                key=composite_sort_key(sort.keys),
            )
            rows = (row for _, row in merged)
            rest = self.stages[split + 1 :]
        elif strategy == "count-sum":
            count_stage = self.stages[split]
            count = sum(part["data"] for part in partials)
            rows = iter([{count_stage.field: count}] if count else [])
            rest = self.stages[split + 1 :]
        else:  # "stream": ranks are globally unique, so plain tuple
            # comparison on (rank, row) pairs never reaches the rows.
            merged = heapq.merge(*(part["data"] for part in partials))
            rows = (row for _, row in merged)
            rest = self.stages[split:]
        return list(run_stages(rest, rows))

    def explain(
        self, collection: Any, *, no_semantic: bool = False
    ) -> Explain:
        """Run over an indexed collection, reporting what was pruned
        by indexes versus streamed (the find explain's aggregation
        sibling), including the semantic optimizer's verdict."""
        decision = planner.decide(
            collection, self.lead_query, no_semantic=no_semantic
        )
        semantics = None if decision is None else decision.semantics_explain()
        scatter = getattr(collection, "scatter_partial_aggregate", None)
        if scatter is not None:
            partials = scatter(self._scatter_payload(decision, no_semantic))
            return self._explain_sharded(partials, semantics)
        total = len(collection)
        kind = optimizer.effective_kind(decision)
        covered = self._covered(collection, kind, no_semantic)
        if covered is not None:
            # Every document passes the leading match; none is read.
            return Explain(
                kind="aggregate",
                dialect=_DIALECT,
                source=self.source,
                total=total,
                scanned=0,
                matched=total,
                results=sum(1 for _ in covered),
                stages=self._stage_reports("streamed", covered=self.group_cover[1] + 1),
                semantics=semantics,
            )
        candidates = self._candidates(collection, kind)
        matched = [0]
        survivors = _tallied(
            self._survivors(collection, kind, candidates), matched
        )
        results = sum(
            1 for _ in run_stages(self.stages, map(_row, survivors))
        )
        # An early-exiting stage ($limit) stops pulling; finish the
        # matched count over the untouched survivors.
        for _ in survivors:
            pass
        lead_mode = "index-pruned" if candidates is not None else "streamed"
        return Explain(
            kind="aggregate",
            dialect=_DIALECT,
            source=self.source,
            total=total,
            candidates=None if candidates is None else len(candidates),
            scanned=_scanned(kind, total, candidates),
            matched=matched[0],
            results=results,
            stages=self._stage_reports(lead_mode),
            semantics=semantics,
        )

    def _stage_reports(
        self, lead_mode: str, *, covered: int = 0
    ) -> tuple[StageExplain, ...]:
        """One report per stage: the leading matches in ``lead_mode``,
        the first ``covered`` other stages read off the index, the rest
        as they run over rows."""
        reports = [StageExplain("$match", lead_mode)] * self.lead_count
        reports.extend(
            StageExplain(stage.op, "covered") for stage in self.stages[:covered]
        )
        reports.extend(
            StageExplain(stage.op, "materialised" if stage.blocking else "streamed")
            for stage in self.stages[covered:]
        )
        return tuple(reports)

    def _explain_sharded(
        self,
        partials: list[dict[str, Any]],
        semantics: Any = None,
    ) -> Explain:
        """Fold per-shard partial reports into one fleet explain."""
        results = len(self.merge_partials(partials))
        shard_reports = tuple(
            ShardExplain(
                shard=index,
                total=part["total"],
                candidates=part["candidates"],
                scanned=part["scanned"],
                matched=part["matched"],
                returned=part["returned"],
            )
            for index, part in enumerate(partials)
        )
        pruning = [part["candidates"] for part in partials]
        candidates = (
            None if any(c is None for c in pruning) else sum(pruning)
        )
        split = self.shard_map_count
        lead_mode = "index-pruned" if candidates is not None else "streamed"
        reports = [StageExplain("$match", lead_mode)] * self.lead_count
        reports.extend(
            StageExplain(stage.op, "map-side") for stage in self.stages[:split]
        )
        rest = split
        if self.merge_strategy != "stream":
            reports.append(StageExplain(self.stages[split].op, "merged"))
            rest = split + 1
        reports.extend(
            StageExplain(
                stage.op, "materialised" if stage.blocking else "streamed"
            )
            for stage in self.stages[rest:]
        )
        return Explain(
            kind="aggregate",
            dialect=_DIALECT,
            source=self.source,
            total=sum(part["total"] for part in partials),
            candidates=candidates,
            scanned=sum(part["scanned"] for part in partials),
            matched=sum(part["matched"] for part in partials),
            results=results,
            stages=tuple(reports),
            shards=shard_reports,
            merge=self.merge_strategy,
            semantics=semantics,
        )

    def __repr__(self) -> str:
        source = self.source if len(self.source) <= 40 else self.source[:37] + "..."
        return f"CompiledPipeline({source!r}, reads={self.reads!r})"


# ---------------------------------------------------------------------------
# Cached entry points.
# ---------------------------------------------------------------------------


def pipeline_cache_key(pipeline: Any) -> str:
    """Canonical JSON text of a pipeline, the compile-cache key.

    Key order is **not** canonicalised away: it is semantically
    significant in ``$sort`` (precedence) and fixes the output field
    order of ``$project``/``$group``, and Python dicts preserve JSON
    document order -- so the plain dump is already canonical
    per-pipeline, while sorting keys would collide e.g.
    ``{"$sort": {"a": 1, "b": 1}}`` with ``{"$sort": {"b": 1, "a": 1}}``
    and serve one pipeline the other's plan.
    """
    return json.dumps(pipeline, separators=(",", ":"), default=repr)


def compile_pipeline(
    pipeline: list[Any], *, cache: object = USE_DEFAULT_CACHE
) -> CompiledPipeline:
    """Compile an aggregation pipeline, through the artifact cache.

    Keyed on the canonical JSON text in the ``"mongo-aggregate"``
    namespace of the process-wide artifact cache, alongside query plans
    and validators.  Pass ``cache=None`` to force a fresh compilation.
    """
    resolved = resolve_cache(cache)
    if resolved is None:
        return CompiledPipeline(pipeline)
    key = (_DIALECT, pipeline_cache_key(pipeline))
    return resolved.get_or_compute(key, lambda: CompiledPipeline(pipeline))


def partial_aggregate(collection: Any, payload: dict[str, Any]) -> dict[str, Any]:
    """One shard's picklable partial result for an aggregation: the
    map-side entry point sharded execution fans out, compiled through
    the artifact cache.  ``payload`` is the coordinator's scatter
    envelope ``{"pipeline": [...], "semantic": verdict}`` (see
    :meth:`CompiledPipeline.execute_partial`)."""
    return compile_pipeline(payload["pipeline"]).execute_partial(
        collection, verdict=payload["semantic"]
    )
