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
  resets the row shape).  One row source (:meth:`CompiledPipeline.
  _read`) feeds ``stream``, ``explain`` and a shard's map side
  (``execute_partial``): each surviving document is
  materialised once, through ``JSONTree.to_value(paths=reads)`` -- only
  the subtrees the pipeline navigates, the whole document when rows can
  reach the output unreset -- and the leading match is decided on that
  same row;
* except where no row is needed: an unfiltered ``[$unwind]? $group``
  whose key and inputs the live index shows array-free (the
  *covered-group* rung, :meth:`CompiledPipeline._covered`) takes each
  group from one ``eq`` posting of its key, and each accumulator input
  from a ``{doc_id: value}`` column inverted from that path's postings
  on every call, so no document is materialised and nothing is cached
  -- on a shard too, which ships that table as mergeable partials;
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
from dataclasses import replace
from itertools import islice
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.errors import ParseError
from repro.explain import Explain, StageExplain, fold_shards
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
    index postings instead of from rows, when the live index allows it
    -- a shard's included, each deciding against its own index.
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

    def _survivors(
        self, collection: Any, kind: str, candidates: set[int] | None
    ) -> Iterator[tuple[int, Any]]:
        """``(doc_id, row)`` per leading-match survivor of a store
        collection, in document-id order -- :meth:`_read`'s rows.

        ``kind`` is the enforced decision: ``"empty"`` yields nothing,
        ``"all"`` every live document and ``"covered"`` every candidate
        verify-free; otherwise the candidates (index-pruned by
        :meth:`_read` and fetched by id, so the pruned documents are
        never touched) are verified by the value-space matcher.  A
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
    ) -> tuple[list[list[Any]], list[dict[int, Any] | None]] | None:
        """The group table read off the live index, ``(groups,
        columns)`` as :meth:`~repro.query.stages.GroupStage.
        run_covered` takes them, or ``None`` when the covered-group
        rung declines.

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
        return groups, [None if path is None else columns[path] for path in inputs]

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

    def _read(self, collection: Any, verdict: str | None) -> tuple:
        """The one row source of a store collection, behind
        :meth:`stream`, :meth:`explain` and :meth:`execute_partial`:
        ``(decision, kind, table, candidates, survivors)``.

        ``verdict`` is ``None`` to decide here, ``"off"`` to decide
        without the semantic pass (``hint={"no_semantic": True}``), or
        a coordinator's ``"empty"``/``"all"``, enforced without a
        proof.  Where the covered-group rung applies ``table`` is its
        group table (:meth:`_covered`) and no document is read (no
        survivors); otherwise ``survivors`` are the leading match's
        ``(doc_id, row)`` pairs (:meth:`_survivors`) among
        ``candidates``.
        """
        decision = None
        if verdict is None or verdict == "off":
            decision = planner.decide(
                collection, self.lead_query, no_semantic=verdict == "off"
            )
            kind = optimizer.effective_kind(decision)
        else:
            kind = verdict
        table = self._covered(collection, kind, verdict == "off")
        if table is not None:
            return decision, kind, table, None, iter(())
        # The index candidates of the leading match, a sound superset
        # of its survivors; None = every live document.
        candidates = None
        query, indexes = self.lead_query, collection.indexes
        if query is not None and indexes is not None and kind not in ("empty", "all"):
            candidates = planner.candidate_ids(query.plan.match_predicate, indexes)
        survivors = self._survivors(collection, kind, candidates)
        return decision, kind, None, candidates, survivors

    def _run_covered(self, table: tuple) -> Iterator[Any]:
        """The pipeline's output from a covered group table."""
        unwound = self.group_cover[1]
        rows = self.stages[unwound].run_covered(*table)
        return run_stages(self.stages[unwound + 1 :], rows)

    def _report(
        self, collection: Any, read: tuple, matched: int, results: int
    ) -> Explain:
        """The explain of one :meth:`_read` of a collection: its
        leading-match counters, ``results`` rows and stage modes."""
        decision, kind, table, candidates, _ = read
        total = len(collection)
        if table is not None:  # no document is read: every one passes
            scanned, matched = 0, total
        elif kind in ("empty", "all", "covered"):
            scanned = 0
        else:
            scanned = total if candidates is None else len(candidates)
        return Explain(
            kind="aggregate",
            dialect=_DIALECT,
            source=self.source,
            total=total,
            candidates=None if candidates is None else len(candidates),
            scanned=scanned,
            matched=matched,
            results=results,
            stages=self._stage_reports(
                "streamed" if candidates is None else "index-pruned",
                covered=0 if table is None else self.group_cover[1] + 1,
            ),
            semantics=None if decision is None else decision.semantics_explain(),
        )

    def execute(self, source: Any, *, no_semantic: bool = False) -> list[Any]:
        """Run the pipeline over a collection (index-pruned), a sharded
        collection (scatter-gather) or an iterable of trees/values
        (streamed), returning the result rows."""
        scatter = getattr(source, "scatter_partial_aggregate", None)
        if scatter is not None:
            _, partials = scatter(self, no_semantic=no_semantic)
            return self.merge_partials(partials)
        return list(self.stream(source, no_semantic=no_semantic))

    def stream(
        self, source: Any, *, no_semantic: bool = False
    ) -> Iterator[Any]:
        """Lazy variant of :meth:`execute` (one generator per stage)."""
        if hasattr(source, "documents") and hasattr(source, "indexes"):
            _, _, table, _, survivors = self._read(
                source, "off" if no_semantic else None
            )
            if table is not None:
                return self._run_covered(table)
            rows: Iterator[Any] = map(_row, survivors)
        else:
            rows = self._item_rows(source)
        return run_stages(self.stages, rows)

    # ------------------------------------------------------------------
    # Scatter-gather execution (one partial per shard, merged here).
    # ------------------------------------------------------------------

    def execute_partial(
        self,
        collection: Any,
        *,
        verdict: "str | None" = None,
        explain: bool = False,
    ) -> dict[str, Any]:
        """The map-side share of this pipeline over one shard.

        Reads the shard through :meth:`_read`, as :meth:`stream` does,
        runs the per-row stage prefix over the survivors, and folds into
        the merge strategy's partial form ``{"data": ...}`` -- under
        ``explain`` with the shard's ``"report"`` too, whose ``results``
        are the rows it returned and whose ``matched`` counts every
        survivor (only that route reads past a truncated run).  All of
        it is picklable -- rows are plain JSON values tagged with
        ``(doc_id, seq)`` ranks, group tables carry exported accumulator
        partials -- so it crosses a worker process boundary unchanged.

        ``verdict`` is the coordinator's inherited semantic verdict
        (``"empty"``/``"all"``: enforce without re-proving; ``"off"``:
        skip the semantic pass; ``None``: decide locally against this
        shard's own context and index).
        """
        read = self._read(collection, verdict)
        table, survivors = read[2], read[4]
        tally = [0]
        if explain:
            survivors = _tallied(survivors, tally)
        split = self.shard_map_count
        strategy = self.merge_strategy
        data: Any
        ranked = run_stages_ranked(self.stages[:split], survivors)
        if table is not None:
            data = self.stages[split].fold_covered(*table)
        elif strategy == "group-merge":
            data = self.stages[split].fold_partial(ranked)
        elif strategy == "sort-merge":
            sort = self.stages[split]
            data = sorted(ranked, key=composite_sort_key(sort.keys))
            if self.local_limit is not None:
                del data[self.local_limit :]
        elif strategy == "count-sum":
            data = sum(1 for _ in ranked)
        else:  # "stream"
            data = list(islice(ranked, self.local_limit))
        if not explain:
            return {"data": data}
        for _ in survivors:  # past a truncated run: count every match
            pass
        returned = (1 if data else 0) if strategy == "count-sum" else len(data)
        return {
            "data": data,
            "report": self._report(collection, read, tally[0], returned),
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
        sibling), including the semantic optimizer's verdict.

        Over a sharded collection the shards' reports fold into one
        (:func:`repro.explain.fold_shards`), with the merged results,
        the fleet's stage modes and the coordinator's verdict when it
        proved one."""
        scatter = getattr(collection, "scatter_partial_aggregate", None)
        if scatter is not None:
            decision, partials = scatter(
                self, no_semantic=no_semantic, explain=True
            )
            reports = [part["report"] for part in partials]
            covered = min(
                sum(stage.mode == "covered" for stage in report.stages)
                for report in reports
            )
            pruned = all(report.used_indexes for report in reports)
            folded = replace(
                fold_shards(enumerate(reports)),
                results=len(self.merge_partials(partials)),
                stages=self._stage_reports(
                    "index-pruned" if pruned else "streamed",
                    covered=covered,
                    sharded=True,
                ),
                merge=self.merge_strategy,
            )
            if decision is None:
                return folded
            return replace(folded, semantics=decision.semantics_explain())
        read = self._read(collection, "off" if no_semantic else None)
        table, survivors = read[2], read[4]
        matched = [0]
        survivors = _tallied(survivors, matched)
        if table is None:
            rows = run_stages(self.stages, map(_row, survivors))
        else:
            rows = self._run_covered(table)
        results = sum(1 for _ in rows)
        # An early-exiting stage ($limit) stops pulling; finish the
        # matched count over the untouched survivors.
        for _ in survivors:
            pass
        return self._report(collection, read, matched[0], results)

    def _stage_reports(
        self, lead_mode: str, *, covered: int = 0, sharded: bool = False
    ) -> tuple[StageExplain, ...]:
        """One report per stage: the leading matches in ``lead_mode``,
        the first ``covered`` other stages read off the index, and the
        rest as they run over rows -- under a scatter (``sharded``),
        the per-row prefix on the shards (``"map-side"``) and the
        blocking stage whose partials the coordinator combines
        (``"merged"``)."""
        split = self.shard_map_count if sharded else 0
        merged = sharded and self.merge_strategy != "stream"
        reports = [StageExplain("$match", lead_mode)] * self.lead_count
        for position, stage in enumerate(self.stages):
            if position < covered:
                mode = "covered"
            elif position < split:
                mode = "map-side"
            elif merged and position == split:
                mode = "merged"
            else:
                mode = "materialised" if stage.blocking else "streamed"
            reports.append(StageExplain(stage.op, mode))
        return tuple(reports)

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

