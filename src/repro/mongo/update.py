"""MongoDB-style updates, compiled, planned and delta-maintained.

The write-path front-end: ``update_one``/``update_many``/``replace_one``
over an indexed :class:`repro.store.Collection`, in (a practical subset
of) MongoDB's update-document syntax -- ``$set``, ``$unset``, ``$inc``,
``$mul``, ``$rename``, ``$push`` (with ``$each``), ``$addToSet`` (with
``$each``), ``$pull``, ``$pop`` -- plus upsert.  The pieces compose the
existing stack end to end:

* an update document compiles **once** into a
  :class:`repro.store.update.CompiledUpdate` program (registered in the
  process-wide artifact cache under the ``"mongo-update"`` namespace,
  keyed on the canonical JSON text of the update document);
* **target selection** goes through the planner: the filter compiles
  through :func:`repro.query.compiled.compile_mongo_find` so its
  logical plan prunes candidates via the secondary indexes, and the
  authoritative per-candidate verdict, like a ``$pull`` condition, is
  compiled by :mod:`repro.mongo.find` in value space (a filter outside
  the JNL lowering still works -- it just scans);
* **application** is delta index maintenance
  (:meth:`repro.store.Collection.apply_update`): only the postings
  under mutated paths are retired/re-added, never a full
  drop-and-reinsert of the document, and schema-enforced collections
  revalidate through the PR-2 compiled-validator pipeline before
  anything commits.

Operators apply in update-document order (a deterministic refinement
of MongoDB's behaviour).  The differential tests pit the compiled path
against ``repro.reference.mongo_oracles.naive_update_value`` -- per-call
parse, deepcopy, in-place edits, no mutation tracking.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Any

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.errors import ParseError
from repro.explain import Explain
from repro.mongo.find import _is_operator_doc, compile_operators, compile_value_filter
from repro.query import optimizer, planner
from repro.query.compiled import compile_mongo_find
from repro.query.stages import split_field_path, values_equal
from repro.store.indexes import DeltaOps
from repro.store.update import (
    CompiledUpdate,
    add_to_set_op,
    inc_op,
    mul_op,
    mutation_delta,
    pop_op,
    pull_op,
    push_op,
    rename_op,
    replace_op,
    set_op,
    set_path_create,
    unset_op,
)

__all__ = [
    "UPDATE_OPS",
    "UpdateResult",
    "parse_update",
    "compile_update",
    "update_cache_key",
    "update_one",
    "update_many",
    "replace_one",
    "explain_update",
    "first_match_id",
    "upsert_into",
    "compile_replacement",
]

UPDATE_OPS = (
    "$set",
    "$unset",
    "$inc",
    "$mul",
    "$rename",
    "$push",
    "$addToSet",
    "$pull",
    "$pop",
)

_DIALECT = "mongo-update"


@dataclass(frozen=True)
class UpdateResult:
    """MongoDB's ``UpdateResult``: what a write call did."""

    matched_count: int
    modified_count: int
    upserted_id: int | None = None

    def to_json(self) -> dict[str, Any]:
        """The three-key form a write's result takes on the wire."""
        return {
            "matched": self.matched_count,
            "modified": self.modified_count,
            "upserted_id": self.upserted_id,
        }

    @staticmethod
    def from_json(document: dict[str, Any]) -> "UpdateResult":
        """Rehydrate a result encoded by :meth:`to_json`."""
        return UpdateResult(
            document["matched"], document["modified"], document["upserted_id"]
        )


# ---------------------------------------------------------------------------
# Parsing update documents into compiled programs.
# ---------------------------------------------------------------------------


def _require_int(operator: str, path: str, operand: Any) -> int:
    if isinstance(operand, bool) or not isinstance(operand, int):
        raise ParseError(
            f"{operator} takes an integer for {path!r}, got {operand!r}"
        )
    return operand


def _field_specs(operator: str, spec: Any) -> list[tuple[str, Any]]:
    if not isinstance(spec, dict) or not spec:
        raise ParseError(
            f"{operator} takes a non-empty document of field: argument pairs"
        )
    return list(spec.items())


def _each_items(operator: str, operand: Any) -> tuple:
    """The items of a ``$push``/``$addToSet`` operand (``$each`` aware)."""
    if isinstance(operand, dict) and any(
        isinstance(key, str) and key.startswith("$") for key in operand
    ):
        unknown = [key for key in operand if key != "$each"]
        if unknown:
            raise ParseError(
                f"unsupported {operator} modifiers {unknown!r} "
                "(only $each is supported)"
            )
        each = operand["$each"]
        if not isinstance(each, list):
            raise ParseError(f"{operator} $each takes an array, got {each!r}")
        return tuple(copy.deepcopy(each))
    return (copy.deepcopy(operand),)


def _pull_keep(path: str, condition: Any) -> Any:
    """Compile a ``$pull`` condition into a *keep* predicate."""
    condition = copy.deepcopy(condition)
    if isinstance(condition, dict):
        matches = (
            compile_operators(condition)
            if _is_operator_doc(condition)
            else compile_value_filter(condition)
        )
        return lambda element: not matches(element)
    return lambda element: not values_equal(element, condition)


def _rename_paths(src: str, dst: Any) -> tuple[tuple, tuple]:
    if not isinstance(dst, str):
        raise ParseError(f"$rename takes a path string, got {dst!r}")
    source = split_field_path(src)
    target = split_field_path(dst)
    bound = min(len(source), len(target))
    if source[:bound] == target[:bound]:
        raise ParseError(
            f"$rename source {src!r} and target {dst!r} must not overlap"
        )
    return source, target


def parse_update(update_doc: Any) -> CompiledUpdate:
    """Compile a Mongo update document into a fresh program.

    Operators (and fields within an operator) apply in document order.
    Shape and operand errors raise :class:`~repro.errors.ParseError`
    at compile time; type mismatches against a concrete document
    (``$inc`` on a string, ``$push`` on a non-array) raise
    :class:`~repro.errors.UpdateError` at apply time.
    """
    if not isinstance(update_doc, dict) or not update_doc:
        raise ParseError(
            "an update is a non-empty document of update operators "
            f"(supported: {', '.join(UPDATE_OPS)})"
        )
    ops = []
    for operator, spec in update_doc.items():
        if operator not in UPDATE_OPS:
            raise ParseError(
                f"unsupported update operator {operator!r} "
                f"(supported: {', '.join(UPDATE_OPS)})"
            )
        for path, operand in _field_specs(operator, spec):
            segments = split_field_path(path)
            if operator == "$set":
                ops.append(set_op(segments, copy.deepcopy(operand)))
            elif operator == "$unset":
                ops.append(unset_op(segments))
            elif operator == "$inc":
                ops.append(inc_op(segments, _require_int(operator, path, operand)))
            elif operator == "$mul":
                ops.append(mul_op(segments, _require_int(operator, path, operand)))
            elif operator == "$rename":
                ops.append(rename_op(*_rename_paths(path, operand)))
            elif operator == "$push":
                ops.append(push_op(segments, _each_items(operator, operand)))
            elif operator == "$addToSet":
                ops.append(
                    add_to_set_op(segments, _each_items(operator, operand))
                )
            elif operator == "$pull":
                ops.append(pull_op(segments, _pull_keep(path, operand)))
            else:  # $pop
                if operand not in (1, -1) or isinstance(operand, bool):
                    raise ParseError(
                        f"$pop takes 1 (last) or -1 (first) for {path!r}, "
                        f"got {operand!r}"
                    )
                ops.append(pop_op(segments, from_front=operand == -1))
    return CompiledUpdate(update_cache_key(update_doc), tuple(ops))


def update_cache_key(update_doc: Any) -> str:
    """Canonical JSON text of an update document, the compile-cache key.

    Key order is semantically significant (operators and fields apply
    in document order), so the plain order-preserving dump is already
    canonical per-program.
    """
    return json.dumps(update_doc, separators=(",", ":"), default=repr)


def compile_update(
    update_doc: Any, *, cache: object = USE_DEFAULT_CACHE
) -> CompiledUpdate:
    """Compile an update document, through the artifact cache.

    Keyed on the canonical JSON text in the ``"mongo-update"``
    namespace of the process-wide artifact cache, alongside query
    plans, validators and aggregation pipelines.  Pass ``cache=None``
    to force a fresh compilation.
    """
    resolved = resolve_cache(cache)
    if resolved is None:
        return parse_update(update_doc)
    key = (_DIALECT, update_cache_key(update_doc))
    return resolved.get_or_compute(key, lambda: parse_update(update_doc))


# ---------------------------------------------------------------------------
# Target selection (through the planner) and the write entry points.
# ---------------------------------------------------------------------------


def _select_targets(
    collection: Any,
    filter_doc: Any,
    *,
    first_only: bool = False,
    no_semantic: bool = False,
) -> tuple[list[tuple[int, Any]], int | None, int, Any]:
    """Matching documents, index-pruned where the filter allows.

    Returns ``(matched (id, value) pairs, candidate count or None,
    scanned, semantic decision)``.  The value-space predicate is
    authoritative; the compiled find query exists only for its logical
    plan (pruning and semantic proofs), and a filter outside the find
    dialect simply scans.  An enforced semantic ``"empty"`` verdict
    selects no targets without materialising a document; ``"all"``
    selects every live document without per-value verification.  The
    matched values are handed on to :meth:`Collection.apply_update` so
    no document is materialised twice per call.
    """
    try:
        query = compile_mongo_find(filter_doc)
    except ParseError:
        query = None
    decision = optimizer.semantic_plan(
        collection, query, no_semantic=no_semantic
    )
    kind = optimizer.effective_kind(decision)
    if kind == "empty":
        return [], None, 0, decision
    matches = compile_value_filter(filter_doc)
    candidates = None
    if (
        kind != "all"
        and collection.indexes is not None
        and query is not None
    ):
        candidates = planner.candidate_ids(
            query.plan.match_predicate, collection.indexes
        )
    ids = collection.doc_ids() if candidates is None else sorted(candidates)
    matched: list[tuple[int, Any]] = []
    scanned = 0
    if kind == "all":
        for doc_id in ids:
            scanned += 1
            matched.append((doc_id, collection._peek_value(doc_id)))
            if first_only:
                break
    else:
        count = optimizer.count_verify
        for doc_id in ids:
            scanned += 1
            value = collection._peek_value(doc_id)
            count()
            if matches(value):
                matched.append((doc_id, value))
                if first_only:
                    break
    candidate_count = None if candidates is None else len(candidates)
    return matched, candidate_count, scanned, decision


def _run_update(
    collection: Any,
    filter_doc: Any,
    compiled: CompiledUpdate,
    *,
    upsert: bool,
    first_only: bool,
) -> UpdateResult:
    """The shared select → (upsert | apply) → count tail of every
    write entry point."""
    matched, _, _, _ = _select_targets(
        collection, filter_doc, first_only=first_only
    )
    if not matched:
        if upsert:
            return upsert_into(collection, filter_doc, compiled)
        return UpdateResult(0, 0)
    modified, _ = collection.apply_update(
        [doc_id for doc_id, _ in matched], compiled, values=dict(matched)
    )
    return UpdateResult(len(matched), len(modified))


def upsert_into(
    collection: Any, filter_doc: Any, compiled: CompiledUpdate
) -> UpdateResult:
    """Insert the document the filter's equality facts + update imply
    (through ``collection.insert``: a sharded coordinator routes it)."""
    seed = _upsert_seed(filter_doc)
    value, _ = compiled.apply(seed)
    doc_id = collection.insert(value)
    return UpdateResult(0, 0, upserted_id=doc_id)


def _upsert_seed(filter_doc: Any) -> dict:
    """The equality skeleton of a filter (what MongoDB seeds upserts
    with): plain ``field: value`` pairs, ``$eq`` operands and ``$and``
    branches; every other operator contributes nothing."""
    if not isinstance(filter_doc, dict):
        raise ParseError("a find filter is a JSON object")
    seed: Any = {}

    def absorb(part: Any) -> None:
        nonlocal seed
        if not isinstance(part, dict):
            raise ParseError("a find filter is a JSON object")
        for key, spec in part.items():
            if key == "$and" and isinstance(spec, list):
                for sub in spec:
                    absorb(sub)
            elif key.startswith("$"):
                continue
            elif _is_operator_doc(spec):
                if "$eq" in spec:
                    seed = set_path_create(
                        seed, split_field_path(key), copy.deepcopy(spec["$eq"])
                    )
            else:
                seed = set_path_create(
                    seed, split_field_path(key), copy.deepcopy(spec)
                )

    absorb(filter_doc)
    return seed


def update_many(
    collection: Any,
    filter_doc: Any,
    update_doc: Any,
    *,
    upsert: bool = False,
) -> UpdateResult:
    """Update every document matching the filter."""
    return _run_update(
        collection,
        filter_doc,
        compile_update(update_doc),
        upsert=upsert,
        first_only=False,
    )


def update_one(
    collection: Any,
    filter_doc: Any,
    update_doc: Any,
    *,
    upsert: bool = False,
) -> UpdateResult:
    """Update the first document (in id order) matching the filter."""
    return _run_update(
        collection,
        filter_doc,
        compile_update(update_doc),
        upsert=upsert,
        first_only=True,
    )


def compile_replacement(replacement: Any) -> CompiledUpdate:
    """Validate and compile a ``replace_one`` replacement document."""
    if not isinstance(replacement, dict):
        raise ParseError("a replacement must be a document")
    offenders = [
        key
        for key in replacement
        if isinstance(key, str) and key.startswith("$")
    ]
    if offenders:
        raise ParseError(
            f"a replacement document cannot contain update operators "
            f"({offenders[0]!r}); use update_one instead"
        )
    return CompiledUpdate(
        update_cache_key(replacement),
        (replace_op(copy.deepcopy(replacement)),),
    )


def replace_one(
    collection: Any,
    filter_doc: Any,
    replacement: Any,
    *,
    upsert: bool = False,
) -> UpdateResult:
    """Replace the first matching document wholesale."""
    return _run_update(
        collection,
        filter_doc,
        compile_replacement(replacement),
        upsert=upsert,
        first_only=True,
    )


def first_match_id(collection: Any, filter_doc: Any) -> int | None:
    """The id of the first document (in id order) matching the filter.

    The scatter half of a sharded ``update_one``/``replace_one``: each
    shard reports its local first match, the coordinator takes the
    global minimum -- which is that shard's local first match too, so
    routing the single-document write to the owning shard updates
    exactly the document the unsharded path would have.
    """
    matched, _, _, _ = _select_targets(collection, filter_doc, first_only=True)
    return matched[0][0] if matched else None


def explain_update(
    collection: Any,
    filter_doc: Any,
    update_doc: Any,
    *,
    first_only: bool = False,
    no_semantic: bool = False,
) -> Explain:
    """Dry-run an update: target pruning plus the index delta it would
    apply.  Mirrors the find explain on the read side; nothing in the
    collection or its indexes changes.  ``first_only`` previews
    ``update_one`` instead of ``update_many``."""
    compiled = compile_update(update_doc)
    matched, candidates, scanned, decision = _select_targets(
        collection, filter_doc, first_only=first_only, no_semantic=no_semantic
    )
    ops = DeltaOps()
    modified = 0
    for doc_id, value in matched:
        _, mutations = compiled.apply(value)
        if not mutations:
            continue
        modified += 1
        delta = mutation_delta(mutations, extended=collection.extended)
        if collection.indexes is not None:
            collection.indexes.apply_entry_delta(doc_id, delta, commit=False, into=ops)
    return Explain(
        kind="update",
        source=update_cache_key(filter_doc),
        update_source=compiled.source,
        total=len(collection),
        candidates=candidates,
        scanned=scanned,
        matched=len(matched),
        modified=modified,
        entries_added=ops.entries_added,
        entries_removed=ops.entries_removed,
        refcount_adjusted=ops.adjusted,
        postings=dict(ops.postings),
        semantics=None if decision is None else decision.semantics_explain(),
    )
