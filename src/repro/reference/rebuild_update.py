"""Remove+reinsert update maintenance: the baseline of the delta path.

:func:`rebuild_update_many` runs ``update_many`` without entry deltas:
every modified document's tree is rebuilt eagerly through the
collection's intern table, its whole posting set is dropped and
re-added, and the structural summary walks the whole new tree.  The
differential tests pit :meth:`repro.store.Collection.apply_update`
against it (same documents, same index tables, same summary), and
``benchmarks/bench_updates.py`` times it as the delta path's baseline.
"""

from __future__ import annotations

from typing import Any

from repro.errors import DocumentRejectedError, StoreError
from repro.model.tree import JSONTree
from repro.mongo.update import UpdateResult, _select_targets, compile_update
from repro.store.indexes import DeltaOps, tree_entry_counts

__all__ = ["rebuild_update_many"]


def rebuild_update_many(
    collection: Any, filter_doc: Any, update_doc: Any
) -> tuple[UpdateResult, DeltaOps]:
    """``collection.update_many(filter_doc, update_doc)`` by
    remove+reinsert; returns the result and the ``"full-reinsert"``
    :class:`~repro.store.indexes.DeltaOps` it paid.

    Staging, schema validation and commit order follow
    :meth:`~repro.store.Collection.apply_update`: a rejection leaves
    every document and index untouched.  Memory collections only (no
    WAL frame is written), and no upsert.
    """
    if collection.engine.durable:
        raise StoreError(
            "rebuild_update_many writes no WAL frame: memory collections only"
        )
    compiled = compile_update(update_doc)
    matched, _, _, _ = _select_targets(collection, filter_doc)
    staged: list[tuple[int, Any, JSONTree]] = []
    for doc_id, old_value in matched:
        new_value, mutations = compiled.apply(old_value)
        if not mutations:
            continue
        new_tree = JSONTree.from_values(
            [new_value],
            extended=collection.extended,
            interned=collection._interned,
        )[0]
        staged.append((doc_id, new_value, new_tree))
    validator = collection._validator
    if validator is not None:
        for doc_id, new_value, _ in staged:
            if not validator.validate_value(new_value, extended=collection.extended):
                raise DocumentRejectedError(
                    doc_id, f"update rejected: document {doc_id}"
                )
    summary = collection._summary
    if summary is not None:
        for _, _, new_tree in staged:
            summary.observe_tree(new_tree)
    ops = DeltaOps()
    indexes = collection.indexes
    for doc_id, _, new_tree in staged:
        old_tree = collection.get(doc_id)  # flushes any pending value
        if indexes is not None:
            indexes.remove(doc_id, old_tree)
            indexes.add(doc_id, new_tree)
            entries = len(tree_entry_counts(new_tree))
            ops.entries_added += entries
            ops.entries_removed += entries
            ops.postings["full-reinsert"] = (
                ops.postings.get("full-reinsert", 0) + 2 * entries
            )
        collection._trees[doc_id] = new_tree
    if staged:
        collection._version += 1
    return UpdateResult(len(matched), len(staged)), ops
