"""Immutable collection snapshots: the multi-reader half of serving.

A :class:`CollectionSnapshot` is a frozen read view over a
:class:`~repro.store.collection.Collection`, pinned at a **generation**
(the collection's mutation counter).  The paper's interned-tree data
model makes this nearly free: trees are immutable and structurally
shared, so pinning a snapshot is one shallow copy of the id->tree slot
list -- no document is copied, ever.  Writes that land after the pin
replace or append *slots* in the source collection's own list; the
snapshot keeps the trees it pinned.

Query routing is generation-aware:

* while the source collection is still at the snapshot's generation
  (the overwhelmingly common case under a single-writer server), reads
  go through the live secondary indexes -- full planner pruning;
* once the source has moved on, the snapshot answers by compiled full
  scan over its pinned trees.  The indexes reflect newer state and can
  no longer soundly prune *this* view, but results stay exactly the
  snapshot's -- isolation is never traded for speed.

Snapshots implement the read half of the uniform collection protocol
(``find``/``count``/``aggregate``/``select``/``explain``/``get``/
``documents``), so the planner and every compiled front-end run on
them unchanged.  They hold no engine and accept no writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.errors import StoreError
from repro.model.tree import JSONTree, JSONValue
from repro.query import planner
from repro.store.collection import _as_query, _no_semantic, is_id_type, slots_by_id
from repro.query.compiled import CompiledQuery, compile_mongo_find

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.store.collection import Collection
    from repro.store.indexes import DocumentIndexes

__all__ = ["CollectionSnapshot"]


class CollectionSnapshot:
    """A frozen, queryable view of one collection at one generation.

    Acquire through :meth:`repro.store.Collection.snapshot_view`.  The
    view is internally consistent forever: every query over it answers
    from exactly the documents that were live at the pinned generation,
    regardless of how far the source collection has moved on since.
    """

    __slots__ = ("_source", "_generation", "_trees", "_alive", "_extended",
                 "_semantic")

    def __init__(self, source: "Collection") -> None:
        source.flush_pending()
        self._source = source
        self._generation = source.generation
        # Shallow slot copy: tree objects are immutable and shared with
        # the source; later writes touch the source's list, not ours.
        self._trees: list[JSONTree | None] = list(source.all_slots())
        self._alive = len(source)
        self._extended = source.extended
        # Captured eagerly: the premise must be built while the pinned
        # documents are exactly the live ones.  A widen-only summary
        # only ever weakens later, so this context stays sound for the
        # pinned view however far the source moves on.
        self._semantic = getattr(source, "semantic_context", None)

    # ------------------------------------------------------------------
    # Pin metadata.
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The source generation this view was pinned at."""
        return self._generation

    @property
    def version(self) -> int:
        """Alias of :attr:`generation` (the collection protocol name)."""
        return self._generation

    @property
    def current(self) -> bool:
        """Whether the source collection is still at this generation."""
        return self._source.generation == self._generation

    @property
    def extended(self) -> bool:
        return self._extended

    @property
    def semantic_context(self):
        """The source's semantic premise, captured at pin time.

        Remains valid when the source moves on: widening only weakens
        the summary, and a schema premise never changes, so every
        pinned document still satisfies the captured formula.
        """
        return self._semantic

    @property
    def indexes(self) -> "DocumentIndexes | None":
        """The live indexes while current; ``None`` once stale.

        The planner protocol's pruning seam: a current snapshot prunes
        through the source's secondary indexes (they describe exactly
        the pinned state), a stale one reports "unindexed" and every
        query falls back to the sound compiled full scan over the
        pinned trees.
        """
        if self.current:
            return self._source.indexes
        return None

    # ------------------------------------------------------------------
    # Documents (the read half of the collection protocol).
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._alive

    def __contains__(self, doc_id: int) -> bool:
        return (
            is_id_type(type(doc_id))
            and 0 <= doc_id < len(self._trees)
            and self._trees[doc_id] is not None
        )

    def get(self, doc_id: int) -> JSONTree:
        if not is_id_type(type(doc_id)) or not 0 <= doc_id < len(self._trees):
            raise StoreError(f"unknown document id {doc_id}")
        tree = self._trees[doc_id]
        if tree is None:
            raise StoreError(f"document {doc_id} was removed")
        return tree

    def doc_ids(self) -> list[int]:
        return [i for i, tree in enumerate(self._trees) if tree is not None]

    def documents(
        self, ids: "Iterable[int] | None" = None
    ) -> Iterator[tuple[int, JSONTree]]:
        """The pinned ``(doc_id, tree)`` pairs in id order; with
        ``ids``, only those, fetched by slot (same error contract as
        :meth:`Collection.documents`)."""
        slots = (
            enumerate(self._trees)
            if ids is None
            else slots_by_id(self._trees, ids)
        )
        for doc_id, tree in slots:
            if tree is not None:
                yield doc_id, tree
            elif ids is not None:
                raise StoreError(f"document {doc_id} was removed")

    @property
    def trees(self) -> list[JSONTree]:
        return [tree for _, tree in self.documents()]

    # ------------------------------------------------------------------
    # Queries (identical routing to Collection, minus every write).
    # ------------------------------------------------------------------

    def find(
        self,
        filter_doc: dict[str, Any],
        projection: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[JSONValue]:
        return planner.find_documents(
            self,
            compile_mongo_find(filter_doc, projection),
            no_semantic=_no_semantic(hint),
        )

    def find_trees(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[JSONTree]:
        return planner.find_trees(
            self, compile_mongo_find(filter_doc), no_semantic=_no_semantic(hint)
        )

    def count(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> int:
        return planner.count_matches(
            self, compile_mongo_find(filter_doc), no_semantic=_no_semantic(hint)
        )

    def match_ids(
        self,
        query: "CompiledQuery | str | dict",
        dialect: str = "jnl",
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[int]:
        return planner.match_ids(
            self,
            _as_query(query, dialect),
            no_semantic=_no_semantic(hint),
        )

    def select(
        self, query: "CompiledQuery | str", dialect: str = "jsonpath"
    ) -> list[tuple[int, list[JSONValue]]]:
        return planner.select_values(self, _as_query(query, dialect))

    def explain(
        self,
        query: "CompiledQuery | str | dict",
        dialect: str = "jsonpath",
        *,
        hint: dict[str, Any] | None = None,
    ):
        return planner.explain(
            self,
            _as_query(query, dialect),
            no_semantic=_no_semantic(hint),
        )

    def aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ) -> list[JSONValue]:
        from repro.mongo.aggregate import compile_pipeline

        return compile_pipeline(pipeline).execute(
            self, no_semantic=_no_semantic(hint)
        )

    def explain_aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ):
        from repro.mongo.aggregate import compile_pipeline

        return compile_pipeline(pipeline).explain(
            self, no_semantic=_no_semantic(hint)
        )

    def __repr__(self) -> str:
        state = "current" if self.current else "stale"
        return (
            f"CollectionSnapshot({self._alive} documents, "
            f"generation {self._generation}, {state})"
        )
