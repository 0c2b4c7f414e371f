"""Secondary indexes over a collection of JSON trees.

The planner's pruning questions (:mod:`repro.query.ir`) are all phrased
over *stripped key paths* -- the object keys along a root-to-node walk
with array positions dropped -- so one walk per document feeds six
posting tables:

* ``paths``    -- stripped path        -> documents with a node there;
* ``eq``       -- stripped path        -> leaf value -> documents;
* ``kinds``    -- stripped path        -> node kind  -> documents;
* ``keys``     -- object key           -> documents using it anywhere
  (the key-presence index over the automata alphabet, what unanchored
  axes like ``$..author`` prune with);
* ``tails``    -- innermost key        -> leaf value -> documents
  (what floating equality tests like ``[?(@.age == 5)]`` prune with);
* ``values``   -- leaf value           -> documents containing it
  (the anywhere-equality fallback for wildcard/descendant contexts).

Maintenance is incremental and **counted**, and every fact is stored
once.  How many nodes of a document contribute an entry is a function
of the document's tree, so nothing per document is retained: a document
contributes an entry exactly while its id is in that entry's posting,
and the few entries a document contributes *more than once* (array
siblings under one stripped path, equal leaves) are recorded in one
sparse entry-major table ``entry -> {doc_id: extra}``
(:attr:`DocumentIndexes._multi`), so ``count(entry, doc)`` is ``0`` off
the posting and ``1 + extra`` on it.  Counting is what makes *delta*
maintenance sound for in-place updates (:mod:`repro.store.update`):
replacing one subtree only touches the entries whose counts cross zero,
even when the same stripped path or leaf value is also contributed by
siblings outside the mutated subtree.  :meth:`DocumentIndexes.add`
walks the tree's arena arrays once and writes straight into the
postings, :meth:`DocumentIndexes.remove` recomputes the entries from
the tree it is handed, and :meth:`DocumentIndexes.apply_entry_delta`
retires/re-adds only the entries a mutation changed -- after any
insert/update/remove sequence the tables equal a from-scratch rebuild
over the live documents (pinned by ``tests/test_store.py`` and the
``tests/test_update.py`` oracle).

A ``dict[Entry, int]`` per document would answer the same question, but
costs ~37 long-lived GC-tracked containers per document (a 2.3 KB dict
and ~35 tuples: 4.5 of the 11 KB a small document then keeps resident),
and CPython's cyclic collector re-traversing that ever-growing heap
measured ~60 % of index build time (2.11 s, against 0.87 s with the
collector off, on 20 000 documents).  The multiplicity table of that
whole corpus has two dozen entries.

A posting costs what it holds: one document id is stored as the bare
``int``, two or more as a ``set[int]`` -- promoted by the second id
arriving, demoted by the last but one leaving -- because most postings
of a real corpus (87 523 of the 123 561 of the 20 000-document people
corpus: every near-unique leaf value, three tables over) hold exactly
one id, and a one-element ``set`` is 216 bytes and one more container
for the cyclic collector to traverse.  The other end of the spectrum is
the posting that holds *every* live id (one per path, kind, key and
value every document has: 27 of them on that corpus, 54.0 of its
84.2 MB of posting sets).  Such a posting is stored as the live-id set
itself (:attr:`DocumentIndexes.live_ids`), shared by all of them, with
its entry in a small sentinel set.  No threshold decides it: it is a
fact about the posting, kept as documents come and go.  An insert that
lacks the entry materialises the posting once, as a copy of the live
ids.  A posting that grows back to every live id becomes the sentinel
again.  ``remove`` keeps it as it is: the document leaves the posting
and the live set in one step.  The look-ups hide the difference:
they return a set either way -- the live one, the live-id set itself,
a fresh one-element set for a lone id, or the shared empty
``frozenset`` -- which callers (the planner) must treat as read-only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import StoreError, UnsupportedValueError
from repro.model.tree import JSONTree, Kind, kind_of
from repro.query.ir import FLAT, KeyPath

__all__ = [
    "IndexEntries",
    "IndexStats",
    "DeltaOps",
    "DocumentIndexes",
    "index_entries",
    "tree_entry_counts",
    "value_entry_counts",
    "leaf_entry_delta",
]

_EMPTY: frozenset[int] = frozenset()

# A posting-table value: the id itself while it is alone, else a set.
Posting = int | set[int]


def _as_set(postings: "Posting | None") -> "set[int] | frozenset[int]":
    """A posting as the set it stands for (live when it is one)."""
    if postings is None:
        return _EMPTY
    if type(postings) is int:
        return {postings}
    return postings

# A counted index entry: a tagged tuple naming the posting table it
# lives in ("path" | "eq" | "kind" | "key" | "tail" | "val") plus the
# table's key material.  Tags keep the six entry spaces disjoint.
Entry = tuple


@dataclass(frozen=True)
class IndexEntries:
    """The index-entry set one document contributes (deduplicated)."""

    paths: frozenset[KeyPath]
    leaves: frozenset[tuple[KeyPath, str | int]]
    kinds: frozenset[tuple[KeyPath, Kind]]
    keys: frozenset[str]
    tails: frozenset[tuple[str, str | int]]


def index_entries(tree: JSONTree) -> IndexEntries:
    """One top-down walk computing every posting the tree belongs in."""
    counts = tree_entry_counts(tree)
    return IndexEntries(
        frozenset(entry[1] for entry in counts if entry[0] == "path"),
        frozenset(entry[1:] for entry in counts if entry[0] == "eq"),
        frozenset(entry[1:] for entry in counts if entry[0] == "kind"),
        frozenset(entry[1] for entry in counts if entry[0] == "key"),
        frozenset(entry[1:] for entry in counts if entry[0] == "tail"),
    )


def tree_entry_counts(tree: JSONTree) -> dict[Entry, int]:
    """A document's counted index entries, from one top-down walk.

    Multiplicity is the number of nodes (or edges, for ``"key"``
    entries) contributing the entry; posting membership is ``count >
    0``.  The counts are what delta maintenance refcounts against --
    :meth:`DocumentIndexes.add` posts exactly these entries, without
    building them.
    """
    node_kinds = tree.node_kinds()
    labels = tree.node_labels()
    parents = tree.node_parents()
    values = tree.node_values()
    # Stripped path per node; parents precede children in id order.
    path_of: list[KeyPath] = [()] * len(node_kinds)
    counts: dict[Entry, int] = {}

    def bump(entry: Entry) -> None:
        counts[entry] = counts.get(entry, 0) + 1

    for node, kind in enumerate(node_kinds):
        if node:
            label = labels[node]
            path = path_of[parents[node]]
            if isinstance(label, str):
                path = path + (label,)
                bump(("key", label))
            path_of[node] = path
        else:
            path = ()
        bump(("path", path))
        bump(("kind", path, kind))
        value = values[node]
        if value is not None:
            bump(("eq", path, value))
            bump(("val", value))
            if path:
                bump(("tail", path[-1], value))
    return counts


def _leaf_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if value is True:
        return "true"
    if value is False:
        return "false"
    return "null"


def _bump(counts: dict[Entry, int], entry: Entry, sign: int) -> None:
    """Signed accumulate with pop-on-zero (the delta-dict invariant:
    only non-zero counts are ever stored)."""
    updated = counts.get(entry, 0) + sign
    if updated:
        counts[entry] = updated
    else:
        counts.pop(entry, None)


def value_entry_counts(
    value: Any,
    path: KeyPath = (),
    edge_key: str | None = None,
    *,
    extended: bool = False,
    counts: dict[Entry, int] | None = None,
    sign: int = 1,
) -> dict[Entry, int]:
    """Counted entries a raw subtree contributes at a stripped path.

    The value-space twin of :func:`tree_entry_counts`, restricted to
    one subtree: ``path`` is the stripped key path of the subtree root
    and ``edge_key`` the object key of the edge leading into it
    (``None`` for the document root or an array element), whose
    ``"key"`` entry belongs to the subtree.  ``counts``/``sign`` let a
    caller accumulate a *delta* -- subtract the replaced subtree with
    ``sign=-1``, add its replacement with ``sign=1`` -- in one dict.

    Raises :class:`~repro.errors.UnsupportedValueError` on values
    outside the (possibly extended) model, exactly like
    ``JSONTree.from_value`` would on rebuild -- so a bad update operand
    fails before any index or document state changes.
    """
    if counts is None:
        counts = {}

    def bump(entry: Entry) -> None:
        _bump(counts, entry, sign)

    if edge_key is not None:
        bump(("key", edge_key))
    if not isinstance(value, (dict, list, tuple)):
        # Leaf fast path (the $set/$inc hot case): no walk machinery.
        kind = kind_of(value, extended)
        bump(("path", path))
        bump(("kind", path, kind))
        leaf = _leaf_text(value) if kind is Kind.STRING else value
        bump(("eq", path, leaf))
        bump(("val", leaf))
        if path:
            bump(("tail", path[-1], leaf))
        return counts
    stack: list[tuple[Any, KeyPath]] = [(value, path)]
    while stack:
        sub, sub_path = stack.pop()
        kind = kind_of(sub, extended)
        bump(("path", sub_path))
        bump(("kind", sub_path, kind))
        if kind is Kind.OBJECT:
            for key, child in sub.items():
                if not isinstance(key, str):
                    raise UnsupportedValueError(
                        f"object keys must be strings, got {type(key).__name__}"
                    )
                bump(("key", key))
                stack.append((child, sub_path + (key,)))
        elif kind is Kind.ARRAY:
            for child in sub:
                stack.append((child, sub_path))
        else:
            leaf = _leaf_text(sub) if kind is Kind.STRING else sub
            bump(("eq", sub_path, leaf))
            bump(("val", leaf))
            if sub_path:
                bump(("tail", sub_path[-1], leaf))
    return counts


def leaf_entry_delta(
    old: Any,
    new: Any,
    path: KeyPath,
    *,
    extended: bool,
    counts: dict[Entry, int],
) -> None:
    """Accumulate the delta of replacing one leaf by another in place.

    The specialised twin of two :func:`value_entry_counts` calls for
    the hot case (``$inc``/``$set`` of a scalar): the ``path`` and
    ``key`` entries of the node cancel by construction and are never
    touched; only the leaf-value entries (and the kind entry, when the
    replacement changes kind) move.
    """
    old_kind = kind_of(old, extended)
    new_kind = kind_of(new, extended)
    if old_kind is not new_kind:
        _bump(counts, ("kind", path, old_kind), -1)
        _bump(counts, ("kind", path, new_kind), 1)
    old_leaf = _leaf_text(old) if old_kind is Kind.STRING else old
    new_leaf = _leaf_text(new) if new_kind is Kind.STRING else new
    _bump(counts, ("eq", path, old_leaf), -1)
    _bump(counts, ("eq", path, new_leaf), 1)
    _bump(counts, ("val", old_leaf), -1)
    _bump(counts, ("val", new_leaf), 1)
    if path:
        tail = path[-1]
        _bump(counts, ("tail", tail, old_leaf), -1)
        _bump(counts, ("tail", tail, new_leaf), 1)


@dataclass
class IndexStats:
    """Size counters for introspection, tests and benchmarks."""

    documents: int
    paths: int
    eq_entries: int
    kind_entries: int
    keys: int
    tail_entries: int
    values: int


@dataclass
class DeltaOps:
    """What one entry delta did to the posting tables.

    ``entries_added``/``entries_removed`` count entries whose per-doc
    count crossed zero (each costs one posting-set mutation);
    ``adjusted`` counts entries whose count changed but stayed positive
    (refcount-only, no posting touched).  ``postings`` breaks the set
    mutations down per table -- the "touched indexes" of an update
    explain report.
    """

    entries_added: int = 0
    entries_removed: int = 0
    adjusted: int = 0
    postings: dict[str, int] = field(default_factory=dict)


_TABLE_OF_TAG = {
    "path": "paths",
    "eq": "eq",
    "kind": "kinds",
    "key": "keys",
    "tail": "tails",
    "val": "values",
}


class DocumentIndexes:
    """Incrementally maintained postings over a document collection.

    ``resolve`` maps a live document id to its tree; the owning
    collection passes it so :meth:`entry_counts` can answer (nothing
    per document is stored here to answer from).
    """

    __slots__ = ("_paths", "_eq", "_kinds", "_keys", "_tails", "_values",
                 "_multi", "_live", "_every", "_resolve", "_tables",
                 "_range_keys")

    def __init__(self, resolve: "Callable[[int], JSONTree] | None" = None) -> None:
        self._paths: dict[KeyPath, Posting] = {}
        self._eq: dict[KeyPath, dict[str | int, Posting]] = {}
        self._kinds: dict[KeyPath, dict[Kind, Posting]] = {}
        self._keys: dict[str, Posting] = {}
        self._tails: dict[str, dict[str | int, Posting]] = {}
        self._values: dict[str | int, Posting] = {}
        # entry -> {doc id: contributions beyond the first}.  A document's
        # count for an entry is 0 off the posting, 1 + extra on it.
        self._multi: dict[Entry, dict[int, int]] = {}
        # The indexed ids, and the entries whose posting *is* this set
        # (the every-document sentinel; only ever with two or more ids).
        self._live: set[int] = set()
        self._every: set[Entry] = set()
        self._resolve = resolve
        # tag -> (table, whether it nests a second key level).
        self._tables: dict[str, tuple[dict, bool]] = {
            "path": (self._paths, False),
            "eq": (self._eq, True),
            "kind": (self._kinds, True),
            "key": (self._keys, False),
            "tail": (self._tails, True),
            "val": (self._values, False),
        }
        # path -> the sorted ``int`` keys of ``_eq[path]``, what a range
        # look-up bisects.  Derived state: built by the first range
        # query of a path, dropped whenever an ``eq`` posting at that
        # path is created or deleted, never persisted.
        self._range_keys: dict[KeyPath, list[int]] = {}

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def add(self, doc_id: int, tree: JSONTree) -> None:
        """Post a document not yet in the indexes.

        One walk of the arena arrays posting exactly the entries of
        :func:`tree_entry_counts`, written straight into the tables:
        no entry tuple is built unless the document contributes that
        entry a second time (its id is already on the posting) or the
        posting is every document's, and no set until a posting holds a
        second id.  Every-document postings the document does not
        contribute stop being that, and are materialised once.
        """
        node_kinds = tree.node_kinds()
        labels = tree.node_labels()
        parents = tree.node_parents()
        values = tree.node_values()
        paths_table, eq_table, kinds_table = self._paths, self._eq, self._kinds
        keys_table, tails_table, values_table = self._keys, self._tails, self._values
        range_keys = self._range_keys
        repeat = self._repeat
        live = self._live
        every = self._every
        # The document joins ``live`` after the walk.  Until then a
        # posting grown to ``live`` plus it is every document's again;
        # ``hit`` records the every-document entries it has posted once.
        grown = len(live) + 1
        hit: set[Entry] = set()

        def promote(table: dict, key: Any, entry: Entry) -> None:
            """The posting is ``live`` plus the document: the sentinel."""
            table[key] = live
            every.add(entry)
            hit.add(entry)

        # Stripped path per node; parents precede children in id order.
        path_of: list[KeyPath] = [()] * len(node_kinds)
        path: KeyPath = ()
        for node, kind in enumerate(node_kinds):
            if node:
                label = labels[node]
                path = path_of[parents[node]]
                if isinstance(label, str):
                    path = path + (label,)
                    postings = keys_table.get(label)
                    if postings is None:
                        keys_table[label] = doc_id
                    elif type(postings) is int:
                        if postings == doc_id:
                            repeat(("key", label), doc_id)
                        elif grown == 2:
                            promote(keys_table, label, ("key", label))
                        else:
                            keys_table[label] = {postings, doc_id}
                    elif postings is live:
                        seen = len(hit)
                        hit.add(entry := ("key", label))
                        if len(hit) == seen:
                            repeat(entry, doc_id)
                    elif doc_id in postings:
                        repeat(("key", label), doc_id)
                    else:
                        postings.add(doc_id)
                        if len(postings) == grown:
                            promote(keys_table, label, ("key", label))
                path_of[node] = path
            postings = paths_table.get(path)
            if postings is None:
                paths_table[path] = doc_id
            elif type(postings) is int:
                if postings == doc_id:
                    repeat(("path", path), doc_id)
                elif grown == 2:
                    promote(paths_table, path, ("path", path))
                else:
                    paths_table[path] = {postings, doc_id}
            elif postings is live:
                seen = len(hit)
                hit.add(entry := ("path", path))
                if len(hit) == seen:
                    repeat(entry, doc_id)
            elif doc_id in postings:
                repeat(("path", path), doc_id)
            else:
                postings.add(doc_id)
                if len(postings) == grown:
                    promote(paths_table, path, ("path", path))
            nested = kinds_table.get(path)
            if nested is None:
                nested = kinds_table[path] = {}
            postings = nested.get(kind)
            if postings is None:
                nested[kind] = doc_id
            elif type(postings) is int:
                if postings == doc_id:
                    repeat(("kind", path, kind), doc_id)
                elif grown == 2:
                    promote(nested, kind, ("kind", path, kind))
                else:
                    nested[kind] = {postings, doc_id}
            elif postings is live:
                seen = len(hit)
                hit.add(entry := ("kind", path, kind))
                if len(hit) == seen:
                    repeat(entry, doc_id)
            elif doc_id in postings:
                repeat(("kind", path, kind), doc_id)
            else:
                postings.add(doc_id)
                if len(postings) == grown:
                    promote(nested, kind, ("kind", path, kind))
            value = values[node]
            if value is None:
                continue
            nested = eq_table.get(path)
            if nested is None:
                nested = eq_table[path] = {}
            postings = nested.get(value)
            if postings is None:
                nested[value] = doc_id
                if range_keys:
                    range_keys.pop(path, None)
            elif type(postings) is int:
                if postings == doc_id:
                    repeat(("eq", path, value), doc_id)
                elif grown == 2:
                    promote(nested, value, ("eq", path, value))
                else:
                    nested[value] = {postings, doc_id}
            elif postings is live:
                seen = len(hit)
                hit.add(entry := ("eq", path, value))
                if len(hit) == seen:
                    repeat(entry, doc_id)
            elif doc_id in postings:
                repeat(("eq", path, value), doc_id)
            else:
                postings.add(doc_id)
                if len(postings) == grown:
                    promote(nested, value, ("eq", path, value))
            postings = values_table.get(value)
            if postings is None:
                values_table[value] = doc_id
            elif type(postings) is int:
                if postings == doc_id:
                    repeat(("val", value), doc_id)
                elif grown == 2:
                    promote(values_table, value, ("val", value))
                else:
                    values_table[value] = {postings, doc_id}
            elif postings is live:
                seen = len(hit)
                hit.add(entry := ("val", value))
                if len(hit) == seen:
                    repeat(entry, doc_id)
            elif doc_id in postings:
                repeat(("val", value), doc_id)
            else:
                postings.add(doc_id)
                if len(postings) == grown:
                    promote(values_table, value, ("val", value))
            if path:
                nested = tails_table.get(path[-1])
                if nested is None:
                    nested = tails_table[path[-1]] = {}
                postings = nested.get(value)
                if postings is None:
                    nested[value] = doc_id
                elif type(postings) is int:
                    if postings == doc_id:
                        repeat(("tail", path[-1], value), doc_id)
                    elif grown == 2:
                        promote(nested, value, ("tail", path[-1], value))
                    else:
                        nested[value] = {postings, doc_id}
                elif postings is live:
                    seen = len(hit)
                    hit.add(entry := ("tail", path[-1], value))
                    if len(hit) == seen:
                        repeat(entry, doc_id)
                elif doc_id in postings:
                    repeat(("tail", path[-1], value), doc_id)
                else:
                    postings.add(doc_id)
                    if len(postings) == grown:
                        promote(nested, value, ("tail", path[-1], value))
        if len(hit) < len(every):
            for entry in every - hit:
                # Every document's but this one's: no longer the sentinel.
                self._store(entry, self._live_copy())
                every.discard(entry)
        live.add(doc_id)

    def remove(self, doc_id: int, tree: JSONTree) -> None:
        """Discard a document's postings (``tree`` as it was indexed).

        An every-document posting loses the document together with the
        live set, so it stays the sentinel without being touched.
        """
        for entry, count in tree_entry_counts(tree).items():
            self._discard_entry(entry, doc_id, leaving=True)
            if count > 1:
                self._set_extra(entry, doc_id, 0)
        self._live.discard(doc_id)

    def apply_entry_delta(
        self,
        doc_id: int,
        delta: dict[Entry, int],
        *,
        commit: bool = True,
        into: DeltaOps | None = None,
    ) -> DeltaOps:
        """Delta index maintenance for one mutated document.

        ``delta`` maps entries to count changes (new minus old, as
        accumulated by :func:`value_entry_counts` over the replaced and
        replacement subtrees).  Only entries whose count crosses zero
        touch a posting set -- never the document's unchanged postings.
        The whole delta is checked before anything moves: one that
        would drive a count below zero raises :class:`ValueError` with
        the indexes (and ``into``) as they were.  With ``commit=False``
        nothing is mutated and the returned :class:`DeltaOps` reports
        what *would* happen (the explain dry run).  ``into``
        accumulates the report into an existing :class:`DeltaOps` (the
        batch-update hot path) instead of allocating one per document.
        """
        multi = self._multi
        moves: list[tuple[Entry, int, int]] = []
        for entry, change in delta.items():
            if not change:
                continue
            if not self._posts(entry, doc_id):
                before = 0
            else:
                extras = multi.get(entry)
                before = 1 if extras is None else 1 + extras.get(doc_id, 0)
            after = before + change
            if after < 0:
                raise ValueError(
                    f"entry delta drives {entry!r} below zero for "
                    f"document {doc_id}"
                )
            moves.append((entry, before, after))
        ops = DeltaOps() if into is None else into
        for entry, before, after in moves:
            if before and after:
                ops.adjusted += 1
            else:
                if after:
                    ops.entries_added += 1
                else:
                    ops.entries_removed += 1
                table = _TABLE_OF_TAG[entry[0]]
                ops.postings[table] = ops.postings.get(table, 0) + 1
            if not commit:
                continue
            if not before:
                self._add_entry(entry, doc_id)
            elif not after:
                self._discard_entry(entry, doc_id)
            if before > 1 or after > 1:
                self._set_extra(entry, doc_id, max(after - 1, 0))
        return ops

    def entry_counts(self, doc_id: int) -> dict[Entry, int]:
        """A live document's counted entries, recomputed from its tree
        (introspection; needs the owning collection's ``resolve``)."""
        if self._resolve is None:
            raise StoreError(
                "these indexes were built without a document resolver; "
                "use tree_entry_counts(tree) instead"
            )
        return tree_entry_counts(self._resolve(doc_id))

    def _repeat(self, entry: Entry, doc_id: int) -> None:
        """One more contribution to an entry the document already posts."""
        extras = self._multi.get(entry)
        if extras is None:
            self._multi[entry] = {doc_id: 1}
        else:
            extras[doc_id] = extras.get(doc_id, 0) + 1

    def _set_extra(self, entry: Entry, doc_id: int, extra: int) -> None:
        """Record the document's contributions beyond the first (0: none)."""
        extras = self._multi.get(entry)
        if extra:
            if extras is None:
                self._multi[entry] = {doc_id: extra}
            else:
                extras[doc_id] = extra
        elif extras is not None:
            extras.pop(doc_id, None)
            if not extras:
                del self._multi[entry]

    def _posts(self, entry: Entry, doc_id: int) -> bool:
        """Is the document on the entry's posting?"""
        table, nested = self._tables[entry[0]]
        if nested:
            table = table.get(entry[1])
            if table is None:
                return False
        postings = table.get(entry[-1])
        if type(postings) is int:
            return postings == doc_id
        return postings is not None and doc_id in postings

    def _add_entry(self, entry: Entry, doc_id: int) -> None:
        """Post a live document on one more entry; a posting it grows to
        every live document becomes the sentinel again."""
        table, nested = self._tables[entry[0]]
        if nested:
            outer = table
            table = outer.get(entry[1])
            if table is None:
                table = outer[entry[1]] = {}
        live = self._live
        postings = table.get(entry[-1])
        if postings is None:
            table[entry[-1]] = doc_id
            if entry[0] == "eq":
                self._range_keys.pop(entry[1], None)
            return
        if postings is live:
            return
        if type(postings) is int:
            if postings == doc_id:
                return
            postings = table[entry[-1]] = {postings, doc_id}
        else:
            postings.add(doc_id)
        if len(postings) == len(live) and doc_id in live:
            table[entry[-1]] = live
            self._every.add(entry)

    def _discard_entry(
        self, entry: Entry, doc_id: int, *, leaving: bool = False
    ) -> None:
        """Take the document off one entry's posting.

        Emptied postings (and emptied nested tables) are deleted; a
        posting left with one id goes back to being that id.  An
        every-document posting is left alone when the document is
        ``leaving`` the collection (while two or more ids stay) and is
        otherwise materialised: the document stays, the entry goes.
        """
        outer, nested = self._tables[entry[0]]
        table = outer.get(entry[1]) if nested else outer
        postings = None if table is None else table.get(entry[-1])
        if postings is None:
            return
        if postings is self._live:
            if not (leaving and len(postings) > 2):
                self._every.discard(entry)
                table[entry[-1]] = self._live_copy(doc_id)
            return
        if type(postings) is int:
            if postings != doc_id:
                return
        else:
            postings.discard(doc_id)
            if len(postings) > 1:
                return
            if postings:
                (table[entry[-1]],) = postings
                return
        del table[entry[-1]]
        if nested and not table:
            del outer[entry[1]]
        if entry[0] == "eq":
            self._range_keys.pop(entry[1], None)

    def _live_copy(self, drop: int | None = None) -> Posting:
        """The live ids less ``drop``, as a posting of their own: what an
        every-document posting becomes when one document no longer
        contributes it.  The one place the live set is ever copied."""
        rest = set(self._live)
        rest.discard(drop)
        if len(rest) == 1:
            (lone,) = rest
            return lone
        return rest

    def _store(self, entry: Entry, postings: Posting) -> None:
        table, nested = self._tables[entry[0]]
        if nested:
            table = table[entry[1]]
        table[entry[-1]] = postings

    # ------------------------------------------------------------------
    # Lookups (sets to read, never to mutate: most are live postings).
    # ------------------------------------------------------------------

    @property
    def live_ids(self) -> "set[int]":
        """Every indexed id: the set an every-document posting *is*, so
        a look-up that returns it prunes nothing."""
        return self._live

    def docs_with_path(self, path: KeyPath) -> Iterable[int]:
        return _as_set(self._paths.get(path))

    def docs_with_value(self, path: KeyPath, value: str | int) -> Iterable[int]:
        return _as_set(self._eq.get(path, {}).get(value))

    def docs_with_kind(self, path: KeyPath, kind: Kind) -> Iterable[int]:
        return _as_set(self._kinds.get(path, {}).get(kind))

    def docs_with_key(self, key: str) -> Iterable[int]:
        return _as_set(self._keys.get(key))

    def docs_with_tail_value(self, key: str, value: str | int) -> Iterable[int]:
        return _as_set(self._tails.get(key, {}).get(value))

    def docs_with_any_value(self, value: str | int) -> Iterable[int]:
        return _as_set(self._values.get(value))

    def docs_in_range(
        self, path: KeyPath, low: int | None, high: int | None
    ) -> set[int]:
        """Documents with a number leaf at ``path`` in ``(low, high)``.

        Bounds are exclusive (the NodeTest ``Min``/``Max`` convention);
        ``None`` means unbounded, an empty or inverted interval answers
        the empty set.  One bisection of the path's sorted number keys,
        then a union of only the postings inside the interval: the cost
        follows the answer, not the number of distinct values recorded
        at the path (sorting them is paid by the first range query
        after the path's set of values changed).
        """
        values = self._eq.get(path)
        if values is None:
            return set()
        keys = self._range_keys.get(path)
        if keys is None:
            keys = self._range_keys[path] = sorted(
                value for value in values if isinstance(value, int)
            )
        start = 0 if low is None else bisect_right(keys, low)
        stop = len(keys) if high is None else bisect_left(keys, high)
        found: set[int] = set()
        for key in keys[start:stop]:
            postings = values[key]
            if type(postings) is int:
                found.add(postings)
            else:
                found |= postings
        return found

    def kinds_at(self, path: KeyPath) -> "Iterable[Kind]":
        """The node kinds live documents hold at ``path``."""
        return self._kinds.get(path, {}).keys()

    def value_postings(
        self, path: KeyPath
    ) -> "Iterator[tuple[str | int, set[int] | frozenset[int], int]]":
        """``(leaf value, posting, extra)`` per leaf value at ``path``.

        ``extra`` counts the leaves holding the value beyond one per
        posted document (the entry's multiplicity extras), so
        ``len(posting) + extra`` leaves at ``path`` hold it.
        """
        multi = self._multi
        for value, postings in self._eq.get(path, {}).items():
            extras = multi.get(("eq", path, value))
            yield (
                value,
                _as_set(postings),
                0 if extras is None else sum(extras.values()),
            )

    def value_column(self, path: KeyPath) -> "dict[int, str | int]":
        """``{doc_id: leaf value}`` at ``path``, inverted from its
        ``eq`` postings on every call and never kept.  A document with
        several leaves there appears once, under any one of them: read
        it where the path is array-free."""
        column: dict[int, str | int] = {}
        for value, postings in self._eq.get(path, {}).items():
            if type(postings) is int:
                column[postings] = value
            else:
                column.update(dict.fromkeys(postings, value))
        return column

    def covers(self, cover: "Iterable[tuple[KeyPath, str]]") -> bool:
        """Whether every live document meets ``cover``, i.e. whether the
        postings of the other look-ups are not a superset of the answer
        but the answer (:attr:`repro.query.ir.LogicalPlan.cover`).

        A ``SCALAR`` entry wants no array at the path or at any prefix
        of it (the root ``()`` included): arrays are the only place a
        stripped path stands for more than one node of a document.  A
        ``FLAT`` entry wants none at any proper prefix and, at the path
        itself, no array *inside* an array.  Both are read off the live
        tables.  ``kinds`` is exact for the live documents -- emptied
        postings are deleted, so the last array-bearing document
        leaving restores the property -- at one probe per prefix.  And
        with array-free prefixes a document contributes ``("kind",
        path, ARRAY)`` a second time exactly when an array sits inside
        the array at ``path``, which is what the multiplicity table
        records (and forgets when the last such document goes): one
        more probe.
        """
        kinds = self._kinds
        for path, need in cover:
            flat = need == FLAT
            for end in range(len(path) + (not flat)):
                if Kind.ARRAY in kinds.get(path[:end], _EMPTY):
                    return False
            if flat and ("kind", path, Kind.ARRAY) in self._multi:
                return False
        return True

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def stats(self) -> IndexStats:
        return IndexStats(
            documents=len(self._live),
            paths=len(self._paths),
            eq_entries=sum(len(values) for values in self._eq.values()),
            kind_entries=sum(len(kinds) for kinds in self._kinds.values()),
            keys=len(self._keys),
            tail_entries=sum(len(values) for values in self._tails.values()),
            values=len(self._values),
        )

    def snapshot(self) -> dict:
        """A plain-dict copy of every table (test/debug equality aid).

        Includes the multiplicity table, so snapshot equality between
        incrementally maintained and rebuilt-from-scratch indexes also
        pins the counts delta maintenance relies on.
        """
        def copy(postings: Posting) -> set[int]:
            return set(_as_set(postings))

        return {
            "paths": {path: copy(docs) for path, docs in self._paths.items()},
            "eq": {
                path: {value: copy(docs) for value, docs in values.items()}
                for path, values in self._eq.items()
            },
            "kinds": {
                path: {kind: copy(docs) for kind, docs in kinds.items()}
                for path, kinds in self._kinds.items()
            },
            "keys": {key: copy(docs) for key, docs in self._keys.items()},
            "tails": {
                key: {value: copy(docs) for value, docs in values.items()}
                for key, values in self._tails.items()
            },
            "values": {
                value: copy(docs) for value, docs in self._values.items()
            },
            "multiplicity": {
                entry: dict(extras) for entry, extras in self._multi.items()
            },
        }
