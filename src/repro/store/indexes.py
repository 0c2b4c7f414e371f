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

Maintenance is incremental and **counted**: every document's entry
multiset (how many nodes contribute each index entry) is retained in
:attr:`DocumentIndexes._doc_entries`, and a document belongs to a
posting exactly while its count for that entry is positive.  Counting
is what makes *delta* maintenance sound for in-place updates
(:mod:`repro.store.update`): replacing one subtree only touches the
entries whose counts cross zero, even when the same stripped path or
leaf value is also contributed by siblings outside the mutated subtree.
:meth:`DocumentIndexes.add` unions a document's entries into the
postings, :meth:`DocumentIndexes.remove` discards the stored entry set,
and :meth:`DocumentIndexes.apply_entry_delta` retires/re-adds only the
entries a mutation changed -- after any insert/update/remove sequence
the tables equal a from-scratch rebuild over the live documents (pinned
by ``tests/test_store.py`` and the ``tests/test_update.py`` oracle).

Postings are sets of document ids.  All lookups return live sets;
callers (the planner) must treat them as read-only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import UnsupportedValueError
from repro.model.tree import JSONTree, Kind
from repro.query.ir import KeyPath

__all__ = [
    "IndexEntries",
    "IndexStats",
    "DeltaOps",
    "DocumentIndexes",
    "index_entries",
    "tree_entry_counts",
    "value_entry_counts",
    "leaf_entry_delta",
    "encode_entry_counts",
    "decode_entry_counts",
]

_EMPTY: frozenset[int] = frozenset()

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


# Cap on a collection's pool of shared entry tuples (see
# :func:`tree_entry_counts`): past it, documents with yet more distinct
# paths simply keep private tuples, so key churn cannot grow the pool
# without bound.
_SHARED_LIMIT = 1 << 14


def tree_entry_counts(
    tree: JSONTree, shared: dict[tuple, tuple] | None = None
) -> dict[Entry, int]:
    """A document's counted index entries, from one top-down walk.

    Multiplicity is the number of nodes (or edges, for ``"key"``
    entries) contributing the entry; posting membership is ``count >
    0``.  The counts are what delta maintenance refcounts against.

    ``shared`` is the caller's pool of the tuples that do not depend on
    the document -- paths and the ``"path"``/``"kind"``/``"key"``
    entries over them.  Documents of one collection mostly repeat the
    same few, so every stored count dict pointing at one copy saves
    about a sixth of the resident bytes per document.
    """
    node_kinds = tree.node_kinds()
    labels = tree.node_labels()
    parents = tree.node_parents()
    values = tree.node_values()
    # Stripped path per node; parents precede children in id order.
    path_of: list[KeyPath] = [()] * len(node_kinds)
    counts: dict[Entry, int] = {}
    if shared is None:
        shared = {}

    def share(item: tuple) -> tuple:
        pooled = shared.get(item)
        if pooled is None:
            if len(shared) >= _SHARED_LIMIT:
                return item
            shared[item] = pooled = item
        return pooled

    def bump(entry: Entry) -> None:
        counts[entry] = counts.get(entry, 0) + 1

    for node, kind in enumerate(node_kinds):
        if node:
            label = labels[node]
            path = path_of[parents[node]]
            if isinstance(label, str):
                path = share(path + (label,))
                bump(share(("key", label)))
            path_of[node] = path
        else:
            path = ()
        bump(share(("path", path)))
        bump(share(("kind", path, kind)))
        value = values[node]
        if value is not None:
            bump(("eq", path, value))
            bump(("val", value))
            if path:
                bump(("tail", path[-1], value))
    return counts


def _value_kind(value: Any, extended: bool) -> Kind:
    """Kind of a raw value, mirroring ``JSONTree.from_value`` exactly."""
    if isinstance(value, dict):
        return Kind.OBJECT
    if isinstance(value, (list, tuple)):
        return Kind.ARRAY
    if isinstance(value, str):
        return Kind.STRING
    if isinstance(value, bool):
        if extended:
            return Kind.STRING
        raise UnsupportedValueError(
            "booleans are outside the paper's JSON abstraction "
            "(use extended=True to coerce them to strings)"
        )
    if isinstance(value, int):
        return Kind.NUMBER
    if value is None and extended:
        return Kind.STRING
    raise UnsupportedValueError(
        f"unsupported JSON value of type {type(value).__name__}: {value!r}"
    )


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
        kind = _value_kind(value, extended)
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
        kind = _value_kind(sub, extended)
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
    old_kind = _value_kind(old, extended)
    new_kind = _value_kind(new, extended)
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


# ---------------------------------------------------------------------------
# JSON wire form of counted entries (the snapshot format's refcounts).
# ---------------------------------------------------------------------------

_PATH_TAGS = ("path", "eq", "kind")  # entries whose first arg is a KeyPath


def encode_entry_counts(counts: dict[Entry, int]) -> list:
    """Counted entries as JSON-able ``[[tag, ...args], count]`` rows.

    Key paths become lists, :class:`~repro.model.tree.Kind` becomes its
    integer value; leaf values (``str | int``) survive JSON verbatim.
    The inverse is :func:`decode_entry_counts`.
    """
    rows = []
    for entry, count in counts.items():
        tag = entry[0]
        if tag in _PATH_TAGS:
            encoded = [tag, list(entry[1]), *entry[2:]]
            if tag == "kind":
                encoded[2] = int(encoded[2])
        else:
            encoded = list(entry)
        rows.append([encoded, count])
    return rows


def decode_entry_counts(rows: Iterable) -> dict[Entry, int]:
    """Rebuild a counted entry dict from its JSON wire form."""
    counts: dict[Entry, int] = {}
    for encoded, count in rows:
        tag = encoded[0]
        if tag in _PATH_TAGS:
            entry: Entry = (tag, tuple(encoded[1]), *encoded[2:])
            if tag == "kind":
                entry = (tag, entry[1], Kind(entry[2]))
        else:
            entry = tuple(encoded)
        counts[entry] = count
    return counts


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

    def merge(self, other: "DeltaOps") -> None:
        self.entries_added += other.entries_added
        self.entries_removed += other.entries_removed
        self.adjusted += other.adjusted
        for table, ops in other.postings.items():
            self.postings[table] = self.postings.get(table, 0) + ops


_TABLE_OF_TAG = {
    "path": "paths",
    "eq": "eq",
    "kind": "kinds",
    "key": "keys",
    "tail": "tails",
    "val": "values",
}


class DocumentIndexes:
    """Incrementally maintained postings over a document collection."""

    __slots__ = ("_paths", "_eq", "_kinds", "_keys", "_tails", "_values",
                 "_doc_entries", "_documents", "_shared", "_range_keys")

    def __init__(self) -> None:
        self._paths: dict[KeyPath, set[int]] = {}
        self._eq: dict[KeyPath, dict[str | int, set[int]]] = {}
        self._kinds: dict[KeyPath, dict[Kind, set[int]]] = {}
        self._keys: dict[str, set[int]] = {}
        self._tails: dict[str, dict[str | int, set[int]]] = {}
        self._values: dict[str | int, set[int]] = {}
        # doc id -> counted entries (the refcounts delta maintenance
        # transitions against; also makes remove() walk-free).
        self._doc_entries: dict[int, dict[Entry, int]] = {}
        self._documents = 0
        # The document-independent tuples every stored count dict shares.
        self._shared: dict[tuple, tuple] = {}
        # path -> the sorted ``int`` keys of ``_eq[path]``, what a range
        # look-up bisects.  Derived state: built by the first range
        # query of a path, dropped whenever an ``eq`` posting at that
        # path is created or deleted, never persisted.
        self._range_keys: dict[KeyPath, list[int]] = {}

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def add(self, doc_id: int, tree: JSONTree) -> None:
        counts = tree_entry_counts(tree, self._shared)
        self._doc_entries[doc_id] = counts
        for entry in counts:
            self._add_entry(entry, doc_id)
        self._documents += 1

    def load_counts(self, doc_id: int, counts: dict[Entry, int]) -> None:
        """Register a document from stored entry refcounts (no walk).

        The snapshot-restore fast path: equivalent to :meth:`add` with
        the tree the counts were computed from, but skips the top-down
        walk entirely -- recovery trusts the refcounts it persisted
        (the crash-recovery suite pins them against a from-scratch
        rebuild).
        """
        self._doc_entries[doc_id] = dict(counts)
        for entry in counts:
            self._add_entry(entry, doc_id)
        self._documents += 1

    def remove(self, doc_id: int, tree: JSONTree) -> None:
        """Discard a document's postings (``tree`` as it was indexed).

        Uses the stored entry counts when available (no tree walk);
        the ``tree`` parameter is the fallback for indexes populated
        before the counts existed.
        """
        counts = self._doc_entries.pop(doc_id, None)
        if counts is None:
            counts = tree_entry_counts(tree)
        for entry in counts:
            self._discard_entry(entry, doc_id)
        self._documents -= 1

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
        replacement subtrees).  Only entries whose refcount crosses
        zero touch a posting set -- never the document's unchanged
        postings.  With ``commit=False`` nothing is mutated and the
        returned :class:`DeltaOps` reports what *would* happen (the
        explain dry run).  ``into`` accumulates the report into an
        existing :class:`DeltaOps` (the batch-update hot path) instead
        of allocating one per document.
        """
        counts = self._doc_entries.setdefault(doc_id, {})
        ops = DeltaOps() if into is None else into
        for entry, change in delta.items():
            if not change:
                continue
            before = counts.get(entry, 0)
            after = before + change
            if after < 0:
                raise ValueError(
                    f"entry delta drives {entry!r} below zero for "
                    f"document {doc_id}"
                )
            if commit:
                if after:
                    counts[entry] = after
                else:
                    counts.pop(entry, None)
            if before == 0 and after > 0:
                ops.entries_added += 1
                table = _TABLE_OF_TAG[entry[0]]
                ops.postings[table] = ops.postings.get(table, 0) + 1
                if commit:
                    self._add_entry(entry, doc_id)
            elif before > 0 and after == 0:
                ops.entries_removed += 1
                table = _TABLE_OF_TAG[entry[0]]
                ops.postings[table] = ops.postings.get(table, 0) + 1
                if commit:
                    self._discard_entry(entry, doc_id)
            else:
                ops.adjusted += 1
        return ops

    def entry_counts(self, doc_id: int) -> dict[Entry, int]:
        """The stored counted entries of a document (read-only view)."""
        return self._doc_entries.get(doc_id, {})

    def _add_entry(self, entry: Entry, doc_id: int) -> None:
        tag = entry[0]
        if tag == "path":
            self._paths.setdefault(entry[1], set()).add(doc_id)
        elif tag == "eq":
            values = self._eq.get(entry[1])
            if values is None:
                values = self._eq[entry[1]] = {}
            postings = values.get(entry[2])
            if postings is None:
                values[entry[2]] = {doc_id}
                self._range_keys.pop(entry[1], None)
            else:
                postings.add(doc_id)
        elif tag == "kind":
            self._kinds.setdefault(entry[1], {}).setdefault(
                entry[2], set()
            ).add(doc_id)
        elif tag == "key":
            self._keys.setdefault(entry[1], set()).add(doc_id)
        elif tag == "tail":
            self._tails.setdefault(entry[1], {}).setdefault(
                entry[2], set()
            ).add(doc_id)
        else:  # "val"
            self._values.setdefault(entry[1], set()).add(doc_id)

    def _discard_entry(self, entry: Entry, doc_id: int) -> None:
        tag = entry[0]
        if tag == "path":
            self._discard(self._paths, entry[1], doc_id)
        elif tag == "eq":
            if self._discard_nested(self._eq, entry[1], entry[2], doc_id):
                self._range_keys.pop(entry[1], None)
        elif tag == "kind":
            self._discard_nested(self._kinds, entry[1], entry[2], doc_id)
        elif tag == "key":
            self._discard(self._keys, entry[1], doc_id)
        elif tag == "tail":
            self._discard_nested(self._tails, entry[1], entry[2], doc_id)
        else:  # "val"
            self._discard(self._values, entry[1], doc_id)

    @staticmethod
    def _discard(table: dict, key, doc_id: int) -> None:
        postings = table.get(key)
        if postings is not None:
            postings.discard(doc_id)
            if not postings:
                del table[key]

    @staticmethod
    def _discard_nested(table: dict, outer, inner, doc_id: int) -> bool:
        """Returns whether the ``inner`` posting itself was deleted."""
        nested = table.get(outer)
        if nested is None:
            return False
        postings = nested.get(inner)
        if postings is None:
            return False
        postings.discard(doc_id)
        if postings:
            return False
        del nested[inner]
        if not nested:
            del table[outer]
        return True

    # ------------------------------------------------------------------
    # Lookups (read-only sets; callers must not mutate).
    # ------------------------------------------------------------------

    def docs_with_path(self, path: KeyPath) -> Iterable[int]:
        return self._paths.get(path, _EMPTY)

    def docs_with_value(self, path: KeyPath, value: str | int) -> Iterable[int]:
        return self._eq.get(path, {}).get(value, _EMPTY)

    def docs_with_kind(self, path: KeyPath, kind: Kind) -> Iterable[int]:
        return self._kinds.get(path, {}).get(kind, _EMPTY)

    def docs_with_key(self, key: str) -> Iterable[int]:
        return self._keys.get(key, _EMPTY)

    def docs_with_tail_value(self, key: str, value: str | int) -> Iterable[int]:
        return self._tails.get(key, {}).get(value, _EMPTY)

    def docs_with_any_value(self, value: str | int) -> Iterable[int]:
        return self._values.get(value, _EMPTY)

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
        return set().union(*[values[key] for key in keys[start:stop]])

    def array_free(self, paths: Iterable[KeyPath]) -> bool:
        """Whether no live document has an array at any of ``paths`` or
        at a prefix of one (the root ``()`` included).

        Arrays are the only place a stripped path stands for more than
        one node of a document, so on array-free paths the postings of
        the other look-ups are not a superset of the answer but the
        answer (:attr:`repro.query.ir.LogicalPlan.cover`).  The
        ``kinds`` table is exact for the live documents -- emptied
        postings are deleted, so the last array-bearing document
        leaving restores the property -- and costs one probe per prefix.
        """
        kinds = self._kinds
        for path in paths:
            for end in range(len(path) + 1):
                if Kind.ARRAY in kinds.get(path[:end], _EMPTY):
                    return False
        return True

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def stats(self) -> IndexStats:
        return IndexStats(
            documents=self._documents,
            paths=len(self._paths),
            eq_entries=sum(len(values) for values in self._eq.values()),
            kind_entries=sum(len(kinds) for kinds in self._kinds.values()),
            keys=len(self._keys),
            tail_entries=sum(len(values) for values in self._tails.values()),
            values=len(self._values),
        )

    def snapshot(self) -> dict:
        """A plain-dict copy of every table (test/debug equality aid).

        Includes the per-document entry refcounts, so snapshot equality
        between incrementally maintained and rebuilt-from-scratch
        indexes also pins the counts delta maintenance relies on.
        """
        return {
            "paths": {path: set(docs) for path, docs in self._paths.items()},
            "eq": {
                path: {value: set(docs) for value, docs in values.items()}
                for path, values in self._eq.items()
            },
            "kinds": {
                path: {kind: set(docs) for kind, docs in kinds.items()}
                for path, kinds in self._kinds.items()
            },
            "keys": {key: set(docs) for key, docs in self._keys.items()},
            "tails": {
                key: {value: set(docs) for value, docs in values.items()}
                for key, values in self._tails.items()
            },
            "values": {
                value: set(docs) for value, docs in self._values.items()
            },
            "doc_entries": {
                doc_id: dict(counts)
                for doc_id, counts in self._doc_entries.items()
            },
        }
