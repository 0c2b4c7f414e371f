"""Value-space update programs with delta index maintenance.

The paper's data model treats JSON trees as first-class documents, but
the store so far could only insert and remove them whole; realistic
workloads (counters, enrichment, denormalisation) mutate documents in
place.  This module is the dialect-neutral half of the write path: a
small algebra of **update operations** over plain JSON values, composed
into a :class:`CompiledUpdate` program that applies with spine-copying
(:func:`repro.query.stages.set_path` semantics) and reports exactly
*what* it changed as a list of :class:`Mutation` records -- the
replaced and replacement subtrees, located by stripped key path.

Mutations are what make **delta index maintenance** possible: feeding
each mutation's old/new subtree through
:func:`repro.store.indexes.value_entry_counts` (subtract the old, add
the new) yields the counted entry delta of the whole edit, and
:meth:`repro.store.indexes.DocumentIndexes.apply_entry_delta` then
touches only the postings whose refcount crosses zero -- never the
unchanged remainder of the document.

Nothing here knows about MongoDB update-document syntax;
:mod:`repro.mongo.update` parses ``{"$set": ...}``-style documents
into these operations and wires the result through the collection and
the planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import UpdateError
from repro.query.stages import (
    MISSING,
    is_index_segment,
    resolve_path,
    values_equal,
)
from repro.store.indexes import (
    Entry,
    leaf_entry_delta,
    value_entry_counts,
)

__all__ = [
    "Mutation",
    "CompiledUpdate",
    "mutation_delta",
    "set_op",
    "unset_op",
    "inc_op",
    "mul_op",
    "rename_op",
    "push_op",
    "add_to_set_op",
    "pull_op",
    "pop_op",
    "replace_op",
    "set_path_create",
]

KeyPath = tuple  # stripped key path (array positions dropped)


@dataclass(frozen=True)
class Mutation:
    """One subtree replacement an update performed.

    ``path`` is the *stripped* key path of the mutated node (array
    positions dropped -- the index entry coordinate), ``edge_key`` the
    object key of the edge into it (``None`` for the document root or
    an array element).  ``old``/``new`` are the replaced/replacement
    subtrees, with :data:`~repro.query.stages.MISSING` marking creation
    (no ``old``) or deletion (no ``new``).  No-op edits never produce a
    mutation, so a document is *modified* iff its mutation list is
    non-empty.
    """

    path: KeyPath
    edge_key: str | None
    old: Any
    new: Any


class _NoChange:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_CHANGE"


#: Returned by an edit closure to signal "leave the node untouched".
NO_CHANGE = _NoChange()

# An edit closure: old subtree (or MISSING) -> new subtree, MISSING to
# delete, NO_CHANGE to keep.
Edit = Callable[[Any], Any]
# A compiled operation: (document value, mutation sink) -> new value.
Op = Callable[[Any, list], Any]


def _segment_error(segments: tuple[str, ...], index: int, reason: str) -> UpdateError:
    dotted = ".".join(segments)
    return UpdateError(f"cannot apply update at {dotted!r}: {reason}")


def edit_at(
    value: Any,
    segments: tuple[str, ...],
    edit: Edit,
    *,
    create: bool,
) -> tuple[Any, Mutation | None]:
    """Apply ``edit`` to the node under ``segments``, spine-copying.

    Path semantics match the query side (:func:`repro.query.stages.
    resolve_path`): an ASCII-digit segment is an array index, anything
    else an object key.  With ``create=True`` missing object keys are
    created as nested documents (the ``$set`` family); an array index
    may be created only at exactly the current length (append).  With
    ``create=False`` a missing path is a no-op (the ``$unset`` family).
    Traversing through an existing non-container raises
    :class:`~repro.errors.UpdateError` in create mode and no-ops
    otherwise.

    Returns ``(new_root, mutation)``; ``mutation`` is ``None`` (and
    ``new_root is value``) when nothing changed.
    """
    if not segments:
        raise UpdateError("empty update path")
    outcome = _edit_rec(value, segments, 0, (), edit, create)
    if outcome is None:
        return value, None
    return outcome


def _build_chain(segments: tuple[str, ...], index: int, edit: Edit) -> Any:
    """The nested documents a created path contributes past ``index``."""
    for position in range(index, len(segments)):
        if is_index_segment(segments[position]):
            raise _segment_error(
                segments,
                position,
                "an array index cannot be created inside a new path",
            )
    leaf = edit(MISSING)
    if leaf is NO_CHANGE or leaf is MISSING:
        return leaf
    for segment in reversed(segments[index:]):
        leaf = {segment: leaf}
    return leaf


def _edit_rec(
    node: Any,
    segments: tuple[str, ...],
    index: int,
    path: KeyPath,
    edit: Edit,
    create: bool,
) -> tuple[Any, Mutation] | None:
    """Returns ``(new_node, mutation)`` or ``None`` for a no-op."""
    segment = segments[index]
    last = index == len(segments) - 1
    if is_index_segment(segment):
        if not isinstance(node, list):
            if create:
                raise _segment_error(
                    segments,
                    index,
                    "an array index step needs an existing array",
                )
            return None
        position = int(segment)
        if position > len(node) or (position == len(node) and not create):
            if create:
                raise _segment_error(
                    segments,
                    index,
                    f"array index {position} past the end "
                    f"(length {len(node)})",
                )
            return None
        if position == len(node):  # create-mode append
            if not last:
                raise _segment_error(
                    segments,
                    index,
                    "cannot create a path through a missing array element",
                )
            new = edit(MISSING)
            if new is NO_CHANGE or new is MISSING:
                return None
            return node + [new], Mutation(path, None, MISSING, new)
        child = node[position]
        if last:
            new = edit(child)
            if new is NO_CHANGE:
                return None
            if new is MISSING:
                raise _segment_error(
                    segments,
                    index,
                    "cannot remove an array element by index "
                    "(use $pull or $pop)",
                )
            out = list(node)
            out[position] = new
            return out, Mutation(path, None, child, new)
        deeper = _edit_rec(child, segments, index + 1, path, edit, create)
        if deeper is None:
            return None
        out = list(node)
        out[position] = deeper[0]
        return out, deeper[1]
    # Object-key step.
    if not isinstance(node, dict):
        if create:
            raise _segment_error(
                segments,
                index,
                f"cannot create field {segment!r} inside a non-document",
            )
        return None
    child_path = path + (segment,)
    if segment not in node:
        if not create:
            return None
        chain = _build_chain(segments, index + 1, edit)
        if chain is NO_CHANGE or chain is MISSING:
            return None
        out = dict(node)
        out[segment] = chain
        return out, Mutation(child_path, segment, MISSING, chain)
    child = node[segment]
    if last:
        new = edit(child)
        if new is NO_CHANGE:
            return None
        out = dict(node)
        if new is MISSING:
            del out[segment]
            return out, Mutation(child_path, segment, child, MISSING)
        out[segment] = new
        return out, Mutation(child_path, segment, child, new)
    deeper = _edit_rec(child, segments, index + 1, child_path, edit, create)
    if deeper is None:
        return None
    out = dict(node)
    out[segment] = deeper[0]
    return out, deeper[1]


def set_path_create(value: Any, segments: tuple[str, ...], new: Any) -> Any:
    """``$set`` semantics as a plain function (used by upsert seeding)."""
    updated, _ = edit_at(value, segments, lambda old: new, create=True)
    return updated


# ---------------------------------------------------------------------------
# The update operations.
# ---------------------------------------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _simple(segments: tuple[str, ...], edit: Edit, *, create: bool) -> Op:
    def op(value: Any, mutations: list) -> Any:
        value, mutation = edit_at(value, segments, edit, create=create)
        if mutation is not None:
            mutations.append(mutation)
        return value

    return op


def _append(segments: tuple[str, ...], edit: Edit) -> Op:
    """:func:`_simple` for an ``edit`` that only appends to an existing
    array: one creation per appended element, not the array's
    replacement, so the delta walks only what was appended."""

    def op(value: Any, mutations: list) -> Any:
        value, mutation = edit_at(value, segments, edit, create=True)
        if mutation is not None:
            old = mutation.old
            if old is MISSING:
                mutations.append(mutation)
            else:
                mutations.extend(
                    Mutation(mutation.path, None, MISSING, item)
                    for item in mutation.new[len(old) :]
                )
        return value

    return op


def set_op(segments: tuple[str, ...], operand: Any) -> Op:
    """``$set``: replace (or create) the node with ``operand``."""

    def edit(old: Any) -> Any:
        if old is not MISSING and values_equal(old, operand):
            return NO_CHANGE
        return operand

    return _simple(segments, edit, create=True)


def unset_op(segments: tuple[str, ...]) -> Op:
    """``$unset``: delete the field (missing paths no-op)."""
    return _simple(segments, lambda old: MISSING, create=False)


def _arith_op(
    segments: tuple[str, ...], amount: int, apply: Callable[[int, int], int],
    operator: str,
) -> Op:
    def edit(old: Any) -> Any:
        if old is MISSING:
            return apply(0, amount)  # the field is created, as in MongoDB
        if not _is_int(old):
            raise UpdateError(
                f"{operator} needs a number at {'.'.join(segments)!r}, "
                f"found {old!r}"
            )
        new = apply(old, amount)
        return NO_CHANGE if new == old else new

    return _simple(segments, edit, create=True)


def inc_op(segments: tuple[str, ...], amount: int) -> Op:
    """``$inc``: add to the number (a missing field starts at 0)."""
    return _arith_op(segments, amount, lambda old, n: old + n, "$inc")


def mul_op(segments: tuple[str, ...], factor: int) -> Op:
    """``$mul``: multiply the number (a missing field becomes 0)."""
    return _arith_op(segments, factor, lambda old, n: old * n, "$mul")


def rename_op(
    src_segments: tuple[str, ...], dst_segments: tuple[str, ...]
) -> Op:
    """``$rename``: move the value at one path to another."""

    def op(value: Any, mutations: list) -> Any:
        moved = resolve_path(value, src_segments)
        if moved is MISSING:
            return value
        value, removal = edit_at(
            value, src_segments, lambda old: MISSING, create=False
        )
        if removal is not None:
            mutations.append(removal)
        value, insertion = edit_at(
            value, dst_segments, lambda old: moved, create=True
        )
        if insertion is not None:
            mutations.append(insertion)
        return value

    return op


def push_op(segments: tuple[str, ...], items: tuple) -> Op:
    """``$push`` (with ``$each`` already expanded into ``items``)."""

    def edit(old: Any) -> Any:
        if old is MISSING:
            return list(items)
        if not isinstance(old, list):
            raise UpdateError(
                f"$push needs an array at {'.'.join(segments)!r}, "
                f"found {old!r}"
            )
        if not items:
            return NO_CHANGE
        return old + list(items)

    return _append(segments, edit)


def add_to_set_op(segments: tuple[str, ...], items: tuple) -> Op:
    """``$addToSet``: append the items not already present."""

    def fresh(existing: list, candidates: Iterable[Any]) -> list:
        added: list[Any] = []
        for item in candidates:
            if not any(values_equal(item, seen) for seen in existing):
                existing = existing + [item]
                added.append(item)
        return added

    def edit(old: Any) -> Any:
        if old is MISSING:
            return fresh([], items)
        if not isinstance(old, list):
            raise UpdateError(
                f"$addToSet needs an array at {'.'.join(segments)!r}, "
                f"found {old!r}"
            )
        added = fresh(list(old), items)
        if not added:
            return NO_CHANGE
        return old + added

    return _append(segments, edit)


def pull_op(segments: tuple[str, ...], keep: Callable[[Any], bool]) -> Op:
    """``$pull``: drop array elements *not* satisfying ``keep``.

    The condition compiler (dialect-specific) hands this the *keep*
    predicate -- the negation of the pull condition -- so the neutral
    op never sees filter syntax.
    """

    def edit(old: Any) -> Any:
        if old is MISSING:
            return NO_CHANGE
        if not isinstance(old, list):
            raise UpdateError(
                f"$pull needs an array at {'.'.join(segments)!r}, "
                f"found {old!r}"
            )
        kept = [element for element in old if keep(element)]
        if len(kept) == len(old):
            return NO_CHANGE
        return kept

    return _simple(segments, edit, create=False)


def pop_op(segments: tuple[str, ...], from_front: bool) -> Op:
    """``$pop``: drop the first (``-1``) or last (``1``) element."""

    def edit(old: Any) -> Any:
        if old is MISSING:
            return NO_CHANGE
        if not isinstance(old, list):
            raise UpdateError(
                f"$pop needs an array at {'.'.join(segments)!r}, "
                f"found {old!r}"
            )
        if not old:
            return NO_CHANGE
        return old[1:] if from_front else old[:-1]

    return _simple(segments, edit, create=False)


def replace_op(replacement: Any) -> Op:
    """Whole-document replacement (``replace_one``)."""

    def op(value: Any, mutations: list) -> Any:
        if values_equal(value, replacement):
            return value
        mutations.append(Mutation((), None, value, replacement))
        return replacement

    return op


# ---------------------------------------------------------------------------
# The compiled program.
# ---------------------------------------------------------------------------


class CompiledUpdate:
    """An executable update program, reusable across documents.

    ``ops`` apply in order, each spine-copying, so the input value is
    never mutated -- callers keep the old value, the store keeps the
    new one, and the accumulated :class:`Mutation` list is the exact
    edit script delta index maintenance replays against the postings.
    No evaluation state lives on the compiled object: one program can
    be shared freely across documents, collections and threads.
    """

    __slots__ = ("source", "ops")

    def __init__(self, source: str, ops: tuple[Op, ...]) -> None:
        self.source = source
        self.ops = ops

    def apply(self, value: Any) -> tuple[Any, list[Mutation]]:
        """Run the program; returns the new value and the edit script."""
        mutations: list[Mutation] = []
        for op in self.ops:
            value = op(value, mutations)
        return value, mutations

    def __repr__(self) -> str:
        source = (
            self.source if len(self.source) <= 40 else self.source[:37] + "..."
        )
        return f"CompiledUpdate({source!r})"


def mutation_delta(
    mutations: Iterable[Mutation], *, extended: bool = False
) -> dict[Entry, int]:
    """The counted index-entry delta of one document's edit script.

    Subtracts every replaced subtree's entries and adds every
    replacement's; entries contributed identically by both sides cancel
    to zero, so the surviving dict names exactly the postings delta
    maintenance must touch.  Raises
    :class:`~repro.errors.UnsupportedValueError` when a replacement
    subtree falls outside the (possibly extended) model -- before any
    index state changes.
    """
    delta: dict[Entry, int] = {}
    for mutation in mutations:
        old, new = mutation.old, mutation.new
        if (
            old is not MISSING
            and new is not MISSING
            and not isinstance(old, (dict, list, tuple))
            and not isinstance(new, (dict, list, tuple))
        ):
            # Leaf-for-leaf replacement (the $inc/$set hot case): the
            # path/key entries cancel by construction, so only the
            # kind (when it changes) and leaf-value entries move.
            leaf_entry_delta(
                old, new, mutation.path, extended=extended, counts=delta
            )
            continue
        if mutation.old is not MISSING:
            value_entry_counts(
                mutation.old,
                mutation.path,
                mutation.edge_key,
                extended=extended,
                counts=delta,
                sign=-1,
            )
        if mutation.new is not MISSING:
            value_entry_counts(
                mutation.new,
                mutation.path,
                mutation.edge_key,
                extended=extended,
                counts=delta,
                sign=1,
            )
    return delta
