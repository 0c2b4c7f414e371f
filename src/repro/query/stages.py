"""Physical stage executors for aggregation pipelines.

The paper's front-ends stop at *navigation* (``find``-style matching);
real document-database traffic is dominated by multi-stage aggregation,
which restructures documents as well as filtering them.  This module is
the dialect-neutral half of that subsystem: a small algebra of
**physical stages**, each a generator transformer over plain JSON
values (the documents flowing through a pipeline), plus the shared
value-space semantics they agree on -- dotted-path resolution, the
expression language (``"$field"`` references and literals), the
cross-type sort order and the ``$group`` accumulators.

Stages compose as a chain of generators: a streaming stage
(:class:`FilterStage`, :class:`ProjectStage`, :class:`UnwindStage`,
:class:`SkipStage`, :class:`LimitStage`) holds one document at a time,
while a blocking stage (:class:`SortStage`, :class:`GroupStage`,
:class:`CountStage`) must materialise or fold its whole input before
emitting.  Nothing here knows about MongoDB syntax or about
collections; :mod:`repro.mongo.aggregate` parses Mongo pipeline
documents into these stages and routes leading ``$match`` stages
through the logical-plan IR so the collection planner can prune via
secondary indexes before any stage runs.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import repeat, takewhile
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ParseError
from repro.model.pointer import is_index_segment

__all__ = [
    "MISSING",
    "split_field_path",
    "is_index_segment",
    "insert_path",
    "path_trie",
    "resolve_path",
    "path_getter",
    "set_path",
    "values_equal",
    "sort_key",
    "compile_expr",
    "canonical_group_key",
    "Stage",
    "FilterStage",
    "ProjectStage",
    "UnwindStage",
    "GroupStage",
    "SortStage",
    "SkipStage",
    "LimitStage",
    "CountStage",
    "run_stages",
    "run_stages_ranked",
    "composite_sort_key",
    "DescendingKey",
    "ACCUMULATORS",
]


class _Missing:
    """Sentinel for an unresolvable field path (distinct from null)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MISSING"


MISSING = _Missing()


# ---------------------------------------------------------------------------
# Value-space path navigation (the semantics of dotted field paths).
#
# Mirrors :func:`repro.mongo.find._path_steps`: a segment of ASCII
# digits (:func:`is_index_segment`) is an array index, anything else an
# object key -- so both the compiled (tree) and the value-space
# evaluations of a path agree.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def split_field_path(path: str) -> tuple[str, ...]:
    """Split a dotted field path into segments, rejecting empty ones.

    Memoised (value-space matching re-splits the same filter paths for
    every document; errors are not cached by ``lru_cache``)."""
    if not path:
        raise ParseError("empty field path")
    segments = tuple(path.split("."))
    if any(not segment for segment in segments):
        raise ParseError(f"empty segment in field path {path!r}")
    return segments


def insert_path(trie: dict, keys: tuple[str, ...] | list[str]) -> None:
    """Add one key path to a segment trie (``{key: subtrie}``).

    A leaf (``None``) stands for the whole subtree, so a listed path
    absorbs its extensions whichever is added first."""
    node = trie
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if node is None:  # a shorter path already takes the subtree
            return
    node[keys[-1]] = None


def path_trie(paths: Iterable[tuple[str, ...]]) -> dict | None:
    """The segment trie of a set of navigated paths -- what
    :meth:`repro.model.tree.JSONTree.to_value` takes as ``paths``.

    Each path is cut at its first array-index segment (how an array is
    crossed is not the trie's business: the kernel materialises arrays
    whole) and subsumes its extensions (``"address"`` absorbs
    ``"address.zip"``).  Returns ``None`` -- the whole document -- when
    a path is cut to nothing.
    """
    trie: dict = {}
    for segments in paths:
        keys = list(takewhile(lambda s: not is_index_segment(s), segments))
        if not keys:
            return None
        insert_path(trie, keys)
    return trie


def resolve_path(value: Any, segments: Iterable[str]) -> Any:
    """The value under a dotted path, or :data:`MISSING`."""
    node = value
    for segment in segments:
        if is_index_segment(segment):
            index = int(segment)
            if not isinstance(node, list) or index >= len(node):
                return MISSING
            node = node[index]
        else:
            if not isinstance(node, dict) or segment not in node:
                return MISSING
            node = node[segment]
    return node


def _only_key(segments: tuple[str, ...]) -> str | None:
    """The object key a one-segment, non-index path names, else None."""
    if len(segments) == 1 and not is_index_segment(segments[0]):
        return segments[0]
    return None


def path_getter(segments: tuple[str, ...]) -> Callable[[Any], Any]:
    """:func:`resolve_path` specialised to ``segments`` at compile time.

    The common field reference -- one object key -- becomes a direct
    ``dict`` lookup; anything longer (or an index) keeps the generic
    walk.  Stage kernels and filter predicates call the result once per
    row.
    """
    key = _only_key(segments)
    if key is None:
        return lambda row: resolve_path(row, segments)
    return lambda row: row.get(key, MISSING) if isinstance(row, dict) else MISSING


def set_path(value: Any, segments: tuple[str, ...], new: Any) -> Any:
    """A copy of ``value`` with the node under ``segments`` replaced.

    Only the containers along the path are copied (the spine); siblings
    are shared with the input, which keeps ``$unwind`` linear in the
    number of emitted rows rather than in total document size.
    """
    if not segments:
        return new
    head, rest = segments[0], segments[1:]
    if is_index_segment(head) and isinstance(value, list):
        index = int(head)
        if index >= len(value):
            return value
        out_list = list(value)
        out_list[index] = set_path(value[index], rest, new)
        return out_list
    if isinstance(value, dict) and head in value:
        out = dict(value)
        out[head] = set_path(value[head], rest, new)
        return out
    return value


# ---------------------------------------------------------------------------
# Equality and ordering in value space.
# ---------------------------------------------------------------------------


def values_equal(left: Any, right: Any) -> bool:
    """JSON equality: type-strict (``1 != True``), order-insensitive
    for objects, order-sensitive for arrays."""
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(values_equal(sub, right[key]) for key, sub in left.items())
        )
    if isinstance(left, list):
        return (
            isinstance(right, list)
            and len(left) == len(right)
            and all(values_equal(a, b) for a, b in zip(left, right))
        )
    return type(left) is type(right) and left == right


_NUMBER_RANK = 2


def sort_key(value: Any) -> tuple:
    """A total cross-type order for ``$sort``/``$min``/``$max``.

    Types rank ``missing < null < numbers < strings < booleans <
    arrays < objects`` (a fixed, documented order -- the point is
    determinism shared by the staged executor and the naive reference,
    not BSON fidelity); within a type, the natural order.
    """
    if value is MISSING:
        return (0,)
    if value is None:
        return (1,)
    if isinstance(value, bool):
        return (4, value)
    if isinstance(value, (int, float)):
        return (_NUMBER_RANK, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, list):
        return (5, tuple(sort_key(item) for item in value))
    if isinstance(value, dict):
        items = sorted((key, sort_key(sub)) for key, sub in value.items())
        return (6, tuple(items))
    raise ParseError(f"unorderable value {value!r}")  # pragma: no cover


def canonical_group_key(value: Any) -> Any:
    """A hashable canonical form of a group ``_id`` value.

    Scalars key on ``(type, value)`` directly (type-tagged so ``1``,
    ``1.0`` and ``True`` stay distinct groups); containers fall back to
    canonical JSON text.
    """
    if value is None or isinstance(value, (str, int, float)):
        return (value.__class__, value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


# The classes canonical_group_key tags directly; the $group loop tests
# membership inline instead of paying a call per row.
_SCALAR_CLASSES = frozenset({str, int, float, bool, type(None)})


# ---------------------------------------------------------------------------
# The expression language: "$field" references and literals.
# ---------------------------------------------------------------------------


def compile_expr(
    spec: Any, paths: list[tuple[str, ...]] | None = None
) -> Callable[[Any], Any]:
    """Compile an aggregation expression into ``row -> value``.

    ``"$a.b"`` is a field reference (resolving to :data:`MISSING` when
    absent), any other string/number/boolean/null a literal, an object
    a literal object of sub-expressions (keys resolving to MISSING are
    omitted, as in MongoDB), an array a literal array (MISSING becomes
    null).  Operator expressions (``{"$add": ...}``) are not supported
    and raise :class:`~repro.errors.ParseError`.

    Every field reference is appended to ``paths`` (when given): the
    expression reads nothing else of its row.
    """
    if isinstance(spec, str) and spec.startswith("$"):
        segments = split_field_path(spec[1:])
        if paths is not None:
            paths.append(segments)
        return path_getter(segments)
    if isinstance(spec, dict):
        if any(isinstance(key, str) and key.startswith("$") for key in spec):
            raise ParseError(
                f"unsupported operator expression {spec!r} "
                "(only field references and literals are supported)"
            )
        compiled = {key: compile_expr(sub, paths) for key, sub in spec.items()}

        def build_object(row: Any) -> Any:
            out = {}
            for key, fn in compiled.items():
                value = fn(row)
                if value is not MISSING:
                    out[key] = value
            return out

        return build_object
    if isinstance(spec, list):
        parts = [compile_expr(sub, paths) for sub in spec]

        def build_array(row: Any) -> Any:
            return [None if (v := fn(row)) is MISSING else v for fn in parts]

        return build_array
    return lambda row: spec


# ---------------------------------------------------------------------------
# Accumulators (the $group fold states).
#
# Every accumulator is *mergeable*: ``partial()`` exports the fold
# state as a picklable value, and the ``merge()`` classmethod rebuilds
# one accumulator from any number of such partials so that
# ``merge(partials).result() == whole.result()`` whenever the partials
# were accumulated from any split of the whole input.  That contract is
# what lets ``$group`` run map-side per shard with only partial states
# crossing the process boundary.  Order-sensitive accumulators
# (``$push``) additionally accept a ``rank`` (any totally ordered,
# globally unique token -- the sharded executor uses ``(doc_id, seq)``)
# via ``add_ranked`` so the merged result reproduces the global input
# order, not the concatenation order of the partials.
# ---------------------------------------------------------------------------


class _Accumulator:
    __slots__ = ()

    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def add_ranked(self, value: Any, rank: Any) -> None:
        """``add`` with a global-order token (order-insensitive default)."""
        self.add(value)

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError

    def partial(self) -> Any:  # pragma: no cover - interface
        """The fold state as a picklable, mergeable value."""
        raise NotImplementedError

    @classmethod
    def merge(cls, partials: Iterable[Any]) -> _Accumulator:
        """Rebuild one accumulator from exported partial states."""
        raise NotImplementedError  # pragma: no cover - interface


class _Sum(_Accumulator):
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total: int | float = 0

    def add(self, value: Any) -> None:
        # Non-numeric and missing inputs are ignored, as in MongoDB.
        # JSON numbers are exactly int/float (bool is its own class),
        # and two identity tests beat two isinstance calls per row.
        cls = value.__class__
        if cls is int or cls is float:
            self.total += value

    def result(self) -> Any:
        return self.total

    def partial(self) -> Any:
        return self.total

    @classmethod
    def merge(cls, partials: Iterable[Any]) -> _Sum:
        merged = cls()
        for total in partials:
            merged.total += total
        return merged


class _Avg(_Accumulator):
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total: int | float = 0
        self.count = 0

    def add(self, value: Any) -> None:
        cls = value.__class__
        if cls is int or cls is float:
            self.total += value
            self.count += 1

    def result(self) -> Any:
        return None if self.count == 0 else self.total / self.count

    def partial(self) -> Any:
        # The sum/count pair, not the quotient: averages of averages
        # are wrong as soon as the split is uneven.
        return (self.total, self.count)

    @classmethod
    def merge(cls, partials: Iterable[Any]) -> _Avg:
        merged = cls()
        for total, count in partials:
            merged.total += total
            merged.count += count
        return merged


class _Min(_Accumulator):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = MISSING

    def add(self, value: Any) -> None:
        if value is MISSING:
            return
        if self.best is MISSING or sort_key(value) < sort_key(self.best):
            self.best = value

    def result(self) -> Any:
        return None if self.best is MISSING else self.best

    def partial(self) -> Any:
        # () encodes "no value seen": the MISSING sentinel is a module
        # singleton whose identity does not survive pickling.
        return () if self.best is MISSING else (self.best,)

    @classmethod
    def merge(cls, partials: Iterable[Any]) -> _Min:
        merged = cls()
        for state in partials:
            if state:
                merged.add(state[0])
        return merged


class _Max(_Min):
    __slots__ = ()

    def add(self, value: Any) -> None:
        if value is MISSING:
            return
        if self.best is MISSING or sort_key(value) > sort_key(self.best):
            self.best = value


class _Push(_Accumulator):
    __slots__ = ("items", "ranks")

    def __init__(self) -> None:
        self.items: list[Any] = []
        self.ranks: list[Any] | None = None

    def add(self, value: Any) -> None:
        if value is not MISSING:
            self.items.append(value)

    def add_ranked(self, value: Any, rank: Any) -> None:
        if value is MISSING:
            return
        if self.ranks is None:
            self.ranks = []
        self.items.append(value)
        self.ranks.append(rank)

    def result(self) -> Any:
        return self.items

    def partial(self) -> Any:
        # Rank-tagged items; local indices stand in for ranks when the
        # stream was fed through plain ``add`` (sound only within one
        # partition, which is all un-ranked callers have).
        ranks = range(len(self.items)) if self.ranks is None else self.ranks
        return list(zip(ranks, self.items))

    @classmethod
    def merge(cls, partials: Iterable[Any]) -> _Push:
        tagged: list[tuple[Any, Any]] = []
        for state in partials:
            tagged.extend(state)
        tagged.sort(key=lambda pair: pair[0])
        merged = cls()
        merged.items = [value for _, value in tagged]
        return merged


class _Count(_Accumulator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> Any:
        return self.count

    def partial(self) -> Any:
        return self.count

    @classmethod
    def merge(cls, partials: Iterable[Any]) -> _Count:
        merged = cls()
        merged.count = sum(partials)
        return merged


ACCUMULATORS: dict[str, type[_Accumulator]] = {
    "$sum": _Sum,
    "$avg": _Avg,
    "$min": _Min,
    "$max": _Max,
    "$push": _Push,
    "$count": _Count,
}


# ---------------------------------------------------------------------------
# The physical stages.
# ---------------------------------------------------------------------------


class Stage:
    """One physical pipeline stage: an iterator transformer.

    ``op`` names the surface operator (``"$match"``, ...); ``blocking``
    says whether the stage must see its whole input before emitting
    (``$sort``, ``$group``, ``$count``) or streams one document at a
    time.  The explain report surfaces both.

    A stage also declares what it reads: ``paths`` are the dotted paths
    (as segment tuples) it navigates in an input row -- ``None`` when it
    needs the row whole -- and ``resets`` says that its output rows are
    rebuilt from those paths alone, so nothing else of the input can
    reach a later stage.  :class:`repro.mongo.aggregate.CompiledPipeline`
    folds the two into the pipeline's read set.
    """

    __slots__ = ()

    op = "?"
    blocking = False
    paths: tuple[tuple[str, ...], ...] | None = ()
    resets = False

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.op})"


class FilterStage(Stage):
    """Keep the documents satisfying a predicate (non-leading ``$match``)."""

    __slots__ = ("predicate", "paths")

    op = "$match"

    def __init__(
        self,
        predicate: Callable[[Any], bool],
        paths: tuple[tuple[str, ...], ...] | None = None,
    ) -> None:
        self.predicate = predicate
        self.paths = paths

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        return filter(self.predicate, rows)


class ProjectStage(Stage):
    """Apply a document-to-document transformation (``$project``).

    ``paths`` are the paths an inclusion projection keeps (its output is
    rebuilt from them); ``None`` is an exclusion, which passes whole
    rows through minus the excluded paths.
    """

    __slots__ = ("transform", "paths")

    op = "$project"

    def __init__(
        self,
        transform: Callable[[Any], Any],
        paths: tuple[tuple[str, ...], ...] | None = None,
    ) -> None:
        self.transform = transform
        self.paths = paths

    @property
    def resets(self) -> bool:  # type: ignore[override]
        return self.paths is not None

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        return map(self.transform, rows)


class UnwindStage(Stage):
    """Emit one document per element of the array under a path.

    MongoDB semantics: a missing path, null value or empty array drops
    the document; a non-array value passes the document through
    unchanged; an array emits one copy per element with the path
    replaced by that element.
    """

    __slots__ = ("segments", "paths")

    op = "$unwind"

    def __init__(self, segments: tuple[str, ...]) -> None:
        self.segments = segments
        self.paths = (segments,)

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        segments = self.segments
        get = path_getter(segments)
        # One object key: each emitted row is a shallow copy with that
        # member replaced (what set_path does, without the recursion).
        key = _only_key(segments)
        for row in rows:
            value = get(row)
            if value is MISSING or value is None:
                continue
            if not isinstance(value, list):
                yield row
            elif key is not None:
                for element in value:
                    yield {**row, key: element}
            else:
                for element in value:
                    yield set_path(row, segments, element)


class GroupStage(Stage):
    """Fold the input into one document per distinct ``_id`` value.

    Groups are emitted in first-seen order (a deterministic refinement
    of MongoDB's unordered output, shared with the naive reference
    evaluator).  Accumulator state is one fold cell per (group, field):
    the stage holds the group table, never the input documents.
    """

    __slots__ = ("id_expr", "fields", "paths")

    op = "$group"
    blocking = True
    resets = True

    def __init__(
        self,
        id_expr: Callable[[Any], Any],
        fields: tuple[tuple[str, type[_Accumulator], Callable[[Any], Any]], ...],
        paths: tuple[tuple[str, ...], ...] | None = None,
    ) -> None:
        self.id_expr = id_expr
        self.fields = fields
        self.paths = paths

    def _fold(
        self, ranked_rows: Iterable[tuple[Any, Any]], ranked: bool
    ) -> Iterable[tuple[Any, Any, list[_Accumulator]]]:
        """The group table of a ``(rank, row)`` stream, in first-seen
        order: ``(id_value, first_rank, accumulators)`` per group.

        The per-field unpacking is hoisted out of the row loop: a group
        keeps its ``(bound add, expression)`` pairs beside its cells.
        """
        id_expr = self.id_expr
        factories = [factory for _, factory, _ in self.fields]
        exprs = [expr for _, _, expr in self.fields]
        groups: dict[Any, tuple[Any, Any, list[_Accumulator], list]] = {}
        for rank, row in ranked_rows:
            id_value = id_expr(row)
            if id_value is MISSING:
                id_value = None
            cls = id_value.__class__
            if cls in _SCALAR_CLASSES:
                key: Any = (cls, id_value)
            else:
                key = canonical_group_key(id_value)
            entry = groups.get(key)
            if entry is None:
                cells = [factory() for factory in factories]
                adds = [
                    cell.add_ranked if ranked else cell.add for cell in cells
                ]
                entry = groups[key] = (
                    id_value, rank, cells, list(zip(adds, exprs))
                )
            if ranked:
                for add, expr in entry[3]:
                    add(expr(row), rank)
            else:
                for add, expr in entry[3]:
                    add(expr(row))
        return (entry[:3] for entry in groups.values())

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        for id_value, _, cells in self._fold(zip(repeat(None), rows), False):
            out = {"_id": id_value}
            for (name, _, _), cell in zip(self.fields, cells):
                out[name] = cell.result()
            yield out

    def _covered_cells(
        self,
        groups: Iterable[tuple[Any, Any, Iterable[int], int]],
        columns: tuple[dict[int, Any] | None, ...],
        ranked: bool,
    ) -> Iterator[tuple[Any, Any, list[_Accumulator]]]:
        """``(first_rank, id_value, cells)`` per group partitioned in
        advance (see :meth:`run_covered`), each cell filled as the row
        fold would fill it; ``ranked`` feeds each value with its
        document's ``(doc_id, 0)`` rank, as :meth:`fold_partial` does."""
        for first_rank, id_value, doc_ids, rows in groups:
            cells = []
            ordered = None
            for (_, factory, _), column in zip(self.fields, columns):
                if column is None:
                    cells.append(factory.merge((rows,)))
                    continue
                if ordered is None:
                    ordered = sorted(doc_ids)
                cell = factory()
                values = map(column.get, ordered, repeat(MISSING))
                if ranked:
                    for value, doc_id in zip(values, ordered):
                        cell.add_ranked(value, (doc_id, 0))
                else:
                    add = cell.add
                    for value in values:
                        add(value)
                cells.append(cell)
            yield first_rank, id_value, cells

    def run_covered(
        self,
        groups: Iterable[tuple[Any, Any, Iterable[int], int]],
        columns: Iterable[dict[int, Any] | None],
    ) -> Iterator[Any]:
        """What :meth:`run` emits, from groups partitioned in advance.

        ``groups`` are ``(first_rank, id_value, doc_ids, rows)``: the
        group's first-seen rank, its ``_id``, the documents in it and
        the rows they contribute.  ``columns`` holds per field either
        ``None``, for a field counting rows (``$count``, ``$sum: 1``),
        whose cell is rebuilt from the row count as its partial state,
        or the ``{doc_id: value}`` column its operand reads, fed in
        document-id order into the same cell :meth:`run` would fill.
        Groups come out in ascending first rank, as from
        :meth:`merge_partial`.
        """
        fields = self.fields
        for _, id_value, cells in self._covered_cells(
            sorted(groups, key=itemgetter(0)), tuple(columns), False
        ):
            out = {"_id": id_value}
            for (name, _, _), cell in zip(fields, cells):
                out[name] = cell.result()
            yield out

    def fold_covered(
        self,
        groups: Iterable[tuple[Any, Any, Iterable[int], int]],
        columns: Iterable[dict[int, Any] | None],
    ) -> list[tuple[Any, Any, list[Any]]]:
        """:meth:`fold_partial`'s table, from the groups and columns
        :meth:`run_covered` takes: what a shard ships when its group
        is read off its postings."""
        return [
            (id_value, first_rank, [cell.partial() for cell in cells])
            for first_rank, id_value, cells in self._covered_cells(
                groups, tuple(columns), True
            )
        ]

    def fold_partial(
        self, ranked_rows: Iterable[tuple[Any, Any]]
    ) -> list[tuple[Any, Any, list[Any]]]:
        """Map-side half of the fold: a partial group table.

        Consumes ``(rank, row)`` pairs and returns one
        ``(id_value, first_rank, partial_states)`` entry per distinct
        group seen in this partition.  Everything in the table is
        picklable (partial states encode absence structurally, never as
        the :data:`MISSING` singleton), so the table can cross a
        process boundary to :meth:`merge_partial`.
        """
        return [
            (id_value, first_rank, [cell.partial() for cell in cells])
            for id_value, first_rank, cells in self._fold(ranked_rows, True)
        ]

    def merge_partial(
        self, tables: Iterable[list[tuple[Any, Any, list[Any]]]]
    ) -> Iterator[Any]:
        """Reduce-side half: merge partial group tables and finalise.

        Emits groups in global first-seen order (ascending first rank),
        with each group's ``_id`` taken from the partition that saw the
        group earliest -- exactly what :meth:`run` over the undivided
        stream would have produced.
        """
        merged: dict[Any, list[Any]] = {}
        for table in tables:
            for id_value, first_rank, states in table:
                key = canonical_group_key(id_value)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [id_value, first_rank, [[s] for s in states]]
                    continue
                if first_rank < entry[1]:
                    entry[0] = id_value
                    entry[1] = first_rank
                for pooled, state in zip(entry[2], states):
                    pooled.append(state)
        ordered = sorted(merged.values(), key=lambda entry: entry[1])
        for id_value, _, pooled_states in ordered:
            out = {"_id": id_value}
            for (name, factory, _), states in zip(self.fields, pooled_states):
                out[name] = factory.merge(states).result()
            yield out


class SortStage(Stage):
    """Materialise and sort by one or more dotted paths.

    Multiple keys apply in spec order with later keys breaking ties
    (implemented as repeated stable sorts from the last key to the
    first); missing values order first on ascending keys.
    """

    __slots__ = ("keys", "paths")

    op = "$sort"
    blocking = True

    def __init__(self, keys: tuple[tuple[tuple[str, ...], bool], ...]) -> None:
        self.keys = keys
        self.paths = tuple(segments for segments, _ in keys)

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        materialised = list(rows)
        for segments, descending in reversed(self.keys):
            get = path_getter(segments)
            materialised.sort(
                key=lambda row: sort_key(get(row)), reverse=descending
            )
        return iter(materialised)


class DescendingKey:
    """Inverts the order of one wrapped :func:`sort_key` tuple.

    Lets a multi-key sort with mixed directions collapse into a single
    composite key (tuples compare element-wise, so wrapping just the
    descending components flips their direction without touching the
    others).  That single-key form is what a k-way merge of per-shard
    sorted runs needs: ``heapq.merge`` takes one key function.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __eq__(self, other: Any) -> bool:
        return self.key == other.key

    def __lt__(self, other: Any) -> bool:
        return other.key < self.key

    def __hash__(self) -> int:  # pragma: no cover - keys are never hashed
        return hash(self.key)


def composite_sort_key(
    keys: tuple[tuple[tuple[str, ...], bool], ...],
) -> Callable[[tuple[Any, Any]], tuple]:
    """One composite key over ``(rank, row)`` pairs for a ``$sort`` spec.

    Equivalent to :class:`SortStage`'s repeated stable sorts: the spec
    keys compare in order (descending ones wrapped in
    :class:`DescendingKey`) and the globally unique rank breaks every
    remaining tie, reproducing stability over the undivided stream.
    """

    getters = [(path_getter(segments), descending) for segments, descending in keys]

    def key(pair: tuple[Any, Any]) -> tuple:
        rank, row = pair
        parts: list[Any] = []
        for get, descending in getters:
            part = sort_key(get(row))
            parts.append(DescendingKey(part) if descending else part)
        parts.append(rank)
        return tuple(parts)

    return key


class SkipStage(Stage):
    __slots__ = ("count",)

    op = "$skip"

    def __init__(self, count: int) -> None:
        self.count = count

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        for index, row in enumerate(rows):
            if index >= self.count:
                yield row


class LimitStage(Stage):
    __slots__ = ("count",)

    op = "$limit"

    def __init__(self, count: int) -> None:
        self.count = count

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        if self.count <= 0:  # pragma: no cover - parser rejects it
            return
        for index, row in enumerate(rows):
            yield row
            if index + 1 >= self.count:
                return


class CountStage(Stage):
    """Emit ``{field: n}`` -- nothing at all when the input is empty,
    as in MongoDB."""

    __slots__ = ("field",)

    op = "$count"
    blocking = True
    resets = True

    def __init__(self, field: str) -> None:
        self.field = field

    def run(self, rows: Iterator[Any]) -> Iterator[Any]:
        count = sum(1 for _ in rows)
        if count:
            yield {self.field: count}


def run_stages(stages: Iterable[Stage], rows: Iterator[Any]) -> Iterator[Any]:
    """Chain the stages over ``rows`` as one lazy generator pipeline."""
    for stage in stages:
        rows = stage.run(rows)
    return rows


def run_stages_ranked(
    stages: Iterable[Stage],
    doc_rows: Iterable[tuple[int, Any]],
) -> Iterator[tuple[tuple[int, int], Any]]:
    """Run per-row stages over ``(doc_id, value)`` pairs, keeping ranks.

    Each output row carries a ``(doc_id, seq)`` rank -- ``seq`` numbers
    the rows one input document expanded into (``$unwind`` fan-out), so
    ranks are globally unique and ordered exactly like the undivided
    stream.  Only valid for streaming stages whose output rows each
    derive from a single input row (``$match``/``$project``/
    ``$unwind``); blocking or window stages would need cross-document
    state and are the coordinator's job.
    """
    stage_list = tuple(stages)
    if not stage_list:
        for doc_id, value in doc_rows:
            yield (doc_id, 0), value
        return
    for doc_id, value in doc_rows:
        for seq, row in enumerate(run_stages(stage_list, iter((value,)))):
            yield (doc_id, seq), row
