"""JSON trees: the paper's formal data model for JSON documents.

Section 3.1 of the paper defines a JSON tree as a structure
``J = (D, Obj, Arr, Str, Int, A, O, val)`` where ``D`` is a tree domain
partitioned into object, array, string and number nodes, ``O`` is the
key-labelled object-child relation, ``A`` the position-labelled
array-child relation, and ``val`` assigns values to string/number
leaves.  The five side conditions of that definition are enforced by
construction here:

1. every object child is reached through exactly one key-labelled edge;
2. keys are unique among the children of an object (determinism);
3. array children are labelled by their position;
4. string and number nodes are leaves;
5. ``val`` is defined exactly on string and number nodes.

The implementation stores the tree in flat arrays indexed by an integer
node id (an *arena*), which keeps traversals allocation-free and lets
every algorithm in the library run iteratively -- the benchmark
workloads include chains far deeper than Python's recursion limit.
"""

from __future__ import annotations

import enum
import json as _json
from typing import Any, Iterable, Iterator

from repro.errors import DuplicateKeyError, ModelError, UnsupportedValueError

__all__ = ["Kind", "JSONTree", "JSONValue", "kind_of"]

# A Python-level JSON value in the paper's abstraction: str, int (natural
# number), list of values, or dict with str keys.
JSONValue = Any


class Kind(enum.IntEnum):
    """The four node types partitioning the tree domain."""

    OBJECT = 0
    ARRAY = 1
    STRING = 2
    NUMBER = 3

    @property
    def is_leaf_kind(self) -> bool:
        return self in (Kind.STRING, Kind.NUMBER)


_NO_PARENT = -1
# Enum member access goes through the metaclass; the materialisation
# kernels test node kinds per container, so they read a plain global.
_OBJECT = Kind.OBJECT


class JSONTree:
    """An immutable JSON tree over an integer node arena.

    Nodes are identified by dense integer ids; the root is node ``0``.
    Use :meth:`from_value` / :meth:`from_json` to build a tree and
    :meth:`to_value` / :meth:`to_json` to serialise it back.

    The class deliberately exposes *navigation-instruction* primitives
    only (Section 2): one can fetch the value under a key, or the i-th
    element of an array, but there is no sibling traversal.
    """

    __slots__ = (
        "_kinds",
        "_parents",
        "_labels",
        "_obj_children",
        "_arr_children",
        "_values",
        "_hashes",
        "_heights",
        "_preorder",
    )

    def __init__(self) -> None:
        self._kinds: list[Kind] = []
        self._parents: list[int] = []
        # Label of the edge from the parent: str for object children,
        # int for array children, None for the root.
        self._labels: list[str | int | None] = []
        self._obj_children: list[dict[str, int] | None] = []
        self._arr_children: list[list[int] | None] = []
        self._values: list[str | int | None] = []
        self._hashes: list[int] | None = None  # lazily computed by equality
        self._heights: list[int] | None = None
        self._preorder: list[int] | None = None  # lazily computed ranks

    # ------------------------------------------------------------------
    # Construction (used by this module and repro.model.builder only).
    # ------------------------------------------------------------------

    def _new_node(self, kind: Kind, parent: int, label: str | int | None) -> int:
        node = len(self._kinds)
        self._kinds.append(kind)
        self._parents.append(parent)
        self._labels.append(label)
        self._obj_children.append({} if kind is Kind.OBJECT else None)
        self._arr_children.append([] if kind is Kind.ARRAY else None)
        self._values.append(None)
        return node

    def _attach(self, parent: int, label: str | int, child: int) -> None:
        kind = self._kinds[parent]
        if kind is Kind.OBJECT:
            children = self._obj_children[parent]
            assert children is not None
            if label in children:
                raise DuplicateKeyError(str(label))
            children[str(label)] = child
        elif kind is Kind.ARRAY:
            children = self._arr_children[parent]
            assert children is not None
            if label != len(children):
                raise ModelError(
                    f"array children must be appended in order; got position "
                    f"{label}, expected {len(children)}"
                )
            children.append(child)
        else:
            raise ModelError("string and number nodes cannot have children")

    @classmethod
    def from_value(cls, value: JSONValue, *, extended: bool = False) -> "JSONTree":
        """Build a JSON tree from a Python value.

        ``value`` may contain ``dict`` (object), ``list``/``tuple``
        (array), ``str`` and ``int``.  With ``extended=True`` the JSON
        literals outside the paper's abstraction are coerced to strings:
        ``True``/``False``/``None`` become ``"true"``/``"false"``/
        ``"null"``.  Floats are always rejected.

        The construction is iterative, so arbitrarily deep documents are
        supported.
        """
        return cls._from_value(value, extended, None)

    @classmethod
    def from_values(
        cls,
        values: Iterable[JSONValue],
        *,
        extended: bool = False,
        interned: dict[str, str] | None = None,
    ) -> list["JSONTree"]:
        """Batch ingestion: one tree per value, with shared interning.

        Real corpora repeat the same keys and short string atoms across
        every document; building the trees through one shared intern
        table stores a single ``str`` object per distinct key/atom, so
        a corpus costs memory proportional to its *distinct* strings
        and the per-tree key dictionaries hit CPython's identity fast
        path on lookup.  Used by :func:`repro.validate.validate_corpus`,
        the validation benchmarks and the document store.

        ``interned`` lets a long-lived owner (a
        :class:`repro.store.Collection`) pass its own table so interning
        extends *across* batches: documents inserted later share the
        keys of everything ingested before them.
        """
        table: dict[str, str] = {} if interned is None else interned
        return [cls._from_value(value, extended, table) for value in values]

    @classmethod
    def _from_value(
        cls,
        value: JSONValue,
        extended: bool,
        interned: dict[str, str] | None,
    ) -> "JSONTree":
        tree = cls()
        root = tree._new_node(kind_of(value, extended), _NO_PARENT, None)
        # Work stack of (node_id, python_value) still to expand.
        stack: list[tuple[int, JSONValue]] = [(root, value)]
        while stack:
            node, val = stack.pop()
            kind = tree._kinds[node]
            if kind is Kind.OBJECT:
                for key, sub in val.items():
                    if not isinstance(key, str):
                        raise UnsupportedValueError(
                            f"object keys must be strings, got {type(key).__name__}"
                        )
                    if interned is not None:
                        key = interned.setdefault(key, key)
                    child = tree._new_node(kind_of(sub, extended), node, key)
                    tree._attach(node, key, child)
                    stack.append((child, sub))
            elif kind is Kind.ARRAY:
                for index, sub in enumerate(val):
                    child = tree._new_node(kind_of(sub, extended), node, index)
                    tree._attach(node, index, child)
                    stack.append((child, sub))
            elif kind is Kind.STRING:
                text = _coerce_string(val)
                if interned is not None:
                    text = interned.setdefault(text, text)
                tree._values[node] = text
            else:  # Kind.NUMBER
                tree._values[node] = val
        return tree

    @staticmethod
    def value_from_json(text: str) -> JSONValue:
        """Parse JSON text into a Python value, with the strict checks.

        Duplicate keys inside one object raise :class:`DuplicateKeyError`
        (Python's ``json`` silently keeps the last one, which would hide
        violations of the paper's determinism condition); floats are
        rejected outright.  Used by :meth:`from_json` and by batch
        ingestion paths that want strict parsing *before* interned tree
        construction (:meth:`repro.store.Collection.from_json_lines`).
        """

        def pairs_hook(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
            result: dict[str, Any] = {}
            for key, val in pairs:
                if key in result:
                    raise DuplicateKeyError(key)
                result[key] = val
            return result

        def reject_float(text_value: str) -> Any:
            raise UnsupportedValueError(
                f"the paper's JSON abstraction has no floats: {text_value}"
            )

        try:
            return _json.loads(
                text, object_pairs_hook=pairs_hook, parse_float=reject_float
            )
        except _json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON text: {exc}") from exc

    @classmethod
    def from_json(cls, text: str, *, extended: bool = False) -> "JSONTree":
        """Parse JSON text into a tree (strict: see :meth:`value_from_json`).

        ``true``/``false``/``null`` are rejected unless ``extended=True``.
        """
        return cls.from_value(cls.value_from_json(text), extended=extended)

    # ------------------------------------------------------------------
    # Node inspection.
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        """Number of nodes (the size ``|J|`` used by the complexity bounds)."""
        return len(self._kinds)

    def nodes(self) -> range:
        """All node ids, in a top-down (parent-before-child) order."""
        return range(len(self._kinds))

    def kind(self, node: int) -> Kind:
        return self._kinds[node]

    def is_object(self, node: int) -> bool:
        return self._kinds[node] is Kind.OBJECT

    def is_array(self, node: int) -> bool:
        return self._kinds[node] is Kind.ARRAY

    def is_string(self, node: int) -> bool:
        return self._kinds[node] is Kind.STRING

    def is_number(self, node: int) -> bool:
        return self._kinds[node] is Kind.NUMBER

    def value(self, node: int) -> str | int:
        """The ``val`` function: defined on string and number nodes only."""
        val = self._values[node]
        if val is None:
            raise ModelError(f"node {node} is not a string or number node")
        return val

    def parent(self, node: int) -> int | None:
        parent = self._parents[node]
        return None if parent == _NO_PARENT else parent

    # ------------------------------------------------------------------
    # Arena views (read-only!).  The evaluators' inner loops run over
    # every node; exposing the flat arrays avoids a Python method call
    # per node.  Callers must never mutate the returned lists.
    # ------------------------------------------------------------------

    def node_kinds(self) -> list[Kind]:
        """``kinds[node]`` for every node (do not mutate)."""
        return self._kinds

    def node_values(self) -> list[str | int | None]:
        """``val`` per node, ``None`` on non-leaves (do not mutate)."""
        return self._values

    def node_parents(self) -> list[int]:
        """Parent ids per node, ``-1`` at the root (do not mutate)."""
        return self._parents

    def node_labels(self) -> list[str | int | None]:
        """Incoming edge labels per node, ``None`` at the root (do not
        mutate)."""
        return self._labels

    def edge_label(self, node: int) -> str | int | None:
        """Label of the edge reaching ``node`` (None for the root)."""
        return self._labels[node]

    # ------------------------------------------------------------------
    # Children access (the JSON navigation primitives).
    # ------------------------------------------------------------------

    def object_keys(self, node: int) -> Iterable[str]:
        children = self._obj_children[node]
        return children.keys() if children is not None else ()

    def object_child(self, node: int, key: str) -> int | None:
        """``J[key]`` on an object node; ``None`` when the key is absent."""
        children = self._obj_children[node]
        if children is None:
            return None
        return children.get(key)

    def array_length(self, node: int) -> int:
        children = self._arr_children[node]
        return len(children) if children is not None else 0

    def array_child(self, node: int, index: int) -> int | None:
        """``J[i]`` on an array node; supports negative indices.

        ``-1`` addresses the last element and ``-j`` the j-th element
        from the end, matching the dual operator the paper mentions
        after Definition 1.
        """
        children = self._arr_children[node]
        if children is None:
            return None
        if index < 0:
            index += len(children)
        if 0 <= index < len(children):
            return children[index]
        return None

    def array_children(self, node: int) -> list[int]:
        children = self._arr_children[node]
        return list(children) if children is not None else []

    def num_children(self, node: int) -> int:
        kind = self._kinds[node]
        if kind is Kind.OBJECT:
            obj = self._obj_children[node]
            assert obj is not None
            return len(obj)
        if kind is Kind.ARRAY:
            arr = self._arr_children[node]
            assert arr is not None
            return len(arr)
        return 0

    def children(self, node: int) -> list[int]:
        kind = self._kinds[node]
        if kind is Kind.OBJECT:
            obj = self._obj_children[node]
            assert obj is not None
            return list(obj.values())
        if kind is Kind.ARRAY:
            arr = self._arr_children[node]
            assert arr is not None
            return list(arr)
        return []

    def edges(self, node: int) -> Iterator[tuple[str | int, int]]:
        """Outgoing edges as ``(label, child)`` pairs.

        Labels are keys (``str``) for objects and positions (``int``)
        for arrays -- the relations ``O`` and ``A`` of the formal model.
        """
        kind = self._kinds[node]
        if kind is Kind.OBJECT:
            obj = self._obj_children[node]
            assert obj is not None
            yield from obj.items()
        elif kind is Kind.ARRAY:
            arr = self._arr_children[node]
            assert arr is not None
            yield from enumerate(arr)

    # ------------------------------------------------------------------
    # Tree-domain view.
    # ------------------------------------------------------------------

    def domain_path(self, node: int) -> tuple[int, ...]:
        """The tree-domain word of ``node`` (a sequence of child indices)."""
        path: list[int] = []
        current = node
        while True:
            parent = self._parents[current]
            if parent == _NO_PARENT:
                break
            label = self._labels[current]
            if isinstance(label, int):
                path.append(label)
            else:
                obj = self._obj_children[parent]
                assert obj is not None
                path.append(list(obj.keys()).index(label))  # type: ignore[arg-type]
            current = parent
        path.reverse()
        return tuple(path)

    def label_path(self, node: int) -> tuple[str | int, ...]:
        """Edge labels from the root down to ``node``."""
        labels: list[str | int] = []
        current = node
        while True:
            parent = self._parents[current]
            if parent == _NO_PARENT:
                break
            label = self._labels[current]
            assert label is not None
            labels.append(label)
            current = parent
        labels.reverse()
        return tuple(labels)

    def descendants(self, node: int) -> Iterator[int]:
        """All nodes of the subtree rooted at ``node`` (preorder, iterative)."""
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self.children(current)))

    def preorder_ranks(self) -> list[int]:
        """``ranks[node]`` = position of ``node`` in preorder (document order).

        Node ids are allocation order, which is *not* preorder (children
        are expanded through a LIFO stack), so document-order output
        needs an explicit rank.  The ranks depend only on the tree
        structure and are computed once, then cached -- sorting a
        selected set of ``k`` nodes into document order is ``O(k log k)``
        instead of the ``O(|J|)`` full-tree scan per query.
        """
        if self._preorder is None:
            ranks = [0] * len(self._kinds)
            for rank, node in enumerate(self.descendants(self.root)):
                ranks[node] = rank
            self._preorder = ranks
        return self._preorder

    def document_order(self, nodes: Iterable[int]) -> list[int]:
        """Sort node ids into document (preorder) order."""
        ranks = self.preorder_ranks()
        return sorted(nodes, key=ranks.__getitem__)

    def postorder(self) -> Iterator[int]:
        """All nodes, children before parents (iterative)."""
        # Children ids are always greater than their parent's id because
        # nodes are allocated top-down, so reversed id order is a valid
        # bottom-up order.
        return iter(range(len(self._kinds) - 1, -1, -1))

    def height(self, node: int | None = None) -> int:
        """Height of the subtree rooted at ``node`` (leaves have height 0)."""
        if self._heights is None:
            heights = [0] * len(self._kinds)
            for current in self.postorder():
                child_heights = [heights[c] for c in self.children(current)]
                heights[current] = 1 + max(child_heights) if child_heights else 0
            self._heights = heights
        return self._heights[self.root if node is None else node]

    # ------------------------------------------------------------------
    # Subtrees and serialisation.
    # ------------------------------------------------------------------

    def subtree(self, node: int) -> "JSONTree":
        """The function ``json(n)``: the subtree rooted at ``node``.

        The paper stresses that every subtree of a JSON tree is itself a
        valid JSON tree; this returns it as an independent tree whose
        root is the given node.
        """
        tree = JSONTree()
        mapping = {node: tree._new_node(self._kinds[node], _NO_PARENT, None)}
        for current in self.descendants(node):
            new_id = mapping[current]
            if self._values[current] is not None:
                tree._values[new_id] = self._values[current]
            for label, child in self.edges(current):
                new_child = tree._new_node(self._kinds[child], new_id, label)
                tree._attach(new_id, label, new_child)
                mapping[child] = new_child
        return tree

    def to_value(
        self, node: int | None = None, paths: dict | None = None
    ) -> JSONValue:
        """Serialise the subtree at ``node`` back to Python values.

        ``paths`` guides the materialisation by navigation instructions
        (the paper's Section-6 reading of a projection: "select only
        those subtrees ... that can be reached by certain navigation
        instructions").  It is a trie of object keys -- ``{key:
        subtrie}``, with ``None`` for "the whole subtree" -- and
        ``paths=None`` itself is the whole document.  Objects are walked
        in document order and only members on a declared path are
        allocated, so the result's key order is a subsequence of the
        document's and the empty trie yields ``{}``.  Anything under a
        leaf is materialised whole, and so is *any array met before a
        path is exhausted*: the trie never says how a consumer crosses
        an array (one index, every element, containment), so it gets all
        of it.  A scalar met early is kept as is.  The result shares no
        container with the tree or with another call.

        This is the per-row entry point of every collection scan (one
        call per materialised document).
        """
        start = self.root if node is None else node
        kinds = self._kinds
        if paths is None or kinds[start] is not _OBJECT:
            return self._fill(start)
        values = self._values
        obj_children = self._obj_children
        root_out: dict = {}
        stack = [(start, paths, root_out)]
        while stack:
            current, trie, out = stack.pop()
            for key, child in obj_children[current].items():  # type: ignore[union-attr]
                if key not in trie:
                    continue
                value = values[child]
                if value is not None:  # string/number leaves carry a value
                    out[key] = value
                    continue
                branch = trie[key]
                if branch is None or kinds[child] is not _OBJECT:
                    out[key] = self._fill(child)
                else:
                    sub: dict = {}
                    out[key] = sub
                    stack.append((child, branch, sub))
        return root_out

    def _fill(self, start: int) -> JSONValue:
        """The whole subtree at ``start`` as Python values.

        Top-down with an explicit stack (no recursion-depth limit):
        each container is allocated when first seen and filled in
        place, leaves are inlined -- one pass, no per-node result
        table.
        """
        kinds = self._kinds
        values = self._values
        obj_children = self._obj_children
        arr_children = self._arr_children
        if values[start] is not None:  # a string/number leaf
            return values[start]
        root_out: JSONValue = {} if kinds[start] is _OBJECT else []
        stack: list[tuple[int, dict | list]] = [(start, root_out)]
        while stack:
            current, out = stack.pop()
            if isinstance(out, dict):
                obj = obj_children[current]
                assert obj is not None
                for key, child in obj.items():
                    value = values[child]
                    if value is not None:  # a string/number leaf
                        out[key] = value
                        continue
                    sub: JSONValue = {} if kinds[child] is _OBJECT else []
                    out[key] = sub
                    stack.append((child, sub))
            else:
                arr = arr_children[current]
                assert arr is not None
                for child in arr:
                    value = values[child]
                    if value is not None:
                        out.append(value)
                        continue
                    sub = {} if kinds[child] is _OBJECT else []
                    out.append(sub)
                    stack.append((child, sub))
        return root_out

    def to_json(self, node: int | None = None, *, indent: int | None = None) -> str:
        return _json.dumps(self.to_value(node), indent=indent, sort_keys=False)

    # ------------------------------------------------------------------
    # Dunder conveniences.
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        text = self.to_json()
        if len(text) > 60:
            text = text[:57] + "..."
        return f"JSONTree({text})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JSONTree):
            return NotImplemented
        from repro.model.equality import trees_equal

        return trees_equal(self, other)

    def __hash__(self) -> int:
        from repro.model.equality import canonical_hash

        return canonical_hash(self, self.root)

    def validate(self) -> None:
        """Check the five conditions of the formal definition.

        Construction already enforces them; this re-checks explicitly
        (useful in tests and after hand-built trees).
        """
        for node in self.nodes():
            kind = self._kinds[node]
            if kind.is_leaf_kind:
                if self._values[node] is None:
                    raise ModelError(f"leaf node {node} has no value")
                if kind is Kind.STRING and not isinstance(self._values[node], str):
                    raise ModelError(f"string node {node} has a non-string value")
                if kind is Kind.NUMBER and not isinstance(self._values[node], int):
                    raise ModelError(f"number node {node} has a non-int value")
            else:
                if self._values[node] is not None:
                    raise ModelError(f"non-leaf node {node} carries a value")
            for label, child in self.edges(node):
                if self._parents[child] != node:
                    raise ModelError(f"broken parent link at node {child}")
                if self._labels[child] != label:
                    raise ModelError(f"broken edge label at node {child}")
            if kind is Kind.ARRAY:
                arr = self._arr_children[node]
                assert arr is not None
                for position, child in enumerate(arr):
                    if self._labels[child] != position:
                        raise ModelError(
                            f"array child {child} mislabelled: "
                            f"{self._labels[child]} != {position}"
                        )


def kind_of(value: JSONValue, extended: bool) -> Kind:
    """Kind of a raw value's root: the one classification ``from_value``,
    the index-entry deltas and the structural summary share.  Raises
    :class:`~repro.errors.UnsupportedValueError` outside the (possibly
    ``extended``) model."""
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


def _coerce_string(value: JSONValue) -> str:
    if isinstance(value, str):
        return value
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise UnsupportedValueError(f"cannot coerce {value!r} to a string")
