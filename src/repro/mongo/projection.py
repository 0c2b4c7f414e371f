"""MongoDB's ``find`` projection: the paper's Section-6 outlook, built.

Section 6 leaves the *second* argument of ``find`` — the projection —
as future work: "the idea of the projection argument is to select only
those subtrees of input documents that can be reached by certain
navigation instructions, thus defining a JSON to JSON transformation".
This module implements exactly that transformation for the practical
core of MongoDB's projection language:

* inclusion projections ``{"a": 1, "b.c": 1}`` — keep only the listed
  paths (an object containing none of them projects to ``{}``);
* exclusion projections ``{"a": 0, "b.c": 0}`` — keep everything else;
* dotted paths traverse objects; a path *through* an array applies to
  every element (MongoDB semantics);
* mixing inclusion and exclusion in one projection is rejected, as in
  MongoDB.

The transformation is defined on Python values and on
:class:`~repro.model.tree.JSONTree` (producing a new tree), keeping the
"navigation instructions select subtrees" reading of the paper.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ParseError
from repro.model.tree import JSONTree, JSONValue
from repro.query.stages import insert_path

__all__ = ["Projection"]

_LEAF = None  # sentinel: the path ends here


class Projection:
    """A parsed projection document.

    >>> projection = Projection({"name.first": 1, "age": 1})
    >>> projection.apply_value({"name": {"first": "J", "last": "D"},
    ...                         "age": 3, "x": 0})
    {'name': {'first': 'J'}, 'age': 3}
    """

    def __init__(self, spec: dict[str, Any]) -> None:
        if not isinstance(spec, dict):
            raise ParseError("a projection is a JSON object")
        modes = set()
        for key, flag in spec.items():
            if flag in (0, False):
                modes.add("exclude")
            elif flag in (1, True):
                modes.add("include")
            else:
                raise ParseError(
                    f"projection values must be 0 or 1, got {flag!r}"
                )
            if not key:
                raise ParseError("empty projection path")
        if len(modes) > 1:
            raise ParseError(
                "cannot mix inclusion and exclusion in one projection"
            )
        self.include = modes != {"exclude"}
        # A trie of path segments; None marks the end of a listed path.
        self.paths: dict = {}
        for key in spec:
            insert_path(self.paths, key.split("."))

    # ------------------------------------------------------------------

    def apply_value(self, value: JSONValue) -> JSONValue:
        """Project a Python JSON value (the find() transformation)."""
        if self.include:
            projected = _include(value, self.paths)
            # MongoDB returns {} rather than dropping the document.
            return {} if projected is _MISSING else projected
        return _exclude(value, self.paths)

    def value_of(self, tree: JSONTree, node: int | None = None) -> JSONValue:
        """The projection of a JSON tree, as a Python value.

        An inclusion names the paths it keeps, so only those subtrees
        are materialised (:meth:`JSONTree.to_value` with ``paths``:
        arrays on the way come whole, which the element-wise rule
        needs); an exclusion starts from the whole document.
        """
        paths = self.paths if self.include else None
        return self.apply_value(tree.to_value(node, paths))

    def apply(self, tree: JSONTree, node: int | None = None) -> JSONTree:
        """Project a JSON tree into a new tree."""
        return JSONTree.from_value(self.value_of(tree, node))


_MISSING = object()


def _include(value: JSONValue, trie: dict) -> Any:
    if trie is _LEAF:
        return value
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            branch = trie.get(key, _MISSING)
            if branch is _MISSING:
                continue
            projected = _include(sub, branch)
            if projected is not _MISSING:
                out[key] = projected
        return out
    if isinstance(value, list):
        # A projection path through an array applies element-wise;
        # elements with nothing selected disappear (MongoDB keeps
        # documents but drops non-matching scalars).
        out_list = []
        for item in value:
            projected = _include(item, trie)
            if projected is not _MISSING and projected != {}:
                out_list.append(projected)
            elif isinstance(item, dict):
                out_list.append({})
        return out_list
    # An atomic value below an unfinished path: nothing to select.
    return _MISSING


def _exclude(value: JSONValue, trie: dict) -> JSONValue:
    if trie is _LEAF:
        raise AssertionError("exclusion leaves are handled by the caller")
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            branch = trie.get(key, _MISSING)
            if branch is _LEAF:
                continue  # excluded
            if branch is _MISSING:
                out[key] = sub
            else:
                out[key] = _exclude(sub, branch)
        return out
    if isinstance(value, list):
        return [_exclude(item, trie) for item in value]
    return value
