"""JSON Pointer (RFC 6901) -- the navigation syntax used by ``$ref``.

JSON Schema's recursion mechanism (Section 5.3) fetches definitions with
references such as ``#/definitions/email``.  This module parses that
fragment syntax into navigation steps and resolves them against either
a :class:`~repro.model.tree.JSONTree` or a plain Python value.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import NavigationError, ParseError
from repro.model.tree import JSONTree

__all__ = [
    "is_index_segment",
    "parse_pointer",
    "resolve_pointer",
    "resolve_in_value",
    "pointer_to_steps",
]


def is_index_segment(segment: str) -> bool:
    """Whether a path segment / pointer token addresses an array position.

    ASCII decimal digits only -- exactly the strings ``int()`` reads
    back as a natural number.  ``str.isdigit`` alone also accepts
    ``"²"`` or ``"٣"``, which ``int()`` rejects or maps to another
    position; every other segment is an object key.  The one test
    behind dotted field paths (:func:`repro.query.stages.split_field_path`
    and its consumers) and JSON pointers.
    """
    return segment.isascii() and segment.isdigit()


def parse_pointer(text: str) -> list[str]:
    """Parse a JSON Pointer (optionally preceded by ``#``) into tokens.

    ``~0``/``~1`` escapes are decoded per RFC 6901.  The empty pointer
    refers to the whole document.
    """
    if text.startswith("#"):
        text = text[1:]
    if text == "":
        return []
    if not text.startswith("/"):
        raise ParseError(f"JSON pointer must start with '/': {text!r}")
    tokens = []
    for raw in text[1:].split("/"):
        tokens.append(raw.replace("~1", "/").replace("~0", "~"))
    return tokens


def pointer_to_steps(tokens: Sequence[str]) -> list[str | int]:
    """Convert pointer tokens to navigation steps (digits become indices)."""
    steps: list[str | int] = []
    for token in tokens:
        if is_index_segment(token):
            steps.append(int(token))
        else:
            steps.append(token)
    return steps


def resolve_pointer(tree: JSONTree, pointer: str, start: int | None = None) -> int:
    """Resolve a pointer against a JSON tree; returns the node id."""
    tokens = parse_pointer(pointer)
    node = tree.root if start is None else start
    for token in tokens:
        child = tree.object_child(node, token)
        if child is None and is_index_segment(token):
            child = tree.array_child(node, int(token))
        if child is None:
            raise NavigationError(f"pointer {pointer!r} failed at token {token!r}")
        node = child
    return node


def resolve_in_value(value: Any, pointer: str) -> Any:
    """Resolve a pointer against a plain Python JSON value."""
    current = value
    for token in parse_pointer(pointer):
        if isinstance(current, dict):
            if token not in current:
                raise NavigationError(
                    f"pointer {pointer!r}: key {token!r} not found"
                )
            current = current[token]
        elif isinstance(current, list):
            if not is_index_segment(token) or int(token) >= len(current):
                raise NavigationError(
                    f"pointer {pointer!r}: bad array index {token!r}"
                )
            current = current[int(token)]
        else:
            raise NavigationError(
                f"pointer {pointer!r}: cannot descend into atomic value"
            )
    return current
