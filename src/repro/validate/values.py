"""Raw-value primitives for the validators' no-tree fast path.

The compiled validators can run directly over Python values (``dict`` /
``list`` / ``str`` / ``int``) without materialising a
:class:`~repro.model.tree.JSONTree` -- the corpus-validation workload
parses JSON once and never needs the arena.  This module holds the
value-level counterparts of the tree primitives:

* :func:`check_supported` -- the paper's abstraction check, mirroring
  ``JSONTree.from_value`` (no floats, booleans or ``null``);
* :func:`canonical_value` -- a hashable canonical form whose equality
  coincides exactly with subtree equality of the corresponding trees
  (objects are unordered, arrays ordered), used for ``enum`` membership
  and the ``Unique``/``uniqueItems`` distinctness tests.

The fast path checks values *lazily*: a value the schema never inspects
(e.g. under an unconstrained key) is not kind-checked, whereas
``from_value`` rejects unsupported values anywhere in the document.
Positions the program does reach raise the same
:class:`~repro.errors.UnsupportedValueError`.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import UnsupportedValueError

__all__ = ["check_supported", "check_key", "canonical_value", "children_count"]


def check_supported(value: Any) -> None:
    """Raise unless ``value``'s top level is in the paper's abstraction.

    Called by the compiled ops on a kind mismatch, so that e.g. a float
    reaching a ``{"type": "number"}`` op raises exactly like
    ``JSONTree.from_value`` would, instead of silently failing the op.
    """
    if isinstance(value, bool) or not isinstance(
        value, (dict, list, tuple, str, int)
    ):
        raise UnsupportedValueError(
            f"unsupported JSON value of type {type(value).__name__}: {value!r}"
        )


def check_key(key: Any) -> None:
    """Raise unless ``key`` is a string (the model's object keys are)."""
    if not isinstance(key, str):
        raise UnsupportedValueError(
            f"object keys must be strings, got {type(key).__name__}"
        )


def children_count(value: Any) -> int:
    """The number of children (``MinCh``/``MaxCh``); leaves have none."""
    if isinstance(value, (dict, list, tuple)):
        return len(value)
    check_supported(value)
    return 0


def canonical_value(value: Any) -> Hashable:
    """A hashable form equal iff the values denote equal JSON trees.

    Strings and numbers map to themselves, arrays to tuples, objects to
    frozensets of ``(key, canonical child)`` pairs -- order-insensitive,
    matching the unordered object semantics of
    :func:`repro.model.equality.subtree_equal`.  The mapping is
    injective up to JSON equality, so comparing canonical forms is an
    *exact* equality test, not a hash filter.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        check_supported(value)  # always raises
    if isinstance(value, int):
        return value
    if isinstance(value, dict):
        pairs = []
        for key, sub in value.items():
            check_key(key)
            pairs.append((key, canonical_value(sub)))
        return frozenset(pairs)
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(sub) for sub in value)
    check_supported(value)  # always raises
    raise AssertionError("unreachable")  # pragma: no cover
