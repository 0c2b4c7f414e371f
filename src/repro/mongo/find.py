"""MongoDB's ``find`` filters compiled onto JNL (Section 4.1).

The paper isolates MongoDB's filter parameter as navigation conditions
``P ~ J`` combined with booleans, and proposes JNL as the logic
capturing them.  This module makes that concrete: a filter document in
(a practical subset of) MongoDB's syntax compiles to a unary JNL
formula, evaluated by the Proposition 1 engine.

Supported operators: implicit equality, ``$eq``, ``$ne``, ``$gt``,
``$gte``, ``$lt``, ``$lte``, ``$in``, ``$nin``, ``$exists``, ``$type``,
``$size``, ``$regex``, ``$elemMatch``, ``$and``, ``$or``, ``$nor``,
``$not``.  Comparisons beyond equality use the NodeTest-atom extension
of JNL (Theorem 2's "atomic predicates" point).  As in MongoDB, an
equality against a scalar also matches arrays *containing* the value.

Dotted paths navigate keys; an all-digit segment is an array index
only, never an object key spelled with digits (MongoDB would try both
readings).
"""

from __future__ import annotations

from typing import Any

from repro.automata.keylang import KeyLang
from repro.errors import ParseError
from repro.jnl import ast as jnl
from repro.jnl import builder as q
from repro.logic import nodetests as nt
from repro.model.tree import JSONTree, JSONValue
from repro.query.stages import is_index_segment

__all__ = ["compile_filter"]

_TYPE_TESTS: dict[str, nt.NodeTest] = {
    "object": nt.IsObject(),
    "array": nt.IsArray(),
    "string": nt.IsString(),
    "number": nt.IsNumber(),
    "int": nt.IsNumber(),
}


def _path_steps(path: str) -> list[jnl.Binary]:
    if not path:
        raise ParseError("empty field path in filter")
    steps: list[jnl.Binary] = []
    for segment in path.split("."):
        if is_index_segment(segment):
            steps.append(jnl.Index(int(segment)))
        else:
            steps.append(jnl.Key(segment))
    return steps


def _navigate(path: str, condition: jnl.Unary) -> jnl.Unary:
    """``has(path o <condition>)``."""
    steps = _path_steps(path)
    return q.has(q.compose(*steps, q.test(condition)))


def _scalar_eq(value: JSONValue) -> jnl.Unary:
    """Equality at the reached node, MongoDB-style.

    Matching a scalar also matches arrays containing it; matching an
    array/object is exact.  A float operand is outside the dialect (the
    model's numbers are naturals), as it is for ``$gt``.
    """
    if isinstance(value, float):
        raise ParseError(f"equality against a float ({value!r}) is unsupported")
    doc = JSONTree.from_value(value)
    exact = q.eq_doc(q.eps(), doc)
    if isinstance(value, (dict, list)):
        return exact
    contains = q.eq_doc(q.any_index_axis(), doc)
    return q.disj([exact, contains])


def _operator_condition(operator: str, operand: Any) -> jnl.Unary:
    if operator == "$eq":
        return _scalar_eq(operand)
    if operator == "$ne":
        return q.conj([~_scalar_eq(operand)])
    if operator == "$gt":
        _require_int(operator, operand)
        return q.atom(nt.MinVal(operand))
    if operator == "$gte":
        _require_int(operator, operand)
        return q.atom(nt.MinVal(operand - 1))
    if operator == "$lt":
        _require_int(operator, operand)
        return q.atom(nt.MaxVal(operand))
    if operator == "$lte":
        _require_int(operator, operand)
        return q.atom(nt.MaxVal(operand + 1))
    if operator == "$in":
        _require_list(operator, operand)
        return q.disj([_scalar_eq(item) for item in operand])
    if operator == "$nin":
        _require_list(operator, operand)
        return ~q.disj([_scalar_eq(item) for item in operand])
    if operator == "$type":
        test = _TYPE_TESTS.get(operand)
        if test is None:
            raise ParseError(f"unsupported $type operand {operand!r}")
        return q.atom(test)
    if operator == "$size":
        _require_int(operator, operand)
        return q.conj(
            [
                q.atom(nt.IsArray()),
                q.atom(nt.MinCh(operand)),
                q.atom(nt.MaxCh(operand)),
            ]
        )
    if operator == "$regex":
        if not isinstance(operand, str):
            raise ParseError("$regex takes a string")
        # MongoDB regexes are unanchored searches unless anchored.
        pattern = operand
        prefix = "" if pattern.startswith("^") else ".*"
        suffix = "" if pattern.endswith("$") else ".*"
        pattern = pattern.removeprefix("^").removesuffix("$")
        return q.atom(nt.Pattern(KeyLang.regex(f"{prefix}(?:{pattern}){suffix}")))
    if operator == "$elemMatch":
        if not isinstance(operand, dict):
            raise ParseError("$elemMatch takes a filter document")
        condition = (
            _operators_condition(operand)
            if _is_operator_doc(operand)
            else compile_filter(operand)
        )
        return q.has(q.compose(q.any_index_axis(), q.test(condition)))
    if operator == "$not":
        if not isinstance(operand, dict):
            raise ParseError("$not takes an operator document")
        return ~_operators_condition(operand)
    raise ParseError(f"unsupported operator {operator!r}")


def _require_int(operator: str, operand: Any) -> None:
    # Genuinely integral, not just numeric: the $gte/$lte lowering does
    # operand +- 1 arithmetic on the NodeTest bounds.
    if isinstance(operand, bool) or not isinstance(operand, int):
        raise ParseError(f"{operator} takes an integer, got {operand!r}")


def _require_list(operator: str, operand: Any) -> None:
    if not isinstance(operand, list):
        raise ParseError(f"{operator} takes an array, got {operand!r}")


def _operators_condition(document: dict[str, Any]) -> jnl.Unary:
    return q.conj(
        [_operator_condition(op, operand) for op, operand in document.items()]
    )


def _is_operator_doc(value: Any) -> bool:
    return isinstance(value, dict) and value and all(
        isinstance(key, str) and key.startswith("$") for key in value
    )


def compile_filter(filter_doc: dict[str, Any]) -> jnl.Unary:
    """Compile a MongoDB ``find`` filter into a unary JNL formula."""
    parts: list[jnl.Unary] = []
    for key, value in filter_doc.items():
        if key == "$and":
            _require_list(key, value)
            parts.append(q.conj([compile_filter(sub) for sub in value]))
        elif key == "$or":
            _require_list(key, value)
            parts.append(q.disj([compile_filter(sub) for sub in value]))
        elif key == "$nor":
            _require_list(key, value)
            parts.append(~q.disj([compile_filter(sub) for sub in value]))
        elif key.startswith("$"):
            raise ParseError(f"unsupported top-level operator {key!r}")
        elif _is_operator_doc(value):
            exists_flag = value.get("$exists")
            rest = {op: arg for op, arg in value.items() if op != "$exists"}
            if exists_flag is not None:
                presence = q.has(q.compose(*_path_steps(key)))
                parts.append(presence if exists_flag else ~presence)
            if rest:
                parts.append(_navigate(key, _operators_condition(rest)))
        else:
            parts.append(_navigate(key, _scalar_eq(value)))
    return q.conj(parts)
