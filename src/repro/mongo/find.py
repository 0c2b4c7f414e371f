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

import json
from typing import Any, Iterator

from repro.automata.keylang import KeyLang
from repro.errors import ParseError
from repro.jnl import ast as jnl
from repro.jnl import builder as q
from repro.logic import nodetests as nt
from repro.model.tree import JSONTree, JSONValue, Kind
from repro.query import ir
from repro.query.stages import is_index_segment

__all__ = ["compile_filter", "filter_shape", "unshape"]

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


#: How each comparison lowers its operand: ``$gte: c`` is ``Min(c - 1)``.
_BOUND_SHIFT = {"$gt": 0, "$gte": -1, "$lt": 0, "$lte": 1}

# Shape nodes: an object is ``(dict, key, node, key, node, ...)`` in key
# order, an array ``(list, node, ...)``, a hole an ``ir.Param``, a
# literal scalar ``(its class, value)`` -- so ``1``, ``1.0`` and ``True``
# stay apart -- and any other literal ``(_TEXT, its canonical JSON)``.
_TEXT = object()
_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=repr
).encode
_SCALARS = (int, str, float, bool, type(None))
_PARAMS: dict[tuple[type, int], ir.Param] = {}


def _literal(value: Any) -> tuple:
    if value.__class__ in _SCALARS:
        return (value.__class__, value)
    return (_TEXT, _canonical(value))


class _Shape:
    """One walk of a filter in :func:`compile_filter`'s terms, replacing
    every constant the plan can bind with a hole."""

    __slots__ = ("constants", "classes", "bounds", "raws")

    def __init__(self) -> None:
        self.constants: list[str | int] = []  # one lowered value per hole
        self.classes: dict[tuple[type, str | int], int] = {}
        self.bounds: list[int] = []  # holes used as range bounds
        self.raws: list[str | int] = []  # every constant as written

    def hole(self, raw: str | int, lowered: str | int, bound: bool = False) -> ir.Param:
        self.raws.append(raw)
        # Constants that lower to one value share one hole: the lowering
        # dedupes and absorbs predicates by equality, so which of them
        # are equal is part of the shape.
        cls = lowered.__class__
        index = self.classes.get((cls, lowered))
        if index is None:
            index = self.classes[cls, lowered] = len(self.constants)
            self.constants.append(lowered)
        if bound:
            self.bounds.append(index)
        param = _PARAMS.get((cls, index))
        if param is None:
            kind = Kind.NUMBER if cls is int else Kind.STRING
            param = _PARAMS[cls, index] = ir.Param(index, kind)
        return param

    def equality(self, value: Any) -> Any:
        if value.__class__ is int or value.__class__ is str:
            return self.hole(value, value)
        return _literal(value)  # bool, float, object, array: stays literal

    def filter(self, document: Any) -> tuple:
        if not isinstance(document, dict):
            return _literal(document)
        shaped: list[Any] = [dict]
        # Keys in sorted order, so holes are numbered the same however
        # the caller ordered an otherwise equal filter.
        items = document.items()
        for key, value in sorted(items) if len(items) > 1 else items:
            shaped.append(key)
            cls = value.__class__
            if (cls is int or cls is str) and key.__class__ is str and key[:1] != "$":
                shaped.append(self.hole(value, value))  # the common point read
            elif key in ("$and", "$or", "$nor") and isinstance(value, list):
                shaped.append((list, *[self.filter(sub) for sub in value]))
            elif not isinstance(key, str) or key.startswith("$"):
                shaped.append(_literal(value))
            elif _is_operator_doc(value):
                shaped.append(self.operators(value))
            else:
                shaped.append(self.equality(value))
        return tuple(shaped)

    def operators(self, document: dict[str, Any]) -> tuple:
        shaped: list[Any] = [dict]
        for operator, operand in sorted(document.items()):
            shaped.append(operator)
            if operator in ("$eq", "$ne"):
                shaped.append(self.equality(operand))
            elif operator in ("$in", "$nin") and isinstance(operand, list):
                shaped.append((list, *[self.equality(item) for item in operand]))
            elif operator in _BOUND_SHIFT and operand.__class__ is int:
                lowered = operand + _BOUND_SHIFT[operator]
                shaped.append(self.hole(operand, lowered, True))
            elif operator == "$elemMatch" and isinstance(operand, dict):
                shaped.append(
                    self.operators(operand)
                    if _is_operator_doc(operand)
                    else self.filter(operand)
                )
            elif operator == "$not" and isinstance(operand, dict):
                shaped.append(self.operators(operand))
            else:  # $exists, $type, $size, $regex: stay literal
                shaped.append(_literal(operand))
        return tuple(shaped)


def filter_shape(
    filter_doc: dict[str, Any],
) -> tuple[tuple, list[str | int], list[str | int]]:
    """A filter's shape: ``(key, constants, raws)``.

    The key is ``filter_doc`` with each int or str constant of an
    equality, ``$in``/``$nin`` item or comparison replaced by a hole
    (an :class:`~repro.query.ir.Param` typed by the constant's kind),
    plus the *bound order*.  ``constants[i]`` is hole ``i``'s value as
    lowered -- ``{"$gte": 5}`` and ``{"$gt": 4}`` both lower to
    ``Min(4)`` and so share one hole -- and the bound order lists the
    holes used as comparison bounds by increasing value, which is what
    the lowering's ``max``/``min`` interval folding reads.  Two filters
    with equal keys compile to formulas that differ only in those
    constants, and lower to the same predicate up to them.  Everything
    else -- ``$size``, ``$regex``, ``$type``, ``$exists``, object/array,
    boolean and float operands -- stays literal.  ``raws`` are the
    constants as written, in walk order: with the key they give the
    filter back (:func:`unshape`).
    """
    shape = _Shape()
    shaped = shape.filter(filter_doc)
    bounds = shape.bounds
    if bounds:
        order = tuple(sorted(set(bounds), key=shape.constants.__getitem__))
    else:
        order = ()
    return (shaped, order), shape.constants, shape.raws


def unshape(key: tuple, raws: list[str | int]) -> Any:
    """The filter a :func:`filter_shape` key and its raws were taken of."""
    return _unshape(key[0], iter(raws))


def _unshape(node: Any, constants: Iterator[str | int]) -> Any:
    if node.__class__ is ir.Param:
        return next(constants)
    tag = node[0]
    if tag is dict:
        return {
            node[at]: _unshape(node[at + 1], constants) for at in range(1, len(node), 2)
        }
    if tag is list:
        return [_unshape(item, constants) for item in node[1:]]
    if tag is _TEXT:
        return json.loads(node[1])
    return node[1]


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
