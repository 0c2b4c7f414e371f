"""The MongoDB filter dialect, and both of its lowerings.

The paper (Section 4.1) isolates MongoDB's filter parameter as
navigation conditions ``P ~ J`` combined with booleans, and proposes
JNL as the logic capturing them.  :func:`compile_filter` compiles a
filter document in (a practical subset of) MongoDB's syntax to a unary
JNL formula, which the planner lowers (plans keyed by
:func:`filter_shape`).  :func:`compile_value_filter` reads the same
filter in value space: ``$match`` past the pipeline head, update
targets and, through :func:`compile_operators`, ``$pull`` conditions.

Supported operators: implicit equality, ``$eq``, ``$ne``, ``$gt``,
``$gte``, ``$lt``, ``$lte``, ``$in``, ``$nin``, ``$exists``, ``$type``,
``$size``, ``$regex``, ``$elemMatch``, ``$and``, ``$or``, ``$nor``,
``$not``.  Comparisons beyond equality use the NodeTest-atom extension
of JNL (Theorem 2's "atomic predicates" point).  As in MongoDB, an
equality against a scalar also matches arrays *containing* the value,
and ``$regex`` is an unanchored search.  A dotted path's all-digit
segment is an array index only, never an object key spelled with
digits (MongoDB would try both readings).  Float operands and regexes
beyond the KeyLang subset are value-space only: the JNL lowering
raises :class:`~repro.errors.ParseError` for them.
"""

from __future__ import annotations

import json
import re
from operator import ge, gt, le, lt
from typing import Any, Callable, Iterator

from repro.automata.keylang import KeyLang
from repro.errors import ParseError
from repro.jnl import ast as jnl
from repro.jnl import builder as q
from repro.logic import nodetests as nt
from repro.model.tree import JSONTree, JSONValue, Kind
from repro.query import ir
from repro.query.stages import (
    MISSING,
    is_index_segment,
    path_getter,
    split_field_path,
    values_equal,
)

__all__ = [
    "compile_filter",
    "compile_operators",
    "compile_value_filter",
    "filter_shape",
    "unshape",
]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: ``$type`` operands: the JNL node test and the value-space check (the
#: model's numbers are naturals, so ``"int"`` differs only in value space).
_TYPES: dict[str, tuple[nt.NodeTest, Callable[[Any], bool]]] = {
    "object": (nt.IsObject(), lambda node: isinstance(node, dict)),
    "array": (nt.IsArray(), lambda node: isinstance(node, list)),
    "string": (nt.IsString(), lambda node: isinstance(node, str)),
    "number": (nt.IsNumber(), _is_number),
    "int": (nt.IsNumber(), lambda node: node.__class__ is int),  # no bool/float
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
    if operator in _BOUND_SHIFT:
        _require_int(operator, operand)
        bound = nt.MinVal if operator.startswith("$gt") else nt.MaxVal
        return q.atom(bound(operand + _BOUND_SHIFT[operator]))
    if operator in ("$in", "$nin"):
        _require_list(operator, operand)
        found = q.disj([_scalar_eq(item) for item in operand])
        return found if operator == "$in" else ~found
    if operator == "$type":
        return q.atom(_type_entry(operand)[0])
    if operator == "$size":
        _require_int(operator, operand)
        tests = (nt.IsArray(), nt.MinCh(operand), nt.MaxCh(operand))
        return q.conj([q.atom(test) for test in tests])
    if operator == "$regex":
        return q.atom(nt.Pattern(KeyLang.regex(_search_pattern(operand))))
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


def _type_entry(operand: Any) -> tuple[nt.NodeTest, Callable[[Any], bool]]:
    entry = _TYPES.get(operand) if isinstance(operand, str) else None
    if entry is None:
        raise ParseError(f"unsupported $type operand {operand!r}")
    return entry


#: A regex token (an escape, a ``[...]`` class or one character), and
#: the letter escapes KeyLang reads as :mod:`re` does.
_REGEX_TOKEN = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]?|.", re.S)
_SHARED_ESCAPES = frozenset("dDwWsSntrfv")


def _compile_regex(operand: Any) -> re.Pattern:
    if not isinstance(operand, str):
        raise ParseError("$regex takes a string")
    try:
        # Class escapes (\d, \w, \s) are ASCII, as in MongoDB's PCRE
        # and in the KeyLang lowering.
        return re.compile(operand, re.ASCII)
    except re.error as exc:
        raise ParseError(f"invalid $regex pattern {operand!r}: {exc}") from exc


def _search_pattern(operand: Any) -> str:
    """A ``$regex`` search as the anchored KeyLang pattern it matches.

    Each top-level alternative is anchored on its own: a leading ``^``
    pins it to the start, a trailing ``$`` to the end or a final
    newline, ``.*`` pads an open end, and ``.`` stops at a newline, as
    in :mod:`re`.  Any other unescaped ``^``/``$`` outside a class, a
    letter escape KeyLang reads as a literal (``\\b``) and a possessive
    quantifier put the pattern outside the dialect.
    """
    _compile_regex(operand)
    outside = f"$regex {operand!r} is outside the find dialect"
    alternatives: list[list[str]] = [[]]
    depth = 0
    previous = ""
    for token in _REGEX_TOKEN.findall(operand):
        escaped = {c for c in re.findall(r"\\(.)", token, re.S) if c.isascii()}
        possessive = token == "+" and previous in ("*", "+", "?", "}")
        if possessive or {c for c in escaped if c.isalnum()} - _SHARED_ESCAPES:
            raise ParseError(outside)
        previous = token
        if token == "|" and not depth:
            alternatives.append([])
            continue
        depth += (token == "(") - (token == ")")
        alternatives[-1].append("[^\\n]" if token == "." else token)
    parts = []
    for tokens in alternatives:
        head = tokens[:1] == ["^"]
        tail = len(tokens) > head and tokens[-1] == "$"
        body = tokens[head : len(tokens) - tail]
        if "^" in body or "$" in body:
            raise ParseError(outside)
        open_ = "" if head else ".*"
        parts.append(f"{open_}(?:{''.join(body)})" + ("\\n?" if tail else ".*"))
    return parts[0] if len(parts) == 1 else "|".join(f"(?:{part})" for part in parts)


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
        if key in ("$and", "$or", "$nor"):
            _require_list(key, value)
            subs = [compile_filter(sub) for sub in value]
            found = q.conj(subs) if key == "$and" else q.disj(subs)
            parts.append(~found if key == "$nor" else found)
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


# ---------------------------------------------------------------------------
# The same dialect in value space: a path reaches at most one node, a
# navigated condition needs it to exist, and each operator checks its
# operand once, while its closure is built -- so a bad filter fails at
# compile time whether or not a row ever reaches it.
# ---------------------------------------------------------------------------


def _eq_mongo(node: Any, operand: Any) -> bool:
    """MongoDB equality at a node: exact, or array-containment for
    scalar operands."""
    if values_equal(node, operand):
        return True
    if isinstance(operand, (dict, list)):
        return False
    return isinstance(node, list) and any(
        values_equal(element, operand) for element in node
    )


_COMPARISONS = {"$gt": gt, "$gte": ge, "$lt": lt, "$lte": le}


def _operator_test(operator: str, operand: Any) -> Callable[[Any], bool]:
    """One field operator as a predicate on the node its path reached."""
    if operator == "$eq":
        return lambda node: _eq_mongo(node, operand)
    if operator == "$ne":
        return lambda node: not _eq_mongo(node, operand)
    compare = _COMPARISONS.get(operator)
    if compare is not None:
        if not _is_number(operand):
            raise ParseError(f"{operator} takes a number, got {operand!r}")
        return lambda node: _is_number(node) and compare(node, operand)
    if operator in ("$in", "$nin"):
        _require_list(operator, operand)
        found = lambda node: any(_eq_mongo(node, item) for item in operand)
        return found if operator == "$in" else lambda node: not found(node)
    if operator == "$type":
        return _type_entry(operand)[1]
    if operator == "$size":
        _require_int(operator, operand)
        return lambda node: isinstance(node, list) and len(node) == operand
    if operator == "$regex":
        search = _compile_regex(operand).search
        return lambda node: isinstance(node, str) and search(node) is not None
    if operator == "$elemMatch":
        if not isinstance(operand, dict):
            raise ParseError("$elemMatch takes a filter document")
        test = (
            compile_operators(operand)
            if _is_operator_doc(operand)
            else compile_value_filter(operand)
        )
        return lambda node: isinstance(node, list) and any(map(test, node))
    if operator == "$not":
        if not isinstance(operand, dict):
            raise ParseError("$not takes an operator document")
        test = compile_operators(operand)
        return lambda node: not test(node)
    raise ParseError(f"unsupported operator {operator!r}")


def compile_operators(document: dict[str, Any]) -> Callable[[Any], bool]:
    """An operator document (``{"$gt": 1, "$ne": 3}``) as one predicate
    on a node.  ``$exists`` is about the path, so it is rejected here."""
    tests = [_operator_test(op, operand) for op, operand in document.items()]
    if len(tests) == 1:
        return tests[0]
    return lambda node: all(test(node) for test in tests)


def _field_test(get: Callable[[Any], Any], spec: dict[str, Any]) -> Any:
    exists_flag = spec.get("$exists")
    rest = {op: arg for op, arg in spec.items() if op != "$exists"}
    test = compile_operators(rest) if rest else None

    def predicate(value: Any) -> bool:
        node = get(value)
        if exists_flag is not None and bool(exists_flag) != (node is not MISSING):
            return False
        return test is None or (node is not MISSING and test(node))

    return predicate


def compile_value_filter(
    filter_doc: dict[str, Any], paths: list[tuple[str, ...]] | None = None
) -> Callable[[Any], bool]:
    """Compile a find filter into a value-space predicate closure.

    Field paths are split and specialised (:func:`~repro.query.stages.
    path_getter`), operators compiled and boolean structure resolved
    **once**, so a row is matched with plain closure calls.  Every field
    path the predicate navigates is appended to ``paths`` (when given);
    an ``$elemMatch`` body is relative to the elements of the array
    under its field, which that field's own path covers.
    """
    if not isinstance(filter_doc, dict):
        raise ParseError("a find filter is a JSON object")
    predicates: list[Callable[[Any], bool]] = []
    for key, spec in filter_doc.items():
        if key in ("$and", "$or", "$nor"):
            _require_list(key, spec)
            compiled = [compile_value_filter(sub, paths) for sub in spec]
            fold = all if key == "$and" else any
            found = lambda value, c=compiled, f=fold: f(p(value) for p in c)
            if key == "$nor":
                found = lambda value, f=found: not f(value)
            predicates.append(found)
        elif key.startswith("$"):
            raise ParseError(f"unsupported top-level operator {key!r}")
        else:
            segments = split_field_path(key)
            if paths is not None:
                paths.append(segments)
            get = path_getter(segments)
            if _is_operator_doc(spec):
                predicates.append(_field_test(get, spec))
            else:
                predicates.append(
                    lambda value, get=get, operand=spec: _eq_mongo(
                        get(value), operand
                    )
                )
    if len(predicates) == 1:
        return predicates[0]
    return lambda value: all(p(value) for p in predicates)
