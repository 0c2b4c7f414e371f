"""Independent interpreters of the Mongo dialects: the test oracles.

:func:`match_value` re-reads a find filter on every call through its
own operator dispatch, sharing nothing with :mod:`repro.mongo.find`
beyond ``values_equal`` and the path helpers; :func:`naive_aggregate`
runs a pipeline eagerly, list at a time, every ``$match`` through it;
:func:`naive_update_value` parses per call, deep-copies and edits in
place.  ``benchmarks/bench_aggregation.py`` times :func:`naive_aggregate`
as its baseline.
"""

from __future__ import annotations

import copy
import functools
import re
from typing import Any, Iterable

from repro.errors import ParseError, UpdateError
from repro.model.tree import JSONTree
from repro.mongo.aggregate import (
    _count_field,
    _limit_count,
    _skip_count,
    _sort_spec_keys,
    _unwind_segments,
    parse_pipeline,
)
from repro.mongo.find import _is_operator_doc, _require_int, _require_list
from repro.mongo.projection import Projection
from repro.mongo.update import (
    UPDATE_OPS,
    _each_items,
    _field_specs,
    _pull_keep,
    _rename_paths,
)
from repro.mongo.update import _require_int as _require_int_at
from repro.query.stages import (
    MISSING,
    canonical_group_key,
    compile_expr,
    is_index_segment,
    resolve_path,
    set_path,
    sort_key,
    split_field_path,
    values_equal,
)

__all__ = ["match_value", "naive_aggregate", "naive_update_value"]

# ---------------------------------------------------------------------------
# The find-filter interpreter.
#
# Semantics mirror repro.mongo.find: a dotted path resolves to at most
# one node (digit segments are array indexes), a navigated condition
# requires the node to exist, and a scalar equality also matches arrays
# containing the value (one array level, like the compiled
# ``X_{0:inf}`` axis).
# ---------------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(operator: str, operand: Any) -> None:
    if not _is_number(operand):
        raise ParseError(f"{operator} takes a number, got {operand!r}")


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


_TYPE_CHECKS = {
    "object": lambda node: isinstance(node, dict),
    "array": lambda node: isinstance(node, list),
    "string": lambda node: isinstance(node, str),
    "number": _is_number,
    "int": lambda node: node.__class__ is int,  # not a bool, not a float
}


def _op_holds(operator: str, operand: Any, node: Any) -> bool:
    if operator == "$eq":
        return _eq_mongo(node, operand)
    if operator == "$ne":
        return not _eq_mongo(node, operand)
    if operator == "$gt":
        _require_number(operator, operand)
        return _is_number(node) and node > operand
    if operator == "$gte":
        _require_number(operator, operand)
        return _is_number(node) and node >= operand
    if operator == "$lt":
        _require_number(operator, operand)
        return _is_number(node) and node < operand
    if operator == "$lte":
        _require_number(operator, operand)
        return _is_number(node) and node <= operand
    if operator == "$in":
        _require_list(operator, operand)
        return any(_eq_mongo(node, item) for item in operand)
    if operator == "$nin":
        _require_list(operator, operand)
        return not any(_eq_mongo(node, item) for item in operand)
    if operator == "$type":
        check = _TYPE_CHECKS.get(operand)
        if check is None:
            raise ParseError(f"unsupported $type operand {operand!r}")
        return check(node)
    if operator == "$size":
        _require_int(operator, operand)
        return isinstance(node, list) and len(node) == operand
    if operator == "$regex":
        if not isinstance(operand, str):
            raise ParseError("$regex takes a string")
        # Class escapes are ASCII, as in MongoDB's PCRE.
        return (
            isinstance(node, str)
            and re.search(operand, node, re.ASCII) is not None
        )
    if operator == "$elemMatch":
        if not isinstance(operand, dict):
            raise ParseError("$elemMatch takes a filter document")
        if not isinstance(node, list):
            return False
        if _is_operator_doc(operand):
            return any(
                all(_op_holds(op, arg, element) for op, arg in operand.items())
                for element in node
            )
        return any(match_value(operand, element) for element in node)
    if operator == "$not":
        if not isinstance(operand, dict):
            raise ParseError("$not takes an operator document")
        return not all(
            _op_holds(op, arg, node) for op, arg in operand.items()
        )
    raise ParseError(f"unsupported operator {operator!r}")


def _match_field(value: Any, path: str, spec: dict[str, Any]) -> bool:
    node = resolve_path(value, split_field_path(path))
    exists_flag = spec.get("$exists")
    rest = {op: arg for op, arg in spec.items() if op != "$exists"}
    if exists_flag is not None and bool(exists_flag) != (node is not MISSING):
        return False
    if rest:
        if node is MISSING:
            return False
        return all(_op_holds(op, arg, node) for op, arg in rest.items())
    return True


def match_value(filter_doc: dict[str, Any], value: Any) -> bool:
    """Evaluate a ``find`` filter directly on a Python JSON value.

    Interprets the filter document per call, with its own operator
    dispatch: the oracle both lowerings of :mod:`repro.mongo.find` are
    tested against (same operator subset, same one-node path
    semantics), and the ``$match`` of :func:`naive_aggregate`.
    """
    if not isinstance(filter_doc, dict):
        raise ParseError("a find filter is a JSON object")
    for key, spec in filter_doc.items():
        if key == "$and":
            _require_list(key, spec)
            if not all(match_value(sub, value) for sub in spec):
                return False
        elif key == "$or":
            _require_list(key, spec)
            if not any(match_value(sub, value) for sub in spec):
                return False
        elif key == "$nor":
            _require_list(key, spec)
            if any(match_value(sub, value) for sub in spec):
                return False
        elif key.startswith("$"):
            raise ParseError(f"unsupported top-level operator {key!r}")
        elif _is_operator_doc(spec):
            if not _match_field(value, key, spec):
                return False
        else:
            node = resolve_path(value, split_field_path(key))
            if not _eq_mongo(node, spec):
                return False
    return True


# ---------------------------------------------------------------------------
# The naive pipeline evaluator.
# ---------------------------------------------------------------------------


def _naive_group(spec: dict[str, Any], rows: list[Any]) -> list[Any]:
    """Independent $group semantics: collect per-group value lists,
    then apply each accumulator to the list (no streaming fold)."""
    id_expr = compile_expr(spec["_id"])
    names = [name for name in spec if name != "_id"]
    table: dict[Any, tuple[Any, list[list[Any]]]] = {}
    order: list[Any] = []
    for row in rows:
        id_value = id_expr(row)
        if id_value is MISSING:
            id_value = None
        key = canonical_group_key(id_value)
        if key not in table:
            table[key] = (id_value, [[] for _ in names])
            order.append(key)
        collected = table[key][1]
        for slot, name in enumerate(names):
            ((accumulator, operand),) = spec[name].items()
            value = None if accumulator == "$count" else compile_expr(operand)(row)
            collected[slot].append(value)
    results = []
    for key in order:
        id_value, collected = table[key]
        out = {"_id": id_value}
        for slot, name in enumerate(names):
            ((accumulator, _),) = spec[name].items()
            out[name] = _naive_accumulate(accumulator, collected[slot])
        results.append(out)
    return results


def _naive_accumulate(accumulator: str, values: list[Any]) -> Any:
    present = [value for value in values if value is not MISSING]
    numbers = [value for value in present if _is_number(value)]
    if accumulator == "$sum":
        return sum(numbers)
    if accumulator == "$avg":
        return sum(numbers) / len(numbers) if numbers else None
    if accumulator == "$min":
        return min(present, key=sort_key) if present else None
    if accumulator == "$max":
        return max(present, key=sort_key) if present else None
    if accumulator == "$push":
        return present
    if accumulator == "$count":
        return len(values)
    raise ParseError(f"unsupported accumulator {accumulator!r}")


def _naive_sort(spec: dict[str, Any], rows: list[Any]) -> list[Any]:
    """Independent $sort semantics: one comparator over all keys."""
    keys = _sort_spec_keys(spec)

    def compare(left: Any, right: Any) -> int:
        for segments, direction in keys:
            left_key = sort_key(resolve_path(left, segments))
            right_key = sort_key(resolve_path(right, segments))
            if left_key < right_key:
                return -direction
            if left_key > right_key:
                return direction
        return 0

    return sorted(rows, key=functools.cmp_to_key(compare))


def _naive_unwind(spec: Any, rows: list[Any]) -> list[Any]:
    segments = _unwind_segments(spec)
    out: list[Any] = []
    for row in rows:
        value = resolve_path(row, segments)
        if value is MISSING or value is None:
            continue
        if not isinstance(value, list):
            out.append(row)
        else:
            out.extend(set_path(row, segments, element) for element in value)
    return out


def naive_aggregate(documents: Iterable[Any], pipeline: list[Any]) -> list[Any]:
    """Reference pipeline evaluation: eager, per-document, no indexes.

    Accepts trees or plain values; every ``$match`` -- leading or not --
    runs through the value-space :func:`match_value`, every stage
    materialises a full list.  Deliberately shares only the *semantic*
    kernels (path resolution, expressions, the sort order) with the
    staged executor, so the differential tests exercise the compiled
    leading-match path, the index pruning and the streaming machinery
    against an independent implementation.
    """
    rows = [
        doc.to_value() if isinstance(doc, JSONTree) else doc
        for doc in documents
    ]
    for op, spec in parse_pipeline(pipeline):
        if op == "$match":
            rows = [row for row in rows if match_value(spec, row)]
        elif op == "$project":
            projection = Projection(spec)
            rows = [projection.apply_value(row) for row in rows]
        elif op == "$unwind":
            rows = _naive_unwind(spec, rows)
        elif op == "$group":
            if not isinstance(spec, dict) or "_id" not in spec:
                raise ParseError("$group takes a document with an _id expression")
            rows = _naive_group(spec, rows)
        elif op == "$sort":
            rows = _naive_sort(spec, rows)
        elif op == "$skip":
            rows = rows[_skip_count(spec) :]
        elif op == "$limit":
            rows = rows[: _limit_count(spec)]
        else:  # $count
            field = _count_field(spec)
            rows = [{field: len(rows)}] if rows else []
    return rows


# ---------------------------------------------------------------------------
# The naive update interpreter.
# ---------------------------------------------------------------------------


def naive_update_value(update_doc: Any, value: Any) -> Any:
    """Reference update evaluation: deepcopy, then in-place edits.

    Parses the update document per call and navigates with its own
    helpers -- deliberately sharing nothing with the compiled path
    beyond the *semantics* (digit segments are array indexes, missing
    object keys are created by the ``$set`` family, operators apply in
    document order) -- so the differential tests exercise compilation,
    spine-copying and mutation tracking against an independent
    implementation.
    """
    if not isinstance(update_doc, dict) or not update_doc:
        raise ParseError(
            "an update is a non-empty document of update operators "
            f"(supported: {', '.join(UPDATE_OPS)})"
        )
    doc = copy.deepcopy(value)
    for operator, spec in update_doc.items():
        if operator not in UPDATE_OPS:
            raise ParseError(
                f"unsupported update operator {operator!r} "
                f"(supported: {', '.join(UPDATE_OPS)})"
            )
        for path, operand in _field_specs(operator, spec):
            doc = _naive_apply(doc, operator, path, operand)
    return doc


def _naive_walk(doc: Any, segments: tuple, create: bool) -> Any:
    """The container holding the final segment, or None when the path
    is unreachable (non-create mode)."""
    node = doc
    for position, segment in enumerate(segments[:-1]):
        if is_index_segment(segment):
            if not isinstance(node, list) or int(segment) >= len(node):
                if create:
                    raise UpdateError(
                        f"cannot apply update at {'.'.join(segments)!r}: "
                        "an array index step needs an existing array"
                    )
                return None
            node = node[int(segment)]
        else:
            if not isinstance(node, dict):
                if create:
                    raise UpdateError(
                        f"cannot apply update at {'.'.join(segments)!r}: "
                        f"cannot create field {segment!r} inside a "
                        "non-document"
                    )
                return None
            if segment not in node:
                if not create:
                    return None
                node[segment] = {}
            node = node[segment]
    return node


def _naive_read(container: Any, segment: str) -> Any:
    if is_index_segment(segment):
        if isinstance(container, list) and int(segment) < len(container):
            return container[int(segment)]
        return MISSING
    if isinstance(container, dict) and segment in container:
        return container[segment]
    return MISSING


def _naive_write(container: Any, segments: tuple, new: Any) -> None:
    segment = segments[-1]
    if is_index_segment(segment):
        if not isinstance(container, list):
            raise UpdateError(
                f"cannot apply update at {'.'.join(segments)!r}: "
                "an array index step needs an existing array"
            )
        position = int(segment)
        if position > len(container):
            raise UpdateError(
                f"cannot apply update at {'.'.join(segments)!r}: "
                f"array index {position} past the end "
                f"(length {len(container)})"
            )
        if position == len(container):
            container.append(new)
        else:
            container[position] = new
    else:
        if not isinstance(container, dict):
            raise UpdateError(
                f"cannot apply update at {'.'.join(segments)!r}: "
                f"cannot create field {segment!r} inside a non-document"
            )
        container[segment] = new


def _naive_delete(container: Any, segments: tuple) -> None:
    segment = segments[-1]
    if is_index_segment(segment):
        if isinstance(container, list) and int(segment) < len(container):
            raise UpdateError(
                f"cannot apply update at {'.'.join(segments)!r}: "
                "cannot remove an array element by index "
                "(use $pull or $pop)"
            )
        return
    if isinstance(container, dict):
        container.pop(segment, None)


def _naive_array(
    operator: str, segments: tuple, container: Any
) -> list | None:
    old = _naive_read(container, segments[-1])
    if old is MISSING:
        return None
    if not isinstance(old, list):
        raise UpdateError(
            f"{operator} needs an array at {'.'.join(segments)!r}, "
            f"found {old!r}"
        )
    return old


def _naive_apply(doc: Any, operator: str, path: str, operand: Any) -> Any:
    segments = split_field_path(path)
    create = operator in ("$set", "$inc", "$mul", "$push", "$addToSet")
    container = _naive_walk(doc, segments, create)
    if container is None:
        return doc
    old = _naive_read(container, segments[-1])
    if operator == "$set":
        _naive_write(container, segments, copy.deepcopy(operand))
    elif operator == "$unset":
        if old is not MISSING:
            _naive_delete(container, segments)
    elif operator in ("$inc", "$mul"):
        amount = _require_int_at(operator, path, operand)
        if old is MISSING:
            base = 0
        elif isinstance(old, bool) or not isinstance(old, int):
            raise UpdateError(
                f"{operator} needs a number at {'.'.join(segments)!r}, "
                f"found {old!r}"
            )
        else:
            base = old
        result = base + amount if operator == "$inc" else base * amount
        _naive_write(container, segments, result)
    elif operator == "$rename":
        source, target = _rename_paths(path, operand)
        if old is not MISSING:
            _naive_delete(container, segments)
            doc = _naive_apply_set_value(doc, target, old)
    elif operator == "$push":
        items = list(_each_items(operator, operand))
        existing = _naive_array(operator, segments, container)
        if existing is None:
            _naive_write(container, segments, items)
        else:
            existing.extend(items)
    elif operator == "$addToSet":
        items = list(_each_items(operator, operand))
        existing = _naive_array(operator, segments, container)
        if existing is None:
            existing = []
            _naive_write(container, segments, existing)
        for item in items:
            if not any(values_equal(item, seen) for seen in existing):
                existing.append(item)
    elif operator == "$pull":
        keep = _pull_keep(path, operand)  # validate before touching doc
        existing = _naive_array(operator, segments, container)
        if existing is not None:
            existing[:] = [element for element in existing if keep(element)]
    else:  # $pop
        if operand not in (1, -1) or isinstance(operand, bool):
            raise ParseError(
                f"$pop takes 1 (last) or -1 (first) for {path!r}, "
                f"got {operand!r}"
            )
        existing = _naive_array(operator, segments, container)
        if existing:
            if operand == -1:
                del existing[0]
            else:
                del existing[-1]
    return doc


def _naive_apply_set_value(doc: Any, segments: tuple, value: Any) -> Any:
    container = _naive_walk(doc, segments, True)
    _naive_write(container, segments, value)
    return doc
