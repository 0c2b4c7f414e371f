"""The correctness oracle: a dict model and plain-Python semantics.

:class:`Model` holds ``user -> document`` in insertion order (the
order ``find`` answers in) and knows, per op, what the system must
return and how the op changes the state.  It shares no code with
``repro``: predicates are Python comparisons, pipelines are loops.

Checks run *after* the timed phase: :func:`replay` walks the executed
ops in order, compares the results that were kept (every 20th op and
the first of each template) against the model's expectation at that
point, and applies every write -- so the model ends in the state the
final full-collection comparison expects.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterable

CHECK_EVERY = 20


def _field(doc: dict, path: str) -> Any:
    for key in path.split("."):
        doc = doc[key]
    return doc


def _predicate(filter_doc: dict) -> Callable[[dict], bool]:
    """The filter shapes the streams use: equality (arrays match by
    membership) and ``$gt``/``$gte``/``$lt`` ranges, conjoined."""
    tests = []
    for path, want in filter_doc.items():
        if isinstance(want, dict):
            for operator, bound in want.items():
                tests.append((path, operator, bound))
        else:
            tests.append((path, "$eq", want))

    def holds(doc: dict) -> bool:
        for path, operator, want in tests:
            have = _field(doc, path)
            if operator == "$eq":
                ok = want in have if isinstance(have, list) else have == want
            elif operator == "$gt":
                ok = have > want
            elif operator == "$gte":
                ok = have >= want
            else:  # "$lt"
                ok = have < want
            if not ok:
                return False
        return True

    return holds


def _group(rows: Iterable[dict], key: Callable[[dict], Any]) -> dict[Any, list[dict]]:
    groups: dict[Any, list[dict]] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


def _by_id(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda row: row["_id"])


def write_counts(result: Any) -> tuple[int, int]:
    """``(matched, modified)`` of an update result, local or remote."""
    if isinstance(result, dict):
        return result["matched"], result["modified"]
    return result.matched_count, result.modified_count


class Model:
    def __init__(self, docs: Iterable[dict]) -> None:
        self.docs: dict[int, dict] = {
            doc["user"]: copy.deepcopy(doc) for doc in docs
        }

    def matching(self, filter_doc: dict) -> list[dict]:
        if set(filter_doc) == {"user"}:
            doc = self.docs.get(filter_doc["user"])
            return [] if doc is None else [doc]
        holds = _predicate(filter_doc)
        return [doc for doc in self.docs.values() if holds(doc)]

    # -- expectations --------------------------------------------------

    def aggregate(self, template: str, pipeline: list) -> Any:
        """Expected rows of the benchmark's pipelines.  ``$group``
        output order is unspecified, so unsorted groups compare by
        ``_id`` (see :func:`normalise`)."""
        rows = list(self.docs.values())
        if "$match" in pipeline[0]:
            rows = self.matching(pipeline[0]["$match"])
        if template == "group_city":
            return _by_id([
                {
                    "_id": city,
                    "n": len(members),
                    "avg_age": sum(doc["age"] for doc in members) / len(members),
                }
                for city, members in _group(rows, lambda doc: doc["city"]).items()
            ])
        if template == "unwind_tags":
            counts: dict[str, int] = {}
            for doc in rows:
                for tag in doc["tags"]:
                    counts[tag] = counts.get(tag, 0) + 1
            return _by_id([{"_id": tag, "n": n} for tag, n in counts.items()])
        if template == "group_zip":
            groups = _group(rows, lambda doc: doc["address"]["zip"])
            return _by_id([
                {"_id": zip_code, "users": [doc["user"] for doc in members]}
                for zip_code, members in groups.items()
            ])
        if template == "older_top_cities":
            groups = _group(rows, lambda doc: doc["city"])
            ranked = sorted(
                ({"_id": city, "n": len(members)} for city, members in groups.items()),
                key=lambda row: (-row["n"], row["_id"]),
            )
            return ranked[:5]
        if template == "city_top_scores":
            ranked = sorted(rows, key=lambda doc: (-doc["score"], doc["user"]))
            return [{"user": doc["user"], "score": doc["score"]} for doc in ranked[:10]]
        if template == "score_band_count":
            return [{"n": len(rows)}]
        if template == "agg_city_ages":
            groups = _group(rows, lambda doc: doc["age"])
            return _by_id([
                {"_id": age, "n": len(members)} for age, members in groups.items()
            ])
        raise KeyError(template)

    def expected(self, op: dict) -> Any:
        """What the system must answer, given the state *before* ``op``."""
        kind = op["op"]
        if kind == "find":
            return self.matching(op["filter"])
        if kind == "count":
            return len(self.matching(op["filter"]))
        if kind == "aggregate":
            return self.aggregate(op["t"], op["pipeline"])
        if kind == "insert":
            return "id"
        if kind == "replace_one":
            old = self.docs[op["filter"]["user"]]
            return (1, int(old != op["doc"]))
        matched = len(self.matching(op["filter"]))
        if kind == "update_one":
            matched = min(matched, 1)
        return (matched, matched)  # every update here changes its targets

    def apply(self, op: dict) -> None:
        kind = op["op"]
        if kind == "insert":
            self.docs[op["doc"]["user"]] = copy.deepcopy(op["doc"])
        elif kind == "replace_one":
            self.docs[op["filter"]["user"]] = copy.deepcopy(op["doc"])
        elif kind in ("update_one", "update_many"):
            targets = self.matching(op["filter"])
            if kind == "update_one":
                targets = targets[:1]
            for doc in targets:
                for path, amount in op["update"].get("$inc", {}).items():
                    doc[path] += amount
                for path, value in op["update"].get("$set", {}).items():
                    parent, _, leaf = path.rpartition(".")
                    (_field(doc, parent) if parent else doc)[leaf] = value
                for path, item in op["update"].get("$push", {}).items():
                    doc[path].append(item)


#: Marks an executed op whose answer was not retained for checking.
NOT_KEPT = object()


def normalise(op: dict, result: Any) -> Any:
    """The system's answer in the shape :meth:`Model.expected` uses."""
    kind = op["op"]
    if kind == "insert":
        return "id" if isinstance(result, int) else result
    if kind in ("update_one", "update_many", "replace_one"):
        return write_counts(result)
    if kind == "aggregate" and "$group" in op["pipeline"][-1]:
        return _by_id(result)
    return result


def replay(model: Model, executed: list[tuple[dict, Any]]) -> list[str]:
    """Check kept results against the model and apply every write.

    ``executed`` holds ``(op, result)`` in execution order; ``result``
    is :data:`NOT_KEPT` for ops whose answer was not retained.  Returns
    one description per failed op.
    """
    mismatches: list[str] = []
    for op, result in executed:
        if result is not NOT_KEPT:
            if isinstance(result, Exception):
                mismatches.append(f"{op['t']}: raised {result!r}")
            elif normalise(op, result) != model.expected(op):
                mismatches.append(f"{op['t']}: wrong answer for {op}")
        model.apply(op)
    return mismatches


def final_state_mismatches(model: Model, documents: list[dict]) -> int:
    """Documents that differ between the system's full ``find({})`` and
    the model (missing and unexpected ones included).  Keyed by user:
    concurrent connections may interleave their inserts."""
    got = {doc["user"]: doc for doc in documents}
    wrong = sum(1 for user, doc in model.docs.items() if got.get(user) != doc)
    return wrong + sum(1 for user in got if user not in model.docs) + (
        len(documents) - len(got)
    )
