"""F1 -- Section 4.1: the surveyed front-ends share the JNL core.

Reproduction target: MongoDB find filters and JSONPath queries compile
to JNL and run at latency comparable to hand-written JNL -- the paper's
claim that JNL is the common core of those systems, made measurable.
"""

from __future__ import annotations

from repro.jnl.efficient import JNLEvaluator
from repro.jnl.parser import parse_jnl
from repro.jsonpath import jsonpath_query, parse_jsonpath
from repro.model.tree import JSONTree
from repro.query import compile_formula, match_many
from repro.reference.harness import format_table, measure
from repro.reference.workloads import people_collection
from repro import api

PEOPLE = people_collection(300, seed=4)
COLLECTION = api.collection(PEOPLE)
FILTER = {"age": {"$gte": 30, "$lt": 60}, "address.city": "Santiago"}
HAND_WRITTEN = parse_jnl(
    "has(.age<test(min(29)) and test(max(60))>) "
    'and matches(.address.city, "Santiago")'
)
STORE = JSONTree.from_value(
    {"library": [person for person in PEOPLE[:100]]}
)
JSONPATH = "$.library[?(@.age > 50)].name.first"


def test_mongo_find(benchmark):
    results = benchmark(lambda: COLLECTION.find(FILTER))
    assert all(30 <= doc["age"] < 60 for doc in results)


def test_hand_written_jnl(benchmark):
    def run():
        return [
            tree.to_value()
            for tree in COLLECTION.trees
            if JNLEvaluator(tree).satisfies(tree.root, HAND_WRITTEN)
        ]

    results = benchmark(run)
    assert [doc["id"] for doc in results] == [
        doc["id"] for doc in COLLECTION.find(FILTER)
    ]


def test_jsonpath_query(benchmark):
    results = benchmark(lambda: jsonpath_query(STORE, JSONPATH))
    assert all(isinstance(name, str) for name in results)


def test_jsonpath_parse(benchmark):
    benchmark(lambda: parse_jsonpath(JSONPATH))


def main() -> str:
    mongo_time = measure(lambda: COLLECTION.find(FILTER), repeat=3)
    hand_time = measure(
        lambda: [
            tree
            for tree in COLLECTION.trees
            if JNLEvaluator(tree).satisfies(tree.root, HAND_WRITTEN)
        ],
        repeat=3,
    )
    # The same hand-written formula through the compiled batch path
    # (plan built once, point evaluation per document).
    hand_compiled = compile_formula(HAND_WRITTEN)
    hand_compiled_time = measure(
        lambda: match_many(hand_compiled, COLLECTION.trees), repeat=3
    )
    jsonpath_time = measure(lambda: jsonpath_query(STORE, JSONPATH), repeat=3)
    return format_table(
        "F1 / Section 4.1: front-ends on the JNL core "
        "(300-doc collection / 100-book store)",
        ["query engine", "time"],
        [
            ["MongoDB-find filter -> JNL", f"{mongo_time * 1e3:.2f} ms"],
            ["hand-written JNL", f"{hand_time * 1e3:.2f} ms"],
            ["hand-written JNL, compiled batch", f"{hand_compiled_time * 1e3:.2f} ms"],
            ["JSONPath -> JNL", f"{jsonpath_time * 1e3:.2f} ms"],
        ],
    )


if __name__ == "__main__":
    print(main())
