"""M1 -- Section 2: navigation instructions as the primitive.

Reproduction target: the model's typed navigation (J[key]/J[i]) costs a
small constant factor over raw Python dict/list access -- the
"lightweight nature" the paper attributes to JSON access, preserved by
the arena representation.
"""

from __future__ import annotations

from repro.model.tree import JSONTree
from repro.reference.harness import format_table, measure
from repro.reference.workloads import people_collection

PEOPLE = people_collection(500, seed=9)
TREES = [JSONTree.from_value(person) for person in PEOPLE]
PATHS = [["name", "first"], ["address", "city"], ["hobbies", 0], ["age"]]


def _navigate_all():
    hits = 0
    for tree in TREES:
        for path in PATHS:
            from repro.model.navigation import try_navigate

            if try_navigate(tree, path) is not None:
                hits += 1
    return hits


def _raw_all():
    hits = 0
    for person in PEOPLE:
        for path in PATHS:
            current = person
            ok = True
            for step in path:
                try:
                    current = current[step]
                except (KeyError, IndexError, TypeError):
                    ok = False
                    break
            if ok:
                hits += 1
    return hits


def test_tree_navigation(benchmark):
    assert benchmark(_navigate_all) == _raw_all()


def test_raw_python_access(benchmark):
    benchmark(_raw_all)


def test_parse_people_collection(benchmark):
    benchmark(lambda: [JSONTree.from_value(person) for person in PEOPLE])


def main() -> str:
    tree_time = measure(_navigate_all, repeat=3)
    raw_time = measure(_raw_all, repeat=3)
    factor = tree_time / raw_time if raw_time else float("inf")
    return format_table(
        "M1 / Section 2: navigation-instruction overhead vs raw Python "
        f"(overhead factor {factor:.1f}x)",
        ["engine", "time (2000 navigations)"],
        [
            ["JSONTree navigate", f"{tree_time * 1e3:.2f} ms"],
            ["raw dict/list", f"{raw_time * 1e3:.2f} ms"],
        ],
    )


if __name__ == "__main__":
    print(main())
