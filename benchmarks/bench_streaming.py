"""S1 -- Section 6: streaming validation memory profile.

Reproduction target: the paper conjectures deterministic JSL (without
tree equality) validates streams in constant memory.  Peak memory of
the streaming validator must stay flat as documents grow, against the
linearly growing in-memory pipeline.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.jsl.parser import parse_jsl_formula
from repro.model.tree import JSONTree
from repro.reference.harness import format_table
from repro.reference.jsl_evaluator import satisfies
from repro.reference.workloads import people_collection
from repro.streaming import StreamingJSLValidator

FORMULA = parse_jsl_formula(
    "all([5:5], some(.name, some(.first, string)) and some(.age, number))"
)

SIZES = [200, 400, 800]


def _doc_text(count: int) -> str:
    return json.dumps(people_collection(count, seed=1))


@pytest.mark.parametrize("count", SIZES)
def test_streaming_validation(benchmark, count):
    text = _doc_text(count)
    validator = StreamingJSLValidator(FORMULA)
    assert benchmark(lambda: validator.validate_text(text))


@pytest.mark.parametrize("count", SIZES)
def test_in_memory_validation(benchmark, count):
    text = _doc_text(count)

    def pipeline():
        tree = JSONTree.from_json(text)
        return satisfies(tree, FORMULA)

    assert benchmark(pipeline)


def _peak_memory(fn) -> int:
    tracemalloc.start()
    fn()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def main() -> str:
    rows = []
    validator = StreamingJSLValidator(FORMULA)
    for count in SIZES:
        text = _doc_text(count)
        stream_peak = _peak_memory(lambda: validator.validate_text(text))
        memory_peak = _peak_memory(
            lambda: satisfies(JSONTree.from_json(text), FORMULA)
        )
        rows.append(
            [
                count,
                f"{len(text) // 1024} KiB",
                f"{stream_peak // 1024} KiB",
                f"{memory_peak // 1024} KiB",
                validator.max_depth,
            ]
        )
    return format_table(
        "S1 / Section 6: streaming vs in-memory validation peak memory "
        "(conjecture: streaming stays flat; frames track depth only)",
        ["docs", "text size", "streaming peak", "in-memory peak", "max frames"],
        rows,
    )


if __name__ == "__main__":
    print(main())
