"""F3 -- Compiled validation pipeline: compile once, validate many.

Reproduction target: the validation analogue of F2.  Both "Validation
of Modern JSON Schema" (Attouche et al.) and the MongoDB-standard
report treat high-throughput validation over document corpora as the
workload that matters; a registry enforcing one schema over millions of
documents amortises well-formedness checking, reference resolution and
program construction across calls.  The compiled path
(:mod:`repro.validate`) must make repeated validation with a cached
validator >= 5x cheaper per call than the seed interpreter pipeline
(``SchemaValidator(schema).validate_value(doc)``), which re-checks,
re-resolves and re-materialises on every call.  Differential tests in
``tests/test_validate_compiled.py`` pin the compiled verdicts to the
seed validator; this script pins the speedup.
"""

from __future__ import annotations

import json

import pytest

from repro.model.tree import JSONTree
from repro.reference.harness import format_table, measure_amortised, smoke_mode
from repro.reference.jsl_evaluator import JSLEvaluator
from repro.reference.schema_validator import SchemaValidator
from repro.reference.workloads import people_collection
from repro.schema.parser import parse_schema
from repro.schema.to_jsl import schema_to_jsl
from repro.streaming.validator import StreamingJSLValidator
from repro.validate import (
    compile_jsl_validator,
    compile_schema_validator,
    validate_corpus,
)

# A registry-style person schema exercising every compiled-op family:
# definitions/$ref, required, patterns, bounds, arrays and enum.
SCHEMA_VALUE = {
    "definitions": {
        "name": {
            "type": "object",
            "required": ["first", "last"],
            "properties": {
                "first": {"type": "string"},
                "last": {"type": "string"},
            },
            "additionalProperties": {"type": "string"},
        },
        "address": {
            "type": "object",
            "required": ["city", "zip"],
            "properties": {
                "city": {
                    "enum": ["Santiago", "Lille", "Oxford", "Talca"]
                },
                "zip": {"type": "string", "pattern": "[0-9]+"},
            },
        },
    },
    "type": "object",
    "required": ["id", "name", "age"],
    "minProperties": 3,
    "properties": {
        "id": {"type": "number", "minimum": 0},
        "name": {"$ref": "#/definitions/name"},
        "age": {"type": "number", "minimum": 0, "maximum": 120},
        "hobbies": {
            "type": "array",
            "additionalItems": {"type": "string", "pattern": "[a-z]+"},
            "uniqueItems": True,
        },
        "address": {"$ref": "#/definitions/address"},
    },
    "patternProperties": {"x-.*": {"type": "string"}},
    "additionalProperties": {"type": "string"},
}
SCHEMA = parse_schema(SCHEMA_VALUE)

CORPUS = people_collection(150, seed=11)
# Batch ingestion with shared interning (JSONTree.from_values).
TREES = JSONTree.from_values(CORPUS)
DOC = CORPUS[0]
TREE = TREES[0]

# A definition-free variant for the plain (non-recursive) JSL row.
FLAT_SCHEMA_VALUE = {
    key: value for key, value in SCHEMA_VALUE.items() if key != "definitions"
}
FLAT_SCHEMA_VALUE["properties"] = {
    key: value
    for key, value in SCHEMA_VALUE["properties"].items()
    if key not in ("name", "address")
}
FLAT_SCHEMA = parse_schema(FLAT_SCHEMA_VALUE)
JSL_FORMULA = schema_to_jsl(FLAT_SCHEMA.root)

# A deterministic, equality-free schema for the streaming row.
DET_SCHEMA = parse_schema(
    {
        "type": "object",
        "required": ["id", "age"],
        "properties": {
            "id": {"type": "number", "minimum": 0},
            "age": {"type": "number", "minimum": 0, "maximum": 120},
            "name": {"$ref": "#/definitions/name"},
        },
        "definitions": {
            "name": {
                "type": "object",
                "required": ["first"],
                "properties": {"first": {"type": "string"}},
            }
        },
    }
)
DET_FORMULA = schema_to_jsl(DET_SCHEMA)
DOC_TEXT = json.dumps(DOC)


def _corpus_one_shot() -> list[bool]:
    """The pre-compiled-subsystem corpus idiom: fresh validator and
    fresh tree per document."""
    return [SchemaValidator(SCHEMA).validate_value(doc) for doc in CORPUS]


def _rows():
    compiled = compile_schema_validator(SCHEMA)
    compiled_jsl = compile_jsl_validator(JSL_FORMULA)
    stream = StreamingJSLValidator(DET_FORMULA)
    rows = []
    for label, one_shot, cached, calls in [
        (
            "schema over raw values",
            lambda: SchemaValidator(SCHEMA).validate_value(DOC),
            lambda: compiled.validate_value(DOC),
            300,
        ),
        (
            "schema over a prebuilt tree",
            lambda: SchemaValidator(SCHEMA).validate(TREE),
            lambda: compiled.validate_tree(TREE),
            300,
        ),
        (
            "JSL root check",
            lambda: JSLEvaluator(TREE).satisfies(JSL_FORMULA),
            lambda: compiled_jsl.validate_tree(TREE),
            300,
        ),
        (
            f"corpus of {len(CORPUS)} docs",
            _corpus_one_shot,
            lambda: validate_corpus(compiled, CORPUS),
            20,
        ),
        (
            "streaming (hoisted modal index)",
            lambda: StreamingJSLValidator(DET_FORMULA).validate_text(DOC_TEXT),
            lambda: stream.validate_text(DOC_TEXT),
            100,
        ),
    ]:
        cold = measure_amortised(one_shot, calls=calls)
        warm = measure_amortised(cached, calls=calls)
        rows.append((label, cold, warm, cold / warm))
    return rows


#: Measured ratios of the last speedups call (recorded by
#: ``run_all.py --check-targets --json`` for the CI delta table).
LAST_SPEEDUPS: dict[str, float] = {}


def amortised_speedups() -> dict[str, float]:
    """Per-workload one-shot/cached per-call ratios (used by tests/CI)."""
    measured = {label: speedup for label, _, _, speedup in _rows()}
    LAST_SPEEDUPS.clear()
    LAST_SPEEDUPS.update(measured)
    return measured


def check_targets() -> list[str]:
    """Pinned-target regression check (``run_all.py --check-targets``)."""
    speedups = amortised_speedups()
    headline = speedups["schema over raw values"]
    corpus = max(
        ratio for label, ratio in speedups.items() if label.startswith("corpus")
    )
    failures = []
    if headline < 5.0:
        failures.append(
            "bench_schema_validation: compiled validate_value speedup "
            f"{headline:.1f}x < 5x target"
        )
    if corpus < 5.0:
        failures.append(
            "bench_schema_validation: corpus validation speedup "
            f"{corpus:.1f}x < 5x target"
        )
    return failures


# ---------------------------------------------------------------------------
# pytest entry points (pytest benchmarks/ --benchmark-only for timings).
# ---------------------------------------------------------------------------


def test_compiled_agrees_with_seed():
    compiled = compile_schema_validator(SCHEMA)
    seed = SchemaValidator(SCHEMA)
    for value, tree in zip(CORPUS, TREES):
        assert compiled.validate_value(value) == seed.validate(tree)
        assert compiled.validate_tree(tree) == seed.validate(tree)


def test_cached_corpus_validation(benchmark):
    compiled = compile_schema_validator(SCHEMA)
    report = benchmark(lambda: validate_corpus(compiled, CORPUS))
    assert report.checked == len(CORPUS)


def test_one_shot_corpus_validation(benchmark):
    verdicts = benchmark(_corpus_one_shot)
    assert len(verdicts) == len(CORPUS)


@pytest.mark.skipif(smoke_mode(), reason="timings are meaningless in smoke mode")
def test_amortised_speedup_target():
    speedups = amortised_speedups()
    assert speedups["schema over raw values"] >= 5.0, speedups


def main() -> str:
    rows = _rows()
    table = format_table(
        "F3 / compiled validation pipeline: amortised per-call cost "
        "(target: >= 5x for cached compiled vs seed interpreter)",
        ["workload", "one-shot", "cached", "speedup"],
        [
            [label, f"{cold * 1e6:.1f} us", f"{warm * 1e6:.1f} us", f"{ratio:.1f}x"]
            for label, cold, warm, ratio in rows
        ],
    )
    if not smoke_mode():
        best = max(ratio for _, _, _, ratio in rows)
        table += f"\n(best amortised speedup: {best:.1f}x)"
    return table


if __name__ == "__main__":
    print(main())
