"""Streaming tokenizer and deterministic-JSL validator (Section 6)."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    StreamingError,
    UnsupportedFragmentError,
)
from repro.jsl.bottom_up import satisfies_recursive
from repro.jsl.parser import parse_jsl, parse_jsl_formula
from repro.model.builder import TreeBuilder
from repro.model.tree import JSONTree
from repro.reference.jsl_evaluator import satisfies
from repro.reference.workloads import TreeShape, random_value
from repro.streaming import StreamingJSLValidator, tokenize

json_values = st.recursive(
    st.one_of(st.integers(min_value=0, max_value=40), st.text(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
    ),
    max_leaves=12,
)


def _rebuild(text: str) -> JSONTree:
    builder = TreeBuilder()
    for event in tokenize(text):
        tag = event[0]
        if tag in ("start_object", "end_object", "start_array", "end_array"):
            getattr(builder, tag)()
        else:
            getattr(builder, tag)(event[1])
    return builder.result()


class TestTokenizer:
    @given(json_values)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_builder(self, value):
        tree = _rebuild(json.dumps(value))
        assert tree.to_value() == value

    def test_duplicate_keys_detected(self):
        with pytest.raises(DuplicateKeyError):
            list(tokenize('{"a": 1, "a": 2}'))

    def test_duplicate_detection_can_be_disabled(self):
        events = list(tokenize('{"a": 1, "a": 2}', check_duplicates=False))
        assert events[0] == ("start_object",)

    @pytest.mark.parametrize(
        "text",
        ['{"a" 1}', "[1,", "[1 2]", '{"a":}', "", "{,}", "[]]", "12.5",
         "-3", "true", "nul", '"unclosed'],
    )
    def test_malformed(self, text):
        with pytest.raises((StreamingError, DuplicateKeyError)):
            list(tokenize(text))

    def test_whitespace_tolerated(self):
        events = list(tokenize('  { "a" :\n[ 1 , 2 ] }  '))
        assert events[-1] == ("end_object",)


class TestValidatorFragment:
    def test_rejects_nondeterministic_modalities(self):
        with pytest.raises(UnsupportedFragmentError):
            StreamingJSLValidator(parse_jsl_formula("some(./a.*/, true)"))
        with pytest.raises(UnsupportedFragmentError):
            StreamingJSLValidator(parse_jsl_formula("some([0:2], true)"))

    def test_rejects_tree_equality(self):
        with pytest.raises(UnsupportedFragmentError):
            StreamingJSLValidator(parse_jsl_formula("unique"))
        with pytest.raises(UnsupportedFragmentError):
            StreamingJSLValidator(parse_jsl_formula("value(5)"))

    def test_accepts_deterministic_fragment(self):
        StreamingJSLValidator(
            parse_jsl_formula("some(.a, all([2:2], number)) and minch(1)")
        )


DETERMINISTIC_FORMULAS = [
    "some(.name, string)",
    "all(.age, number and min(17))",
    # min/max atoms evaluated at non-number nodes (strings, containers)
    # must answer False, never crash on the int() conversion.
    "some(.age, min(4))",
    "some(.age, max(40))",
    "some(.a, some(.b, number)) or minch(3)",
    'some(.name, pattern("[A-Z].*")) and not some(.x, true)',
    "some([0:0], string) and all([1:1], number)",
    "maxch(2) or some(.tags, minch(1))",
    "not (some(.a, true) and some(.b, true))",
    "number and multipleof(3) or string",
]


class TestValidatorAgreement:
    @pytest.mark.parametrize("formula_text", DETERMINISTIC_FORMULAS)
    def test_matches_in_memory_on_random_docs(self, formula_text):
        formula = parse_jsl_formula(formula_text)
        validator = StreamingJSLValidator(formula)
        for seed in range(25):
            rng = random.Random(seed)
            value = random_value(rng, TreeShape(max_depth=3, max_children=4))
            streamed = validator.validate_text(json.dumps(value))
            direct = satisfies(JSONTree.from_value(value), formula)
            assert streamed == direct, (formula_text, value)

    def test_recursive_deterministic_streaming(self):
        delta = parse_jsl(
            "def even := not some(.a, true) or some(.a, $odd);"
            "def odd := some(.a, $even) and some(.a, true);"
            "$even"
        )
        validator = StreamingJSLValidator(delta)
        for depth in range(8):
            value: object = 0
            for _ in range(depth):
                value = {"a": value}
            streamed = validator.validate_text(json.dumps(value))
            direct = satisfies_recursive(JSONTree.from_value(value), delta)
            assert streamed == direct == (depth % 2 == 0)

    def test_memory_is_depth_bounded(self):
        # A huge *flat* document keeps the frame stack at depth <= 2.
        formula = parse_jsl_formula("all([5:5], number) and minch(100)")
        validator = StreamingJSLValidator(formula)
        text = json.dumps(list(range(50_000)))
        assert validator.validate_text(text)
        assert validator.max_depth <= 2

    def test_counts_children(self):
        formula = parse_jsl_formula("minch(3) and maxch(3)")
        validator = StreamingJSLValidator(formula)
        assert validator.validate_text('{"a":1,"b":2,"c":3}')
        assert not validator.validate_text('{"a":1}')
        assert validator.validate_text("[1,2,3]")
