"""JNL satisfiability (Propositions 2 and 5)."""

from __future__ import annotations

import random

import pytest

from repro.errors import UnsupportedFragmentError
from repro.jnl.efficient import evaluate_unary
from repro.jnl.parser import parse_jnl
from repro.jnl.satisfiability import jnl_satisfiable
from repro.reference.workloads import random_jnl_unary


class TestDeterministicCases:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("true", True),
            ("false", False),
            ("has(.a.b.c)", True),
            ("has(.a) and not has(.a)", False),
            ("matches(.k, [1, 2])", True),
            ("matches(.k, 1) and matches(.k, 2)", False),
            # The paper's key-typing example: X_a<[X_0]> ^ X_a<[X_b]>
            # forces the value under "a" to be array AND object.
            ("has(.a<has([0])>) and has(.a<has(.b)>)", False),
            ("has(.a<has([0])>) or has(.a<has(.b)>)", True),
            ("has(.a[0]) and has(.a.b)", False),
            ("has(.a[0]) and has(.a[1])", True),
            ("has(.a.b) and has(.a.c)", True),
        ],
    )
    def test_cases(self, text, expected):
        result = jnl_satisfiable(parse_jnl(text))
        assert result.satisfiable == expected

    def test_witness_models_formula(self):
        formula = parse_jnl("has(.a[2]) and matches(.b, {\"x\": 1})")
        result = jnl_satisfiable(formula)
        assert result.satisfiable
        assert result.witness.root in evaluate_unary(result.witness, formula)


class TestNonDeterministicAndRecursive:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("has(./ab*/<test(number)>)", True),
            ("has(./a/<test(number)>) and has(.a<test(string)>)", False),
            ("has([0:3]<test(string)>)", True),
            ("has((.a)*.stop)", True),
            ("has((.a)* <matches(eps, \"end\")>)", True),
        ],
    )
    def test_cases(self, text, expected):
        result = jnl_satisfiable(parse_jnl(text))
        assert result.satisfiable == expected
        if result.satisfiable:
            assert result.witness.root in evaluate_unary(
                result.witness, parse_jnl(text)
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sat_formulas_produce_valid_witnesses(self, seed):
        rng = random.Random(seed)
        formula = random_jnl_unary(rng, depth=2, allow_eqpath=False)
        result = jnl_satisfiable(formula)
        if result.satisfiable:
            assert result.witness.root in evaluate_unary(
                result.witness, formula
            )


class TestRefusals:
    def test_eqpath_deterministic_refused(self):
        with pytest.raises(UnsupportedFragmentError):
            jnl_satisfiable(parse_jnl("eq(.a, .b)"))

    def test_eqpath_recursive_refused_as_undecidable(self):
        with pytest.raises(UnsupportedFragmentError) as info:
            jnl_satisfiable(parse_jnl("has((.a)*<eq(.x, .y)>)"))
        assert "undecidable" in str(info.value)
