"""J-automata (Proposition 10): translations, membership, emptiness."""

from __future__ import annotations

import random

import pytest

from repro.errors import WellFormednessError
from repro.jsl import ast
from repro.jsl.bottom_up import satisfies_recursive
from repro.jsl.parser import parse_jsl
from repro.reference.jautomata import (
    JAutomaton,
    from_recursive_jsl,
    to_recursive_jsl,
)
from repro.reference.workloads import (
    TreeShape,
    even_depth_tree,
    random_jsl_formula,
    random_tree,
)

EVEN = (
    "def g1 := all(.*, $g2);"
    "def g2 := some(.*, true) and all(.*, $g1);"
    "$g1"
)


class TestTranslations:
    def test_round_trip_preserves_acceptance(self):
        delta = parse_jsl(EVEN)
        automaton = from_recursive_jsl(delta)
        back = to_recursive_jsl(automaton)
        for depth in range(5):
            tree = even_depth_tree(depth)
            assert automaton.accepts(tree) == satisfies_recursive(tree, delta)
            assert satisfies_recursive(tree, back) == satisfies_recursive(
                tree, delta
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_formulas_round_trip(self, seed):
        rng = random.Random(seed)
        delta = ast.RecursiveJSL(
            (("g", random_jsl_formula(rng, 2)),), ast.Ref("g")
        )
        automaton = from_recursive_jsl(delta)
        tree = random_tree(seed, TreeShape(max_depth=3, max_children=3))
        assert automaton.accepts(tree) == satisfies_recursive(tree, delta)

    def test_initial_state_fresh(self):
        delta = parse_jsl("def q_init := true; $q_init")
        automaton = from_recursive_jsl(delta)
        assert automaton.initial != "q_init"


class TestEmptiness:
    def test_nonempty_with_witness(self):
        automaton = from_recursive_jsl(parse_jsl(EVEN))
        assert not automaton.is_empty()
        witness = automaton.witness()
        assert witness is not None
        assert automaton.accepts(witness)

    def test_empty_language(self):
        delta = parse_jsl("def g := some(.a, $g); $g")  # infinite descent
        automaton = from_recursive_jsl(delta)
        assert automaton.is_empty()

    def test_check_valid_rejects_unguarded_cycles(self):
        automaton = JAutomaton(
            (("p", ast.Not(ast.Ref("p"))), ("q0", ast.Ref("p"))), "q0"
        )
        with pytest.raises(WellFormednessError):
            automaton.check_valid()

    def test_check_valid_requires_initial_rule(self):
        automaton = JAutomaton((("p", ast.Top()),), "missing")
        with pytest.raises(WellFormednessError):
            automaton.check_valid()
