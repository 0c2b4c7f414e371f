"""The Proposition 7/10 satisfiability engine.

Soundness is certified internally (every SAT carries a verified
witness); these tests focus on decision correctness -- including a
brute-force differential over an exhaustively enumerated model space --
and on the paper's Examples 2 and 5.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import product

import pytest

import repro
from repro.automata.keylang import KeyLang
from repro.jsl import ast
from repro.jsl.bottom_up import satisfies_recursive
from repro.jsl.parser import parse_jsl, parse_jsl_formula
from repro.jsl.satisfiability import ProverSession, SolverConfig, jsl_satisfiable
from repro.model.tree import JSONTree
from repro.reference.jsl_evaluator import satisfies
from repro.reference.workloads import random_jsl_formula


class TestAtomicSatisfiability:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("true", True),
            ("false", False),
            ("string and number", False),
            ('string and pattern("(01)+")', True),
            ('pattern("a") and pattern("b")', False),
            ('string and not pattern(".*")', False),
            ("number and min(10) and max(14) and multipleof(4)", True),
            ("number and min(10) and max(12) and multipleof(4)", False),
            ("number and min(5) and max(5)", False),
            ("number and multipleof(0) and min(0)", False),
            ("number and multipleof(0)", True),
            ("object and string", False),
            ("not object and not array and not string and not number", False),
            ("value(7) and value(8)", False),
            ("value(7) and number", True),
            ("value(7) and string", False),
        ],
    )
    def test_cases(self, text, expected):
        result = jsl_satisfiable(parse_jsl_formula(text))
        assert result.satisfiable == expected
        if expected:
            assert result.witness is not None

    def test_unsat_simple_cases_are_complete(self):
        result = jsl_satisfiable(parse_jsl_formula("string and number"))
        assert not result.satisfiable and result.complete


class TestObjectSatisfiability:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("some(.name, string) and all(.name, number)", False),
            ("some(.name, string) and all(.*, string)", True),
            ("object and minch(2) and maxch(1)", False),
            ("object and minch(3)", True),
            ("some(.a, some(.b, some(.c, value(5))))", True),
            ("not some(.a, true) and minch(1) and object", True),
            ('value({"a": 1}) and some(.a, value(2))', False),
            ("some(.a, number) and not some(.a, multipleof(1))", False),
            # Paper's Prop 2 insight: a key's value cannot be two kinds.
            ("some(.a, array) and some(.a, object)", False),
            ("some(./x+/, number) and all(./x.*/, string)", False),
            ("some(./x+/, number) and all(./y.*/, string)", True),
        ],
    )
    def test_cases(self, text, expected):
        result = jsl_satisfiable(parse_jsl_formula(text))
        assert result.satisfiable == expected

    def test_witness_respects_boxes(self):
        result = jsl_satisfiable(
            parse_jsl_formula(
                "minch(2) and object and all(.*, number and min(9))"
            )
        )
        assert result.satisfiable
        value = result.witness.to_value()
        assert len(value) >= 2
        assert all(isinstance(v, int) and v > 9 for v in value.values())


class TestArraySatisfiability:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("array and minch(2) and unique and all([0:], number and max(2))", True),
            ("array and minch(3) and unique and all([0:], number and max(2))", False),
            ("array and not unique and minch(2) and all([0:], value(7))", True),
            ("array and not unique and maxch(1)", False),
            ("some([1:1], string) and all([0:], number)", False),
            ("all([0:2], string) and some([1:3], number)", True),
            (
                "unique and minch(4) and maxch(4) and all([0:], number and max(3))",
                False,
            ),
            ("some([0:0], string) and some([0:0], number)", False),
            ("array and maxch(0) and some([0:], true)", False),
        ],
    )
    def test_cases(self, text, expected):
        result = jsl_satisfiable(parse_jsl_formula(text))
        assert result.satisfiable == expected

    def test_unique_witness_has_distinct_children(self):
        result = jsl_satisfiable(
            parse_jsl_formula("unique and minch(3) and all([0:], number)")
        )
        assert result.satisfiable
        children = result.witness.to_value()
        assert len(children) >= 3
        assert len(set(map(str, children))) == len(children)


class TestRecursiveSatisfiability:
    def test_example2_even_paths(self):
        delta = parse_jsl(
            "def g1 := all(.*, $g2);"
            "def g2 := some(.*, true) and all(.*, $g1);"
            "object and $g1 and some(.*, true)"
        )
        result = jsl_satisfiable(delta)
        assert result.satisfiable
        # Witness tree must have all paths of even length >= 2.
        assert result.witness.height() % 2 == 0

    def test_example5_complete_binary_trees(self):
        delta = parse_jsl(
            "def g := not some([0:0], true) or "
            "(minch(2) and maxch(2) and not unique and all([0:1], $g));"
            "array and minch(2) and $g"
        )
        result = jsl_satisfiable(delta)
        assert result.satisfiable
        value = result.witness.to_value()
        assert isinstance(value, list) and len(value) == 2
        assert value[0] == value[1]  # the not-Unique constraint

    def test_unsatisfiable_recursion(self):
        delta = parse_jsl(
            "def g := some(.a, $g);"  # infinite descent required
            "$g"
        )
        result = jsl_satisfiable(delta)
        assert not result.satisfiable

    def test_witness_verified_against_expression(self):
        delta = parse_jsl(
            "def chain := value(\"end\") or some(.next, $chain);"
            "some(.next, $chain) and object"
        )
        result = jsl_satisfiable(delta)
        assert result.satisfiable
        assert satisfies_recursive(result.witness, delta)


def _enumerate_small_values():
    """Every JSON value over a tiny universe (for brute-force ground truth)."""
    atoms = [0, 1, "a"]
    level0 = list(atoms)
    level1 = list(level0)
    for size in range(3):
        for combo in product(level0, repeat=size):
            level1.append(list(combo))
    for keys in [(), ("a",), ("b",), ("a", "b")]:
        for values in product(level0, repeat=len(keys)):
            level1.append(dict(zip(keys, values)))
    return level1


_SMALL_SPACE = [_v for _v in _enumerate_small_values()]


class TestBruteForceDifferential:
    """If any small value satisfies phi, the solver must say SAT; if the
    solver says UNSAT *completely*, no small value may satisfy phi."""

    @pytest.mark.parametrize("seed", range(40))
    def test_against_enumeration(self, seed):
        rng = random.Random(seed)
        formula = random_jsl_formula(rng, depth=2)
        trees = [JSONTree.from_value(value) for value in _SMALL_SPACE]
        any_small_model = any(satisfies(tree, formula) for tree in trees)
        result = jsl_satisfiable(formula)
        if any_small_model:
            assert result.satisfiable, (
                f"solver missed a model for seed {seed}"
            )
        if not result.satisfiable and result.complete:
            assert not any_small_model, (
                f"solver claimed complete UNSAT despite a model, seed {seed}"
            )

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_witnesses_satisfy(self, seed):
        rng = random.Random(seed)
        formula = random_jsl_formula(rng, depth=3)
        result = jsl_satisfiable(formula)
        if result.satisfiable:
            assert satisfies(result.witness, formula)


def _session_case(seed: int, payloads: int = 6):
    """A random premise and random payloads (each also negated)."""
    rng = random.Random(seed)
    premise = random_jsl_formula(rng, depth=2)
    queries = [random_jsl_formula(rng, depth=2) for _ in range(payloads)]
    return rng, premise, queries + [ast.Not(query) for query in queries]


class TestProverSession:
    """One premise, many payloads: the warm session must answer every
    ``premise ^ payload`` as the one-shot solver answers the conjunction."""

    @pytest.mark.parametrize("seed", range(40))
    def test_warm_session_agrees_with_one_shot(self, seed):
        _rng, premise, payloads = _session_case(seed)
        session = ProverSession(premise)
        trees = [JSONTree.from_value(value) for value in _SMALL_SPACE]
        for payload in payloads:
            warm = session.satisfiable(payload)
            cold = jsl_satisfiable(ast.And(premise, payload))
            assert warm.satisfiable == cold.satisfiable, payload
            # Resident goals are already realized, so the warm run can
            # only hit fewer bounds than the cold one -- never more.
            assert warm.complete >= cold.complete, payload
            if warm.satisfiable:
                assert satisfies(warm.witness, ast.And(premise, payload))
            if not warm.satisfiable and warm.complete:
                conjunction = ast.And(premise, payload)
                assert not any(satisfies(tree, conjunction) for tree in trees)

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_answers_do_not_depend_on_the_order_asked(self, seed):
        rng, premise, payloads = _session_case(seed, payloads=8)
        first = ProverSession(premise)
        second = ProverSession(premise)
        resident = first.resident_goals
        in_order = [first.satisfiable(p) for p in payloads]
        shuffled = list(range(len(payloads)))
        rng.shuffle(shuffled)
        for position in shuffled:
            expected = in_order[position]
            for session in (first, second):
                again = session.satisfiable(payloads[position])
                assert (again.satisfiable, again.complete) == (
                    expected.satisfiable,
                    expected.complete,
                ), payloads[position]
        # Payload goals lived in per-call overlays: nothing stayed.
        assert first.resident_goals == second.resident_goals == resident

    def test_sat_answers_carry_a_revalidated_witness(self):
        premise = parse_jsl_formula("object and some(.age, number and min(17))")
        payload = parse_jsl_formula("some(.name, string)")
        session = ProverSession(premise)
        result = session.satisfiable(payload)
        assert result.satisfiable and result.witness is not None
        assert satisfies(result.witness, ast.And(premise, payload))
        # Without a payload the session answers for the premise alone.
        alone = session.satisfiable()
        assert alone.satisfiable and satisfies(alone.witness, premise)

    def test_recursive_payload_shares_the_premise_namespace(self):
        premise = parse_jsl("def g := number or all(.*, $g); $g")
        session = ProverSession(premise)
        apart = ast.RecursiveJSL(
            (("h", ast.DiaKey(KeyLang.word("a"), ast.Ref("h")) | ast.Top()),),
            ast.Ref("h"),
        )
        assert session.satisfiable(apart).satisfiable
        clashing = ast.RecursiveJSL((("g", ast.Top()),), ast.Ref("g"))
        with pytest.raises(ValueError, match="clash"):
            session.satisfiable(clashing)

    def test_results_do_not_depend_on_the_hash_seed(self):
        """Goals iterate their literals in the order they were introduced,
        so rounds, goals explored, completeness and the chosen witness
        are the same whatever ``PYTHONHASHSEED`` the process got."""
        script = (
            "import json, random\n"
            "from repro.jsl import ast\n"
            "from repro.jsl.satisfiability import ProverSession, jsl_satisfiable\n"
            "from repro.reference.workloads import random_jsl_formula\n"
            "rows = []\n"
            "for seed in range(12):\n"
            "    rng = random.Random(seed)\n"
            "    premise = random_jsl_formula(rng, depth=3)\n"
            "    session = ProverSession(premise)\n"
            "    for _ in range(4):\n"
            "        payload = random_jsl_formula(rng, depth=2)\n"
            "        for result in (\n"
            "            session.satisfiable(payload),\n"
            "            jsl_satisfiable(ast.And(premise, payload)),\n"
            "        ):\n"
            "            rows.append([\n"
            "                result.satisfiable, result.complete, result.rounds,\n"
            "                result.goals_explored,\n"
            "                result.witness and result.witness.to_value(),\n"
            "            ])\n"
            "print(json.dumps(rows))\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for hash_seed in ("1", "2017"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0] == outputs[1]
        assert any(row[0] for row in outputs[0])
        assert any(not row[0] for row in outputs[0])


class TestSolverConfig:
    def test_tight_limits_flag_incompleteness(self):
        config = SolverConfig(max_rounds=1, goal_limit=3, dnf_limit=2)
        formula = parse_jsl_formula(
            "some(.a, some(.b, true)) and (string or number or object)"
        )
        result = jsl_satisfiable(formula, config)
        if not result.satisfiable:
            assert not result.complete

    def test_result_truthiness(self):
        assert jsl_satisfiable(parse_jsl_formula("true"))
        assert not jsl_satisfiable(parse_jsl_formula("false"))
