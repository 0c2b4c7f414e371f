"""The executable hardness reductions (Propositions 2, 4, 7, 9)."""

from __future__ import annotations

import random

import pytest

from repro.errors import UnsupportedFragmentError
from repro.jnl.efficient import evaluate_unary
from repro.jnl.satisfiability import jnl_satisfiable
from repro.jsl.bottom_up import RecursiveJSLEvaluator
from repro.jsl.satisfiability import jsl_satisfiable
from repro.reference.reductions import (
    CNF3,
    QBF,
    TwoCounterMachine,
    assignment_from_witness,
    brute_force_qbf,
    brute_force_sat,
    circuit_to_jsl,
    cnf_to_jnl,
    encode_run,
    evaluate_circuit,
    machine_to_jnl,
    qbf_to_jsl,
    random_3cnf,
    random_circuit,
    random_qbf,
    run_machine,
)
from repro.reference.reductions.circuits import assignment_to_document
from repro.reference.reductions.sat3 import assignment_to_document as sat_doc
from repro.reference.reductions.sat3 import evaluate_cnf


class TestProposition2:
    @pytest.mark.parametrize("seed", range(12))
    def test_reduction_agrees_with_brute_force(self, seed):
        cnf = random_3cnf(num_vars=4, num_clauses=6 + seed, seed=seed)
        expected = brute_force_sat(cnf) is not None
        result = jnl_satisfiable(cnf_to_jnl(cnf))
        assert result.satisfiable == expected
        if not result.satisfiable:
            assert result.complete

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_decodes_to_satisfying_assignment(self, seed):
        cnf = random_3cnf(num_vars=4, num_clauses=5, seed=seed + 100)
        result = jnl_satisfiable(cnf_to_jnl(cnf))
        if result.satisfiable:
            assignment = assignment_from_witness(cnf, result.witness)
            assert evaluate_cnf(cnf, assignment)

    def test_canonical_model_satisfies_formula(self):
        cnf = random_3cnf(num_vars=3, num_clauses=4, seed=7)
        assignment = brute_force_sat(cnf)
        if assignment is None:
            pytest.skip("unsatisfiable instance")
        doc = sat_doc(cnf, assignment)
        formula = cnf_to_jnl(cnf)
        assert doc.root in evaluate_unary(doc, formula)

    def test_unsatisfiable_instance(self):
        # (x) ^ (~x) in 3CNF padding form.
        cnf = CNF3(1, ((1, 1, 1), (-1, -1, -1)))
        assert brute_force_sat(cnf) is None
        result = jnl_satisfiable(cnf_to_jnl(cnf))
        assert not result.satisfiable and result.complete

    def test_formula_is_negation_and_equality_free(self):
        from repro.jnl import ast

        formula = cnf_to_jnl(random_3cnf(3, 4, 1))
        assert not any(
            isinstance(sub, (ast.Not, ast.EqDoc, ast.EqPath))
            for sub in _walk(formula)
        )


def _walk(formula):
    from repro.jnl.ast import _children

    stack = [formula]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(_children(current))


class TestProposition7:
    @pytest.mark.parametrize("seed", range(12))
    def test_reduction_agrees_with_brute_force(self, seed):
        qbf = random_qbf(num_vars=3, num_clauses=4, seed=seed)
        expected = brute_force_qbf(qbf)
        result = jsl_satisfiable(qbf_to_jsl(qbf))
        assert result.satisfiable == expected

    def test_forall_false_instance(self):
        # forall x . x is false (clause: x padded).
        qbf = QBF(("a",), ((1, 1, 1),))
        assert not brute_force_qbf(qbf)
        assert not jsl_satisfiable(qbf_to_jsl(qbf)).satisfiable

    def test_exists_true_instance(self):
        qbf = QBF(("e",), ((1, 1, 1),))
        assert brute_force_qbf(qbf)
        result = jsl_satisfiable(qbf_to_jsl(qbf))
        assert result.satisfiable
        # The witness assignment tree sets variable 1 to T.
        value = result.witness.to_value()
        assert "T" in value and "F" not in value

    def test_alternation_matters(self):
        # exists x forall y (x = y) is false; the clauses encode
        # (x v y) ^ (~x v ~y) = x xor y ... checking both orders.
        clauses = ((1, 2, 2), (-1, -2, -2))
        assert brute_force_qbf(QBF(("e", "a"), clauses)) == jsl_satisfiable(
            qbf_to_jsl(QBF(("e", "a"), clauses))
        ).satisfiable


class TestProposition9:
    @pytest.mark.parametrize("seed", range(10))
    def test_circuit_value_via_recursive_jsl(self, seed):
        circuit = random_circuit(num_inputs=4, num_gates=8, seed=seed)
        rng = random.Random(seed)
        inputs = {i: rng.random() < 0.5 for i in range(1, 5)}
        expected = evaluate_circuit(circuit, inputs)
        doc = assignment_to_document(circuit, inputs)
        expression = circuit_to_jsl(circuit)
        assert RecursiveJSLEvaluator(doc, expression).satisfies() == expected

    def test_precedence_graph_is_the_circuit_dag(self):
        from repro.jsl.recursion import precedence_graph

        circuit = random_circuit(num_inputs=2, num_gates=5, seed=3)
        expression = circuit_to_jsl(circuit)
        graph = precedence_graph(expression)
        # Gate definitions reference their operands unguarded.
        assert any(graph[name] for name in graph)

    def test_all_input_combinations_for_small_circuit(self):
        circuit = random_circuit(num_inputs=3, num_gates=5, seed=11)
        expression = circuit_to_jsl(circuit)
        from itertools import product

        for bits in product((False, True), repeat=3):
            inputs = dict(zip((1, 2, 3), bits))
            doc = assignment_to_document(circuit, inputs)
            assert RecursiveJSLEvaluator(doc, expression).satisfies() == (
                evaluate_circuit(circuit, inputs)
            )


HALTING_PROGRAM = {
    "q0": ("inc", 1, "q1"),
    "q1": ("inc", 1, "q2"),
    "q2": ("inc", 2, "q3"),
    "q3": ("dec", 1, "q4"),
    "q4": ("jz", 2, "qf", "q5"),
    "q5": ("dec", 2, "q4"),
    "qf": ("halt",),
}


class TestProposition4:
    def test_run_trace(self):
        machine = TwoCounterMachine(HALTING_PROGRAM, "q0", "qf")
        trace = run_machine(machine)
        assert trace is not None
        assert trace[0] == ("q0", 0, 0)
        assert trace[-1][0] == "qf"

    def test_halting_run_satisfies_formula(self):
        machine = TwoCounterMachine(HALTING_PROGRAM, "q0", "qf")
        trace = run_machine(machine)
        tree = encode_run(trace)
        formula = machine_to_jnl(machine)
        assert tree.root in evaluate_unary(tree, formula)

    def test_corrupted_state_rejected(self):
        machine = TwoCounterMachine(HALTING_PROGRAM, "q0", "qf")
        trace = [list(c) for c in run_machine(machine)]
        trace[2][0] = "q0"  # wrong state mid-run
        tree = encode_run([tuple(c) for c in trace])
        formula = machine_to_jnl(machine)
        assert tree.root not in evaluate_unary(tree, formula)

    def test_corrupted_counter_rejected(self):
        machine = TwoCounterMachine(HALTING_PROGRAM, "q0", "qf")
        trace = [list(c) for c in run_machine(machine)]
        trace[3][1] += 1  # counter jumps by 2
        tree = encode_run([tuple(c) for c in trace])
        formula = machine_to_jnl(machine)
        assert tree.root not in evaluate_unary(tree, formula)

    def test_non_halting_machine_prefix_rejected(self):
        looping = {"q0": ("inc", 1, "q0"), "qf": ("halt",)}
        machine = TwoCounterMachine(looping, "q0", "qf")
        assert run_machine(machine, max_steps=50) is None
        # An honest prefix never reaches qf, so the formula fails.
        prefix = [("q0", i, 0) for i in range(5)]
        tree = encode_run(prefix)
        formula = machine_to_jnl(machine)
        assert tree.root not in evaluate_unary(tree, formula)

    def test_solver_refuses_the_undecidable_fragment(self):
        machine = TwoCounterMachine(HALTING_PROGRAM, "q0", "qf")
        with pytest.raises(UnsupportedFragmentError):
            jnl_satisfiable(machine_to_jnl(machine))
