"""Proposition 7's PSPACE-hardness reduction: QBF (3CNF) --> JSL sat.

Models of the produced formula are assignment trees: the node for
variable ``i`` has a ``T``-child and/or an ``F``-child, exactly one for
an existential variable and both for a universal one; below each choice
sits the node for variable ``i+1``.  A root-to-leaf path therefore
spells out one assignment, existential choices may depend on the
universal branches above them, and a clause constraint forbids paths
whose choices falsify the clause -- precisely QBF semantics.

(The paper's construction interleaves ``X``-labelled levels because it
quantifies with ``Sigma*`` boxes; using the explicit key language
``T|F`` makes the padding unnecessary.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.automata.keylang import KeyLang
from repro.jsl import ast as jsl

__all__ = ["QBF", "random_qbf", "brute_force_qbf", "qbf_to_jsl"]

_TF = KeyLang.regex("T|F")


@dataclass(frozen=True)
class QBF:
    """A prenex QBF over a 3CNF matrix.

    ``quantifiers[i]`` is ``'e'`` or ``'a'`` for variable ``i+1``;
    clauses use DIMACS literals as in :class:`~repro.reference.reductions.sat3.CNF3`.
    """

    quantifiers: tuple[str, ...]
    clauses: tuple[tuple[int, int, int], ...]

    @property
    def num_vars(self) -> int:
        return len(self.quantifiers)


def random_qbf(num_vars: int, num_clauses: int, seed: int = 0) -> QBF:
    rng = random.Random(seed)
    quantifiers = tuple(rng.choice("ea") for _ in range(num_vars))
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), k=min(3, num_vars))
        while len(variables) < 3:
            variables.append(variables[-1])
        clauses.append(
            tuple(var if rng.random() < 0.5 else -var for var in variables)
        )
    return QBF(quantifiers, tuple(clauses))


def brute_force_qbf(qbf: QBF) -> bool:
    """Exhaustive quantifier expansion; the differential baseline."""

    def evaluate(index: int, assignment: dict[int, bool]) -> bool:
        if index > qbf.num_vars:
            return all(
                any(
                    assignment[abs(literal)] == (literal > 0)
                    for literal in clause
                )
                for clause in qbf.clauses
            )
        results = (
            evaluate(index + 1, {**assignment, index: value})
            for value in (False, True)
        )
        if qbf.quantifiers[index - 1] == "e":
            return any(results)
        return all(results)

    return evaluate(1, {})


def qbf_to_jsl(qbf: QBF) -> jsl.Formula:
    """The Proposition 7 reduction: satisfiable iff the QBF is true."""
    lang_t = KeyLang.word("T")
    lang_f = KeyLang.word("F")

    def tree_shape(index: int) -> jsl.Formula:
        """Structure below (and including) the node of variable ``index``."""
        if index > qbf.num_vars:
            return jsl.Top()
        below = tree_shape(index + 1)
        dia_t = jsl.DiaKey(lang_t, jsl.Top())
        dia_f = jsl.DiaKey(lang_f, jsl.Top())
        if qbf.quantifiers[index - 1] == "e":
            choice: jsl.Formula = jsl.Or(
                jsl.And(dia_t, jsl.Not(dia_f)),
                jsl.And(jsl.Not(dia_t), dia_f),
            )
        else:
            choice = jsl.And(dia_t, dia_f)
        return jsl.conj([choice, jsl.BoxKey(_TF, below)])

    def clause_violation(clause: tuple[int, int, int]) -> jsl.Formula:
        """DIA-path hitting the falsifying branch of every literal."""
        # Falsifying value: F for a positive literal, T for a negative one.
        by_var: dict[int, str] = {}
        for literal in clause:
            value = "F" if literal > 0 else "T"
            if by_var.setdefault(abs(literal), value) != value:
                # The clause contains x and not-x: a tautology that no
                # assignment falsifies.
                return jsl.bottom()
        formula: jsl.Formula = jsl.Top()
        for index in range(qbf.num_vars, 0, -1):
            value = by_var.get(index)
            if value is None:
                formula = jsl.DiaKey(_TF, formula)
            else:
                formula = jsl.DiaKey(KeyLang.word(value), formula)
        return formula

    parts: list[jsl.Formula] = [tree_shape(1)]
    for clause in qbf.clauses:
        parts.append(jsl.Not(clause_violation(clause)))
    return jsl.conj(parts)
