"""Bounded-model entailment over (recursive) JSL formulas.

The semantic optimizer (:mod:`repro.query.optimizer`) asks two kinds of
question about a collection schema ``S`` and a query formula ``Q``,
both phrased as satisfiability through :func:`repro.jsl.satisfiability.
jsl_satisfiable`:

* **emptiness** -- ``S ^ Q`` unsatisfiable means no document the schema
  admits can match the query, so the answer is empty;
* **entailment** -- ``S ^ ~Q`` unsatisfiable means every document the
  schema admits matches ``Q``, so per-document verification of ``Q``
  can be dropped.

Both operands may be :class:`~repro.jsl.ast.RecursiveJSL` (schemas with
``definitions``, star translations from Theorem 2), so conjunction and
negation must merge two definition lists without capturing each
other's reference names: :func:`conjoin` renames every definition (and
every :class:`~repro.jsl.ast.Ref` into it) apart before combining.

A premise asked about repeatedly is better compiled once: pass a
:class:`~repro.jsl.satisfiability.ProverSession` built by
:func:`premise_session` as the left operand of :func:`conjoin` and the
result is an :class:`Obligation` -- the same conjunction, posed to the
warm session -- which :func:`unsat` decides without re-solving the
premise.

The solver is sound but bounded: :func:`unsat` trusts an UNSAT answer
only when the solver reports ``complete=True``; an incomplete run (or
a SAT answer) is "not proven", never a verdict.  Callers therefore get
``(proved, complete)`` and must fall through to the unoptimized path
on ``proved=False`` -- which keeps every optimizer decision a pure
performance question, never a correctness one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.jsl import ast
from repro.jsl.satisfiability import (
    ProverSession,
    SatResult,
    SolverConfig,
    jsl_satisfiable,
)

__all__ = [
    "Obligation",
    "premise_session",
    "conjoin",
    "negate",
    "unsat",
    "entails",
]

JSL = "ast.Formula | ast.RecursiveJSL"


def _rename_refs(formula: ast.Formula, mapping: dict[str, str]) -> ast.Formula:
    """The formula with every ``Ref`` renamed through ``mapping``."""
    if isinstance(formula, ast.Ref):
        renamed = mapping.get(formula.name)
        return formula if renamed is None else ast.Ref(renamed)
    if isinstance(formula, ast.Not):
        return ast.Not(_rename_refs(formula.operand, mapping))
    if isinstance(formula, ast.And):
        return ast.And(
            _rename_refs(formula.left, mapping),
            _rename_refs(formula.right, mapping),
        )
    if isinstance(formula, ast.Or):
        return ast.Or(
            _rename_refs(formula.left, mapping),
            _rename_refs(formula.right, mapping),
        )
    if isinstance(formula, ast.DiaKey):
        return ast.DiaKey(formula.lang, _rename_refs(formula.body, mapping))
    if isinstance(formula, ast.BoxKey):
        return ast.BoxKey(formula.lang, _rename_refs(formula.body, mapping))
    if isinstance(formula, ast.DiaIdx):
        return ast.DiaIdx(
            formula.low, formula.high, _rename_refs(formula.body, mapping)
        )
    if isinstance(formula, ast.BoxIdx):
        return ast.BoxIdx(
            formula.low, formula.high, _rename_refs(formula.body, mapping)
        )
    # Top / TestAtom: no references below.
    return formula


def _split(
    operand: "ast.Formula | ast.RecursiveJSL",
) -> tuple[tuple[tuple[str, ast.Formula], ...], ast.Formula]:
    if isinstance(operand, ast.RecursiveJSL):
        return operand.definitions, operand.base
    return (), operand


def _apart(
    operand: "ast.Formula | ast.RecursiveJSL", position: int
) -> tuple[list[tuple[str, ast.Formula]], ast.Formula]:
    """The operand's definitions and base, renamed apart from others'.

    Definition names are rewritten to ``_e{position}_{name}``, so two
    schemas both defining ``node`` (or a schema and a Theorem-2 star
    translation both using generated names) never capture each other's
    references when their definition lists concatenate.
    """
    defs, base = _split(operand)
    mapping = {name: f"_e{position}_{name}" for name, _body in defs}
    definitions = [
        (mapping[name], _rename_refs(body, mapping)) for name, body in defs
    ]
    return definitions, _rename_refs(base, mapping)


def _join(
    definitions: list[tuple[str, ast.Formula]], base: ast.Formula
) -> "ast.Formula | ast.RecursiveJSL":
    return ast.RecursiveJSL(tuple(definitions), base) if definitions else base


@dataclass(frozen=True)
class Obligation:
    """``premise ^ payload``, posed to a session that holds the premise."""

    session: ProverSession
    payload: "ast.Formula | ast.RecursiveJSL"


def premise_session(
    premise: "ast.Formula | ast.RecursiveJSL",
    config: SolverConfig | None = None,
) -> ProverSession:
    """A session for ``premise`` as the left operand of :func:`conjoin`."""
    return ProverSession(_join(*_apart(premise, 0)), config)


def conjoin(
    left: "ast.Formula | ast.RecursiveJSL | ProverSession",
    right: "ast.Formula | ast.RecursiveJSL",
) -> "ast.Formula | ast.RecursiveJSL | Obligation":
    """``left ^ right`` with hygienically merged definition lists.

    With a :func:`premise_session` on the left, the conjunction stays
    unmerged: an :class:`Obligation` for the session to decide.
    """
    right_definitions, right_base = _apart(right, 1)
    if isinstance(left, ProverSession):
        return Obligation(left, _join(right_definitions, right_base))
    definitions, left_base = _apart(left, 0)
    return _join(definitions + right_definitions, ast.And(left_base, right_base))


def negate(
    operand: "ast.Formula | ast.RecursiveJSL",
) -> "ast.Formula | ast.RecursiveJSL":
    """``~operand``, negating only the base of a recursive expression.

    Sound because recursive-JSL definitions are just named formulas
    (references resolve to their bodies, not to fixpoints over the
    negation): negating the base negates exactly the defined property.
    """
    if isinstance(operand, ast.RecursiveJSL):
        return ast.RecursiveJSL(operand.definitions, ast.Not(operand.base))
    return ast.Not(operand)


def unsat(
    formula: "ast.Formula | ast.RecursiveJSL | Obligation",
    config: SolverConfig | None = None,
) -> tuple[bool, bool]:
    """``(proved_unsat, complete)`` for a formula, trusting the solver
    only when it finished inside its resource bounds.

    ``(True, True)``: genuinely unsatisfiable.  ``(False, True)``: a
    witness exists.  ``(False, False)``: the solver gave up -- the
    caller must fall through, and may record the timeout.  An
    :class:`Obligation` is decided under its session's bounds;
    ``config`` applies to bare formulas.
    """
    result: SatResult
    if isinstance(formula, Obligation):
        result = formula.session.satisfiable(formula.payload)
    else:
        result = jsl_satisfiable(formula, config)
    if result.satisfiable:
        return False, True
    return result.complete, result.complete


def entails(
    premise: "ast.Formula | ast.RecursiveJSL",
    conclusion: "ast.Formula | ast.RecursiveJSL",
    config: SolverConfig | None = None,
) -> tuple[bool, bool]:
    """``(proved, complete)`` for ``premise |= conclusion``.

    Reduction: the premise entails the conclusion exactly when
    ``premise ^ ~conclusion`` is unsatisfiable.
    """
    return unsat(conjoin(premise, negate(conclusion)), config)
