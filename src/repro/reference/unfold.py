"""The paper's rewriting semantics for recursive JSL (Section 5.3).

Given a tree ``J`` of height ``h`` and a well-formed recursive
expression, ``unfold_J(psi)`` replaces every definition symbol by its
body until each remaining symbol sits under at least ``h + 1`` modal
operators, then replaces the survivors by ``K`` (falsity).  The paper
then *defines* ``J |= Delta  iff  J |= unfold_J(psi)``.

This construction can blow up exponentially in the query size -- the
paper notes it "leads to very inefficient evaluation algorithms" and
replaces it by the bottom-up PTIME procedure of Proposition 9
(:mod:`repro.jsl.bottom_up`).  We keep it as the reference semantics
for differential testing and for the Proposition 9 benchmark.
"""

from __future__ import annotations

from repro.errors import WellFormednessError
from repro.jsl import ast
from repro.jsl.recursion import check_well_formed
from repro.model.tree import JSONTree
from repro.reference.jsl_evaluator import JSLEvaluator

__all__ = ["unfold", "satisfies_by_unfolding"]


def unfold(expression: ast.RecursiveJSL, height: int) -> ast.Formula:
    """``unfold_J(psi)`` for trees of the given ``height``.

    Symbols whose expansion would sit under more than ``height`` modal
    operators are replaced by falsity; well-formedness guarantees the
    replacement terminates.
    """
    check_well_formed(expression)
    definitions = expression.definition_map()

    # Guard against pathological inputs: each level of expansion can at
    # most multiply the formula by the largest definition body, so the
    # result is bounded by |Delta|^(h+2).  We rebuild formulas
    # recursively over the (bounded) expansion structure.
    def expand(formula: ast.Formula, depth: int) -> ast.Formula:
        if isinstance(formula, ast.Ref):
            if depth > height:
                return ast.bottom()
            body = definitions.get(formula.name)
            if body is None:
                raise WellFormednessError(f"undefined symbol {formula.name!r}")
            return expand(body, depth)
        if isinstance(formula, (ast.Top, ast.TestAtom)):
            return formula
        if isinstance(formula, ast.Not):
            return ast.Not(expand(formula.operand, depth))
        if isinstance(formula, ast.And):
            return ast.And(expand(formula.left, depth), expand(formula.right, depth))
        if isinstance(formula, ast.Or):
            return ast.Or(expand(formula.left, depth), expand(formula.right, depth))
        if isinstance(formula, ast.DiaKey):
            return ast.DiaKey(formula.lang, expand(formula.body, depth + 1))
        if isinstance(formula, ast.BoxKey):
            return ast.BoxKey(formula.lang, expand(formula.body, depth + 1))
        if isinstance(formula, ast.DiaIdx):
            return ast.DiaIdx(
                formula.low, formula.high, expand(formula.body, depth + 1)
            )
        if isinstance(formula, ast.BoxIdx):
            return ast.BoxIdx(
                formula.low, formula.high, expand(formula.body, depth + 1)
            )
        raise TypeError(f"unknown JSL formula {formula!r}")

    return expand(expression.base, 0)


def satisfies_by_unfolding(
    tree: JSONTree,
    expression: ast.RecursiveJSL,
    node: int | None = None,
    *,
    exact_unique: bool = False,
) -> bool:
    """Reference evaluation: ``J |= Delta`` via ``unfold_J``.

    Exponential in general; use :func:`repro.jsl.bottom_up.
    satisfies_recursive` outside of tests.
    """
    target = tree.root if node is None else node
    height = tree.height(target)
    formula = unfold(expression, height)
    return JSLEvaluator(tree, exact_unique=exact_unique).satisfies(formula, target)
