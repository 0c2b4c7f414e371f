"""Direct evaluation of (non-recursive) JSL formulas (Proposition 6).

The evaluator computes node sets bottom-up over the formula structure.
Each subformula costs one pass over the tree's edges, so the total is
``O(|J| * |phi|)`` -- except for ``Unique``, which the paper prices at
``O(|J|^2)`` with naive pairwise subtree comparison.  The default here
uses canonical hashes (linear in practice, still exact); pass
``exact_unique=True`` to reproduce the quadratic behaviour in the
Proposition 6 ablation benchmark.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.jsl import ast
from repro.logic.nodetests import node_test_holds
from repro.model.tree import JSONTree

__all__ = ["JSLEvaluator", "nodes_satisfying", "satisfies"]


class JSLEvaluator:
    """Evaluates non-recursive JSL formulas over one tree, memoised.

    :class:`~repro.jsl.ast.Ref` is rejected here; recursive expressions
    are handled by :mod:`repro.jsl.bottom_up` (PTIME, Proposition 9) or
    :mod:`repro.reference.unfold` (the paper's rewriting semantics).
    """

    def __init__(self, tree: JSONTree, *, exact_unique: bool = False) -> None:
        self.tree = tree
        self.exact_unique = exact_unique
        self._memo: dict[ast.Formula, frozenset[int]] = {}

    def nodes_satisfying(self, formula: ast.Formula) -> frozenset[int]:
        cached = self._memo.get(formula)
        if cached is not None:
            return cached
        result = self._evaluate(formula)
        self._memo[formula] = result
        return result

    def satisfies(self, formula: ast.Formula, node: int | None = None) -> bool:
        """``(J, n) |= formula``; node defaults to the root (``J |= phi``)."""
        target = self.tree.root if node is None else node
        return target in self.nodes_satisfying(formula)

    def _evaluate(self, formula: ast.Formula) -> frozenset[int]:
        tree = self.tree
        if isinstance(formula, ast.Top):
            return frozenset(tree.nodes())
        if isinstance(formula, ast.Not):
            return frozenset(tree.nodes()) - self.nodes_satisfying(formula.operand)
        if isinstance(formula, ast.And):
            return self.nodes_satisfying(formula.left) & self.nodes_satisfying(
                formula.right
            )
        if isinstance(formula, ast.Or):
            return self.nodes_satisfying(formula.left) | self.nodes_satisfying(
                formula.right
            )
        if isinstance(formula, ast.TestAtom):
            return frozenset(
                node
                for node in tree.nodes()
                if node_test_holds(
                    tree, node, formula.test, exact_unique=self.exact_unique
                )
            )
        if isinstance(formula, ast.DiaKey):
            body = self.nodes_satisfying(formula.body)
            result: set[int] = set()
            for node in tree.nodes():
                for label, child in tree.edges(node):
                    if (
                        isinstance(label, str)
                        and child in body
                        and formula.lang.matches(label)
                    ):
                        result.add(node)
                        break
            return frozenset(result)
        if isinstance(formula, ast.BoxKey):
            body = self.nodes_satisfying(formula.body)
            result = set()
            for node in tree.nodes():
                if all(
                    child in body
                    for label, child in tree.edges(node)
                    if isinstance(label, str) and formula.lang.matches(label)
                ):
                    result.add(node)
            return frozenset(result)
        if isinstance(formula, ast.DiaIdx):
            body = self.nodes_satisfying(formula.body)
            result = set()
            for node in tree.nodes():
                for label, child in tree.edges(node):
                    if (
                        isinstance(label, int)
                        and child in body
                        and formula.low <= label
                        and (formula.high is None or label <= formula.high)
                    ):
                        result.add(node)
                        break
            return frozenset(result)
        if isinstance(formula, ast.BoxIdx):
            body = self.nodes_satisfying(formula.body)
            result = set()
            for node in tree.nodes():
                if all(
                    child in body
                    for label, child in tree.edges(node)
                    if isinstance(label, int)
                    and formula.low <= label
                    and (formula.high is None or label <= formula.high)
                ):
                    result.add(node)
            return frozenset(result)
        if isinstance(formula, ast.Ref):
            raise TranslationError(
                f"reference {formula.name!r} in a non-recursive evaluation; "
                "use repro.jsl.bottom_up for recursive JSL expressions"
            )
        raise TypeError(f"unknown JSL formula {formula!r}")


def nodes_satisfying(
    tree: JSONTree, formula: ast.Formula, *, exact_unique: bool = False
) -> frozenset[int]:
    """One-shot: all nodes satisfying a non-recursive JSL formula."""
    return JSLEvaluator(tree, exact_unique=exact_unique).nodes_satisfying(formula)


def satisfies(
    tree: JSONTree,
    formula: "ast.Formula | ast.RecursiveJSL",
    node: int | None = None,
    *,
    exact_unique: bool = False,
) -> bool:
    """The boolean Evaluation problem ``J |= phi`` (Proposition 6).

    Accepts plain formulas and recursive expressions.  Routed through
    the compiled-validator cache: the formula compiles once into
    point-evaluation closures (top-down from ``node``, visiting only
    the nodes the modalities reach) and repeated calls reuse the
    program.  JSL is downward-looking, so point evaluation agrees with
    the set-at-a-time reference :class:`JSLEvaluator`, which stays
    available (and differentially tested) as the paper-faithful
    interpreter.
    """
    from repro.validate import compile_jsl_validator

    return compile_jsl_validator(
        formula, exact_unique=exact_unique
    ).validate_tree(tree, node)
