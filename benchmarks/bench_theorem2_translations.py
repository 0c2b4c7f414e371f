"""T2 -- Theorem 2: JNL <-> JSL translation costs.

Reproduction targets: JSL -> JNL output grows linearly with the input
(the paper: polynomial), JNL -> JSL blows up exponentially on the
union-chain worst case, and both translations preserve node sets.
"""

from __future__ import annotations

import random

import pytest

from repro.jnl import ast as jnl
from repro.jnl.efficient import evaluate_unary
from repro.jsl import ast as jsl_ast
from repro.reference.harness import SeriesPoint, format_table, loglog_slope
from repro.reference.jsl_evaluator import nodes_satisfying
from repro.reference.jsl_to_jnl import jsl_to_jnl
from repro.reference.workloads import TreeShape, random_jsl_formula, random_tree
from repro.translate import jnl_to_jsl


def _union_chain(length: int) -> jnl.Unary:
    step = jnl.Union(jnl.Key("a"), jnl.Key("b"))
    path: jnl.Binary = step
    for _ in range(length - 1):
        path = jnl.Compose(step, path)
    return jnl.Exists(path)


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_jsl_to_jnl_translation(benchmark, depth):
    rng = random.Random(depth)
    formula = random_jsl_formula(rng, depth)
    benchmark(lambda: jsl_to_jnl(formula))


@pytest.mark.parametrize("length", [4, 6, 8])
def test_jnl_to_jsl_worst_case(benchmark, length):
    formula = _union_chain(length)
    benchmark(lambda: jnl_to_jsl(formula))


def test_translations_preserve_semantics(benchmark):
    rng = random.Random(42)
    formulas = [random_jsl_formula(rng, 3) for _ in range(10)]
    trees = [
        random_tree(i, TreeShape(max_depth=3, max_children=3))
        for i in range(5)
    ]

    def verify():
        for formula in formulas:
            translated = jsl_to_jnl(formula)
            for tree in trees:
                if set(nodes_satisfying(tree, formula)) != set(
                    evaluate_unary(tree, translated)
                ):
                    return False
        return True

    assert benchmark(verify)


def main() -> str:
    forward_rows = []
    for depth in (2, 3, 4, 5):
        rng = random.Random(depth)
        formula = random_jsl_formula(rng, depth)
        translated = jsl_to_jnl(formula)
        forward_rows.append(
            SeriesPoint(
                jsl_ast.formula_size(formula),
                float(jnl.formula_size(translated)),
            )
        )
    backward_rows = []
    for length in (2, 4, 6, 8, 10):
        formula = _union_chain(length)
        translated = jnl_to_jsl(formula)
        backward_rows.append(
            (length, jnl.formula_size(formula),
             jsl_ast.formula_size(translated))
        )
    rows = [
        [point.x, int(point.seconds)] for point in forward_rows
    ]
    table1 = format_table(
        "T2a / Theorem 2: JSL -> JNL output size vs input size "
        f"(paper: polynomial; fitted slope {loglog_slope(forward_rows):.2f})",
        ["|JSL input|", "|JNL output|"],
        rows,
    )
    table2 = format_table(
        "T2b / Theorem 2: JNL -> JSL on the union-chain worst case "
        "(paper: worst-case exponential)",
        ["chain length", "|JNL input|", "|JSL output|"],
        [list(row) for row in backward_rows],
    )
    return table1 + "\n\n" + table2


if __name__ == "__main__":
    print(main())
