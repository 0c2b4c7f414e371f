"""E3 -- Proposition 3: non-det + recursive JNL evaluation.

Reproduction target: linear scaling (slope ~1) without EQ(alpha,beta),
super-linear (the paper prices the full logic cubic; our per-node
forward scheme is ~quadratic on these trees) when EQ(alpha,beta) joins
non-determinism -- the crossover the paper's statement describes.
"""

from __future__ import annotations

import pytest

from repro.jnl.efficient import evaluate_unary
from repro.jnl.parser import parse_jnl
from repro.reference.harness import SeriesPoint, format_table, loglog_slope, run_series
from repro.reference.workloads import deep_chain

# On a chain of depth n, EQ(alpha, beta) with a starred path needs the
# set of subtree values below every node: Theta(n^2) work; the same
# star without EQ(a, b) is a single backward reachability pass.
LINEAR_FORMULA = parse_jnl('has((.a)* <matches(eps, "0")>)')
EQPATH_FORMULA = parse_jnl("eq((.a)*, .a)")

DEPTHS = [100, 200, 400, 800]


def _tree(depth: int):
    return deep_chain(depth)


@pytest.mark.parametrize("depth", DEPTHS)
def test_recursive_eval_without_eqpath(benchmark, depth):
    tree = _tree(depth)
    benchmark(lambda: evaluate_unary(tree, LINEAR_FORMULA))


@pytest.mark.parametrize("depth", [100, 200, 400])
def test_recursive_eval_with_eqpath(benchmark, depth):
    tree = _tree(depth)
    benchmark(lambda: evaluate_unary(tree, EQPATH_FORMULA))


def main() -> str:
    def series(formula, depths):
        raw = run_series(
            depths,
            make_input=_tree,
            run=lambda tree, f=formula: evaluate_unary(tree, f),
        )
        return [
            SeriesPoint(d + 1, p.seconds) for d, p in zip(depths, raw)
        ]

    without = series(LINEAR_FORMULA, DEPTHS)
    with_eq = series(EQPATH_FORMULA, DEPTHS)
    rows = [
        [p1.x, f"{p1.seconds*1e3:.2f} ms", f"{p2.seconds*1e3:.2f} ms"]
        for p1, p2 in zip(without, with_eq)
    ]
    return format_table(
        "E3 / Prop 3: recursive non-det JNL evaluation vs |J| "
        f"(paper: linear w/o EQ(a,b) [slope {loglog_slope(without):.2f}], "
        f"super-linear with it [slope {loglog_slope(with_eq):.2f}])",
        ["|J|", "without EQ(a,b)", "with EQ(a,b)"],
        rows,
    )


if __name__ == "__main__":
    print(main())
