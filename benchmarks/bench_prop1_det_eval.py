"""E1 -- Proposition 1: deterministic JNL evaluation is O(|J| x |phi|).

Reproduction target: runtime linear in the document size and in the
formula size, including the equality operators (via online canonical
hashing).  The fitted log-log slope against |J| should sit near 1.
"""

from __future__ import annotations

import pytest

from repro.jnl import builder as q
from repro.jnl.efficient import evaluate_unary
from repro.jnl.parser import parse_jnl
from repro.reference.harness import format_table, loglog_slope, run_series
from repro.reference.workloads import balanced_tree

SIZES = [2, 4, 8, 16, 32]  # branching of a depth-3 balanced tree

FORMULA = parse_jnl(
    "has(.c0.c1.c2) and matches(.c1.c0, 3) and "
    "eq(.c0.c1, .c1.c1) and not has(.c0.missing)"
)


def _formula_of_size(length: int):
    parts = [q.has(q.compose(*(q.key(f"c{i % 3}") for i in range(1, 3))))
             for _ in range(length)]
    return q.conj(parts)


@pytest.mark.parametrize("branching", SIZES)
def test_det_eval_scaling_in_document(benchmark, branching):
    tree = balanced_tree(branching, 3)
    benchmark(lambda: evaluate_unary(tree, FORMULA))


@pytest.mark.parametrize("length", [4, 8, 16, 32])
def test_det_eval_scaling_in_formula(benchmark, length):
    tree = balanced_tree(8, 3)
    formula = _formula_of_size(length)
    benchmark(lambda: evaluate_unary(tree, formula))


def main() -> str:
    doc_series = run_series(
        SIZES,
        make_input=lambda b: balanced_tree(b, 3),
        run=lambda tree: evaluate_unary(tree, FORMULA),
    )
    sizes = [len(balanced_tree(b, 3)) for b in SIZES]
    rows = [
        [n, f"{p.seconds * 1e3:.2f} ms"]
        for n, p in zip(sizes, doc_series)
    ]
    points = [type(p)(n, p.seconds) for n, p in zip(sizes, doc_series)]
    slope = loglog_slope(points)
    table = format_table(
        "E1 / Prop 1: deterministic JNL evaluation vs |J| "
        f"(paper: linear; fitted slope {slope:.2f})",
        ["|J| (nodes)", "time"],
        rows,
    )
    return table


if __name__ == "__main__":
    print(main())
