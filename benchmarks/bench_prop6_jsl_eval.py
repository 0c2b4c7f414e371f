"""E6 -- Proposition 6: JSL evaluation; the Unique ablation.

Reproduction targets: linear evaluation without Unique (slope ~1);
with Unique, the naive pairwise comparison the paper prices quadratic
(slope ~2 on duplicate-heavy arrays) against the hash-grouped variant
that stays near-linear (``exact_unique`` selects the pairwise one).
"""

from __future__ import annotations

import pytest

from repro.jsl.parser import parse_jsl_formula
from repro.model.tree import JSONTree
from repro.reference.harness import format_table, loglog_slope, run_series
from repro.reference.jsl_evaluator import satisfies
from repro.reference.workloads import balanced_tree

PLAIN = parse_jsl_formula(
    "object and all(./c.*/, object or number) and some(.c0, minch(1))"
)
UNIQUE = parse_jsl_formula("unique")

WIDTHS = [100, 200, 400, 800]


def _all_distinct_array(width: int) -> JSONTree:
    # All children distinct: the pairwise loop cannot exit early, so it
    # performs every one of the n(n-1)/2 comparisons.
    return JSONTree.from_value([[i] for i in range(width)])


@pytest.mark.parametrize("branching", [2, 4, 8, 16])
def test_plain_jsl_eval(benchmark, branching):
    tree = balanced_tree(branching, 3)
    benchmark(lambda: satisfies(tree, PLAIN))


@pytest.mark.parametrize("width", WIDTHS)
def test_unique_exact_pairwise(benchmark, width):
    tree = _all_distinct_array(width)
    benchmark(lambda: satisfies(tree, UNIQUE, exact_unique=True))


@pytest.mark.parametrize("width", WIDTHS)
def test_unique_hash_grouped(benchmark, width):
    tree = _all_distinct_array(width)
    benchmark(lambda: satisfies(tree, UNIQUE, exact_unique=False))


def main() -> str:
    def unique_series(exact: bool):
        return run_series(
            WIDTHS,
            make_input=_all_distinct_array,
            run=lambda tree: satisfies(tree, UNIQUE, exact_unique=exact),
        )

    exact = unique_series(True)
    hashed = unique_series(False)
    rows = [
        [p1.x, f"{p1.seconds*1e3:.2f} ms", f"{p2.seconds*1e3:.2f} ms"]
        for p1, p2 in zip(exact, hashed)
    ]
    return format_table(
        "E6 / Prop 6: Unique evaluation, pairwise vs hash-grouped "
        f"(paper: quadratic [slope {loglog_slope(exact):.2f}] vs the "
        f"linear-in-practice ablation [slope {loglog_slope(hashed):.2f}])",
        ["array width", "exact pairwise", "hash grouped"],
        rows,
    )


if __name__ == "__main__":
    print(main())
