"""E2 -- Proposition 2: JNL satisfiability is NP-complete.

Reproduction targets: (a) the 3SAT reduction decides exactly like a
brute-force SAT solver, (b) witnesses decode to satisfying assignments,
(c) runtime grows with instance size (the hardness is inherent).
"""

from __future__ import annotations

import pytest

from repro.jnl.satisfiability import jnl_satisfiable
from repro.reference.harness import format_table, measure
from repro.reference.reductions import brute_force_sat, cnf_to_jnl, random_3cnf

INSTANCES = [(3, 6), (4, 8), (5, 10), (6, 12)]


@pytest.mark.parametrize("num_vars,num_clauses", INSTANCES)
def test_sat3_reduction_solving(benchmark, num_vars, num_clauses):
    cnf = random_3cnf(num_vars, num_clauses, seed=num_vars)
    formula = cnf_to_jnl(cnf)
    result = benchmark(lambda: jnl_satisfiable(formula))
    assert result.satisfiable == (brute_force_sat(cnf) is not None)


def test_sat3_brute_force_baseline(benchmark):
    cnf = random_3cnf(6, 12, seed=6)
    benchmark(lambda: brute_force_sat(cnf))


def main() -> str:
    rows = []
    for num_vars, num_clauses in INSTANCES:
        agreements = 0
        total = 6
        solver_time = 0.0
        brute_time = 0.0
        for seed in range(total):
            cnf = random_3cnf(num_vars, num_clauses, seed)
            formula = cnf_to_jnl(cnf)
            expected = None
            brute_time += measure(
                lambda c=cnf: brute_force_sat(c), repeat=1
            )
            expected = brute_force_sat(cnf) is not None
            solver_time += measure(
                lambda f=formula: jnl_satisfiable(f), repeat=1
            )
            if jnl_satisfiable(formula).satisfiable == expected:
                agreements += 1
        rows.append(
            [
                f"{num_vars}v/{num_clauses}c",
                f"{agreements}/{total}",
                f"{solver_time / total * 1e3:.1f} ms",
                f"{brute_time / total * 1e3:.3f} ms",
            ]
        )
    return format_table(
        "E2 / Prop 2: 3SAT -> JNL satisfiability (paper: NP-complete; "
        "reduction must agree with brute force)",
        ["instance", "agreement", "JNL solver", "brute force"],
        rows,
    )


if __name__ == "__main__":
    print(main())
