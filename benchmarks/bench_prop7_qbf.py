"""E7 -- Proposition 7: QBF --> JSL satisfiability (PSPACE-hardness).

Reproduction target: the reduction decides exactly like brute-force
QBF expansion on every instance, and cost grows with quantifier count.
"""

from __future__ import annotations

import pytest

from repro.jsl.satisfiability import jsl_satisfiable
from repro.reference.harness import format_table, measure
from repro.reference.reductions import brute_force_qbf, qbf_to_jsl, random_qbf

INSTANCES = [(2, 3), (3, 4), (4, 5), (5, 6)]


@pytest.mark.parametrize("num_vars,num_clauses", INSTANCES)
def test_qbf_reduction_solving(benchmark, num_vars, num_clauses):
    qbf = random_qbf(num_vars, num_clauses, seed=num_vars * 7)
    formula = qbf_to_jsl(qbf)
    result = benchmark(lambda: jsl_satisfiable(formula))
    assert result.satisfiable == brute_force_qbf(qbf)


def main() -> str:
    rows = []
    for num_vars, num_clauses in INSTANCES:
        agreements, total = 0, 6
        solver_time = 0.0
        for seed in range(total):
            qbf = random_qbf(num_vars, num_clauses, seed)
            formula = qbf_to_jsl(qbf)
            solver_time += measure(
                lambda f=formula: jsl_satisfiable(f), repeat=1
            )
            if jsl_satisfiable(formula).satisfiable == brute_force_qbf(qbf):
                agreements += 1
        rows.append(
            [
                f"{num_vars}v/{num_clauses}c",
                f"{agreements}/{total}",
                f"{solver_time / total * 1e3:.1f} ms",
            ]
        )
    return format_table(
        "E7 / Prop 7: QBF -> JSL satisfiability (paper: PSPACE-complete "
        "without Unique; reduction must agree with QBF expansion)",
        ["instance", "agreement", "JSL solver"],
        rows,
    )


if __name__ == "__main__":
    print(main())
