"""E10 -- Proposition 10: recursive JSL satisfiability via J-automata.

Reproduction targets: emptiness of growing definition systems is
decided with witnesses (EXPTIME-c without Unique); Example 5's
complete-binary-tree expression -- which needs the Unique counting the
paper prices one exponential higher -- also solves, and round-trips
through the J-automaton interface.
"""

from __future__ import annotations

import pytest

from repro.jsl.parser import parse_jsl
from repro.jsl.satisfiability import jsl_satisfiable
from repro.reference.harness import format_table, measure
from repro.reference.jautomata import from_recursive_jsl

EXAMPLE5 = parse_jsl(
    "def g := not some([0:0], true) or "
    "(minch(2) and maxch(2) and not unique and all([0:1], $g));"
    "array and minch(2) and $g"
)


def _chain_expression(length: int):
    """gamma_0 -> ... -> gamma_n, each step forcing one more key level."""
    text_parts = []
    for index in range(length):
        nxt = f"$g{index + 1}" if index + 1 < length else 'value("end")'
        text_parts.append(f"def g{index} := some(.k{index}, {nxt});")
    text_parts.append("$g0")
    return parse_jsl("".join(text_parts))


LENGTHS = [2, 4, 8, 12]


@pytest.mark.parametrize("length", LENGTHS)
def test_recursive_sat_chain(benchmark, length):
    expression = _chain_expression(length)
    result = benchmark(lambda: jsl_satisfiable(expression))
    assert result.satisfiable
    assert result.witness.height() == length


def test_example5_with_unique_counting(benchmark):
    result = benchmark(lambda: jsl_satisfiable(EXAMPLE5))
    assert result.satisfiable


def test_jautomaton_emptiness(benchmark):
    automaton = from_recursive_jsl(_chain_expression(6))
    assert not benchmark(lambda: automaton.is_empty())


def main() -> str:
    rows = []
    for length in LENGTHS:
        expression = _chain_expression(length)
        seconds = measure(lambda e=expression: jsl_satisfiable(e), repeat=2)
        result = jsl_satisfiable(expression)
        rows.append(
            [
                length,
                "SAT" if result.satisfiable else "UNSAT",
                result.goals_explored,
                f"{seconds * 1e3:.1f} ms",
            ]
        )
    ex5 = jsl_satisfiable(EXAMPLE5)
    ex5_time = measure(lambda: jsl_satisfiable(EXAMPLE5), repeat=2)
    rows.append(
        ["Ex.5 (Unique)", "SAT" if ex5.satisfiable else "UNSAT",
         ex5.goals_explored, f"{ex5_time * 1e3:.1f} ms"]
    )
    return format_table(
        "E10 / Prop 10: recursive JSL satisfiability "
        "(paper: EXPTIME-c without Unique, 2EXPTIME with; "
        "witnesses certified)",
        ["definitions", "verdict", "goals", "time"],
        rows,
    )


if __name__ == "__main__":
    print(main())
