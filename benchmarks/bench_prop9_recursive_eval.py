"""E9 -- Proposition 9: recursive JSL evaluation is PTIME.

Reproduction targets: (a) the bottom-up algorithm scales linearly in
|J| where the paper's unfold semantics blows up in formula size, and
(b) the circuit-value reduction evaluates correctly (the PTIME-hardness
direction).
"""

from __future__ import annotations

import random

import pytest

from repro.jsl import formula_size
from repro.jsl.bottom_up import satisfies_recursive
from repro.jsl.parser import parse_jsl
from repro.reference.harness import (
    SeriesPoint,
    format_table,
    loglog_slope,
    run_series,
)
from repro.reference.reductions import circuit_to_jsl, evaluate_circuit, random_circuit
from repro.reference.reductions.circuits import assignment_to_document
from repro.reference.unfold import unfold
from repro.reference.workloads import even_depth_tree

EVEN = parse_jsl(
    "def g1 := all(.*, $g2);"
    "def g2 := some(.*, true) and all(.*, $g1);"
    "$g1"
)

DEPTHS = [4, 6, 8, 10]


@pytest.mark.parametrize("depth", DEPTHS)
def test_bottom_up_even_paths(benchmark, depth):
    tree = even_depth_tree(depth)
    assert benchmark(lambda: satisfies_recursive(tree, EVEN))


@pytest.mark.parametrize("gates", [10, 20, 40])
def test_circuit_value_reduction(benchmark, gates):
    circuit = random_circuit(num_inputs=5, num_gates=gates, seed=gates)
    rng = random.Random(gates)
    inputs = {i: rng.random() < 0.5 for i in range(1, 6)}
    doc = assignment_to_document(circuit, inputs)
    expression = circuit_to_jsl(circuit)
    result = benchmark(lambda: satisfies_recursive(doc, expression))
    assert result == evaluate_circuit(circuit, inputs)


# A definition referencing itself under two different modalities: its
# unfold_J doubles at every height level -- the "very inefficient
# evaluation algorithms" the paper replaces with Proposition 9.
DOUBLING = parse_jsl(
    "def d := all(.a, $d) and all(.b, $d) and maxch(2);"
    "$d"
)


def main() -> str:
    bottom_up = run_series(
        DEPTHS,
        make_input=even_depth_tree,
        run=lambda tree: satisfies_recursive(tree, EVEN),
    )
    sized = [
        SeriesPoint(len(even_depth_tree(d)), p.seconds)
        for d, p in zip(DEPTHS, bottom_up)
    ]
    rows = []
    for depth, point in zip(DEPTHS, bottom_up):
        tree = even_depth_tree(depth)
        unfolded_size = formula_size(unfold(DOUBLING, depth))
        rows.append(
            [
                len(tree),
                f"{point.seconds * 1e3:.2f} ms",
                unfolded_size,
            ]
        )
    return format_table(
        "E9 / Prop 9: recursive JSL evaluation (paper: PTIME bottom-up "
        f"[slope {loglog_slope(sized):.2f}] while unfold_J of a "
        "doubly-referencing definition grows exponentially with height)",
        ["|J|", "bottom-up time", "unfold_J size (doubling def)"],
        rows,
    )


if __name__ == "__main__":
    print(main())
