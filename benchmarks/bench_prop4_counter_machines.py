"""E4 -- Proposition 4: the undecidability encoding, executed.

Reproduction target: the two-counter-machine formula is satisfied by
encodings of halting runs and rejected on corrupted ones; checking cost
grows with run length (each step checks whole-counter subtree
equalities).
"""

from __future__ import annotations

import pytest

from repro.jnl.efficient import evaluate_unary
from repro.reference.harness import format_table, measure
from repro.reference.reductions import (
    TwoCounterMachine,
    encode_run,
    machine_to_jnl,
    run_machine,
)


def _count_up_down_machine(rounds: int) -> TwoCounterMachine:
    """inc counter 1 ``rounds`` times, then drain it, then halt."""
    program: dict = {}
    for i in range(rounds):
        program[f"u{i}"] = ("inc", 1, f"u{i + 1}")
    program[f"u{rounds}"] = ("jz", 1, "qf", "d0")
    program["d0"] = ("dec", 1, f"u{rounds}")
    program["qf"] = ("halt",)
    return TwoCounterMachine(program, "u0", "qf")


ROUNDS = [2, 4, 8, 12]


@pytest.mark.parametrize("rounds", ROUNDS)
def test_halting_run_check(benchmark, rounds):
    machine = _count_up_down_machine(rounds)
    trace = run_machine(machine)
    assert trace is not None
    tree = encode_run(trace)
    formula = machine_to_jnl(machine)
    accepted = benchmark(lambda: tree.root in evaluate_unary(tree, formula))
    assert accepted


def main() -> str:
    rows = []
    for rounds in ROUNDS:
        machine = _count_up_down_machine(rounds)
        trace = run_machine(machine)
        assert trace is not None
        tree = encode_run(trace)
        formula = machine_to_jnl(machine)
        seconds = measure(
            lambda: evaluate_unary(tree, formula), repeat=2
        )
        accepted = tree.root in evaluate_unary(tree, formula)
        corrupted = [list(c) for c in trace]
        corrupted[1][0] = "qf"
        bad_tree = encode_run([tuple(c) for c in corrupted])
        rejected = bad_tree.root not in evaluate_unary(bad_tree, formula)
        rows.append(
            [
                len(trace),
                len(tree),
                "yes" if accepted else "NO",
                "yes" if rejected else "NO",
                f"{seconds * 1e3:.2f} ms",
            ]
        )
    return format_table(
        "E4 / Prop 4: two-counter-machine encoding "
        "(halting runs accepted, corrupted runs rejected; "
        "satisfiability itself is undecidable and refused by the solver)",
        ["run len", "|J|", "run accepted", "corruption rejected", "check time"],
        rows,
    )


if __name__ == "__main__":
    print(main())
