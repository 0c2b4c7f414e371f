"""Executable hardness reductions from the paper's lower-bound proofs.

* :mod:`repro.reference.reductions.sat3` -- 3SAT to JNL satisfiability (Prop. 2);
* :mod:`repro.reference.reductions.qbf` -- QBF to JSL satisfiability (Prop. 7);
* :mod:`repro.reference.reductions.circuits` -- circuit value to recursive JSL
  evaluation (Prop. 9);
* :mod:`repro.reference.reductions.counter_machines` -- two-counter machines to
  recursive JNL with EQ(alpha, beta) (Prop. 4, undecidability).
"""

from repro.reference.reductions.circuits import (
    circuit_to_jsl,
    evaluate_circuit,
    random_circuit,
)
from repro.reference.reductions.counter_machines import (
    TwoCounterMachine,
    encode_run,
    machine_to_jnl,
    run_machine,
)
from repro.reference.reductions.qbf import QBF, brute_force_qbf, qbf_to_jsl, random_qbf
from repro.reference.reductions.sat3 import (
    CNF3,
    assignment_from_witness,
    brute_force_sat,
    cnf_to_jnl,
    random_3cnf,
)

__all__ = [
    "CNF3",
    "random_3cnf",
    "brute_force_sat",
    "cnf_to_jnl",
    "assignment_from_witness",
    "QBF",
    "random_qbf",
    "brute_force_qbf",
    "qbf_to_jsl",
    "random_circuit",
    "evaluate_circuit",
    "circuit_to_jsl",
    "TwoCounterMachine",
    "run_machine",
    "encode_run",
    "machine_to_jnl",
]
