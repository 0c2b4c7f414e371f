"""JSON Navigational Logic (Section 4 of the paper).

* :mod:`repro.jnl.ast` -- the formula AST (deterministic core,
  non-determinism, recursion, flagged extensions);
* :mod:`repro.jnl.builder` -- ergonomic constructors;
* :mod:`repro.jnl.parser` -- a concrete text syntax;
* :mod:`repro.jnl.efficient` -- the Proposition 1/3 evaluator;
* :mod:`repro.jnl.satisfiability` -- the Proposition 2/5 decision
  procedures.

The Section 4.2 denotational evaluator, the test oracle for
:mod:`repro.jnl.efficient`, is :mod:`repro.reference.jnl_evaluator`.
"""

from repro.jnl.ast import is_deterministic, is_recursive
from repro.jnl.efficient import evaluate_unary, target_nodes
from repro.jnl.parser import parse_jnl, parse_jnl_path

__all__ = [
    "is_deterministic",
    "is_recursive",
    "evaluate_unary",
    "target_nodes",
    "parse_jnl",
    "parse_jnl_path",
]
