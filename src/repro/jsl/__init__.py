"""JSON Schema Logic (Section 5 of the paper).

* :mod:`repro.jsl.ast` -- formulas, node tests, recursive expressions;
* :mod:`repro.jsl.parser` -- a concrete text syntax;
* :mod:`repro.jsl.recursion` -- precedence graphs and well-formedness;
* :mod:`repro.jsl.bottom_up` -- Proposition 9 PTIME evaluation;
* :mod:`repro.jsl.satisfiability` -- the Proposition 7/10 engine.

The Proposition 6 evaluator and the Section 5.3 unfolding semantics
are reference implementations: :mod:`repro.reference.jsl_evaluator`
and :mod:`repro.reference.unfold`.
"""

from repro.jsl.ast import And, Not, RecursiveJSL, Ref, formula_size, is_deterministic
from repro.jsl.parser import parse_jsl, parse_jsl_formula

__all__ = [
    "Not",
    "And",
    "Ref",
    "RecursiveJSL",
    "formula_size",
    "is_deterministic",
    "parse_jsl",
    "parse_jsl_formula",
]
