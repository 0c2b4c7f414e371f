"""Satisfiability of JNL (Propositions 2, 4 and 5).

The decision procedure follows the route the paper's proofs suggest:

* translate the JNL formula into (possibly recursive) JSL via the
  Theorem-2 construction (:mod:`repro.translate.jnl_to_jsl`) -- the
  Kleene star becomes guarded recursive definitions, exactly the
  "introducing definitions" trick in the Proposition 5 proof;
* decide the result with the Proposition 7/10 engine
  (:mod:`repro.jsl.satisfiability`);
* re-validate any witness against the *original* JNL formula with the
  efficient evaluator, so SAT answers are sound end to end.

``EQ(alpha, beta)`` is excluded: JSL cannot express it, and for the
non-deterministic recursive logic the problem is undecidable
(Proposition 4) -- the solver refuses rather than loops.  The
two-counter-machine encoding behind that proof is executable in
:mod:`repro.reference.reductions.counter_machines`.

Complexity context: deterministic JNL satisfiability is NP-complete
(Proposition 2; hardness via :mod:`repro.reference.reductions.sat3`), the
non-deterministic star-free fragment is PSPACE-complete and the
recursive one EXPTIME-complete (Proposition 5) -- so the underlying
engine's resource bounds are inherent, and results carry the same
``complete`` flag.
"""

from __future__ import annotations

from repro.errors import UnsupportedFragmentError
from repro.jnl import ast
from repro.jnl.efficient import evaluate_unary
from repro.jsl.satisfiability import SatResult, SolverConfig, jsl_satisfiable
from repro.translate.jnl_to_jsl import jnl_to_jsl

__all__ = ["jnl_satisfiable"]


def jnl_satisfiable(
    formula: ast.Unary, config: SolverConfig | None = None
) -> SatResult:
    """Decide satisfiability of a unary JNL formula without EQ(a, b).

    Raises :class:`UnsupportedFragmentError` on ``EQ(alpha, beta)``:
    with non-determinism and recursion the problem is undecidable
    (Proposition 4), and the engine draws the line at the fragment the
    paper proves decidable.
    """
    if ast.uses_eqpath(formula):
        if ast.is_recursive(formula) or not ast.is_deterministic(formula):
            raise UnsupportedFragmentError(
                "satisfiability with EQ(alpha, beta) plus non-determinism/"
                "recursion is undecidable (Proposition 4)"
            )
        raise UnsupportedFragmentError(
            "EQ(alpha, beta) satisfiability is not implemented: the JSL "
            "route cannot express it (the NP upper bound of Proposition 2 "
            "needs a dedicated tableau)"
        )
    translated = jnl_to_jsl(formula)
    result = jsl_satisfiable(translated, config)
    if result.satisfiable:
        witness = result.witness
        assert witness is not None
        if witness.root not in evaluate_unary(witness, formula):
            raise AssertionError(
                "internal error: JNL witness failed re-validation"
            )
    return result
