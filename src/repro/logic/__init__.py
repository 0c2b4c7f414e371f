"""Shared logical vocabulary: the node tests of Section 5.2.

Both logics are parameterised by their atomic predicates (Theorem 2
shows JNL and JSL coincide once atomic predicates are exchanged), so
the ``NodeTests`` set lives in :mod:`repro.logic.nodetests`, importable
by both :mod:`repro.jnl` and :mod:`repro.jsl` without layering cycles.
"""
