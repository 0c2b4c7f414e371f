"""Theorem-2 translation from JNL to JSL.

The reverse direction, JSL to JNL, is :mod:`repro.reference.jsl_to_jnl`.
"""

from repro.translate.jnl_to_jsl import jnl_to_jsl

__all__ = ["jnl_to_jsl"]
