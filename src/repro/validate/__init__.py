"""Compiled validation pipeline: compile once, validate many.

The validation-side twin of :mod:`repro.query`:

* :class:`~repro.validate.compiled.CompiledValidator` -- a JSL formula
  lowered to a flat program of per-kind closures
  (:mod:`~repro.validate.jsl_compiler`), with a raw-value fast path
  that never materialises a :class:`~repro.model.tree.JSONTree`; a
  JSON Schema compiles to the same program through its Theorem-1
  translation;
* :func:`~repro.validate.compiled.compile_schema_validator` /
  :func:`~repro.validate.compiled.compile_jsl_validator` /
  :func:`~repro.validate.compiled.compile_stream_validator` -- cached
  compilers sharing the process-wide artifact cache of
  :mod:`repro.cache` with the query plans;
* :mod:`~repro.validate.bulk` -- corpus validation (one validator,
  many documents; streaming verdicts; early exit) and multi-schema
  validation (many validators, one document).
"""

from repro.cache import clear_artifact_cache
from repro.validate.bulk import iter_validate, validate_corpus, validate_document
from repro.validate.compiled import (
    CompiledValidator,
    compile_jsl_validator,
    compile_schema_validator,
    compile_stream_validator,
)

__all__ = [
    "CompiledValidator",
    "compile_schema_validator",
    "compile_jsl_validator",
    "compile_stream_validator",
    "iter_validate",
    "validate_corpus",
    "validate_document",
    "clear_artifact_cache",
]
