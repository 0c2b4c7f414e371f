"""JSON Schema (Table-1 core fragment) with Theorem-1/3 translations.

* :mod:`repro.schema.ast` / :mod:`repro.schema.parser` -- typed schema
  trees and parsing from JSON;
* :mod:`repro.schema.to_jsl` -- the Theorem-1 translation onto JSL,
  through which :mod:`repro.validate` compiles every schema;
* :mod:`repro.schema.refs` -- ``definitions``/``$ref`` well-formedness
  (Theorem 3).

The direct validator (the independent oracle) and the reverse
JSL-to-schema translation live in :mod:`repro.reference`.
"""

from repro.schema.parser import parse_schema
from repro.schema.refs import is_schema_well_formed, schema_precedence_graph
from repro.schema.to_jsl import schema_to_jsl

__all__ = [
    "parse_schema",
    "schema_to_jsl",
    "is_schema_well_formed",
    "schema_precedence_graph",
]
