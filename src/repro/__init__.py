"""repro: a reproduction of "JSON: data model, query languages and schema
specification" (Bourhis, Reutter, Suarez, Vrgoc; PODS 2017).

The package implements the paper's three formalisms and a document
database built on them:

* :mod:`repro.model` -- JSON trees, the formal data model (Section 3);
* :mod:`repro.jnl` -- JSON Navigational Logic: deterministic core plus
  non-determinism and recursion (Section 4);
* :mod:`repro.jsl` -- JSON Schema Logic with node tests, modalities and
  recursive definitions (Section 5);
* :mod:`repro.schema` -- the JSON Schema core fragment of Table 1 and
  its Theorem-1 translation to JSL;
* :mod:`repro.translate` -- the Theorem-2 translation from JNL to JSL;
* :mod:`repro.automata` -- regex engine and key languages;
* :mod:`repro.mongo`, :mod:`repro.jsonpath` -- the surveyed front-ends
  compiled onto JNL;
* :mod:`repro.query`, :mod:`repro.store`, :mod:`repro.validate` -- the
  compiled-query and compiled-validator subsystems (shared logical-plan
  IR, planner) and the indexed document collections they serve;
* :mod:`repro.streaming` -- streaming validation (Section 6 outlook);
* :mod:`repro.api`, :mod:`repro.server`, :mod:`repro.client`,
  :mod:`repro.cli` -- the product entry points;
* :mod:`repro.reference` -- test oracles and experiment drivers: the
  naive evaluators, the reverse translations, the independent schema
  validator, J-automata, the hardness reductions (Props 2/4/7/9),
  workload generators and the benchmark harness.  No product module
  imports it.

Quickstart::

    from repro import JSONTree, Navigator, parse_jnl, evaluate_jnl

    doc = JSONTree.from_value({"name": {"first": "John"}, "age": 32})
    assert Navigator(doc)["name"]["first"].value() == "John"
    nodes = evaluate_jnl(doc, parse_jnl('has(.name/.first)'))
    assert doc.root in nodes
"""

from repro.model import JSONTree, Navigator

__version__ = "1.10.0"

__all__ = [
    "JSONTree",
    "Navigator",
    "__version__",
    # Populated lazily below once the logic packages import cleanly.
    "parse_jnl",
    "evaluate_jnl",
    "parse_jsl",
    "CompiledQuery",
    "compile_query",
    "Collection",
    "Database",
    "connect",
    "CompiledValidator",
    "compile_schema_validator",
    "compile_jsl_validator",
    "validate_corpus",
]


def __getattr__(name: str):  # pragma: no cover - thin convenience shim
    """Lazily re-export the most used logic entry points.

    Importing them eagerly would make ``import repro`` pull in every
    subsystem; the lazy hook keeps startup light while preserving the
    convenient flat namespace used in the README examples.
    """
    if name == "parse_jnl":
        from repro.jnl.parser import parse_jnl

        return parse_jnl
    if name == "evaluate_jnl":
        from repro.jnl.efficient import evaluate_unary as evaluate_jnl

        return evaluate_jnl
    if name == "CompiledQuery":
        from repro.query import CompiledQuery

        return CompiledQuery
    if name == "compile_query":
        from repro.query import compile_query

        return compile_query
    if name == "connect":
        from repro.api import connect

        return connect
    if name in ("Collection", "Database"):
        import repro.store as _store

        return getattr(_store, name)
    if name in (
        "CompiledValidator",
        "compile_schema_validator",
        "compile_jsl_validator",
        "validate_corpus",
    ):
        import repro.validate as _validate

        return getattr(_validate, name)
    if name == "parse_jsl":
        from repro.jsl.parser import parse_jsl

        return parse_jsl
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
