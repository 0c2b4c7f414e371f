"""Compiled validators: compile a schema or formula once, validate many.

A :class:`CompiledValidator` is the validation-side analogue of
:class:`repro.query.CompiledQuery`: it captures exactly the reusable,
document-independent part of a validation task -- references resolved,
well-formedness checked, key lookups / pattern matchers / enum
canonical forms prebuilt, everything lowered to per-kind closures by
the one program compiler, :mod:`repro.validate.jsl_compiler`.  Validation
state (the reference memo) is per-call, so one validator can be shared
freely across documents and threads.

Three artifacts compile through the process-wide cache of
:mod:`repro.cache` (shared with the query plans, unified stats):

* :func:`compile_schema_validator` -- a parsed JSON Schema document or
  fragment (Table 1 core), translated to JSL by Theorem 1 first;
* :func:`compile_jsl_validator` -- a JSL formula or well-formed
  recursive expression (point evaluation of ``J |= phi``);
* :func:`compile_stream_validator` -- a deterministic-fragment formula
  (or schema) as a reusable :class:`~repro.streaming.validator.\
StreamingJSLValidator` with its modal indexes hoisted to compile time.

Cache keys are the AST objects themselves: structurally equal schemas
or formulas (dataclass equality) share one compiled artifact, exactly
as structurally equal Mongo filters share one query plan.
"""

from __future__ import annotations

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.errors import SchemaError
from repro.jsl import ast as jsl_ast
from repro.model.tree import JSONTree, JSONValue
from repro.schema import ast as schema_ast
from repro.schema.refs import all_schema_refs, check_schema_well_formed
from repro.schema.to_jsl import schema_to_jsl
from repro.streaming.validator import StreamingJSLValidator
from repro.validate.jsl_compiler import TreeFn, ValueFn, compile_jsl_program

__all__ = [
    "CompiledValidator",
    "compile_schema_validator",
    "compile_jsl_validator",
    "compile_stream_validator",
]

DIALECT_SCHEMA = "schema-validator"
DIALECT_JSL = "jsl-validator"
DIALECT_STREAM = "stream-validator"


class CompiledValidator:
    """An executable validation program, reusable across documents.

    ``formula`` is the JSL the program was compiled from (a schema's
    Theorem-1 translation).
    """

    __slots__ = (
        "dialect", "source", "formula", "exact_unique", "_tree_fn", "_value_fn"
    )

    def __init__(
        self,
        dialect: str,
        source: object,
        formula: "jsl_ast.Formula | jsl_ast.RecursiveJSL",
        tree_fn: TreeFn,
        value_fn: ValueFn,
        *,
        exact_unique: bool = False,
    ) -> None:
        self.dialect = dialect
        self.source = source
        self.formula = formula
        self.exact_unique = exact_unique
        self._tree_fn = tree_fn
        self._value_fn = value_fn

    # ------------------------------------------------------------------

    def validate_tree(self, tree: JSONTree, node: int | None = None) -> bool:
        """Does the document (subtree at ``node``) validate?"""
        target = tree.root if node is None else node
        return self._tree_fn(tree, target, {})

    def validate_value(self, value: JSONValue, *, extended: bool = False) -> bool:
        """Validate a raw Python value without materialising a tree.

        With ``extended=True`` the JSON literals outside the paper's
        abstraction are coerced like ``JSONTree.from_value`` -- that
        path does materialise a tree, since coercion rewrites leaves.
        """
        if extended:
            return self.validate_tree(JSONTree.from_value(value, extended=True))
        return self._value_fn(value, {})

    def validate(self, document: "JSONTree | JSONValue") -> bool:
        """Validate either a :class:`JSONTree` or a raw value."""
        if isinstance(document, JSONTree):
            return self.validate_tree(document)
        return self.validate_value(document)

    def __repr__(self) -> str:
        return f"CompiledValidator({self.dialect!r}, {self.source!r})"


# ---------------------------------------------------------------------------
# Cached compile entry points.
# ---------------------------------------------------------------------------


def compile_schema_validator(
    document: schema_ast.Schema,
    *,
    exact_unique: bool = False,
    cache: object = USE_DEFAULT_CACHE,
) -> CompiledValidator:
    """Compile a parsed schema into a validator, through the LRU cache.

    The schema is translated to (recursive) JSL by Theorem 1 and
    compiled by :func:`compile_jsl_program`: one program behind every
    validator.  Pass ``cache=None`` for a fresh, uncached compilation, or an
    explicit :class:`~repro.cache.LRUCache` to use a private cache.
    """

    def build() -> CompiledValidator:
        if isinstance(document, schema_ast.SchemaDocument):
            check_schema_well_formed(document)
        elif refs := all_schema_refs(document):
            raise SchemaError(f"unresolved $ref #/definitions/{min(refs)}")
        formula = schema_to_jsl(document)
        tree_fn, value_fn = compile_jsl_program(
            formula, exact_unique=exact_unique, check_keys=True
        )
        return CompiledValidator(
            DIALECT_SCHEMA,
            document,
            formula,
            tree_fn,
            value_fn,
            exact_unique=exact_unique,
        )

    resolved = resolve_cache(cache)
    if resolved is None:
        return build()
    return resolved.get_or_compute((DIALECT_SCHEMA, document, exact_unique), build)


def compile_jsl_validator(
    formula: "jsl_ast.Formula | jsl_ast.RecursiveJSL",
    *,
    exact_unique: bool = False,
    cache: object = USE_DEFAULT_CACHE,
) -> CompiledValidator:
    """Compile a JSL formula (plain or recursive) into a validator."""

    def build() -> CompiledValidator:
        tree_fn, value_fn = compile_jsl_program(
            formula, exact_unique=exact_unique
        )
        return CompiledValidator(
            DIALECT_JSL,
            formula,
            formula,
            tree_fn,
            value_fn,
            exact_unique=exact_unique,
        )

    resolved = resolve_cache(cache)
    if resolved is None:
        return build()
    return resolved.get_or_compute((DIALECT_JSL, formula, exact_unique), build)


def compile_stream_validator(
    source: "jsl_ast.Formula | jsl_ast.RecursiveJSL | schema_ast.Schema",
    *,
    cache: object = USE_DEFAULT_CACHE,
) -> StreamingJSLValidator:
    """A cached streaming validator for a deterministic formula or schema.

    Schemas are translated through Theorem 1 first.  The returned
    validator's fragment check, well-formedness check and modal indexes
    are all compile-time work, so cache hits skip straight to the
    single-pass event loop.  (The instance's ``max_depth`` high-water
    mark is the only mutable state and is overwritten per call.)
    """

    def build() -> StreamingJSLValidator:
        formula = source
        if isinstance(formula, schema_ast.Schema):
            formula = schema_to_jsl(formula)
        return StreamingJSLValidator(formula)

    resolved = resolve_cache(cache)
    if resolved is None:
        return build()
    return resolved.get_or_compute((DIALECT_STREAM, source), build)
