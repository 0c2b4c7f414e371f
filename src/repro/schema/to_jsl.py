"""Theorem 1, forward direction: JSON Schema --> JSL.

The construction follows the appendix proof of Theorem 1 keyword by
keyword, with 0-based indices; ``minimum``/``maximum`` are inclusive
while the node tests ``Min``/``Max`` are strict, hence the offset by
one:

* string schema     -> ``Str ^ Pattern(e)``
* number schema     -> ``Int ^ Min(min-1) ^ Max(max+1) ^ MultOf(k)``
* object schema     -> ``Obj ^ MinCh ^ MaxCh ^ DIA_k T (required)
                        ^ BOX_k phi (properties)
                        ^ BOX_e phi (patternProperties)
                        ^ BOX_C phi (additionalProperties)`` where ``C``
  is the complement of the union of all property keys and pattern
  languages;
* array schema      -> ``Arr ^ Unique ^ DIA_{i:i} phi_i (items)
                        ^ BOX_{n:inf} phi (additionalItems; falsity
                        when absent but items given)``
* ``allOf``/``anyOf``/``not``/``enum`` -> boolean structure / ``~(A)``;
* ``$ref``/``definitions`` -> recursive JSL (Theorem 3).
"""

from __future__ import annotations

from repro.automata.keylang import KeyLang
from repro.errors import SchemaError
from repro.jsl import ast as jsl
from repro.logic import nodetests as nt
from repro.schema import ast

__all__ = ["schema_to_jsl", "schema_fragment_to_jsl"]


def schema_to_jsl(document: ast.Schema) -> jsl.Formula | jsl.RecursiveJSL:
    """Translate a schema document into (possibly recursive) JSL."""
    if isinstance(document, ast.SchemaDocument):
        base = schema_fragment_to_jsl(document.root)
        if not document.definitions:
            return base
        definitions = tuple(
            (name, schema_fragment_to_jsl(schema))
            for name, schema in document.definitions
        )
        return jsl.RecursiveJSL(definitions, base)
    return schema_fragment_to_jsl(document)


def schema_fragment_to_jsl(schema: ast.Schema) -> jsl.Formula:
    """Translate one schema (references become :class:`~repro.jsl.ast.Ref`)."""
    if isinstance(schema, ast.TrueSchema):
        return jsl.Top()
    if isinstance(schema, ast.StringSchema):
        parts: list[jsl.Formula] = [jsl.TestAtom(nt.IsString())]
        if schema.lang is not None:
            parts.append(jsl.TestAtom(nt.Pattern(schema.lang)))
        return jsl.conj(parts)
    if isinstance(schema, ast.NumberSchema):
        parts = [jsl.TestAtom(nt.IsNumber())]
        if schema.minimum is not None:
            # "minimum": i is inclusive; Min(i) is strict (> i).
            parts.append(jsl.TestAtom(nt.MinVal(schema.minimum - 1)))
        if schema.maximum is not None:
            parts.append(jsl.TestAtom(nt.MaxVal(schema.maximum + 1)))
        if schema.multiple_of is not None:
            parts.append(jsl.TestAtom(nt.MultOf(schema.multiple_of)))
        return jsl.conj(parts)
    if isinstance(schema, ast.ObjectSchema):
        return _object_to_jsl(schema)
    if isinstance(schema, ast.ArraySchema):
        return _array_to_jsl(schema)
    if isinstance(schema, ast.AllOf):
        return jsl.conj(schema_fragment_to_jsl(sub) for sub in schema.schemas)
    if isinstance(schema, ast.AnyOf):
        return jsl.disj(schema_fragment_to_jsl(sub) for sub in schema.schemas)
    if isinstance(schema, ast.NotSchema):
        return jsl.Not(schema_fragment_to_jsl(schema.schema))
    if isinstance(schema, ast.EnumSchema):
        return jsl.disj(
            jsl.TestAtom(nt.EqDocTest(doc)) for doc in schema.documents
        )
    if isinstance(schema, ast.RefSchema):
        return jsl.Ref(schema.name)
    if isinstance(schema, ast.SchemaDocument):
        raise SchemaError("nested schema documents are not allowed")
    raise TypeError(f"unknown schema {schema!r}")


def _object_to_jsl(schema: ast.ObjectSchema) -> jsl.Formula:
    parts: list[jsl.Formula] = [jsl.TestAtom(nt.IsObject())]
    if schema.min_properties is not None:
        parts.append(jsl.TestAtom(nt.MinCh(schema.min_properties)))
    if schema.max_properties is not None:
        parts.append(jsl.TestAtom(nt.MaxCh(schema.max_properties)))
    for required_key in schema.required:
        parts.append(jsl.DiaKey(KeyLang.word(required_key), jsl.Top()))
    for key, sub in schema.properties:
        parts.append(jsl.BoxKey(KeyLang.word(key), schema_fragment_to_jsl(sub)))
    for lang, (_pattern, sub) in zip(
        schema.pattern_langs, schema.pattern_properties
    ):
        parts.append(jsl.BoxKey(lang, schema_fragment_to_jsl(sub)))
    if schema.additional_properties is not None:
        constrained = [KeyLang.word(key) for key, _sub in schema.properties]
        constrained.extend(schema.pattern_langs)
        complement = KeyLang.union(constrained).complement()
        parts.append(
            jsl.BoxKey(
                complement, schema_fragment_to_jsl(schema.additional_properties)
            )
        )
    return jsl.conj(parts)


def _array_to_jsl(schema: ast.ArraySchema) -> jsl.Formula:
    parts: list[jsl.Formula] = [jsl.TestAtom(nt.IsArray())]
    if schema.unique_items:
        parts.append(jsl.TestAtom(nt.Unique()))
    item_count = 0
    if schema.items is not None:
        item_count = len(schema.items)
        for position, sub in enumerate(schema.items):
            parts.append(
                jsl.DiaIdx(position, position, schema_fragment_to_jsl(sub))
            )
    if schema.additional_items is not None:
        parts.append(
            jsl.BoxIdx(
                item_count, None, schema_fragment_to_jsl(schema.additional_items)
            )
        )
    elif schema.items is not None:
        # No additionalItems: "there cannot be more children".
        parts.append(jsl.BoxIdx(item_count, None, jsl.bottom()))
    return jsl.conj(parts)
