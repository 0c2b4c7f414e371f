"""The JSON Schema core fragment of Table 1, as typed syntax trees.

Schema kinds:

* string schemas  -- ``type: string`` with optional ``pattern``;
* number schemas  -- ``type: number`` with ``minimum`` / ``maximum`` /
  ``multipleOf``;
* object schemas  -- ``type: object`` with ``required``,
  ``minProperties`` / ``maxProperties``, ``properties``,
  ``patternProperties``, ``additionalProperties``;
* array schemas   -- ``type: array`` with ``items``,
  ``additionalItems``, ``uniqueItems``;
* boolean combinations -- ``allOf`` / ``anyOf`` / ``not`` / ``enum``;
* references      -- ``{"$ref": "#/definitions/<name>"}`` resolving
  into the reserved top-level ``definitions`` section (Section 5.3);
* the empty schema ``{}`` which validates everything.

Semantic conventions:

* a ``type`` schema validates only documents of that type;
* ``minimum`` / ``maximum`` are **inclusive** (the paper's node tests
  ``Min`` / ``Max`` are strict; the translations offset by one);
* following the paper's Theorem-1 formula, ``items: [S1..Sn]``
  *requires* the first ``n`` positions to exist; extra positions are
  allowed only when ``additionalItems`` is present, and must satisfy it;
* ``pattern`` and ``patternProperties`` expressions are anchored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.automata.keylang import KeyLang
from repro.model.tree import JSONTree

__all__ = [
    "Schema",
    "TrueSchema",
    "StringSchema",
    "NumberSchema",
    "ObjectSchema",
    "ArraySchema",
    "AllOf",
    "AnyOf",
    "NotSchema",
    "EnumSchema",
    "RefSchema",
    "SchemaDocument",
]


class Schema:
    """Base class of schema syntax trees."""

    __slots__ = ()

    def to_value(self) -> Any:
        """Serialise back to the JSON form of the schema."""
        raise NotImplementedError


@dataclass(frozen=True)
class TrueSchema(Schema):
    """``{}`` -- validates against any document."""

    def to_value(self) -> Any:
        return {}


@dataclass(frozen=True)
class StringSchema(Schema):
    pattern: str | None = None
    # Parsed language for the pattern (derived; excluded from eq/hash).
    lang: KeyLang | None = field(default=None, compare=False, repr=False)

    def to_value(self) -> Any:
        value: dict[str, Any] = {"type": "string"}
        if self.pattern is not None:
            value["pattern"] = self.pattern
        return value


@dataclass(frozen=True)
class NumberSchema(Schema):
    minimum: int | None = None
    maximum: int | None = None
    multiple_of: int | None = None

    def to_value(self) -> Any:
        value: dict[str, Any] = {"type": "number"}
        if self.minimum is not None:
            value["minimum"] = self.minimum
        if self.maximum is not None:
            value["maximum"] = self.maximum
        if self.multiple_of is not None:
            value["multipleOf"] = self.multiple_of
        return value


@dataclass(frozen=True)
class ObjectSchema(Schema):
    required: tuple[str, ...] = ()
    min_properties: int | None = None
    max_properties: int | None = None
    properties: tuple[tuple[str, Schema], ...] = ()
    pattern_properties: tuple[tuple[str, Schema], ...] = ()
    additional_properties: Schema | None = None
    # Parsed pattern languages, positionally matching pattern_properties.
    pattern_langs: tuple[KeyLang, ...] = field(
        default=(), compare=False, repr=False
    )

    def to_value(self) -> Any:
        value: dict[str, Any] = {"type": "object"}
        if self.required:
            value["required"] = list(self.required)
        if self.min_properties is not None:
            value["minProperties"] = self.min_properties
        if self.max_properties is not None:
            value["maxProperties"] = self.max_properties
        if self.properties:
            value["properties"] = {
                key: schema.to_value() for key, schema in self.properties
            }
        if self.pattern_properties:
            value["patternProperties"] = {
                pattern: schema.to_value()
                for pattern, schema in self.pattern_properties
            }
        if self.additional_properties is not None:
            value["additionalProperties"] = self.additional_properties.to_value()
        return value


@dataclass(frozen=True)
class ArraySchema(Schema):
    items: tuple[Schema, ...] | None = None
    additional_items: Schema | None = None
    unique_items: bool = False

    def to_value(self) -> Any:
        value: dict[str, Any] = {"type": "array"}
        if self.items is not None:
            value["items"] = [schema.to_value() for schema in self.items]
        if self.additional_items is not None:
            value["additionalItems"] = self.additional_items.to_value()
        if self.unique_items:
            value["uniqueItems"] = True
        return value


@dataclass(frozen=True)
class AllOf(Schema):
    schemas: tuple[Schema, ...]

    def to_value(self) -> Any:
        return {"allOf": [schema.to_value() for schema in self.schemas]}


@dataclass(frozen=True)
class AnyOf(Schema):
    schemas: tuple[Schema, ...]

    def to_value(self) -> Any:
        return {"anyOf": [schema.to_value() for schema in self.schemas]}


@dataclass(frozen=True)
class NotSchema(Schema):
    schema: Schema

    def to_value(self) -> Any:
        return {"not": self.schema.to_value()}


@dataclass(frozen=True)
class EnumSchema(Schema):
    """``enum: [A1..An]`` -- equals one of the constant documents."""

    documents: tuple[JSONTree, ...]

    def to_value(self) -> Any:
        return {"enum": [doc.to_value() for doc in self.documents]}


@dataclass(frozen=True)
class RefSchema(Schema):
    """``{"$ref": "#/definitions/<name>"}``."""

    name: str

    def to_value(self) -> Any:
        return {"$ref": f"#/definitions/{self.name}"}


@dataclass(frozen=True)
class SchemaDocument(Schema):
    """A top-level schema: root schema plus the ``definitions`` section."""

    root: Schema
    definitions: tuple[tuple[str, Schema], ...] = ()

    def definition_map(self) -> dict[str, Schema]:
        return dict(self.definitions)

    def to_value(self) -> Any:
        value = self.root.to_value()
        if self.definitions:
            if not isinstance(value, dict):  # pragma: no cover - defensive
                raise TypeError("schema root must serialise to an object")
            value = {
                "definitions": {
                    name: schema.to_value() for name, schema in self.definitions
                },
                **value,
            }
        return value
