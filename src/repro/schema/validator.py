"""Direct validation of JSON documents against core-fragment schemas.

``SchemaValidator`` implements the validation relation of the paper /
[29] directly over :class:`~repro.model.tree.JSONTree`, including the
recursive ``definitions`` / ``$ref`` mechanism (checked well-formed
first, so validation always terminates).

It is the independent reference: every production validator
(:func:`repro.validate.compile_schema_validator`, streaming, the
optimizer's schema premise) goes ``schema -> JSL`` by Theorem 1, and
the differential tests and theorem benches check that pipeline
against this keyword-by-keyword interpreter.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.model.equality import all_children_distinct, subtree_equal
from repro.model.tree import JSONTree, JSONValue, Kind
from repro.schema import ast
from repro.schema.refs import check_schema_well_formed

__all__ = ["SchemaValidator", "validates", "validates_value"]


class SchemaValidator:
    """Validates documents against one parsed schema document."""

    def __init__(
        self,
        document: ast.Schema,
        *,
        exact_unique: bool = False,
    ) -> None:
        if isinstance(document, ast.SchemaDocument):
            self.root = document.root
            self.definitions = document.definition_map()
            check_schema_well_formed(document)
        else:
            self.root = document
            self.definitions = {}
        self.document = document
        self.exact_unique = exact_unique
        # Property maps per object schema, built once per validator
        # instead of once per visited object node per call.  Keyed by
        # identity: the schemas are reachable from ``self.document``,
        # so the ids stay valid for the validator's lifetime.
        self._prop_maps: dict[int, dict[str, ast.Schema]] = {}

    # ------------------------------------------------------------------

    def validate(self, tree: JSONTree, node: int | None = None) -> bool:
        """Does the document (subtree at ``node``) validate?"""
        target = tree.root if node is None else node
        memo: dict[tuple[int, int], bool] = {}
        return self._valid(self.root, tree, target, memo)

    def validate_value(self, value: JSONValue) -> bool:
        return self.validate(JSONTree.from_value(value))

    # ------------------------------------------------------------------

    def _valid(
        self,
        schema: ast.Schema,
        tree: JSONTree,
        node: int,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        key = (id(schema), node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = self._dispatch(schema, tree, node, memo)
        memo[key] = result
        return result

    def _dispatch(
        self,
        schema: ast.Schema,
        tree: JSONTree,
        node: int,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        if isinstance(schema, ast.TrueSchema):
            return True
        if isinstance(schema, ast.StringSchema):
            if tree.kind(node) is not Kind.STRING:
                return False
            if schema.lang is None:
                return True
            return schema.lang.matches(str(tree.value(node)))
        if isinstance(schema, ast.NumberSchema):
            if tree.kind(node) is not Kind.NUMBER:
                return False
            value = int(tree.value(node))
            if schema.minimum is not None and value < schema.minimum:
                return False
            if schema.maximum is not None and value > schema.maximum:
                return False
            if schema.multiple_of is not None:
                if schema.multiple_of == 0:
                    return value == 0
                return value % schema.multiple_of == 0
            return True
        if isinstance(schema, ast.ObjectSchema):
            return self._valid_object(schema, tree, node, memo)
        if isinstance(schema, ast.ArraySchema):
            return self._valid_array(schema, tree, node, memo)
        if isinstance(schema, ast.AllOf):
            return all(
                self._valid(sub, tree, node, memo) for sub in schema.schemas
            )
        if isinstance(schema, ast.AnyOf):
            return any(
                self._valid(sub, tree, node, memo) for sub in schema.schemas
            )
        if isinstance(schema, ast.NotSchema):
            return not self._valid(schema.schema, tree, node, memo)
        if isinstance(schema, ast.EnumSchema):
            return any(
                subtree_equal(tree, node, doc, doc.root)
                for doc in schema.documents
            )
        if isinstance(schema, ast.RefSchema):
            target = self.definitions.get(schema.name)
            if target is None:
                raise SchemaError(f"unresolved $ref #/definitions/{schema.name}")
            return self._valid(target, tree, node, memo)
        if isinstance(schema, ast.SchemaDocument):
            raise SchemaError("nested schema documents are not allowed")
        raise TypeError(f"unknown schema {schema!r}")

    def _valid_object(
        self,
        schema: ast.ObjectSchema,
        tree: JSONTree,
        node: int,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        if tree.kind(node) is not Kind.OBJECT:
            return False
        count = tree.num_children(node)
        if schema.min_properties is not None and count < schema.min_properties:
            return False
        if schema.max_properties is not None and count > schema.max_properties:
            return False
        for required_key in schema.required:
            if tree.object_child(node, required_key) is None:
                return False
        properties = self._prop_maps.get(id(schema))
        if properties is None:
            properties = dict(schema.properties)
            self._prop_maps[id(schema)] = properties
        for label, child in tree.edges(node):
            assert isinstance(label, str)
            constrained = False
            prop_schema = properties.get(label)
            if prop_schema is not None:
                constrained = True
                if not self._valid(prop_schema, tree, child, memo):
                    return False
            for (pattern_text, sub), lang in zip(
                schema.pattern_properties, schema.pattern_langs
            ):
                del pattern_text
                if lang.matches(label):
                    constrained = True
                    if not self._valid(sub, tree, child, memo):
                        return False
            if not constrained and schema.additional_properties is not None:
                if not self._valid(
                    schema.additional_properties, tree, child, memo
                ):
                    return False
        return True

    def _valid_array(
        self,
        schema: ast.ArraySchema,
        tree: JSONTree,
        node: int,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        if tree.kind(node) is not Kind.ARRAY:
            return False
        if schema.unique_items and not all_children_distinct(
            tree, node, exact_pairwise=self.exact_unique
        ):
            return False
        children = tree.array_children(node)
        if schema.items is None:
            if schema.additional_items is not None:
                return all(
                    self._valid(schema.additional_items, tree, child, memo)
                    for child in children
                )
            return True
        # Paper's Theorem-1 semantics: the first len(items) positions
        # are required (DIA_{i:i}); extras need additionalItems.
        if len(children) < len(schema.items):
            return False
        for position, sub in enumerate(schema.items):
            if not self._valid(sub, tree, children[position], memo):
                return False
        extras = children[len(schema.items) :]
        if not extras:
            return True
        if schema.additional_items is None:
            return False
        return all(
            self._valid(schema.additional_items, tree, child, memo)
            for child in extras
        )


def validates(
    document: ast.Schema, tree: JSONTree, node: int | None = None
) -> bool:
    """One-shot validation of a tree against a schema.

    Routed through the compiled-validator cache: repeated calls with a
    structurally equal schema reuse one compiled program instead of
    re-checking well-formedness and re-interpreting the AST.
    """
    from repro.validate import compile_schema_validator

    return compile_schema_validator(document).validate_tree(tree, node)


def validates_value(document: ast.Schema, value: JSONValue) -> bool:
    """One-shot validation of a Python value against a schema.

    The compiled program is cached, but the value is still materialised
    as a :class:`JSONTree` so values outside the paper's abstraction
    (floats, booleans, ``null``) are rejected anywhere in the document,
    exactly like the seed path.  For the no-tree fast path (which
    checks values lazily, where the schema inspects them) call
    :meth:`~repro.validate.CompiledValidator.validate_value` on a
    compiled validator directly.
    """
    from repro.validate import compile_schema_validator

    return compile_schema_validator(document).validate_tree(
        JSONTree.from_value(value)
    )
