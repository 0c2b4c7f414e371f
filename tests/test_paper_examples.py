"""Golden tests: every worked example in the paper, end to end.

Each test cites the paper location it reproduces, so this file doubles
as an executable index of the paper's running examples.
"""

from __future__ import annotations

import pytest

from repro.jnl.efficient import evaluate_unary
from repro.jnl.parser import parse_jnl
from repro.jsl.bottom_up import satisfies_recursive
from repro.jsl.parser import parse_jsl
from repro.jsl.recursion import is_well_formed
from repro.jsl.satisfiability import jsl_satisfiable
from repro.model.navigation import Navigator
from repro.model.tree import JSONTree
from repro.reference.jsl_evaluator import satisfies
from repro.reference.schema_validator import SchemaValidator
from repro.schema import parse_schema, schema_to_jsl
from repro import api


class TestFigure1:
    """Figure 1: the simple JSON document."""

    def test_structure(self, figure1_doc):
        nav = Navigator(figure1_doc)
        assert nav["name"]["first"].value() == "John"
        assert nav["name"]["last"].value() == "Doe"
        assert nav["age"].value() == 32
        assert [nav["hobbies"][i].value() for i in range(2)] == [
            "fishing", "yoga",
        ]


class TestSection2Navigation:
    """Section 2: navigation instructions and their limits."""

    def test_array_k_example(self):
        # K = [12, 5, 22]: random access works ...
        array = JSONTree.from_value([12, 5, 22])
        assert Navigator(array)[1].value() == 5
        # ... but there is no "element greater than the first" primitive;
        # that requires the logic:
        phi = parse_jnl("has([0:]<test(min(12))>)")
        assert array.root in evaluate_unary(array, phi)


class TestExample1MongoDB:
    """Example 1: db.collection.find({name: {$eq: "Sue"}}, {})."""

    def test_find_sue(self):
        collection = api.collection(
            [{"name": "Sue", "age": 30}, {"name": "Ann", "age": 31}]
        )
        assert collection.find({"name": {"$eq": "Sue"}}) == [
            {"name": "Sue", "age": 30}
        ]


class TestSection42Unsatisfiability:
    """Section 4.2: X_a[X_1] ^ X_a[X_b] is unsatisfiable because the
    value of key "a" cannot be an array and an object at once."""

    def test_formula_unsatisfiable(self):
        from repro.jnl.satisfiability import jnl_satisfiable

        phi = parse_jnl("has(.a<has([0])>) and has(.a<has(.b)>)")
        result = jnl_satisfiable(phi)
        assert not result.satisfiable and result.complete


class TestTable1SchemaExamples:
    """Section 5.1: the schema examples around Table 1."""

    def test_binary_string_pattern(self):
        schema = parse_schema({"type": "string", "pattern": "(01)+"})
        validator = SchemaValidator(schema)
        assert validator.validate_value("0101")
        assert not validator.validate_value("abc")

    def test_number_multiples(self):
        schema = parse_schema(
            {"type": "number", "maximum": 12, "multipleOf": 4}
        )
        validator = SchemaValidator(schema)
        assert [n for n in range(15) if validator.validate_value(n)] == [
            0, 4, 8, 12,
        ]

    def test_object_with_pattern_and_additional(self):
        schema = parse_schema(
            {
                "type": "object",
                "properties": {"name": {"type": "string"}},
                "patternProperties": {
                    "a(b|c)a": {"type": "number", "multipleOf": 2}
                },
                "additionalProperties": {
                    "type": "number", "minimum": 1, "maximum": 1,
                },
            }
        )
        validator = SchemaValidator(schema)
        assert validator.validate_value({"name": "x", "aca": 6, "other": 1})
        assert not validator.validate_value({"other": 0})

    def test_array_two_strings_then_numbers(self):
        schema = parse_schema(
            {
                "type": "array",
                "items": [{"type": "string"}, {"type": "string"}],
                "additionalItems": {"type": "number"},
                "uniqueItems": True,
            }
        )
        validator = SchemaValidator(schema)
        assert validator.validate_value(["a", "b", 1, 2])
        assert not validator.validate_value(["a"])

    def test_odd_number_not_schema(self):
        schema = parse_schema({"not": {"type": "number", "multipleOf": 2}})
        validator = SchemaValidator(schema)
        assert validator.validate_value(3)
        assert validator.validate_value("not a number")
        assert not validator.validate_value(8)


class TestSection53Email:
    """Section 5.3: the definitions/$ref email schema."""

    def test_email_schema(self):
        schema = parse_schema(
            {
                "definitions": {
                    "email": {
                        "type": "string",
                        "pattern": "[A-z]*@ciws\\.cl",
                    }
                },
                "not": {"$ref": "#/definitions/email"},
            }
        )
        validator = SchemaValidator(schema)
        assert not validator.validate_value("someone@ciws.cl")
        assert validator.validate_value("someone@example.org")
        assert validator.validate_value({"any": "object"})


class TestExample2EvenPaths:
    """Example 2: gamma_1/gamma_2 accept trees with even-length paths."""

    EXPRESSION = (
        "def g1 := all(.*, $g2);"
        "def g2 := some(.*, true) and all(.*, $g1);"
        "$g1"
    )

    @pytest.mark.parametrize("depth,expected", [(0, True), (1, False),
                                                (2, True), (3, False)])
    def test_acceptance(self, depth, expected):
        from repro.reference.workloads import even_depth_tree

        delta = parse_jsl(self.EXPRESSION)
        assert satisfies_recursive(even_depth_tree(depth), delta) == expected

    def test_example4_unfolding_height_4(self):
        # Example 4 unfolds the Example 2 expression for a height-4 tree.
        from repro.reference.unfold import unfold
        from repro.jsl import ast

        delta = parse_jsl(self.EXPRESSION)
        unfolded = unfold(delta, 4)
        assert ast.refs_in(unfolded) == set()
        from repro.reference.workloads import even_depth_tree
        from repro.reference.jsl_evaluator import JSLEvaluator

        tree = even_depth_tree(4)
        assert JSLEvaluator(tree).satisfies(unfolded)


class TestExample3WellFormedness:
    """Example 3: gamma = not gamma is ill-formed; Example 2 is fine."""

    def test_cyclic_negation_rejected(self):
        from repro.jsl import RecursiveJSL, Ref, Not

        assert not is_well_formed(
            RecursiveJSL((("g", Not(Ref("g"))),), Ref("g"))
        )

    def test_guarded_cycles_accepted(self):
        assert is_well_formed(parse_jsl(TestExample2EvenPaths.EXPRESSION))


class TestExample5CompleteBinaryTrees:
    """Example 5: ~Unique forces equal siblings; the expression accepts
    exactly the complete binary trees."""

    EXPRESSION = (
        "def g := not some([0:0], true) or "
        "(minch(2) and maxch(2) and not unique and all([0:1], $g));"
        "array and $g"
    )

    def test_complete_trees_accepted(self):
        from repro.reference.workloads import complete_binary_array_tree

        delta = parse_jsl(self.EXPRESSION)
        for depth in range(4):
            assert satisfies_recursive(
                complete_binary_array_tree(depth), delta
            )

    def test_unequal_siblings_rejected(self):
        delta = parse_jsl(self.EXPRESSION)
        lopsided = JSONTree.from_value([[], [[], []]])
        assert not satisfies_recursive(lopsided, delta)

    def test_satisfiable_with_witness(self):
        result = jsl_satisfiable(parse_jsl(self.EXPRESSION))
        assert result.satisfiable
        value = result.witness.to_value()
        assert isinstance(value, list)
        if len(value) == 2:
            assert value[0] == value[1]


class TestSection31FiveValues:
    """Section 3.1: the document contains exactly five JSON values,
    and each subtree is itself a valid JSON document."""

    def test_five_subtrees(self, section3_doc):
        assert len(section3_doc) == 5
        for node in section3_doc.nodes():
            section3_doc.subtree(node).validate()

    def test_theorem1_on_section3_doc(self, section3_doc):
        schema = parse_schema(
            {
                "type": "object",
                "required": ["name", "age"],
                "properties": {
                    "name": {"type": "object",
                             "required": ["first", "last"]},
                    "age": {"type": "number"},
                },
            }
        )
        assert SchemaValidator(schema).validate(section3_doc)
        assert satisfies(section3_doc, schema_to_jsl(schema))
