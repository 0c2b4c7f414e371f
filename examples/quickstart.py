"""Quickstart: the JSON data model, navigation, JNL queries, JSL, schemas.

Run:  python examples/quickstart.py
"""

from repro import JSONTree, Navigator
from repro.jnl import evaluate_unary, parse_jnl, parse_jnl_path, target_nodes
from repro.jsl import parse_jsl_formula
from repro.reference.jsl_evaluator import satisfies
from repro.reference.schema_validator import SchemaValidator
from repro.schema import parse_schema, schema_to_jsl


def main() -> None:
    # --- The paper's Figure 1 document as a JSON tree -----------------
    doc = JSONTree.from_json(
        """
        {
          "name": {"first": "John", "last": "Doe"},
          "age": 32,
          "hobbies": ["fishing", "yoga"]
        }
        """
    )
    print(f"nodes: {len(doc)}, height: {doc.height()}")

    # --- JSON navigation instructions (Section 2): J[key], J[i] -------
    nav = Navigator(doc)
    print("J[name][first] =", nav["name"]["first"].value())
    print("J[hobbies][1]  =", nav["hobbies"][1].value())
    print("J[hobbies][-1] =", nav["hobbies"][-1].value())  # from the end

    # --- JNL: the navigational logic (Section 4) ----------------------
    # [X_name o X_first] ^ EQ(X_age, 32)
    phi = parse_jnl('has(.name.first) and matches(.age, 32)')
    print("root satisfies phi:", doc.root in evaluate_unary(doc, phi))

    # Non-determinism + recursion: does any descendant equal "yoga"?
    deep = parse_jnl('has((.*|[*])* <matches(eps, "yoga")>)')
    print("some descendant is 'yoga':", doc.root in evaluate_unary(doc, deep))

    # Paths select nodes; here: every hobby.
    hobbies = target_nodes(doc, parse_jnl_path(".hobbies[*]"))
    print("hobbies:", sorted(doc.to_value(n) for n in hobbies))

    # Subtree equality is structural (Section 3.2): whole subtrees.
    twins = JSONTree.from_value({"a": {"x": [1, 2]}, "b": {"x": [1, 2]}})
    print("eq(.a, .b):", twins.root in evaluate_unary(twins, parse_jnl("eq(.a, .b)")))

    # --- JSL: the schema logic (Section 5) ----------------------------
    psi = parse_jsl_formula(
        'some(.name, all(.*, string)) and some(.age, min(17) and max(120))'
    )
    print("JSL validates:", satisfies(doc, psi))

    # --- JSON Schema (Table 1) with the Theorem 1 translation ---------
    schema = parse_schema(
        {
            "type": "object",
            "required": ["name", "age"],
            "properties": {
                "age": {"type": "number", "minimum": 0, "maximum": 120},
                "hobbies": {
                    "type": "array",
                    "additionalItems": {"type": "string"},
                    "uniqueItems": True,
                },
            },
        }
    )
    validator = SchemaValidator(schema)
    print("schema validates:", validator.validate(doc))
    translated = schema_to_jsl(schema)
    print("JSL translation agrees:", satisfies(doc, translated))


if __name__ == "__main__":
    main()
