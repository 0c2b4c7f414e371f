"""Validating API payloads: recursive schemas and streaming (Section 6).

The paper motivates JSON Schema with Web APIs (the Open API initiative)
and conjectures streaming validation for the deterministic fragment.
This example wires both: a recursive schema with ``definitions`` /
``$ref`` validates nested comment threads, and a deterministic schema
validates a large response *as a token stream*, without building trees.

Run:  python examples/api_validation.py
"""

import json

from repro.jsl import is_deterministic, parse_jsl_formula
from repro.reference.schema_validator import SchemaValidator
from repro.schema import parse_schema, schema_to_jsl
from repro.streaming import StreamingJSLValidator

# --- A recursive schema: comment threads reference themselves ---------
THREAD_SCHEMA = parse_schema(
    {
        "definitions": {
            "comment": {
                "type": "object",
                "required": ["author", "body"],
                "properties": {
                    "author": {"type": "string"},
                    "body": {"type": "string"},
                    "replies": {
                        "type": "array",
                        "additionalItems": {"$ref": "#/definitions/comment"},
                    },
                },
            }
        },
        "$ref": "#/definitions/comment",
    }
)

GOOD_THREAD = {
    "author": "sue",
    "body": "JSON trees are deterministic!",
    "replies": [
        {"author": "bob", "body": "keys are unique per object",
         "replies": []},
        {"author": "eve", "body": "and arrays give random access",
         "replies": [{"author": "sue", "body": "exactly"}]},
    ],
}

BAD_THREAD = {
    "author": "sue",
    "body": "oops",
    "replies": [{"author": 42, "body": "numeric author"}],
}


def main() -> None:
    validator = SchemaValidator(THREAD_SCHEMA)
    print("good thread validates:", validator.validate_value(GOOD_THREAD))
    print("bad thread validates: ", validator.validate_value(BAD_THREAD))

    # Theorem 3: the recursive schema is a recursive JSL expression.
    expression = schema_to_jsl(THREAD_SCHEMA)
    print("translated to recursive JSL with definitions:",
          [name for name, _ in expression.definitions])

    # --- Streaming validation of a deterministic constraint -----------
    # "Record 5 has a string name and a numeric age" -- deterministic,
    # so a single pass over the token stream suffices.
    phi = parse_jsl_formula(
        "all([5:5], some(.name, string) and some(.age, number and min(-1)))"
        " and minch(6)"
    )
    assert is_deterministic(phi)
    stream_validator = StreamingJSLValidator(phi)

    records = [{"name": f"user{i}", "age": 20 + i} for i in range(1000)]
    text = json.dumps(records)
    print("streaming over", len(text) // 1024, "KiB of JSON ...")
    print("stream validates:", stream_validator.validate_text(text))
    print("frame high-water mark (memory tracks depth, not size):",
          stream_validator.max_depth)

    records[5]["age"] = "not a number"
    print("corrupted stream validates:",
          stream_validator.validate_text(json.dumps(records)))


if __name__ == "__main__":
    main()
