"""The product never imports the reference machinery.

``repro.reference`` holds the paper's test oracles and experiment
drivers.  Reference code may import product code; product code never
imports reference code, not even inside a function.  Two gates hold
that line: a static AST walk over every product module, and a child
interpreter that drives the product entry points end to end and then
finds no ``repro.reference`` module loaded.

The third test keeps the end-to-end benchmark's seam table honest: a
refactor that moves a traced function would otherwise only show up as
``missing_seams`` in a later traced run.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
REFERENCE = PACKAGE / "reference"


def _is_reference(module: str) -> bool:
    return module == "repro.reference" or module.startswith("repro.reference.")


def _reference_imports(source: str) -> list[str]:
    """Every ``repro.reference`` import in one module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _is_reference(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _is_reference(node.module):
                found.append(node.module)
            elif node.module == "repro":
                names = [a.name for a in node.names]
                found += ["repro.reference"] * names.count("reference")
        elif isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            first = node.args[0]
            if (
                name in ("import_module", "__import__")
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and _is_reference(first.value)
            ):
                found.append(first.value)
    return found


def test_product_modules_never_import_reference():
    product = [path for path in PACKAGE.rglob("*.py") if REFERENCE not in path.parents]
    assert len(product) > 50
    offenders = [
        f"{path.relative_to(REPO)}: {module}"
        for path in product
        for module in _reference_imports(path.read_text())
    ]
    assert offenders == []


def test_static_gate_sees_function_level_imports():
    source = (
        "from repro import reference\n"
        "def f():\n"
        "    from repro.reference.jsl_evaluator import satisfies\n"
        "    import importlib\n"
        "    return importlib.import_module('repro.reference.harness')\n"
    )
    assert _reference_imports(source) == [
        "repro.reference",
        "repro.reference.jsl_evaluator",
        "repro.reference.harness",
    ]


# One run of every product entry point: a memory collection and a
# schema-enforced durable one, each answering every read and write kind
# plus the three explains.  Prints the reference modules it loaded.
_WORKLOAD = """
import sys

import repro.api as api
import repro.cli
import repro.client
import repro.server

SCHEMA = {
    "type": "object",
    "required": ["name", "age"],
    "properties": {
        "name": {"type": "string"},
        "age": {"type": "number", "minimum": 0},
        "tags": {"type": "array", "additionalItems": {"type": "string"}},
    },
}
DOCS = [
    {"name": "Sue", "age": 35, "tags": ["a", "b"]},
    {"name": "Ada", "age": 30, "tags": ["b"]},
    {"name": "Bob", "age": 41, "tags": []},
]
PIPELINE = [
    {"$match": {"age": {"$gte": 31}}},
    {"$group": {"_id": None, "n": {"$sum": 1}}},
]


def drive(collection):
    collection.insert_many(DOCS)
    assert len(collection.find({"tags": "b"})) == 2
    assert collection.count({"age": {"$gt": 32}}) == 2
    assert collection.aggregate(PIPELINE) == [{"_id": None, "n": 2}]
    result = collection.update_one({"name": "Ada"}, {"$inc": {"age": 1}})
    assert result.modified_count == 1
    collection.explain({"age": {"$not": {"$gt": 31}}})
    collection.explain_aggregate(PIPELINE)
    collection.explain_update({"name": "Sue"}, {"$set": {"age": 36}})


drive(api.collection())
with api.connect(sys.argv[1]) as db:
    drive(db.collection("people", schema=SCHEMA))
print(sorted(name for name in sys.modules if name.startswith("repro.reference")))
"""


def test_product_workload_loads_no_reference_module(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_WORKLOAD), str(tmp_path / "db")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.fixture
def seam_table(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    return importlib.import_module("benchmarks.e2e.trace").SEAMS


def test_every_benchmark_seam_resolves(seam_table):
    sites = [site for seam in seam_table.values() for site in seam.sites]
    assert len(sites) >= 35
    missing = []
    for site in sites:
        module_name, _, attr_path = site.partition(":")
        *holders, attr = attr_path.split(".")
        owner = importlib.import_module(module_name)
        for holder in holders:
            owner = getattr(owner, holder, None)
        if owner is None or attr not in vars(owner):
            missing.append(site)
    assert missing == []
