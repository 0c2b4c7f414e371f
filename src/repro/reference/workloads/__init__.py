"""Workload generators: random and structured documents, formulas."""

from repro.reference.workloads.families import (
    balanced_tree,
    complete_binary_array_tree,
    counter_chain,
    deep_chain,
    duplicate_heavy_array,
    even_depth_tree,
    people_collection,
    wide_array,
    wide_object,
)
from repro.reference.workloads.formulas import (
    random_jnl_unary,
    random_jsl_formula,
    random_schema_value,
)
from repro.reference.workloads.generator import TreeShape, random_tree, random_value

__all__ = [
    "TreeShape",
    "random_tree",
    "random_value",
    "random_jnl_unary",
    "random_jsl_formula",
    "random_schema_value",
    "deep_chain",
    "wide_object",
    "wide_array",
    "balanced_tree",
    "even_depth_tree",
    "complete_binary_array_tree",
    "duplicate_heavy_array",
    "people_collection",
    "counter_chain",
]
