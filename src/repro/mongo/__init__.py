"""MongoDB ``find`` filters compiled onto JNL (Section 4.1), the
Section-6 projection transformation, and aggregation pipelines compiled
onto the store/IR/planner stack."""

from repro.mongo.aggregate import (
    CompiledPipeline,
    aggregate,
    compile_pipeline,
    match_value,
    naive_aggregate,
)
from repro.mongo.find import compile_filter
from repro.mongo.projection import Projection
from repro.mongo.update import (
    UpdateResult,
    compile_update,
    naive_update_value,
    replace_one,
    update_many,
    update_one,
)

__all__ = [
    "compile_filter",
    "Projection",
    "CompiledPipeline",
    "aggregate",
    "compile_pipeline",
    "match_value",
    "naive_aggregate",
    "UpdateResult",
    "compile_update",
    "naive_update_value",
    "replace_one",
    "update_many",
    "update_one",
]
