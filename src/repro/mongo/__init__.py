"""MongoDB ``find`` filters compiled onto JNL (Section 4.1), the
Section-6 projection transformation, and aggregation pipelines compiled
onto the store/IR/planner stack."""

from repro.mongo.find import compile_filter
from repro.mongo.projection import Projection
from repro.mongo.update import UpdateResult, update_many

__all__ = [
    "compile_filter",
    "Projection",
    "UpdateResult",
    "update_many",
]
