"""CHLM — Clustered Hierarchy Location Management (the paper's core).

Server selection by hashed descent (Section 3.2), batched location
queries, and the handoff engine measuring the Theta(log^2 |V|) overhead
bound of Sections 4-5.
"""

from repro.core.accounting import OverheadLedger
from repro.core.batch_query import (
    BatchProbePlans,
    BatchQueryResult,
    BatchResolver,
    QueryResult,
    resolve_batch,
)
from repro.core.events import (
    EventKind,
    HierarchyDiff,
    diff_hierarchies,
)
from repro.core.handoff import HandoffEngine, HandoffReport
from repro.core.hashing import mix64
from repro.core.servers import (
    ChainedAssignment,
    ServerAssignment,
    full_assignment,
    lm_levels,
    patch_assignment,
)

__all__ = [
    "OverheadLedger",
    "BatchProbePlans",
    "BatchQueryResult",
    "BatchResolver",
    "QueryResult",
    "resolve_batch",
    "EventKind",
    "HierarchyDiff",
    "diff_hierarchies",
    "HandoffEngine",
    "HandoffReport",
    "mix64",
    "ChainedAssignment",
    "ServerAssignment",
    "full_assignment",
    "patch_assignment",
    "lm_levels",
]
