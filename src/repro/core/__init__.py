"""CHLM — Clustered Hierarchy Location Management (the paper's core).

Server selection by hashed descent (Section 3.2), the distributed LM
database, location queries, and the handoff engine measuring the
Theta(log^2 |V|) overhead bound of Sections 4-5.
"""

from repro.core.accounting import OverheadLedger
from repro.core.batch_query import (
    BatchProbePlans,
    BatchQueryResult,
    BatchResolver,
    BatchUpdatePlans,
    resolve_batch,
)
from repro.core.database import LMDatabase, LocationRecord
from repro.core.events import (
    EventKind,
    HierarchyDiff,
    MigrationEvent,
    ReorgEvent,
    diff_hierarchies,
)
from repro.core.handoff import HandoffEngine, HandoffReport
from repro.core.hashing import (
    HASH_REGISTRY,
    mix64,
    naive_circular_choice,
    rendezvous_choice,
)
from repro.core.query import QueryResult, resolve
from repro.core.servers import (
    ChainedAssignment,
    ServerAssignment,
    full_assignment,
    lm_levels,
    patch_assignment,
    select_server,
)

__all__ = [
    "OverheadLedger",
    "BatchProbePlans",
    "BatchQueryResult",
    "BatchResolver",
    "BatchUpdatePlans",
    "resolve_batch",
    "LMDatabase",
    "LocationRecord",
    "EventKind",
    "HierarchyDiff",
    "MigrationEvent",
    "ReorgEvent",
    "diff_hierarchies",
    "HandoffEngine",
    "HandoffReport",
    "HASH_REGISTRY",
    "mix64",
    "naive_circular_choice",
    "rendezvous_choice",
    "QueryResult",
    "resolve",
    "ChainedAssignment",
    "ServerAssignment",
    "full_assignment",
    "patch_assignment",
    "lm_levels",
    "select_server",
]
