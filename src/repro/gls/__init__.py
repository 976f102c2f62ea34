"""Grid Location Service (GLS) — the baseline LM scheme of Section 3.1."""

from repro.gls.grid import GridHierarchy
from repro.gls.servers import select_server_sorted
from repro.gls.service import GLSAssignment, GLSStepReport, GridLocationService

__all__ = [
    "GridHierarchy",
    "select_server_sorted",
    "GLSAssignment",
    "GLSStepReport",
    "GridLocationService",
]
