"""repro — reproduction of Sucec & Marsic, "Location Management Handoff
Overhead in Hierarchically Organized Mobile Ad hoc Networks" (IPPS 2002).

Subpackages
-----------
``repro.geometry``
    Deployment regions and point kernels (paper §1.2).
``repro.mobility``
    Random waypoint (the paper's model) and alternatives.
``repro.radio``
    Unit-disk links, connectivity sizing, link-event tracking (Eq. 4).
``repro.clustering``
    LCA/ALCA election and the Fig. 3 state machine.
``repro.hierarchy``
    Recursive clustered hierarchies, addresses, per-level statistics.
``repro.routing``
    Hop-by-hop hierarchical forwarding, flat baseline, table accounting.
``repro.gls``
    Grid Location Service baseline (§3.1).
``repro.core``
    CHLM: hashed server placement, batched queries, and the
    handoff engine measuring the Θ(log²|V|) bound (§3.2, §4, §5).
``repro.faults``
    Fault injection: lossy control plane, retry/backoff, attempt-level
    delivery accounting, expanding-ring degradation (ROBUSTNESS.md).
``repro.sim``
    The time-stepped simulator composing everything: the one step loop
    of the stack, which experiments extend with collectors.
``repro.obs``
    Run telemetry: phase timers, run manifests, JSONL export, sweep
    profiling reports (OBSERVABILITY.md).
``repro.analysis``
    Closed-form theory (Eqs. 3–24), shape fitting, report rendering.
``repro.experiments``
    One runnable module per reproduced figure/claim (see DESIGN.md).
``repro.viz``
    Dependency-free SVG rendering of networks and hierarchies.

Quick start::

    from repro.sim import Scenario, run_scenario
    res = run_scenario(Scenario(n=200, steps=50, speed=1.0))
    print(res.phi, res.gamma)   # the paper's phi and gamma, measured
"""

__version__ = "1.0.0"

__all__ = [
    "geometry",
    "mobility",
    "radio",
    "clustering",
    "hierarchy",
    "routing",
    "gls",
    "core",
    "faults",
    "sim",
    "obs",
    "analysis",
    "experiments",
    "viz",
]
