"""EXP-F1 — Fig. 1: example of a multi-level clustered hierarchy.

Builds an ALCA hierarchy on a random 100-node deployment and tabulates
the per-level structure (|V_k|, |E_k|, alpha_k, d_k) plus example
hierarchical addresses — the machine-checkable counterpart of the
paper's illustrative figure.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.hierarchy import hierarchy_stats
from repro.sim import Scenario, static_snapshot

__all__ = ["run"]


def run(quick: bool = True, n: int = 100, seed: int = 7) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    sc = Scenario(n=n, seed=seed)
    pts = sc.region.sample(n, np.random.default_rng(seed))
    h = static_snapshot(sc, pts).hierarchy

    result = ExperimentResult(
        exp_id="EXP-F1",
        title=f"ALCA clustered hierarchy on {n} nodes (Fig. 1 analogue)",
        columns=["level", "|V_k|", "|E_k|", "alpha_k", "c_k", "d_k"],
    )
    for s in hierarchy_stats(h):
        result.add_row(s.k, s.n_nodes, s.n_edges, round(s.alpha, 2),
                       round(s.c, 2), round(s.mean_degree, 2))

    result.add_note(f"L = {h.num_levels} levels of clustering")
    sample = [int(v) for v in h.levels[0].node_ids[:: max(n // 4, 1)]][:4]
    for v in sample:
        result.add_note(f"address({v}) = {h.address(v)}")
    # The Fig. 1 phenomenon: a clusterhead that is not the max of its own
    # neighborhood (node 68 in the paper).
    e1 = h.levels[0].election
    if e1 is not None:
        humble = [
            int(v)
            for i, v in enumerate(e1.node_ids)
            if e1.member_of[i] == v and e1.elected_head[i] != v
        ]
        result.add_note(
            f"{len(humble)} clusterheads are not the max of their own "
            f"neighborhood (the paper's 'node 68' case): {humble[:5]}"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
