#!/usr/bin/env python
"""CHLM protocol walkthrough — the paper's "node 63" narrative, live.

Section 3.2 of the paper walks node 63 through its location-server
placement: level 1 needs no server; the level-2 server is found by
hashing into a sibling level-1 cluster (59) and then into a member node
(33); the level-3 server by hashing into a level-2 cluster (85), a
level-1 cluster (37), and finally a node.  This example replays that
narrative on a generated network, then perturbs the topology to show a
handoff: the focal node migrates and the LM entries visibly move.

Run:  python examples/lm_walkthrough.py
"""

import numpy as np

from repro.core import (
    HandoffEngine,
    LMDatabase,
    full_assignment,
    lm_levels,
    resolve_batch,
)
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.mobility import RandomWaypoint
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import FlatRouter


def build(pts, r_tx, n):
    edges = unit_disk_edges(pts, r_tx)
    return edges, build_hierarchy(
        np.arange(n), edges, max_levels=3,
        level_mode="radio", positions=pts, r0=r_tx,
    )


def main():
    n = 200
    density = 0.02
    r_tx = radius_for_degree(9.0, density)
    region = disc_for_density(n, density)
    rng = np.random.default_rng(63)
    model = RandomWaypoint(n, region, 1.5, rng)
    pts = model.positions.copy()
    edges, h = build(pts, r_tx, n)

    focal = 63
    print(f"=== the 'node {focal}' walkthrough (Section 3.2) ===")
    print(f"hierarchical address: {h.address(focal)}")
    print(f"level-1 cluster head: {h.cluster_of(focal, 1)} "
          "(no LM server needed: full topology known inside level-1)")

    assignment = full_assignment(h)
    for level in range(2, lm_levels(h) + 1):
        tag = "virtual global" if level == h.num_levels + 1 else f"level-{level}"
        srv = assignment.server_of(focal, level)
        if level <= h.num_levels:
            cluster = h.cluster_of(focal, level)
            print(f"{tag} server: hash descends inside cluster {cluster} "
                  f"-> node {srv}")
        else:
            print(f"{tag} server: hash over the top-level cluster set "
                  f"-> node {srv}")

    db = LMDatabase(h, assignment)
    print(f"\nnode {focal} itself serves {len(db.table_of(focal))} entries; "
          f"network mean {db.entries_per_node().mean():.1f} "
          "(Theta(log n) duty per node)")

    g = CompactGraph(np.arange(n), edges)
    router = FlatRouter(g)
    q = resolve_batch(h, assignment, [5], [focal], router.hop_count).result(0)
    print(f"query 5 -> {focal}: hit at level {q.hit_level} after {q.probes} "
          f"probe(s), {q.packets} packets; resolved address {q.address}")

    # Now move and watch the handoff.
    print("\n=== handoff in motion ===")
    engine = HandoffEngine()
    engine.observe(h, router.hop_count)
    before = engine.assignment.servers_of(focal)
    for step in range(1, 31):
        model.step(1.0)
        pts = model.positions.copy()
        edges, h = build(pts, r_tx, n)
        router = FlatRouter(CompactGraph(np.arange(n), edges))
        report = engine.observe(h, router.hop_count)
        after = engine.assignment.servers_of(focal)
        if after != before:
            moved = {lvl: (before.get(lvl), after.get(lvl))
                     for lvl in set(before) | set(after)
                     if before.get(lvl) != after.get(lvl)}
            print(f"t={step:2d}s: node {focal}'s servers changed: "
                  + ", ".join(f"L{lvl}: {a} -> {b}" for lvl, (a, b) in
                              sorted(moved.items()))
                  + f"  (step totals: phi={report.phi_packets} pkts, "
                    f"gamma={report.gamma_packets} pkts)")
            before = after
    print("done: every server change above was metered as handoff "
          "packets, attributed to migration or reorganization.")


if __name__ == "__main__":
    main()
