#!/usr/bin/env python
"""Quickstart: build a MANET, cluster it, route, and manage locations.

Walks the full public API in one sitting:

1. deploy nodes uniformly in a disc (the paper's model),
2. form the unit-disk radio graph,
3. build the recursive ALCA clustered hierarchy (Fig. 1),
4. route hop by hop on hierarchical addresses vs flat shortest path,
5. place CHLM location servers and resolve a location query,
6. run the mobile simulator for a few seconds and read the handoff meter.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import full_assignment, resolve_batch
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy, hierarchy_stats
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import ForwardingFabric, hierarchical_table_sizes
from repro.sim import BfsHops, Scenario, run_scenario


def main():
    # 1. Deployment: 300 nodes, fixed density (area grows with n).
    n = 300
    density = 0.02  # nodes per m^2
    region = disc_for_density(n, density)
    rng = np.random.default_rng(42)
    positions = region.sample(n, rng)
    print(f"deployed {n} nodes in a disc of radius {region.radius:.0f} m")

    # 2. Unit-disk radio graph sized for average degree ~9.
    r_tx = radius_for_degree(9.0, density)
    edges = unit_disk_edges(positions, r_tx)
    print(f"R_tx = {r_tx:.1f} m -> {len(edges)} links, "
          f"mean degree {2 * len(edges) / n:.1f}")

    # 3. Recursive ALCA hierarchy (radio-model level links).
    h = build_hierarchy(np.arange(n), edges, max_levels=3,
                        level_mode="radio", positions=positions, r0=r_tx)
    print(f"\nclustered hierarchy: L = {h.num_levels} levels")
    for s in hierarchy_stats(h):
        print(f"  level {s.k}: |V_k|={s.n_nodes:4d}  |E_k|={s.n_edges:5d}  "
              f"alpha={s.alpha:5.2f}  d_k={s.mean_degree:5.2f}")
    v = 123
    print(f"hierarchical address of node {v}: {h.address(v)}")

    # 4. Routing: hop-by-hop hierarchical forwarding vs flat.
    g = CompactGraph(np.arange(n), edges)
    fabric = ForwardingFabric(h, g)
    flat_hops = BfsHops(g)
    s, d = 5, 250
    hp = fabric.forward(s, d).hops
    fp = flat_hops(s, d)
    print(f"\nroute {s} -> {d}: hierarchical {hp} hops, flat {fp} hops "
          f"(stretch {hp / max(fp, 1):.2f})")
    table = hierarchical_table_sizes(h)
    print(f"routing state per node: hierarchical map {table.mean():.1f} "
          f"entries vs flat {n - 1}")

    # 5. CHLM location management.
    assignment = full_assignment(h)
    print(f"\nCHLM placed {sum(assignment.load().values())} (subject, level) entries; "
          f"node {v}'s servers: {assignment.servers_of(v)}")
    q = resolve_batch(h, assignment, [s], [v], flat_hops).result(0)
    print(f"query: node {s} resolves node {v} at shared level {q.hit_level} "
          f"for {q.packets} packets -> address {q.address}")

    # 6. Mobility: meter handoff for 30 simulated seconds.
    sc = Scenario(n=200, steps=30, warmup=10, speed=1.0, seed=7, max_levels=3)
    res = run_scenario(sc)
    print(f"\nmobile run (n={sc.n}, mu={sc.speed} m/s, {sc.duration:.0f} s):")
    print(f"  f_0   = {res.f0:.2f} link events/node/s (Eq. 4)")
    print(f"  phi   = {res.phi:.3f} pkts/node/s (migration handoff, Sec 4)")
    print(f"  gamma = {res.gamma:.3f} pkts/node/s (reorg handoff, Sec 5)")
    print(f"  total = {res.handoff_rate:.3f} vs log^2(n) = {np.log(sc.n) ** 2:.1f}")


if __name__ == "__main__":
    main()
