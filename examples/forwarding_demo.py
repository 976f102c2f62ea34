#!/usr/bin/env python
"""Hop-by-hop forwarding demo — Section 2.1, operationally.

The paper asserts that "packet forwarding decisions are made solely on
the hierarchical address of the destination node and every node has a
O(log|V|) hierarchical map".  This demo builds every node's map,
forwards packets one hop at a time (no central path computation), and
compares the result against flat shortest-path routing: delivery ratio,
per-node state, and stretch.

Run:  python examples/forwarding_demo.py
"""

import numpy as np

from repro.graphs import CompactGraph
from repro.routing import ForwardingFabric
from repro.sim import BfsHops, Scenario, static_snapshot


def main():
    n = 250
    sc = Scenario(n=n, max_levels=3)
    rng = np.random.default_rng(21)
    snap = static_snapshot(sc, sc.region.sample(n, rng))
    g = CompactGraph(np.arange(n), snap.edges)
    h = snap.hierarchy

    fabric = ForwardingFabric(h, g)
    flat = BfsHops(g)

    sizes = fabric.table_sizes()
    print(f"{n} nodes, L = {h.num_levels} levels")
    print(f"per-node hierarchical map: mean {sizes.mean():.1f}, "
          f"max {sizes.max()} entries (flat routing would need {n - 1})")

    # One packet, annotated.
    s, d = 3, 240
    res = fabric.forward(s, d)
    print(f"\npacket {s} -> {d} (address {h.address(d)}):")
    print(f"  delivered: {res.delivered} in {res.hops} hops "
          f"(shortest path: {flat(s, d)})")
    print(f"  path: {' -> '.join(map(str, res.path))}")

    # Bulk statistics.
    delivered = attempted = 0
    stretches = []
    for _ in range(400):
        s, d = (int(x) for x in rng.integers(0, n, size=2))
        fp = flat(s, d)
        if fp <= 0:
            continue
        attempted += 1
        res = fabric.forward(s, d)
        if res.delivered:
            delivered += 1
            stretches.append(res.hops / fp)
    print(f"\nbulk: {delivered}/{attempted} delivered "
          f"({delivered / attempted:.1%}), "
          f"mean stretch {np.mean(stretches):.2f}, "
          f"p95 stretch {np.percentile(stretches, 95):.2f}")
    print("Every decision used only the destination's hierarchical "
          "address and local state — no global routing tables.")


if __name__ == "__main__":
    main()
