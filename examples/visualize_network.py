#!/usr/bin/env python
"""Render the Fig. 1 picture for a generated network, as SVG.

Produces two self-contained SVG files (no plotting libraries needed):

* ``network_hierarchy.svg`` — level-1 cluster hulls, clusterheads, links;
* ``network_route.svg`` — a hop-by-hop hierarchical route highlighted.

Run:  python examples/visualize_network.py [outdir]
"""

import sys

import numpy as np

from repro.graphs import CompactGraph
from repro.routing import ForwardingFabric
from repro.sim import Scenario, static_snapshot
from repro.viz import render_network_svg


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "."
    n = 220
    sc = Scenario(n=n, max_levels=3)
    snap = static_snapshot(sc, sc.region.sample(n, np.random.default_rng(8)))
    pts, edges, h = snap.positions, snap.edges, snap.hierarchy

    p1 = f"{outdir}/network_hierarchy.svg"
    render_network_svg(pts, edges, hierarchy=h, hull_level=1, path=p1)
    print(f"wrote {p1} (level-1 clusters: "
          f"{h.levels[1].n_nodes}, heads enlarged)")

    fabric = ForwardingFabric(h, CompactGraph(np.arange(n), edges))
    res = fabric.forward(3, 210)
    p2 = f"{outdir}/network_route.svg"
    render_network_svg(pts, edges, hierarchy=h, hull_level=2,
                       route=res.path if res.delivered else None, path=p2)
    print(f"wrote {p2} (route 3 -> 210: "
          f"{'delivered in ' + str(res.hops) + ' hops' if res.delivered else 'failed'})")


if __name__ == "__main__":
    main()
