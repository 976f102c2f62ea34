"""Pinned digests of stepped hierarchies, one per election mode.

Each case steps a drifting unit-disk network through the hierarchy
maintainer a :class:`~repro.sim.engine.Simulator` binds, and hashes
every step's levels: node IDs, edges, the election that produced the
next level, and every base node's ancestry.  The digests were recorded
before the sticky, persistent and memoryless paths shared one class,
so they pin that all three step bit-for-bit as they did.
"""

import hashlib

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.hierarchy import HierarchyMaintainer
from repro.radio import radius_for_degree, unit_disk_edges

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)
STEPS = 20

# (n, seed, election_mode, level_mode) -> sha256 over all STEPS snapshots.
PINNED = {
    (200, 1, "memoryless", "radio"):
        "8e4a5f5cb8fd55fb4abf6d959d34e14d1a24f97c5e70bb7ac90ca8e35bf63a85",
    (200, 1, "sticky", "radio"):
        "1e577549f9a0cb1e999c8bcf23727e1eb48e43bb5c95d1039712683e90bb4d74",
    (200, 1, "persistent", "radio"):
        "bcf1cac6badae8bfdd0a04a8ca1fd13e09fc2fdaf5c1a991d7bbcc3e729b452b",
    (200, 1, "memoryless", "contraction"):
        "75bcaedd28bc5c4ffdde1cd68ac8b3ea649fe217448e07337eaae565eadc6cbc",
    (200, 1, "sticky", "contraction"):
        "5b2e93e91cf1ce76e69b042b91eadc873a4b7bde02ec645cbc1ece7357843e86",
    (200, 2, "memoryless", "radio"):
        "e4955ed01a939d23ae2c4649374ece53b69ecbf7f80ff6c5b2528d705efd7c6b",
    (200, 2, "sticky", "radio"):
        "ce05e492f5ff1f19825bb7e3df2541e0338af07601083a46e42b6fd4ce36631e",
    (200, 2, "persistent", "radio"):
        "ce1af1fedea2d0f10bf086c581c1de2f77e658665471d3cc61404a69825bd545",
    (200, 2, "memoryless", "contraction"):
        "208408fcf194ecdd055be2ae8ea27158afed827d73cf950b824b9b083f87671d",
    (200, 2, "sticky", "contraction"):
        "fde538385b7609344a99d8a96445b79000394eb1e8e3a3879c91f714a20780ea",
    (2000, 1, "memoryless", "radio"):
        "5333e3e8d31dd889e3a5a8eb1f9ddd0a69a2f98e5d12c725821ad5a1ae9a07e0",
    (2000, 1, "sticky", "radio"):
        "4c9219d3d5c946abf88d0016e7a161376d79557db7621adf0d1f1e9581096ecf",
    (2000, 1, "persistent", "radio"):
        "6f144158e06556a756682d2ab8d870de22f5bc242ed2ad4ca974de5ee8759173",
    (2000, 1, "memoryless", "contraction"):
        "66b80b90f60ae55c0f36695cc375f3c3eab6c1b350d46622d52482aff6673eec",
    (2000, 1, "sticky", "contraction"):
        "ef6647500175ca1690469aa6fe5ef6e9bb3075c4e318d77d4b87376a63e9ccd9",
    (2000, 2, "memoryless", "radio"):
        "329af468ef5fba9bfebdd276c0ce519be565867e791c86a9407c677d7e9be218",
    (2000, 2, "sticky", "radio"):
        "6cf0db054f687482b1d72781c8cfca9118c8fe9ace3114c523f3d7bd800ffa7d",
    (2000, 2, "persistent", "radio"):
        "0c0253a58cd7e1fc59cce4125314d1fcffcd7d611b8076e800a9cf1af700e98d",
    (2000, 2, "memoryless", "contraction"):
        "8a880a93e55f99ecd62c20a31724ca59446050cd02a18f4c20ca300e928e1288",
    (2000, 2, "sticky", "contraction"):
        "70e94a1f8ed684cb6b125e7edd9308caf650584a7ba9a7b6fadf8aef3f9cf2d3",
}


def _feed(digest, a):
    a = np.ascontiguousarray(a)
    digest.update(f"{a.dtype.str}{a.shape}".encode())
    digest.update(a.tobytes())


def stepped_digest(n, seed, election_mode, level_mode):
    """sha256 of ``STEPS`` hierarchies of a jittered deployment."""
    rng = np.random.default_rng(seed)
    region = disc_for_density(n, DENSITY)
    pts = region.sample(n, rng)
    step = HierarchyMaintainer(n, R_TX, max_levels=None, level_mode=level_mode,
                               election_mode=election_mode).update
    digest = hashlib.sha256()
    for _ in range(STEPS):
        h = step(unit_disk_edges(pts, R_TX), pts)
        for lvl in h.levels:
            _feed(digest, lvl.node_ids)
            _feed(digest, lvl.edges)
            el = lvl.election
            if el is not None:
                for a in (el.node_ids, el.elected_head, el.member_of,
                          el.elector_count, el.clusterheads):
                    _feed(digest, a)
        for k in range(h.num_levels + 1):
            _feed(digest, h.ancestry(k))
        pts = region.clamp(pts + rng.normal(scale=1.0, size=pts.shape))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_stepped_hierarchies_match_pinned_digest(case):
    assert stepped_digest(*case) == PINNED[case]
