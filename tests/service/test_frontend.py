"""Front-end batch dispatch vs the historical per-request oracle.

PR 10 rewired `ServiceFrontend._dispatch` through
`repro.core.batch_query`; these tests pin the (packets, outcome) pairs
to an inline reimplementation of the old scalar per-request resolution,
for lossless and lossy CHLM steps alike.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import full_assignment
from repro.geometry import disc_for_density
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.service.frontend import ServiceFrontend
from repro.service.workload import Request
from repro.sim import Scenario
from repro.sim.hops import EuclideanHops


def scenario(**kw):
    base = dict(n=120, steps=4, warmup=1, seed=0, max_levels=3,
                arrival_rate=200.0, admission_rate=150.0)
    base.update(kw)
    return Scenario(**base)


def make_snapshot(sc, seed=0):
    rng = np.random.default_rng(seed)
    pts = disc_for_density(sc.n, sc.density).sample(sc.n, rng)
    r_tx = radius_for_degree(9.0, sc.density)
    edges = unit_disk_edges(pts, r_tx)
    h = build_hierarchy(np.arange(sc.n), edges, max_levels=sc.max_levels)
    return SimpleNamespace(
        step=0, hierarchy=h, assignment=full_assignment(h),
        hop_fn=EuclideanHops(pts, r_tx), positions=pts,
    )


def make_requests(sc, count, seed=1, update_fraction=0.3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = "update" if rng.random() < update_fraction else "lookup"
        source = int(rng.integers(0, sc.n))
        target = source if kind == "update" else int(rng.integers(0, sc.n))
        out.append(Request(index=i, step=0, t=0.01 * i, kind=kind,
                           source=source, target=target,
                           delivery_seed=int(rng.integers(0, 2**63))))
    return out


def oracle_resolve(sc, snap, req, delivery):
    """The pre-batch `_resolve`: scalar per-request resolution."""
    from repro.core.servers import lm_levels
    from tests.core.descent_oracle import resolve
    from repro.faults import expanding_ring_cost

    if req.kind == "update":
        packets = 0
        for level in range(2, lm_levels(snap.hierarchy) + 1):
            srv = snap.assignment.server_of(req.target, level)
            if srv is None:
                continue
            hops = max(snap.hop_fn(req.target, srv), 0)
            packets += (hops if delivery is None
                        else delivery.send(hops, level=level).packets)
        return packets, "update"
    qr = resolve(snap.hierarchy, snap.assignment, req.source, req.target,
                 snap.hop_fn, hash_fn=sc.hash_fn, delivery=delivery)
    packets, hit = qr.packets, qr.hit_level >= 0
    if hit:
        return packets, "direct"
    target_hops = snap.hop_fn(req.source, req.target)
    if target_hops > 0:
        packets += expanding_ring_cost(target_hops, sc.n, sc.density, sc.r_tx)
        return packets, "fallback"
    return packets, "failed"


class TestBatchDispatchOracle:
    def test_lossless_matches_scalar_oracle(self):
        sc = scenario()
        snap = make_snapshot(sc)
        frontend = ServiceFrontend(sc, np.random.default_rng(0))
        requests = make_requests(sc, 300)
        got = frontend._dispatch(requests, snap)
        want = [oracle_resolve(sc, snap, r, None) for r in requests]
        assert got == want
        assert {o for _, o in got} >= {"update", "direct"}
        frontend.close()

    def test_lossless_stale_assignment_falls_back(self):
        """A stale assignment (drifted topology) forces misses; the
        fallback/failed split must match the oracle exactly."""
        sc = scenario()
        snap_old = make_snapshot(sc, seed=0)
        snap_new = make_snapshot(sc, seed=9)
        snap = SimpleNamespace(
            step=0, hierarchy=snap_new.hierarchy,
            assignment=snap_old.assignment,  # stale on purpose
            hop_fn=snap_new.hop_fn, positions=snap_new.positions,
        )
        frontend = ServiceFrontend(sc, np.random.default_rng(0))
        requests = make_requests(sc, 200, seed=5)
        got = frontend._dispatch(requests, snap)
        want = [oracle_resolve(sc, snap, r, None) for r in requests]
        assert got == want
        assert any(o == "fallback" for _, o in got)
        frontend.close()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_lossy_matches_scalar_oracle(self, seed):
        """Per-request delivery engines draw identically whether they
        walk precomputed plans or the scalar climb."""
        sc = scenario(loss_rate=0.2, retry_attempts=3)
        snap = make_snapshot(sc, seed=seed)
        shared = SimpleNamespace(loss=sc.loss_model())
        frontend = ServiceFrontend(sc, np.random.default_rng(0),
                                   delivery=shared)
        requests = make_requests(sc, 200, seed=seed + 10)
        got = frontend._dispatch(requests, snap)
        retry = sc.retry_policy()
        want = []
        for req in requests:
            delivery = frontend._delivery_for(req, shared.loss, retry)
            want.append(oracle_resolve(sc, snap, req, delivery))
        assert got == want
        frontend.close()

    def test_empty_step(self):
        sc = scenario()
        frontend = ServiceFrontend(sc, np.random.default_rng(0))
        assert frontend._dispatch([], make_snapshot(sc)) == []
        frontend.close()
