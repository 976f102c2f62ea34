"""Tests for the end-to-end messaging service."""

import numpy as np
import pytest

from repro.app import MessagingService, SessionResult
from repro.geometry import disc_for_density
from repro.mobility import RandomWaypoint, Stationary
from repro.radio import radius_for_degree
from repro.sim.hops import EuclideanHops

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def make_service(n=150, speed=1.0, seed=0, warm_steps=2, hash_fn="rendezvous"):
    region = disc_for_density(n, DENSITY)
    rng = np.random.default_rng(seed)
    model = (Stationary(n, region, rng) if speed == 0
             else RandomWaypoint(n, region, speed, rng))
    svc = MessagingService(n, R_TX, max_levels=3, hash_fn=hash_fn)
    for _ in range(warm_steps):
        model.step(1.0)
        pts = model.positions.copy()
        svc.observe(pts, EuclideanHops(pts, R_TX))
    return svc, model, rng


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MessagingService(1, R_TX)
        with pytest.raises(ValueError):
            MessagingService(10, 0.0)

    def test_not_ready_before_two_observations(self):
        svc, model, _ = make_service(warm_steps=0)
        pts = model.positions.copy()
        hop = EuclideanHops(pts, R_TX)
        with pytest.raises(RuntimeError):
            svc.send(0, 1, hop)
        svc.observe(pts, hop)
        assert not svc.ready  # database still empty (needs a lag round)
        svc.observe(pts, hop)
        assert svc.ready


class TestSessions:
    def test_self_session_trivial(self):
        svc, model, _ = make_service()
        hop = EuclideanHops(model.positions, R_TX)
        r = svc.send(3, 3, hop)
        assert r.delivered and r.data_hops == 0 and r.query_packets == 0

    def test_static_network_all_deliver_exact(self):
        """With zero mobility the database is never stale and every
        connected pair delivers."""
        svc, model, rng = make_service(speed=0, warm_steps=3)
        pts = model.positions.copy()
        hop = EuclideanHops(pts, R_TX)
        from repro.graphs import CompactGraph
        from repro.radio import unit_disk_edges
        from repro.routing import FlatRouter

        flat = FlatRouter(CompactGraph(np.arange(150), unit_disk_edges(pts, R_TX)))
        checked = 0
        for _ in range(40):
            s, d = (int(x) for x in rng.integers(0, 150, size=2))
            if s == d or flat.hop_count(s, d) < 0:
                continue
            r = svc.send(s, d, hop)
            assert r.resolved and r.delivered, (s, d)
            assert not r.stale_address
            checked += 1
        assert checked > 20

    @pytest.mark.parametrize("hash_fn", ["rendezvous", "naive"])
    def test_fresh_database_resolves_every_session(self, hash_fn):
        """With zero mobility the lagged database equals the current one,
        so every session resolves, at the global level at the latest —
        provided queries probe with the hash the servers were placed
        with: rendezvous probes against naive placements resolve only
        the pairs sharing a level-1 cluster."""
        svc, model, rng = make_service(speed=0, hash_fn=hash_fn)
        hop = EuclideanHops(model.positions.copy(), R_TX)
        pairs = rng.integers(0, 150, size=(200, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        results = [svc.send(int(s), int(d), hop) for s, d in pairs]
        assert len(results) > 150
        assert all(r.resolved and not r.stale_address for r in results)

    def test_mobile_network_mostly_delivers(self):
        svc, model, rng = make_service(speed=1.0, warm_steps=3)
        delivered = total = 0
        for _ in range(8):
            model.step(1.0)
            pts = model.positions.copy()
            hop = EuclideanHops(pts, R_TX)
            svc.observe(pts, hop)
            for _ in range(10):
                s, d = (int(x) for x in rng.integers(0, 150, size=2))
                if s == d:
                    continue
                r = svc.send(s, d, hop)
                total += 1
                delivered += int(r.delivered)
        assert delivered / total > 0.6

    def test_result_fields_consistent(self):
        svc, model, rng = make_service(speed=1.0, warm_steps=3)
        pts = model.positions.copy()
        hop = EuclideanHops(pts, R_TX)
        r = svc.send(0, 100, hop)
        assert isinstance(r, SessionResult)
        if not r.resolved:
            assert not r.delivered
        if r.delivered:
            assert r.data_hops >= 0
        assert r.query_packets >= 0


class TestStaleAddressForwarding:
    def test_stale_address_alignment(self):
        """forward() accepts addresses from a shallower/deeper snapshot."""
        svc, model, _ = make_service(warm_steps=3)
        fab = svc._fabric
        h = svc._hierarchy
        d = 40
        addr = h.address(d)
        # Truncated and extended variants must not crash.
        short = addr[1:]
        long = (addr[0],) + addr
        for variant in (short, long):
            res = fab.forward(0, d, address=tuple(variant))
            assert res.path[0] == 0

    def test_wrong_terminal_rejected(self):
        svc, model, _ = make_service(warm_steps=3)
        fab = svc._fabric
        with pytest.raises(ValueError):
            fab.forward(0, 40, address=(1, 2, 3))
