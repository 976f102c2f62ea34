"""Verlet edge cache: exactness fuzz and rebuild accounting.

The cache's output must be **bit-identical** to a fresh
:func:`unit_disk_edges` call on every step — same pairs, same order,
same dtype — no matter how positions drift, and whichever build the
cache picks for the step (filtered candidate list, inflated rebuild
when ``2 * max_drift > SKIN * r_tx``, or the plain build when a single
step outruns that margin); see docs/PERFORMANCE.md for when each pays.
"""

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.radio import (
    VerletEdgeCache,
    encode_edges,
    radius_for_degree,
    unit_disk_edges,
)

from .edge_keys import decode_edges

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


class TestExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_over_random_walk(self, seed):
        n = 120
        rng = np.random.default_rng(seed)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        cache = VerletEdgeCache(R_TX)
        for _ in range(30):
            got = cache.edges(pts)
            ref = unit_disk_edges(pts, R_TX)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
            pts = pts + rng.normal(scale=0.5, size=pts.shape)
        # The walk drifts ~0.5/step against a ~2.4 rebuild margin: the
        # cache must have both rebuilt and reused at least once.
        assert 1 < cache.rebuilds < 30

    def test_teleport_forces_rebuild(self):
        rng = np.random.default_rng(7)
        pts = disc_for_density(80, DENSITY).sample(80, rng)
        cache = VerletEdgeCache(R_TX)
        cache.edges(pts)
        assert cache.rebuilds == 1
        moved = pts.copy()
        moved[0] += R_TX  # one node jumps a full radius
        assert np.array_equal(cache.edges(moved),
                              unit_disk_edges(moved, R_TX))
        # One step outran the margin: a fresh build, the plain one.
        assert cache.rebuilds + cache.plain_builds == 2

    def test_static_positions_never_rebuild_again(self):
        rng = np.random.default_rng(2)
        pts = disc_for_density(60, DENSITY).sample(60, rng)
        cache = VerletEdgeCache(R_TX)
        for _ in range(5):
            cache.edges(pts)
        assert cache.rebuilds == 1

    def test_population_change_rebuilds(self):
        rng = np.random.default_rng(3)
        pts = disc_for_density(50, DENSITY).sample(50, rng)
        cache = VerletEdgeCache(R_TX)
        cache.edges(pts)
        grown = np.vstack([pts, pts[:5] + 0.1])
        assert np.array_equal(cache.edges(grown),
                              unit_disk_edges(grown, R_TX))
        assert cache.rebuilds == 2


class TestValidation:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="r_tx"):
            VerletEdgeCache(0.0)

    def test_rejects_nan_radius(self):
        """``nan <= 0`` is False: a NaN radius used to be accepted and
        then link nothing."""
        with pytest.raises(ValueError, match="r_tx must be positive, got nan"):
            VerletEdgeCache(float("nan"))

    def test_candidates_and_edges_are_int32(self):
        """The candidate list and the edges and link diffs the cache
        hands out are int32, the dtype ``unit_disk_edges`` returns: node
        indices are below 2**31."""
        rng = np.random.default_rng(4)
        pts = disc_for_density(200, DENSITY).sample(200, rng)
        cache = VerletEdgeCache(R_TX)
        cache.edges(pts)
        edges, diff = cache.edges_with_diff(pts + 0.1)
        assert cache._candidates.dtype == np.int32
        assert cache._candidates.flags["C_CONTIGUOUS"]
        assert edges.dtype == np.int32 and edges.flags["C_CONTIGUOUS"]
        assert diff is not None
        assert diff.ups.dtype == diff.downs.dtype == np.int32
        assert np.array_equal(edges, unit_disk_edges(pts + 0.1, R_TX))

    def test_empty_candidate_list(self):
        """Nodes too far apart: no candidates, still exact."""
        pts = np.array([[0.0, 0.0], [100.0 * R_TX, 0.0]])
        cache = VerletEdgeCache(R_TX)
        assert cache.edges(pts).shape == (0, 2)


class TestLinkDiffEmission:
    """edges_with_diff must report exactly the sorted set differences a
    re-diff of consecutive edge arrays would produce — in the same
    (ascending encoded-key) order — and None across rebuilds."""

    @staticmethod
    def _setdiff_oracle(prev, cur, n):
        pk, ck = encode_edges(prev, n), encode_edges(cur, n)
        ups = decode_edges(np.setdiff1d(ck, pk, assume_unique=True), n)
        downs = decode_edges(np.setdiff1d(pk, ck, assume_unique=True), n)
        return ups, downs

    @pytest.mark.parametrize("seed", range(4))
    def test_diff_matches_setdiff_oracle(self, seed):
        n = 100
        rng = np.random.default_rng(seed)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        cache = VerletEdgeCache(R_TX)
        prev = None
        rebuilds = 0
        diffs_checked = 0
        for _ in range(25):
            before = cache.rebuilds
            edges, diff = cache.edges_with_diff(pts)
            if cache.rebuilds > before:
                rebuilds += 1
                assert diff is None
            elif diff is not None:
                ups, downs = self._setdiff_oracle(prev, edges, n)
                assert np.array_equal(diff.ups, ups)
                assert np.array_equal(diff.downs, downs)
                diffs_checked += 1
            prev = edges
            pts = pts + rng.normal(scale=0.4, size=pts.shape)
        assert diffs_checked > 5  # the fuzz actually exercised the path

    def test_regime_follows_the_step_size(self):
        """A walk whose step crosses the margin slow -> fast -> slow:
        exact edges and exact diffs throughout; the fast stretch is
        served by plain builds only, the slow ones never are."""
        n = 100
        rng = np.random.default_rng(8)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        cache = VerletEdgeCache(R_TX)
        prev = cache.edges(pts)
        steps = 8
        grew = []
        for stride in (0.02, 0.6, 0.02):  # in units of R_TX; margin 0.25
            before = cache.rebuilds, cache.plain_builds
            for _ in range(steps):
                angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
                pts = pts + stride * R_TX * np.column_stack(
                    (np.cos(angle), np.sin(angle)))
                edges, diff = cache.edges_with_diff(pts)
                assert np.array_equal(edges, unit_disk_edges(pts, R_TX))
                if diff is not None:
                    ups, downs = self._setdiff_oracle(prev, edges, n)
                    assert np.array_equal(diff.ups, ups)
                    assert np.array_equal(diff.downs, downs)
                prev = edges
            grew.append((cache.rebuilds - before[0],
                         cache.plain_builds - before[1]))
        slow, fast, slow_again = grew
        assert slow == (0, 0)               # the first list lasts
        assert fast == (0, steps)           # no list built to be dropped
        assert slow_again == (1, 0)         # one list, kept

    def test_static_positions_emit_empty_diff(self):
        rng = np.random.default_rng(1)
        pts = disc_for_density(60, DENSITY).sample(60, rng)
        cache = VerletEdgeCache(R_TX)
        assert cache.edges_with_diff(pts)[1] is None  # first call
        _, diff = cache.edges_with_diff(pts)
        assert diff is not None and diff.n_events == 0

    def test_edges_and_edges_with_diff_interleave(self):
        """edges() is a view over the same state machine, so mixing the
        two entry points keeps diffs consistent."""
        rng = np.random.default_rng(5)
        pts = disc_for_density(60, DENSITY).sample(60, rng)
        cache = VerletEdgeCache(R_TX)
        e0 = cache.edges(pts)
        pts2 = pts + rng.normal(scale=0.2, size=pts.shape)
        e1, diff = cache.edges_with_diff(pts2)
        if diff is not None:
            ups, downs = self._setdiff_oracle(e0, e1, 60)
            assert np.array_equal(diff.ups, ups)
            assert np.array_equal(diff.downs, downs)


class TestIntegerGridBoundary:
    """Integer coordinates make every squared distance exact, so pairs at
    exactly ``r_tx`` (axis-aligned and 3-4-5) and coincident points sit
    on the boundary of the filter's ``<=`` in every regime."""

    R = 5.0  # margin SKIN * R / 2 = 1.25

    @staticmethod
    def _grid():
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        return np.vstack([pts, pts[[0, 13, 77, 143]]])  # coincident copies

    def _assert_exact(self, edges, pts):
        ref = unit_disk_edges(pts, self.R)
        assert edges.dtype == np.int32 and edges.shape == ref.shape
        assert edges.ndim == 2 and edges.shape[1] == 2
        assert edges.flags.c_contiguous
        assert np.array_equal(edges, ref)
        d2 = ((pts[edges[:, 0]] - pts[edges[:, 1]]) ** 2).sum(axis=1)
        assert (d2 == self.R ** 2).any() and (d2 == 0).any()

    def test_every_regime_equals_unit_disk_edges(self):
        pts = self._grid()
        n = len(pts)
        cache = VerletEdgeCache(self.R)
        # (node, integer move, regime the step must take)
        walk = [
            (None, (0, 0), "rebuild"),   # first call
            (0, (1, 0), "filter"),       # drift 1 <= margin
            (0, (1, 0), "rebuild"),      # drift 2 > margin, one step 1
            (5, (0, 2), "plain"),        # one step of 2 outruns 1.25
            (None, (0, 0), "rebuild"),   # a plain build leaves no list
            (7, (0, -1), "filter"),
            (20, (-1, 0), "filter"),     # back onto a coincident spot
        ]
        prev = None
        for node, move, regime in walk:
            if node is not None:
                pts = pts.copy()
                pts[node] += move
            before = cache.rebuilds, cache.plain_builds
            edges, diff = cache.edges_with_diff(pts)
            grew = (cache.rebuilds - before[0], cache.plain_builds - before[1])
            assert grew == {"filter": (0, 0), "rebuild": (1, 0),
                            "plain": (0, 1)}[regime]
            self._assert_exact(edges, pts)
            if regime == "filter":
                ups, downs = TestLinkDiffEmission._setdiff_oracle(prev, edges, n)
                for got, want in ((diff.ups, ups), (diff.downs, downs)):
                    assert got.dtype == np.int32 and got.flags.c_contiguous
                    assert np.array_equal(got.reshape(-1, 2), want)
            else:
                assert diff is None
            prev = edges
