"""Per-step hierarchy invariant checking.

Under chaos (crashes, partitions, burst loss) the hierarchical location
management structure can silently break in ways no overhead meter
notices: a node's elected clusterhead ends up across a partition, a
maintainer emits a membership chain pointing at a node that left the
level, a location-DB entry names a server that is down.  This module
states those structural invariants explicitly and counts violations per
step:

* **head reachability** — every alive node's level-1 clusterhead is
  alive and in the node's connected component (for persistent
  hierarchies, whose cluster ids are synthetic, the check degrades to
  cluster coherence: a cluster's alive members must share a component);
* **chain well-foundedness** — every level's membership map points into
  the next level's node set (guards maintainer state against drift);
* **server liveness** — every location-DB pointer names an alive server;
* **server reachability** — an alive subject's (alive) server is in the
  subject's connected component: the check that *sees* a geographic
  partition, where every cross-cut pointer silently stops serving
  registrations and queries until the cut heals.

Violations are *counted*, never repaired: the reproduction measures how
the protocol degrades, and the recovery-SLO layer
(:class:`~repro.sim.collectors.chaos.ChaosCollector`) turns the count
series into time-to-reconverge.  ``strict=True`` turns any violation
into an :class:`InvariantViolationError` for debugging runs.  Orphan
counts (alive nodes with zero alive links) are reported alongside but
are *not* violations — sparse deployments isolate nodes naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["InvariantReport", "InvariantViolationError", "check_invariants"]


class InvariantViolationError(RuntimeError):
    """Raised by strict-mode checking when any invariant is violated."""


@dataclass(frozen=True)
class InvariantReport:
    """Violation counts for one step's snapshot."""

    step: int
    head_unreachable: int = 0
    """Alive nodes whose level-1 clusterhead is dead or unreachable
    (persistent mode: alive nodes outside their cluster's main
    component)."""
    broken_chain: int = 0
    """Membership entries pointing outside the next level's node set."""
    dead_servers: int = 0
    """Location-DB entries whose server node is down."""
    unreachable_servers: int = 0
    """Location-DB entries whose (alive) server sits in a different
    connected component than its (alive) subject — cross-partition
    pointers."""
    orphaned: int = 0
    """Alive nodes with no alive link (reported, not a violation)."""

    @property
    def violations(self) -> int:
        """Total structural violations (orphans excluded)."""
        return (self.head_unreachable + self.broken_chain
                + self.dead_servers + self.unreachable_servers)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def describe(self) -> str:
        """One-line human-readable violation summary."""
        return (
            f"step {self.step}: {self.violations} invariant violation(s) — "
            f"{self.head_unreachable} unreachable clusterhead(s), "
            f"{self.broken_chain} broken chain entr(ies), "
            f"{self.dead_servers} dead server pointer(s), "
            f"{self.unreachable_servers} cross-partition server pointer(s) "
            f"[{self.orphaned} orphaned node(s)]"
        )


def _components(ids: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Connected-component label per node (aligned with ``ids``; labels
    are only ever compared for equality)."""
    from repro.graphs import CompactGraph

    return CompactGraph(ids, edges).components()


def check_invariants(
    hierarchy,
    edges: np.ndarray,
    assignment=None,
    alive: np.ndarray | None = None,
    step: int = -1,
    strict: bool = False,
) -> InvariantReport:
    """Check the hierarchy invariants on one step's topology.

    Parameters
    ----------
    hierarchy:
        The step's :class:`~repro.hierarchy.levels.ClusteredHierarchy`.
    edges:
        The *filtered* level-0 link list the hierarchy was elected on
        (down nodes and severed cut links already removed).
    assignment:
        The effective :class:`~repro.core.servers.ServerAssignment`
        (None skips the server-liveness check).
    alive:
        Boolean per-node up mask aligned with the base node ids (None
        means every node is up).
    strict:
        Raise :class:`InvariantViolationError` on any violation instead
        of returning a nonzero report.

    Server reachability compares connected components, so it also
    counts pointers across the small unit-disk components a fault-free
    network has of its own: chaos-free runs at n = 10^4 report ~10^2
    ``unreachable_servers`` per step, and ``strict=True`` raises on
    them.  The other three invariants stay at 0 without faults.
    """
    ids = hierarchy.levels[0].node_ids
    n = ids.size
    if alive is None:
        alive = np.ones(n, dtype=bool)
    else:
        alive = np.asarray(alive, dtype=bool)
        if alive.size != n:
            raise ValueError(
                f"alive mask has {alive.size} entries for {n} nodes"
            )

    degree = np.zeros(n, dtype=np.int64)
    if edges.size:
        idx = np.searchsorted(ids, edges.reshape(-1))
        degree = np.bincount(idx, minlength=n)
    orphaned = int((alive & (degree == 0)).sum())
    labels = _components(ids, edges)

    head_unreachable = 0
    if hierarchy.num_levels >= 1:
        anc1 = hierarchy.ancestry(1)
        pos = np.searchsorted(ids, anc1)
        pos_c = np.minimum(pos, n - 1)
        head_is_node = ids[pos_c] == anc1
        direct = alive & head_is_node
        if direct.any():
            head_idx = pos_c[direct]
            bad = ~alive[head_idx] | (labels[head_idx] != labels[direct])
            head_unreachable += int(bad.sum())
        # Synthetic cluster ids (persistent hierarchies) name no base
        # node; degrade to cluster coherence — alive members of one
        # cluster must share a connected component.
        synth = alive & ~head_is_node
        if synth.any():
            cids = anc1[synth]
            comps = labels[synth]
            pairs, counts = np.unique(
                np.stack([cids, comps], axis=1), axis=0, return_counts=True
            )
            totals: dict[int, int] = {}
            biggest: dict[int, int] = {}
            for (cid, _), c in zip(pairs.tolist(), counts.tolist()):
                totals[cid] = totals.get(cid, 0) + c
                biggest[cid] = max(biggest.get(cid, 0), c)
            head_unreachable += sum(
                totals[c] - biggest[c] for c in totals
            )

    broken_chain = 0
    for k in range(hierarchy.num_levels):
        election = hierarchy.levels[k].election
        if election is None:
            continue
        nxt = hierarchy.levels[k + 1].node_ids
        broken_chain += int((~np.isin(election.member_of, nxt)).sum())

    dead_servers = 0
    unreachable_servers = 0
    # One dense column per LM level, rows aligned with ``ids``.
    for table in assignment.tables.values() if assignment is not None else ():
        upos = np.flatnonzero(table >= 0)
        servers = table[upos]
        spos = np.minimum(np.searchsorted(ids, servers), n - 1)
        valid = ids[spos] == servers
        dead_servers += int((~valid).sum())
        dead_servers += int((valid & ~alive[spos]).sum())
        both_up = valid & alive[spos] & alive[upos]
        unreachable_servers += int(
            (labels[spos[both_up]] != labels[upos[both_up]]).sum()
        )

    report = InvariantReport(
        step=step,
        head_unreachable=head_unreachable,
        broken_chain=broken_chain,
        dead_servers=dead_servers,
        unreachable_servers=unreachable_servers,
        orphaned=orphaned,
    )
    if strict and not report.ok:
        raise InvariantViolationError(report.describe())
    return report
