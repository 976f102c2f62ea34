"""Clustered hierarchy construction (Fig. 1 of the paper).

Recursive application of the LCA election: level-0 is the physical
unit-disk graph; the elected clusterheads become the level-1 node set,
linked when their clusters are adjacent; and so on until the topology
stops shrinking (single node, or no remaining links).

:class:`ClusteredHierarchy` is an immutable snapshot.  The simulator
builds one per step and diffs consecutive snapshots to detect migration
and reorganization events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.clustering.lca import Election, elect
from repro.graphs import IdIndex, sorted_unique_ids
from repro.hierarchy.cluster_graph import canonical_edges, contract_edges
from repro.radio.unit_disk import unit_disk_edges

__all__ = [
    "LevelTopology",
    "ClusteredHierarchy",
    "build_hierarchy",
    "check_link_model",
    "recurse_levels",
]


@dataclass(frozen=True)
class LevelTopology:
    """One level of the clustered hierarchy.

    ``election`` is the LCA outcome that produced level ``k + 1`` from
    this level; it is ``None`` for the top level, where clustering was
    not applied (or did not shrink the topology further).
    """

    k: int
    node_ids: np.ndarray
    edges: np.ndarray
    election: Election | None

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.size)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def mean_degree(self) -> float:
        """d_k of Eq. (1a)."""
        if self.n_nodes == 0:
            return 0.0
        return 2.0 * self.n_edges / self.n_nodes


class ClusteredHierarchy:
    """Immutable multi-level clustered hierarchy snapshot.

    Attributes
    ----------
    levels:
        ``levels[k]`` is the level-k topology; ``levels[0]`` is the
        physical graph.  ``num_levels`` (= L) counts clustering
        applications, so ``len(levels) == L + 1``.
    """

    def __init__(self, levels: list[LevelTopology]):
        if not levels:
            raise ValueError("hierarchy needs at least the physical level")
        self.levels = levels
        self._base_ids = levels[0].node_ids
        # Ancestor maps: _anc[k][i] = level-k cluster (ID) of base node i.
        anc = [self._base_ids.copy()]
        for lvl in levels[:-1]:
            assert lvl.election is not None
            idx = IdIndex(lvl.node_ids).rows(anc[-1])
            anc.append(lvl.election.member_of[idx])
        self._anc = anc

    # -- basic shape ----------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """L: number of clustering levels applied."""
        return len(self.levels) - 1

    @property
    def n(self) -> int:
        """|V|: physical node count."""
        return self.levels[0].n_nodes

    def level_sizes(self) -> list[int]:
        """[|V_0|, |V_1|, ..., |V_L|]."""
        return [lvl.n_nodes for lvl in self.levels]

    # -- membership -------------------------------------------------------------

    def _base_index(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=np.int64).reshape(-1)
        idx = np.searchsorted(self._base_ids, arr)
        if np.any(idx >= self._base_ids.size) or np.any(self._base_ids[idx] != arr):
            raise KeyError(f"unknown node id(s) in {arr!r}")
        return idx

    def cluster_of(self, v: int, k: int) -> int:
        """ID of the level-k cluster containing physical node ``v``.

        ``cluster_of(v, 0) == v``; for k = L it is the top-level ancestor.
        """
        if not 0 <= k <= self.num_levels:
            raise ValueError(f"level {k} outside 0..{self.num_levels}")
        return int(self._anc[k][self._base_index(v)[0]])

    def ancestry(self, k: int) -> np.ndarray:
        """Level-k cluster ID for *every* physical node (aligned with
        ``levels[0].node_ids``)."""
        if not 0 <= k <= self.num_levels:
            raise ValueError(f"level {k} outside 0..{self.num_levels}")
        return self._anc[k]

    @property
    def ancestries(self) -> tuple[np.ndarray, ...]:
        """``(ancestry(0), ..., ancestry(L))`` in one call, for code that
        works on every level at once."""
        return tuple(self._anc)

    def address(self, v: int) -> tuple[int, ...]:
        """Hierarchical address (top-level cluster, ..., level-1 cluster, v).

        Strict hierarchical routing forwards packets on exactly this
        address (Section 2.1).
        """
        i = self._base_index(v)[0]
        return tuple(int(self._anc[k][i]) for k in range(self.num_levels, -1, -1))

    def clusters(self, k: int) -> dict[int, np.ndarray]:
        """Partition of level-(k-1) nodes into level-k clusters."""
        if not 1 <= k <= self.num_levels:
            raise ValueError(f"level {k} outside 1..{self.num_levels}")
        election = self.levels[k - 1].election
        assert election is not None
        return election.clusters()

    def members0(self, k: int, cluster_id: int) -> np.ndarray:
        """Physical nodes whose level-k ancestor is ``cluster_id``."""
        if not 0 <= k <= self.num_levels:
            raise ValueError(f"level {k} outside 0..{self.num_levels}")
        return self._base_ids[self._anc[k] == cluster_id]

    def highest_level_of(self, v: int) -> int:
        """Largest k such that ``v`` is a level-k node."""
        self._base_index(v)  # validate
        level = 0
        for k in range(1, len(self.levels)):
            ids = self.levels[k].node_ids
            i = np.searchsorted(ids, v)
            if i < ids.size and ids[i] == v:
                level = k
            else:
                break
        return level

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "/".join(str(s) for s in self.level_sizes())
        return f"ClusteredHierarchy(L={self.num_levels}, sizes={sizes})"


def check_link_model(level_mode: str, r0) -> None:
    """Reject an unknown ``level_mode`` or a radio model without ``r0``."""
    if level_mode not in ("contraction", "radio"):
        raise ValueError(f"unknown level_mode {level_mode!r}")
    if level_mode == "radio" and r0 is None:
        raise ValueError("radio level_mode requires r0")


def recurse_levels(
    node_ids,
    edges,
    elector: Callable[[int, np.ndarray, np.ndarray], Election],
    max_levels: int | None = None,
    level_mode: str = "contraction",
    positions=None,
    r0: float | None = None,
    located_at: Callable[[int, np.ndarray], np.ndarray] | None = None,
) -> ClusteredHierarchy:
    """The paper's one rule, applied recursively (Sec. 2.2, Fig. 1):
    elect at level k, the heads become level k + 1, link them, repeat
    until nothing aggregates.

    Every hierarchy in the package comes out of this loop; what differs
    between the memoryless build and the sticky and persistent
    maintainers is only ``elector``, called as
    ``elector(k, ids, edges)`` with level k's sorted IDs and canonical
    edges and returning that level's
    :class:`~repro.clustering.lca.Election` (whose ``clusterheads`` are
    the level-(k+1) IDs and ``member_of`` the affiliations).

    The recursion owns the stop rules — ``max_levels`` reached, one node
    left, no links left, or an election that aggregates nothing; the
    level that stops is the top and carries ``election=None`` — and the
    derivation of E_{k+1} (``level_mode``, see :func:`build_hierarchy`).

    ``node_ids`` (any iterable of unique ints) and ``edges`` (ID pairs)
    are normalised here, once: an already canonical int64 edge array is
    kept as a read-only view, not copied (:func:`canonical_edges`), so
    hand in a fresh array per snapshot.  ``located_at(k, ids)`` names the
    base node whose position each level-k ID takes in the radio model;
    the default is the ID itself (clusters named by their head's node
    ID), persistent cluster IDs supply their head chain.
    """
    check_link_model(level_mode, r0)
    base_ids = sorted_unique_ids(node_ids)
    cur_ids = base_ids
    cur_edges = canonical_edges(edges)
    if level_mode == "radio":
        if positions is None:
            raise ValueError("radio level_mode requires positions")
        pos = np.asarray(positions, dtype=np.float64)
        if pos.shape[0] != base_ids.size:
            raise ValueError("positions must align with node_ids")
    levels: list[LevelTopology] = []
    k = 0
    while True:
        at_cap = max_levels is not None and k >= max_levels
        if at_cap or cur_ids.size <= 1 or cur_edges.shape[0] == 0:
            levels.append(LevelTopology(k, cur_ids, cur_edges, election=None))
            break
        election = elector(k, cur_ids, cur_edges)
        heads = election.clusterheads
        if heads.size == cur_ids.size:
            # No aggregation possible; treat as top.
            levels.append(LevelTopology(k, cur_ids, cur_edges, election=None))
            break
        levels.append(LevelTopology(k, cur_ids, cur_edges, election=election))
        if level_mode == "radio":
            at = heads if located_at is None else located_at(k + 1, heads)
            r_k = float(r0) * float(np.sqrt(base_ids.size / heads.size))
            pair_idx = unit_disk_edges(pos[np.searchsorted(base_ids, at)], r_k)
            cur_edges = (
                heads[pair_idx]
                if pair_idx.size
                else np.empty((0, 2), dtype=np.int64)
            )
        else:
            cur_edges = contract_edges(cur_edges, cur_ids, election.member_of)
        cur_ids = heads
        k += 1
    return ClusteredHierarchy(levels)


def _lca_elector(k: int, ids: np.ndarray, edges: np.ndarray) -> Election:
    return elect(ids, edges)


def build_hierarchy(
    node_ids,
    edges,
    max_levels: int | None = None,
    level_mode: str = "contraction",
    positions=None,
    r0: float | None = None,
) -> ClusteredHierarchy:
    """Cluster ``(node_ids, edges)`` recursively into a hierarchy,
    electing every level from scratch (:func:`recurse_levels` with a
    memoryless elector).

    Parameters
    ----------
    node_ids, edges:
        The physical (level-0) topology; IDs are arbitrary unique ints,
        edges are ID pairs.
    max_levels:
        Stop after this many clustering applications (None = cluster
        until the topology stops shrinking: one node left, or no links).
    level_mode:
        How level-k links (E_k, k >= 1) are derived:

        * ``"contraction"`` — two clusterheads are linked iff their
          clusters are adjacent (some level-(k-1) link crosses).  Simple,
          but adjacency can hinge on one boundary link, so high-level
          links flicker under mobility.
        * ``"radio"`` — level-k nodes are linked iff their *positions*
          are within ``r_k = r0 * sqrt(|V|/|V_k|)``: the same unit-disk
          construction as level 0, with the radius scaled so mean level
          degree stays constant.  This is the geometric cluster-link
          model the paper's own Section 5.3.1 analysis assumes ("the
          relative distance separating neighbor clusterheads ...
          Theta(sqrt(c_k))"), and it yields the Theta(1/h_k) link-change
          frequencies the gamma bound requires.  Requires ``positions``
          (aligned with sorted node_ids) and ``r0`` (the level-0 radius).
    positions, r0:
        Only used (and required) for ``level_mode="radio"``.
    """
    return recurse_levels(node_ids, edges, _lca_elector, max_levels=max_levels,
                          level_mode=level_mode, positions=positions, r0=r0)
