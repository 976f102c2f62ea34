"""Grid Location Service — distributed location database (Section 3.1).

Implements the three salient GLS features the paper lists:

(a) unambiguous, ID-hashed server selection per grid square (Eq. 5),
(b) server density graded by distance (one server per sibling square at
    every grid level: many nearby, few far away),
(c) distance-graded update frequency (a node re-registers with its
    level-i servers only after moving a fraction of the level-i square
    side).

Overhead accounting uses the same *assignment diff* rule as CHLM so the
two schemes are directly comparable (EXP-T8): whenever the server
responsible for a (subject, level) entry changes, the entry must be
handed off, charged as the hop count between outgoing and incoming
server (or from the subject for a fresh placement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.geometry.points import as_points
from repro.gls.grid import GridHierarchy
from repro.gls.servers import select_server_sorted

__all__ = ["GLSAssignment", "GLSStepReport", "GridLocationService"]

HopFn = Callable[[int, int], int]


@dataclass(frozen=True)
class GLSAssignment:
    """Server assignment snapshot: ``servers[(subject, level)]`` is the
    sorted tuple of server IDs across the subject's sibling squares."""

    servers: dict[tuple[int, int], tuple[int, ...]]

    def servers_of(self, subject: int) -> dict[int, tuple[int, ...]]:
        """Per-level servers of one subject."""
        return {
            lvl: srv for (subj, lvl), srv in self.servers.items() if subj == subject
        }

    def load(self) -> dict[int, int]:
        """Number of (subject, level) entries each server stores."""
        counts: dict[int, int] = {}
        for srv_tuple in self.servers.values():
            for s in srv_tuple:
                counts[s] = counts.get(s, 0) + 1
        return counts


@dataclass(frozen=True)
class GLSStepReport:
    """Packet accounting for one observation step."""

    handoff_packets: int
    handoff_events: int
    update_packets: int
    update_events: int

    @property
    def total_packets(self) -> int:
        return self.handoff_packets + self.update_packets


@dataclass
class GridLocationService:
    """Stateful GLS instance over a fixed node population.

    Parameters
    ----------
    grid:
        The grid hierarchy covering the deployment area.
    node_ids:
        All participating node IDs (IDs are hashed by Eq. (5); the
        modulus defaults to ``max(id) + 1``).
    update_fraction:
        A node re-registers with its level-i servers after moving this
        fraction of the level-i square side (feature (c)).
    """

    grid: GridHierarchy
    node_ids: np.ndarray
    modulus: int | None = None
    update_fraction: float = 0.5
    _prev: GLSAssignment | None = field(default=None, repr=False)
    _last_update_pos: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self):
        self.node_ids = np.unique(np.asarray(self.node_ids, dtype=np.int64))
        if self.node_ids.size == 0:
            raise ValueError("GLS needs at least one node")
        if self.modulus is None:
            self.modulus = int(self.node_ids.max()) + 1
        if self.update_fraction <= 0:
            raise ValueError("update_fraction must be positive")

    # -- assignment ------------------------------------------------------------

    def compute_assignment(self, positions) -> GLSAssignment:
        """Select every node's servers from current positions.

        For each level i = 1..L-1, each node owns one server per sibling
        square of its level-i square (up to 3), chosen by the Eq. (5)
        circular-successor rule among the nodes located in that square.
        Empty squares contribute no server.
        """
        pts = as_points(positions)
        if pts.shape[0] != self.node_ids.size:
            raise ValueError("positions must align with node_ids")
        servers: dict[tuple[int, int], tuple[int, ...]] = {}
        for level in range(1, self.grid.L):
            keys = self.grid.square_key(pts, level)
            order = np.argsort(keys, kind="stable")
            uniq, starts = np.unique(keys[order], return_index=True)
            groups = np.split(order, starts[1:])
            occupants = {
                int(k): np.sort(self.node_ids[g]) for k, g in zip(uniq, groups)
            }
            width = 2 ** (self.grid.L - level)
            coords = self.grid.square_of(pts, level)
            parents = coords // 2
            for i, v in enumerate(self.node_ids.tolist()):
                base = parents[i] * 2
                chosen = []
                for dx in (0, 1):
                    for dy in (0, 1):
                        sq = (base[0] + dx, base[1] + dy)
                        if sq[0] == coords[i, 0] and sq[1] == coords[i, 1]:
                            continue  # own square: no server there
                        key = int(sq[0] * width + sq[1])
                        cand = occupants.get(key)
                        if cand is None:
                            continue
                        srv = select_server_sorted(v, cand, self.modulus)
                        if srv is not None:
                            chosen.append(srv)
                servers[(v, level)] = tuple(sorted(chosen))
        return GLSAssignment(servers=servers)

    # -- overhead metering ---------------------------------------------------------

    def observe(self, positions, hop_fn: HopFn) -> GLSStepReport:
        """Meter one step: handoffs from server reassignment plus
        distance-triggered location updates.

        ``hop_fn(u, v)`` returns the packet transmissions needed to move
        one entry from u to v (hop count of the route; implementations
        may estimate).  The first observation establishes the baseline
        and reports zero overhead.
        """
        pts = as_points(positions)
        assignment = self.compute_assignment(pts)
        handoff_packets = 0
        handoff_events = 0
        update_packets = 0
        update_events = 0

        if self._prev is not None:
            for key, new_servers in assignment.servers.items():
                old_servers = self._prev.servers.get(key, ())
                if old_servers == new_servers:
                    continue
                subject = key[0]
                removed = sorted(set(old_servers) - set(new_servers))
                added = sorted(set(new_servers) - set(old_servers))
                for r, a in zip(removed, added):
                    handoff_events += 1
                    handoff_packets += max(hop_fn(r, a), 0)
                for a in added[len(removed):]:
                    handoff_events += 1
                    handoff_packets += max(hop_fn(subject, a), 0)
                # Surplus removals: entries simply expire.

            # Feature (c): movement-threshold updates.
            idx = {int(v): i for i, v in enumerate(self.node_ids.tolist())}
            for level in range(1, self.grid.L):
                threshold = self.update_fraction * self.grid.square_side(level)
                for v in self.node_ids.tolist():
                    pos = pts[idx[v]]
                    last = self._last_update_pos.get((v, level))
                    if last is None or np.linalg.norm(pos - last) >= threshold:
                        if last is not None:
                            update_events += 1
                            for srv in assignment.servers.get((v, level), ()):
                                update_packets += max(hop_fn(v, srv), 0)
                        self._last_update_pos[(v, level)] = pos.copy()
        else:
            for level in range(1, self.grid.L):
                for i, v in enumerate(self.node_ids.tolist()):
                    self._last_update_pos[(v, level)] = pts[i].copy()

        self._prev = assignment
        return GLSStepReport(
            handoff_packets=handoff_packets,
            handoff_events=handoff_events,
            update_packets=update_packets,
            update_events=update_events,
        )
