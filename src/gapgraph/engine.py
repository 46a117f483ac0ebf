"""Feasibility index: preprocess once, answer (s, t, d) queries fast.

Preprocessing runs the edge sweep, which keeps only passable gaps (pairs
of obstacles that meet leave nothing to seal: walls cover their contact),
and seals the gap rectangles into a region partition.  The index itself
derives the capacity-weighted links of the region/seal adjacency graph
from the partition and replays them into a persistent DSU in descending
capacity order, so the component structure at timestamp k reflects exactly
the k widest links; a build and a load (store) construct it the same way
from obstacles, edges and partition.  The stages hand on int64 columns
(candidate pairs, GapEdges, (m, 3) links) and share one grid.
A query checks each placement against the partition's wall cells (every
obstacle side is a grid line, so the open body meets an obstacle exactly
when a cell under it is a wall), locates both endpoints, which reads their
union-graph node ids straight off the partition (a point inside a sealed
gap rectangle lands on the seal's own node), binary-searches the last
timestamp whose capacity still admits the robot (d <= capacity passes),
and asks the DSU.  A placement reads the cells under the body: at most
(2D + 1)^2 for a side-D robot on integer coordinates, whatever n is; on
general-position worlds, more as the robot's share of the span grows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dsu import PersistentDsu
from .geometry import Obstacle, ingest_world
from .partition import (
    WALL_CELL,
    RegionPartition,
    build_grid,
    build_partition,
    node_capacities,
    seal_links,
)
from .sweep import GapEdges, build_candidates, columns, relevance_filter


class Verdict(Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    INVALID_START = "INVALID_START"
    INVALID_GOAL = "INVALID_GOAL"

    def __str__(self) -> str:  # CLI prints verdicts bare
        return self.value


@dataclass(frozen=True, slots=True)
class Query:
    """Half-unit query: robot side d must be a positive even integer."""

    s: tuple[int, int]
    t: tuple[int, int]
    d: int

    def __post_init__(self) -> None:
        if self.d <= 0 or self.d % 2:
            raise ValueError("robot side must be a positive even half-unit count")


@dataclass
class FeasibilityIndex:
    """Immutable after construction; safe for concurrent queries."""

    obstacles: list[Obstacle]
    edges: GapEdges
    candidate_count: int
    partition: RegionPartition

    links: np.ndarray = field(init=False)  # int64 (m, 3): node a, node b, capacity
    dsu: PersistentDsu = field(init=False)
    _neg_caps: list[int] = field(init=False)
    _node_caps: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        """Derive the links from the partition and replay them, the same
        after a build and after a load."""
        self.links = seal_links(self.partition, self.edges)
        node_count = self.partition.region_count + len(self.edges)
        self.dsu = PersistentDsu(node_count)
        # Widest first; ties keep seal_links' sorted order.
        order = np.argsort(-self.links[:, 2], kind="stable")
        for a, b in self.links[order, :2].tolist():
            self.dsu.union(a, b)
        self._neg_caps = (-self.links[order, 2]).tolist()
        self._node_caps = node_capacities(self.partition.region_count, self.edges)

    # -- placement validity --------------------------------------------------

    def placement_free(self, p: tuple[int, int], d: int) -> bool:
        """Equivalent of geometry.placement_free, read off the grid: the open
        square meets an obstacle exactly when a cell under it is a wall (the
        only negative label).  Four bisects plus one pass over the cells
        under the body; an empty block is free."""
        part = self.partition
        return part.labels[part.grid.body(p, d)].min(initial=0) > WALL_CELL

    # -- node lookup -----------------------------------------------------------

    def _straddling_node(self, p: tuple[int, int], d: int, seal: int) -> int:
        """Node for a free placement whose center sits in seal node `seal`
        while d exceeds that gap's capacity: the robot cannot be inside the
        gap, so its open body straddles the rectangle and lies in one region
        (or in a wider overlapping gap).  Of the cells under the body (no
        walls, the placement is free), in x-major order: the first region,
        else the first seal whose capacity admits d, else `seal` itself."""
        part = self.partition
        nodes = part.labels[part.grid.body(p, d)].ravel()
        regions = nodes[nodes < part.region_count]
        if regions.size:
            return int(regions[0])
        wide = nodes[self._node_caps[nodes] >= d]
        return int(wide[0]) if wide.size else seal

    def region_of(self, p: tuple[int, int], d: int) -> int | None:
        """Node id for a placement, or None when the placement collides."""
        if not self.placement_free(p, d):
            return None
        node = self.partition.locate(p)
        if node == WALL_CELL:
            raise AssertionError("free placement located inside an obstacle")
        if d <= self._node_caps[node]:
            return node
        return self._straddling_node(p, d, node)

    # -- queries ---------------------------------------------------------------

    def threshold_timestamp(self, d: int) -> int:
        """Last union timestamp whose link capacity is >= d."""
        return bisect_right(self._neg_caps, -d)

    def feasible_with_stats(self, q: Query) -> tuple[Verdict, int]:
        """Verdict plus the number of DSU parent hops spent on the query."""
        u = self.region_of(q.s, q.d)
        if u is None:
            return Verdict.INVALID_START, 0
        v = self.region_of(q.t, q.d)
        if v is None:
            return Verdict.INVALID_GOAL, 0
        if u == v:
            return Verdict.FEASIBLE, 0
        ok, hops = self.dsu.connected_with_hops(u, v, self.threshold_timestamp(q.d))
        return (Verdict.FEASIBLE if ok else Verdict.INFEASIBLE), hops

    def feasible(self, q: Query) -> Verdict:
        return self.feasible_with_stats(q)[0]


def preprocess(obstacles: list[Obstacle]) -> FeasibilityIndex:
    """Build the full index: edges, partition, then (in the index) links
    and union timeline.  The grid is made once and shared by the filter
    and the partition."""
    rects = columns(obstacles)[1]
    grid = build_grid(rects)
    candidates = build_candidates(obstacles)
    edges = relevance_filter(candidates, rects, grid)
    return FeasibilityIndex(
        obstacles=obstacles,
        edges=edges,
        candidate_count=len(candidates),
        partition=build_partition(rects, edges, grid),
    )


def build_index(shapes) -> FeasibilityIndex:
    """Ingest external-unit shapes and preprocess them."""
    return preprocess(ingest_world(shapes))
