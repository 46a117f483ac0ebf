"""Feasibility index: preprocess once, answer (s, t, d) queries fast.

Preprocessing runs the edge sweep, which keeps only passable gaps (pairs
of obstacles that meet leave nothing to seal: walls cover their contact),
seals the gap rectangles into a region partition, and replays the
capacity-weighted links of the region/seal adjacency graph into a
persistent DSU in descending capacity order, so the component structure at
timestamp k reflects exactly the k widest links.
A query locates both endpoints, which reads their union-graph node ids
straight off the partition (a point inside a sealed gap rectangle lands on
the seal's own node), binary-searches the last timestamp whose capacity
still admits the robot (d <= capacity passes), and asks the DSU.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dsu import PersistentDsu
from .geometry import Obstacle, ingest_world
from .partition import WALL_CELL, RegionPartition, build_partition, seal_links
from .sweep import GapEdge, build_candidates, relevance_filter


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
    edges: list[GapEdge]
    candidate_count: int
    partition: RegionPartition
    links: list[tuple[int, int, int]]  # (node_a, node_b, capacity)

    dsu: PersistentDsu = field(init=False)
    _neg_caps: list[int] = field(init=False)
    _ox1: np.ndarray = field(init=False)
    _oy1: np.ndarray = field(init=False)
    _ox2: np.ndarray = field(init=False)
    _oy2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        node_count = self.partition.region_count + len(self.edges)
        self.dsu = PersistentDsu(node_count)
        order = sorted(range(len(self.links)), key=lambda k: -self.links[k][2])
        neg = []
        for k in order:
            a, b, cap = self.links[k]
            self.dsu.union(a, b)
            neg.append(-cap)
        self._neg_caps = neg
        self._ox1 = np.fromiter((o.x1 for o in self.obstacles), dtype=np.int64)
        self._oy1 = np.fromiter((o.y1 for o in self.obstacles), dtype=np.int64)
        self._ox2 = np.fromiter((o.x2 for o in self.obstacles), dtype=np.int64)
        self._oy2 = np.fromiter((o.y2 for o in self.obstacles), dtype=np.int64)

    # -- placement validity --------------------------------------------------

    def placement_free(self, p: tuple[int, int], d: int) -> bool:
        """Vectorized equivalent of geometry.placement_free."""
        if not self.obstacles:
            return True
        px, py = p
        h = d // 2
        hit = (
            (self._ox1 - h < px)
            & (px < self._ox2 + h)
            & (self._oy1 - h < py)
            & (py < self._oy2 + h)
        )
        return not bool(hit.any())

    # -- node lookup -----------------------------------------------------------

    def _straddling_node(self, p: tuple[int, int], d: int, seal: int) -> int:
        """Node for a free placement whose center sits in seal node `seal`
        while d exceeds that gap's capacity: the robot cannot be inside the
        gap, so its open body straddles the rectangle and lies in one region
        (or in a wider overlapping gap).  Scan the body's cells for it."""
        h = d // 2
        px, py = p
        part = self.partition
        grid, labels, rc = part.grid, part.labels, part.region_count
        wide = seal
        rows = grid.span(grid.ys, py - h, py + h)
        for ix in grid.span(grid.xs, px - h, px + h):
            for iy in rows:
                node = int(labels[ix, iy])
                if 0 <= node < rc:
                    return node
                if wide == seal and node >= rc and self.edges[node - rc].capacity >= d:
                    wide = node
        return wide

    def region_of(self, p: tuple[int, int], d: int) -> int | None:
        """Node id for a placement, or None when the placement collides."""
        if not self.placement_free(p, d):
            return None
        node = self.partition.locate(p)
        if node == WALL_CELL:
            raise AssertionError("free placement located inside an obstacle")
        k = node - self.partition.region_count
        if k < 0 or d <= self.edges[k].capacity:
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
    """Build the full index: edges, partition, union timeline."""
    candidates = build_candidates(obstacles)
    edges = relevance_filter(candidates, obstacles)
    part = build_partition(obstacles, edges)
    links = seal_links(part, edges)
    return FeasibilityIndex(
        obstacles=obstacles,
        edges=edges,
        candidate_count=len(candidates),
        partition=part,
        links=links,
    )


def build_index(shapes) -> FeasibilityIndex:
    """Ingest external-unit shapes and preprocess them."""
    return preprocess(ingest_world(shapes))
