"""Feasibility index: preprocess once, answer (s, t, d) queries fast.

Preprocessing runs the edge sweep, which keeps only passable gaps (pairs
of obstacles that meet leave nothing to seal: walls cover their contact),
and seals the gap rectangles into a region partition, which is labelled
and linked on its grid's column runs, not cell by cell (partition), and
then fills the dense cell labels that the query path reads.  The index
itself derives the capacity-weighted links of the region/seal adjacency
graph from the partition's runs and replays them into a persistent DSU in
descending capacity order, so the component structure at timestamp k
reflects exactly the k widest links.  A load (store) keeps only the
obstacles and edges of a build, and rebuilds the partition from them with
the same build_partition call as preprocess, so both construct the index
the same way.  The stages hand on int64 columns: the obstacles' (4, n)
rect rows from ingest on (an obstacle's id is its column), candidate
pairs, GapEdges and (m, 3) links.

A query checks each placement, locates both endpoints, which reads their
union-graph node ids straight off the partition (a point inside a sealed
gap rectangle lands on the seal's own node), binary-searches the last
timestamp whose capacity still admits the robot (d <= capacity passes),
and asks the DSU.  There are two paths with the same verdicts:

- feasible() answers one query in plain Python.  Its placement check reads
  the partition's wall cells under the body (every obstacle side is a grid
  line, so the open body meets an obstacle exactly when a cell under it is
  a wall): at most (2D + 1)^2 cells for a side-D robot on integer
  coordinates, whatever n is, and more on general-position worlds as the
  robot's share of the span grows.
- feasible_many() answers a batch on int64 columns.  Its placement check
  is sweep.ObstacleCounter, O(log n) numpy work per body whatever its
  width; point location, the threshold search and the DSU walk are
  vectorised too, and only the rare straddling placements take the scalar
  remap.  The DSU and the capacity timeline are copied into arrays on
  the first batch and kept for the next.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .dsu import PersistentDsu
from .geometry import COORD_LIMIT, ingest_world
from .partition import (
    WALL_CELL,
    RegionPartition,
    build_grid,
    build_partition,
    node_capacities,
    seal_links,
)
from .sweep import GapEdges, ObstacleCounter, build_candidates, relevance_filter


class Verdict(Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    INVALID_START = "INVALID_START"
    INVALID_GOAL = "INVALID_GOAL"

    def __str__(self) -> str:  # CLI prints verdicts bare
        return self.value


#: Verdicts by the codes feasible_many assigns.
_VERDICTS = (Verdict.FEASIBLE, Verdict.INFEASIBLE, Verdict.INVALID_START, Verdict.INVALID_GOAL)


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

    rects: np.ndarray  # int64 (4, n) obstacles x1, y1, x2, y2; an id is a column
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
        self.dsu.union_many(self.links[order, :2].tolist())
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

    # -- batches ---------------------------------------------------------------

    @cached_property
    def _neg_cap_array(self) -> np.ndarray:
        """_neg_caps as int64, for the batches' threshold search."""
        return np.asarray(self._neg_caps, dtype=np.int64)

    @cached_property
    def counter(self) -> ObstacleCounter:
        """The obstacle counter of the batch placement check, built on the
        first batch, or by a load's pathway check (store)."""
        return ObstacleCounter(self.rects)

    def _nodes_many(self, p: np.ndarray, d: np.ndarray) -> np.ndarray:
        """region_of for the placements at the int64 (2, m) points p with
        sides d, as int64 node ids, WALL_CELL where a placement collides.

        One ObstacleCounter.meets call checks every open body; the grid's
        cell rule, with searchsorted, locates the free ones.  A free
        placement in a seal narrower than d goes to _straddling_node."""
        h = d // 2
        free = self.counter.meets(np.concatenate([p - h, p + h])) == 0
        part = self.partition
        cells = []
        for coords, v in zip((part.grid.xs, part.grid.ys), p):
            lines = np.asarray(coords)
            cell = np.searchsorted(lines, v, "left") + np.searchsorted(lines, v, "right") - 1
            cells.append(np.clip(cell, 0, 2 * len(lines) - 2))
        located = part.labels[tuple(cells)]
        if (free & (located == WALL_CELL)).any():
            raise AssertionError("free placement located inside an obstacle")
        node = np.where(free, located, WALL_CELL).astype(np.int64)
        for k in np.flatnonzero(free & (d > self._node_caps[node])).tolist():
            x, y = p[:, k].tolist()
            node[k] = self._straddling_node((x, y), int(d[k]), int(node[k]))
        return node

    def feasible_many(self, queries: list[Query]) -> list[Verdict]:
        """feasible() of every query, answered together on int64 columns:
        one obstacle count for every start and goal body, point location by
        searchsorted, one threshold searchsorted, and one lock-step DSU walk
        (PersistentDsu.connected_many).  A batch with a value beyond
        2 * COORD_LIMIT half-units, where int64 arithmetic could wrap, takes
        the scalar path.  For a few queries feasible() is faster."""
        limit = 2 * COORD_LIMIT
        try:
            cols = np.array([(*q.s, *q.t, q.d) for q in queries], dtype=np.int64)
            wide = ((cols < -limit) | (cols > limit)).any()
        except OverflowError:  # beyond int64
            wide = True
        if wide:
            return [self.feasible(q) for q in queries]
        sx, sy, tx, ty, d = cols.reshape(-1, 5).T
        m = len(d)
        p = np.stack([np.concatenate([sx, tx]), np.concatenate([sy, ty])])
        node = self._nodes_many(p, np.concatenate([d, d]))
        u, v = node[:m], node[m:]
        # Indices into _VERDICTS: FEASIBLE unless an endpoint collides
        # (the start first) or the DSU says otherwise.
        code = np.where(u == WALL_CELL, 2, np.where(v == WALL_CELL, 3, 0))
        ask = np.flatnonzero((code == 0) & (u != v))
        t = np.searchsorted(self._neg_cap_array, -d[ask], "right")
        ok = self.dsu.connected_many(u[ask], v[ask], t)[0]
        code[ask[~ok]] = 1
        return [_VERDICTS[c] for c in code.tolist()]


def preprocess(rects: np.ndarray) -> FeasibilityIndex:
    """Build the full index over the obstacles' int64 (4, n) rect rows:
    edges, partition, then (in the index) links and union timeline."""
    candidates = build_candidates(rects)
    edges = relevance_filter(candidates, rects)
    return FeasibilityIndex(
        rects=rects,
        edges=edges,
        candidate_count=len(candidates),
        partition=build_partition(rects, edges, build_grid(rects)),
    )


def build_index(shapes) -> FeasibilityIndex:
    """Ingest external-unit shapes and preprocess them."""
    return preprocess(ingest_world(shapes))
