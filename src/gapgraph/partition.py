"""Region partition over a doubled compressed grid.

The grid stores both coordinate lines and the open intervals between them
as cells (even cell indices are zero-thickness lines, odd are intervals),
so zero-width gap rectangles and flush boundaries need no epsilons.  One
sentinel coordinate beyond each extreme keeps the outermost ring free;
points outside the grid clamp onto that ring, which always belongs to the
unbounded region.  The grid lines are exactly the obstacle coordinates
(build_grid); a gap rectangle's sides are coordinates of its own pair, so
they lie on the grid too, and the grid is rebuilt from the obstacles,
never stored.  Since every obstacle side is a grid line, each cell lies
wholly inside or wholly outside each closed obstacle (wall_cells): an open
rectangle meets an obstacle exactly when one of the cells it meets
(DoubledGrid.box) is a wall.  One such test answers both the placement
check (the open square of side d at p, DoubledGrid.body) and pathway
clearance in the relevance filter.

Cells covered by a closed obstacle are walls; cells covered by a gap edge's
rectangle (and not walls) are sealed; the rest flood-fill 4-connectedly
into regions.  One int32 array holds every cell's node id in the union
graph the query timeline runs on: region r as r in [0, R), the seal of gap
edge k as R + k, and WALL_CELL (-1) for walls.  Point location is one
lookup from a point to its node.  The union graph's links follow one rule:
two nodes link when cells they own are 4-adjacent, at the smaller of their
capacities (seal_links).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

from .geometry import Obstacle, Rect

if TYPE_CHECKING:  # sweep imports this module
    from .sweep import GapEdge

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)

WALL_CELL = -1

_LINK_BLOCK_ROWS = 64  # grid rows seal_links compares per numpy pass


@dataclass
class DoubledGrid:
    xs: list[int]
    ys: list[int]

    @staticmethod
    def cell(coords: list[int], v: int) -> int:
        """Cell containing v along one axis."""
        i = bisect_left(coords, v)
        if i == len(coords):
            return 2 * len(coords) - 2  # beyond the top sentinel line
        if coords[i] == v:
            return 2 * i
        if i == 0:
            return 0  # beyond the bottom sentinel line
        return 2 * i - 1

    @staticmethod
    def line(coords: list[int], v: int) -> int:
        """Cell of the grid line at coordinate v."""
        i = bisect_left(coords, v)
        assert i < len(coords) and coords[i] == v, "coordinate not on grid"
        return 2 * i

    def closed(self, r: Rect) -> tuple[slice, slice]:
        """Cells inside the closed rectangle r, whose sides are grid lines."""
        return (
            slice(self.line(self.xs, r.x1), self.line(self.xs, r.x2) + 1),
            slice(self.line(self.ys, r.y1), self.line(self.ys, r.y2) + 1),
        )

    @classmethod
    def span(cls, coords: list[int], lo: int, hi: int) -> range:
        """Cells along one axis that the open interval (lo, hi) meets."""
        a, b = cls.cell(coords, lo), cls.cell(coords, hi)
        if a % 2 == 0 and coords[a // 2] == lo:
            a += 1  # the open interval excludes its boundary lines
        if b % 2 == 0 and coords[b // 2] == hi:
            b -= 1
        return range(a, b + 1)

    def box(self, r: tuple[int, int, int, int]) -> tuple[slice, slice]:
        """Cells that the open rectangle r = (x1, y1, x2, y2) meets, as a
        block of labels indices.  Beyond a sentinel line the block holds
        only ring cells, which are never walls."""
        x1, y1, x2, y2 = r
        sx = self.span(self.xs, x1, x2)
        sy = self.span(self.ys, y1, y2)
        return slice(sx.start, sx.stop), slice(sy.start, sy.stop)

    def body(self, p: tuple[int, int], d: int) -> tuple[slice, slice]:
        """Cells that the open square of side d centred at p meets."""
        h = d // 2
        # A plain tuple, not a Rect: this runs twice in every query.
        return self.box((p[0] - h, p[1] - h, p[0] + h, p[1] + h))

    @property
    def shape(self) -> tuple[int, int]:
        return 2 * len(self.xs) - 1, 2 * len(self.ys) - 1


@dataclass
class RegionPartition:
    grid: DoubledGrid
    labels: np.ndarray  # int32 [ix, iy]: node id (region r, seal R + k) or WALL_CELL
    region_count: int

    def locate(self, p: tuple[int, int]) -> int:
        """Node id of the cell containing p, or WALL_CELL; O(log n)."""
        grid = self.grid
        return int(self.labels[grid.cell(grid.xs, p[0]), grid.cell(grid.ys, p[1])])


def build_grid(obstacles: list[Obstacle]) -> DoubledGrid:
    """The grid over every obstacle coordinate, plus one sentinel beyond
    each extreme."""
    coords_x: set[int] = set()
    coords_y: set[int] = set()
    for o in obstacles:
        coords_x.update((o.x1, o.x2))
        coords_y.update((o.y1, o.y2))
    if not coords_x:
        coords_x, coords_y = {0}, {0}
    xs = sorted({min(coords_x) - 2, *coords_x, max(coords_x) + 2})
    ys = sorted({min(coords_y) - 2, *coords_y, max(coords_y) + 2})
    return DoubledGrid(xs, ys)


def wall_cells(grid: DoubledGrid, obstacles: list[Obstacle]) -> np.ndarray:
    """bool mask of the cells inside a closed obstacle."""
    walls = np.zeros(grid.shape, dtype=bool)
    for o in obstacles:
        walls[grid.closed(o.rect)] = True
    return walls


def build_partition(
    obstacles: list[Obstacle], edges: list[GapEdge]
) -> RegionPartition:
    """Label the doubled grid with node ids: regions, then sealed edge
    rectangles, then walls.

    The unbounded face gets a region id like any other.  Where gap
    rectangles overlap, the higher edge index owns the cell; walls override
    seals.
    """
    grid = build_grid(obstacles)
    seal_cells = [grid.closed(e.edge_rect) for e in edges]
    free = ~wall_cells(grid, obstacles)
    for sl in seal_cells:
        free[sl] = False
    labels, count = ndimage.label(free, structure=_CROSS, output=np.int32)
    # Drop free and make the wall mask again below rather than keep it, so
    # at most one bool grid lives beside labels.
    del free
    labels -= 1  # scipy numbers regions from 1 and leaves 0 elsewhere
    for k, sl in enumerate(seal_cells):
        labels[sl] = count + k
    labels[wall_cells(grid, obstacles)] = WALL_CELL
    return RegionPartition(grid, labels, int(count))


def node_capacities(region_count: int, edges: list[GapEdge]) -> np.ndarray:
    """int64 capacity of every union-graph node: regions are unbounded, the
    seal R + k carries gap edge k's capacity."""
    caps = np.full(region_count + len(edges), np.iinfo(np.int64).max, dtype=np.int64)
    caps[region_count:] = [e.capacity for e in edges]
    return caps


def seal_links(
    part: RegionPartition, edges: list[GapEdge]
) -> list[tuple[int, int, int]]:
    """Capacity-weighted links of the union graph the query timeline runs on.

    Nodes are the partition's labels: region ids (0..R-1) plus one node
    R+k per gap edge k.  Two nodes link when cells they own are 4-adjacent
    in `labels` (walls excluded), at the smaller of their two capacities; a
    region counts as unbounded.  A robot crossing from one cell to the
    other overlaps both at once, so both capacities bound it.  Seals whose gap
    rectangles meet only at a corner point do not link; a point contact can
    pinch the robot.  Regions never touch each other, so every link ends at
    a seal node.

    Neighbour pairs are compared _LINK_BLOCK_ROWS rows at a time, so no
    temporary grows with the whole grid.
    """
    rc = part.region_count
    labels = part.labels
    nodes = rc + len(edges)
    keys = [np.empty(0, dtype=np.int64)]
    for r0 in range(0, labels.shape[0], _LINK_BLOCK_ROWS):
        rows = labels[r0 : r0 + _LINK_BLOCK_ROWS]
        below = labels[r0 + 1 : r0 + _LINK_BLOCK_ROWS + 1]
        for a, b in ((rows[: len(below)], below), (rows[:, :-1], rows[:, 1:])):
            touch = (a != b) & (a != WALL_CELL) & (b != WALL_CELL)
            u, v = a[touch], b[touch]
            key = np.minimum(u, v).astype(np.int64) * nodes + np.maximum(u, v)
            keys.append(np.unique(key))
    a, b = np.divmod(np.unique(np.concatenate(keys)), nodes)

    caps = node_capacities(rc, edges)
    rects = np.array([e.edge_rect for e in edges], dtype=np.int64).reshape(-1, 4)
    ra, rb = rects[np.maximum(a - rc, 0)], rects[b - rc]  # b is always a seal
    ox = np.minimum(ra[:, 2], rb[:, 2]) - np.maximum(ra[:, 0], rb[:, 0])
    oy = np.minimum(ra[:, 3], rb[:, 3]) - np.maximum(ra[:, 1], rb[:, 1])
    keep = (a < rc) | (ox != 0) | (oy != 0)
    a, b = a[keep], b[keep]
    return list(zip(a.tolist(), b.tolist(), np.minimum(caps[a], caps[b]).tolist()))
