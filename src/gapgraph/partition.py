"""Region partition over a doubled compressed grid.

The grid stores both coordinate lines and the open intervals between them
as cells (even cell indices are zero-thickness lines, odd are intervals),
so zero-width gap rectangles and flush boundaries need no epsilons.  One
sentinel coordinate beyond each extreme keeps the outermost ring free.  The
grid lines are exactly the obstacle coordinates (build_grid); a gap
rectangle's sides are coordinates of its own pair, so they lie on the grid
too, and the grid is rebuilt from the obstacles once per build or load,
never stored.

One rule maps coordinates to cells along an axis.  With C the sorted grid
lines, L(v) = bisect_left(C, v) and R(v) = bisect_right(C, v):

    point v                      L(v) + R(v) - 1, clamped to [0, 2 len(C) - 2]
    closed [lo, hi] (grid sides) cells [2 L(lo), 2 R(hi) - 1)
    open (lo, hi)                cells [max(2 R(lo) - 1, 0), 2 L(hi))

A point beyond a sentinel line clamps onto the ring, which always belongs
to the unbounded region (RegionPartition.locate).  An open block wholly
beyond a sentinel line is empty.  The build applies the closed rule as one
searchsorted per side over (4, m) rect rows (DoubledGrid.closed); a query
applies the point and open rules with bisect (DoubledGrid.cell and body),
and the batch path (FeasibilityIndex.feasible_many) applies the point rule
with searchsorted.  Since every obstacle side is a grid line, each cell
lies wholly inside or wholly outside each closed obstacle (wall_cells): an
open rectangle meets an obstacle exactly when one of the cells it meets is
a wall, and an empty block meets none.  The scalar placement check reads
the cells under the open square of side d at p (DoubledGrid.body) that
way; pathway clearance and batched placements count obstacles without the
grid (sweep.ObstacleCounter).  The straddling remap
(FeasibilityIndex._straddling_node) reads a body only when p lies in a
seal, so that body holds p's own cell and is never empty.

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

if TYPE_CHECKING:  # sweep imports this module
    from .sweep import GapEdges

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)

WALL_CELL = -1

_LINK_BLOCK_ROWS = 64  # grid rows seal_links compares per numpy pass


@dataclass
class DoubledGrid:
    xs: list[int]
    ys: list[int]

    @staticmethod
    def cell(coords: list[int], v: int) -> int:
        """Cell containing the point v along one axis, clamped to the grid."""
        c = bisect_left(coords, v) + bisect_right(coords, v) - 1
        return min(max(c, 0), 2 * len(coords) - 2)

    def _cuts(self, sides: np.ndarray, side: str) -> np.ndarray:
        """searchsorted(grid lines, v, side) for the (2, m) rows of x and y
        values `sides`."""
        lines = (self.xs, self.ys)
        return np.stack([np.searchsorted(c, v, side) for c, v in zip(lines, sides)])

    def closed(self, rects: np.ndarray) -> np.ndarray:
        """Cell blocks of the closed rectangles in the int64 (4, m) rect
        rows, whose sides are grid lines: (4, m) rows start_x, start_y,
        stop_x, stop_y, so rectangle k covers labels[start_x[k]:stop_x[k],
        start_y[k]:stop_y[k]]."""
        start, stop = self._cuts(rects[:2], "left"), self._cuts(rects[2:], "right")
        for axis, coords in enumerate((self.xs, self.ys)):
            lines = np.clip([start[axis], stop[axis] - 1], 0, len(coords) - 1)
            on_grid = np.take(coords, lines) == rects[axis::2]
            assert on_grid.all(), "coordinate not on grid"
        return np.concatenate([2 * start, 2 * stop - 1])

    def body(self, p: tuple[int, int], d: int) -> tuple[slice, slice]:
        """Cells that the open square of side d centred at p meets, by the
        open rule with bisect, since this runs twice in every query; a stop
        may pass the grid's edge, which slicing ignores."""
        h = d // 2
        (x, y), xs, ys = p, self.xs, self.ys
        return (
            slice(max(2 * bisect_right(xs, x - h) - 1, 0), 2 * bisect_left(xs, x + h)),
            slice(max(2 * bisect_right(ys, y - h) - 1, 0), 2 * bisect_left(ys, y + h)),
        )

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


def build_grid(rects: np.ndarray) -> DoubledGrid:
    """The grid over every coordinate of the int64 (4, n) rect rows, plus
    one sentinel beyond each extreme."""
    lines = []
    for sides in (rects[0::2], rects[1::2]):
        coords = sorted_unique(sides.ravel())
        if not coords.size:
            coords = np.zeros(1, dtype=np.int64)
        lines.append([int(coords[0]) - 2, *coords.tolist(), int(coords[-1]) + 2])
    return DoubledGrid(*lines)


def wall_cells(grid: DoubledGrid, rects: np.ndarray) -> np.ndarray:
    """bool mask of the cells inside a closed obstacle of the (4, n) rect
    rows."""
    walls = np.zeros(grid.shape, dtype=bool)
    for x0, y0, x1, y1 in grid.closed(rects).T.tolist():
        walls[x0:x1, y0:y1] = True
    return walls


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array: np.unique by sorting, which
    for int64 runs several times faster than np.unique's hash table."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def build_partition(
    rects: np.ndarray, edges: GapEdges, grid: DoubledGrid
) -> RegionPartition:
    """Label the doubled grid (build_grid of the obstacles' (4, n) rect
    rows) with node ids: regions, then sealed edge rectangles, then walls.

    The unbounded face gets a region id like any other.  Where gap
    rectangles overlap, the higher edge index owns the cell; walls override
    seals.
    """
    walls, seals = grid.closed(rects), grid.closed(edges.rect)
    free = np.ones(grid.shape, dtype=bool)
    for x0, y0, x1, y1 in np.hstack((walls, seals)).T.tolist():
        free[x0:x1, y0:y1] = False
    labels, count = ndimage.label(free, structure=_CROSS, output=np.int32)
    # Drop free and fill the walls again below rather than keep a wall
    # mask, so at most one bool grid lives beside labels.
    del free
    labels -= 1  # scipy numbers regions from 1 and leaves 0 elsewhere
    for k, (x0, y0, x1, y1) in enumerate(seals.T.tolist(), start=count):
        labels[x0:x1, y0:y1] = k
    for x0, y0, x1, y1 in walls.T.tolist():
        labels[x0:x1, y0:y1] = WALL_CELL
    return RegionPartition(grid, labels, int(count))


def node_capacities(region_count: int, edges: GapEdges) -> np.ndarray:
    """int64 capacity of every union-graph node: regions are unbounded, the
    seal R + k carries gap edge k's capacity."""
    caps = np.full(region_count + len(edges), np.iinfo(np.int64).max, dtype=np.int64)
    caps[region_count:] = edges.capacity
    return caps


def seal_links(part: RegionPartition, edges: GapEdges) -> np.ndarray:
    """Capacity-weighted links of the union graph the query timeline runs
    on, as int64 (m, 3) rows (node a, node b, capacity), a < b, sorted.

    Nodes are the partition's labels: region ids (0..R-1) plus one node
    R+k per gap edge k.  Two nodes link when cells they own are 4-adjacent
    in `labels` (walls excluded), at the smaller of their two capacities; a
    region counts as unbounded.  A robot crossing from one cell to the
    other overlaps both at once, so both capacities bound it.  Seals whose gap
    rectangles meet only at a corner point do not link; a point contact can
    pinch the robot.  Regions never touch each other, so every link ends at
    a seal node; labels in which two regions touch raise ValueError.

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
            keys.append(sorted_unique(key))
    a, b = np.divmod(sorted_unique(np.concatenate(keys)), nodes)
    touching = np.flatnonzero(b < rc)
    if touching.size:  # only forged labels (store) get here
        k = touching[0]
        raise ValueError(f"regions {a[k]} and {b[k]} touch")

    ra, rb = edges.rect[:, np.maximum(a - rc, 0)], edges.rect[:, b - rc]  # b is a seal
    ox = np.minimum(ra[2], rb[2]) - np.maximum(ra[0], rb[0])
    oy = np.minimum(ra[3], rb[3]) - np.maximum(ra[1], rb[1])
    keep = (a < rc) | (ox != 0) | (oy != 0)
    a, b = a[keep], b[keep]
    caps = node_capacities(rc, edges)
    return np.column_stack((a, b, np.minimum(caps[a], caps[b])))
