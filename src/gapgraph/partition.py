"""Region partition over a doubled compressed grid.

The grid stores both coordinate lines and the open intervals between them
as cells (even cell indices are zero-thickness lines, odd are intervals),
so zero-width gap rectangles and flush boundaries need no epsilons.  One
sentinel coordinate beyond each extreme keeps the outermost ring free.  The
grid lines are exactly the obstacle coordinates (build_grid); a gap
rectangle's sides are coordinates of its own pair, so they lie on the grid
too.  Neither the grid nor the partition is stored: a build and a load
both make them from the obstacles and gap edges (build_grid, then
build_partition).

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
lies wholly inside or wholly outside each closed obstacle: an open
rectangle meets an obstacle exactly when one of the cells it meets is a
wall, and an empty block meets none.  The scalar placement check reads
the cells under the open square of side d at p (DoubledGrid.body) that
way; pathway clearance and batched placements count obstacles without the
grid (sweep.ObstacleCounter).  The straddling remap
(FeasibilityIndex._straddling_node) reads a body only when p lies in a
seal, so that body holds p's own cell and is never empty.

Cells covered by a closed obstacle are walls; cells covered by a gap edge's
rectangle (and not walls) are sealed; the rest connect 4-connectedly into
regions.  Each cell holds its node id in the union graph the query
timeline runs on: region r as r in [0, R), the seal of gap edge k as R + k,
and WALL_CELL (-1) for walls.  The build works on column runs, the maximal
runs of one label along a grid column (an x-slab), which are far fewer
than the cells on general-position worlds: it paints the walls and seals
as runs straight from their cell blocks (paint_runs), joins the free runs
that touch across neighbouring columns into regions by union-find, and
reads the links off the same runs.  No step visits every cell but the
last, which expands the runs into one dense int32 array (labels) for the
query path: point location is one lookup from a point to its node.  The
union graph's links follow one rule: two nodes link when cells they own
are 4-adjacent, at the smaller of their capacities (seal_links).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # sweep imports this module
    from .sweep import GapEdges

WALL_CELL = -1

_PAINT_SPANS = 1 << 13  # block spans paint_runs cuts per numpy pass
_LINK_RUNS = 1 << 14  # column runs seal_links reads per numpy pass


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
    run_start: np.ndarray  # int64: flat cell index ix * ny + iy where each column run starts
    run_label: np.ndarray  # int32: each run's label

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


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array: np.unique by sorting, which
    for int64 runs several times faster than np.unique's hash table."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of every range(lo[k], hi[k]) in order, in lo's dtype, and
    the int32 k each value came from."""
    n = (hi - lo).astype(np.int32)
    k = np.repeat(np.arange(len(n), dtype=np.int32), n)
    return lo[k] + np.arange(k.size, dtype=np.int32) - (np.cumsum(n, dtype=np.int32) - n)[k], k


def paint_runs(
    rects: np.ndarray, edges: GapEdges, grid: DoubledGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Column runs of the grid painted with the obstacles' (4, n) rect rows
    and the gap rectangles, straight from their cell blocks
    (DoubledGrid.closed): the int64 flat cell index (ix * ny + iy) where
    each run starts, and the int32 owner of each run, len(edges) for walls,
    k for the seal of edge k, -1 for free cells.  Walls override seals, and
    where gap rectangles overlap the higher edge index owns the cell.
    Every column starts a run, and runs are maximal within a column.

    The columns go in slabs of about _PAINT_SPANS block spans each, so
    the temporaries stay small: in each column the spans are cut at every
    block side, and each piece takes the highest rank among the blocks
    that cover it.  One sort of the sides, tagged with their positions,
    both finds the cuts and places every side among them."""
    nx, ny = grid.shape
    m = len(edges)
    x0, y0, x1, y1 = np.hstack((grid.closed(edges.rect), grid.closed(rects)))
    rank = np.arange(len(x0), dtype=np.int32)
    rank[m:] = m  # every wall outranks every seal
    spans = np.cumsum(np.bincount(x0, minlength=nx + 1) - np.bincount(x1, minlength=nx + 1))
    load = np.cumsum(spans[:nx] + 1)  # a column's spans, and its first cell
    slabs = np.searchsorted(load, np.arange(_PAINT_SPANS, load[-1], _PAINT_SPANS), "right")
    bounds = sorted_unique(np.concatenate([[0], slabs, [nx]])).tolist()
    starts, owners = [], []
    for c0, c1 in zip(bounds, bounds[1:]):
        hit = np.flatnonzero((x0 < c1) & (x1 > c0))
        col, k = _ranges(np.maximum(x0[hit], c0) - c0, np.minimum(x1[hit], c1) - c0)
        k = hit[k]
        # Cell indices from the slab's first cell: each column's span
        # [lo, hi), then every column's first cell, which starts a run.
        base = col * ny
        sides = np.concatenate([base + y0[k], base + y1[k], np.arange(c1 - c0) * ny])
        tag = 2 * len(k)  # the tag of a column's first cell, after every side's
        shift = tag.bit_length()
        sides <<= shift
        sides[:tag] |= np.arange(tag)
        sides[tag:] |= tag
        sides.sort()
        cell, tags = sides >> shift, (sides & ((1 << shift) - 1)).astype(np.int32)
        new = np.ones(len(cell), dtype=bool)
        new[1:] = cell[1:] != cell[:-1]
        cut = np.cumsum(new, dtype=np.int32) - 1
        cell = cell[new]
        at = np.empty(tag, dtype=np.int32)  # each side's cut
        side = tags < tag
        at[tags[side]] = cut[side]
        piece, j = _ranges(at[: len(k)], at[len(k) :])
        owner = np.full(len(cell), -1, dtype=np.int32)
        np.maximum.at(owner, piece, rank[k[j]])
        new = cell % ny == 0
        new[1:] |= owner[1:] != owner[:-1]
        starts.append(cell[new] + c0 * ny)
        owners.append(owner[new])
    return np.concatenate(starts), np.concatenate(owners)


def _min_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node of each node's component in the graph on range(n) with
    edges (u[k], v[k]): min-hooking of roots plus pointer jumping, until no
    edge joins two roots."""
    root = np.arange(n, dtype=np.int32)
    while u.size:
        ru, rv = root[u], root[v]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:  # every root[x] is a root again
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        live = root[u] != root[v]
        u, v = u[live], v[live]
    return root


def build_partition(
    rects: np.ndarray, edges: GapEdges, grid: DoubledGrid
) -> RegionPartition:
    """Label the doubled grid (build_grid of the obstacles' (4, n) rect
    rows) with node ids: regions, then sealed edge rectangles, then walls,
    from its column runs.

    Walls and seals are painted as runs (paint_runs).  Two free runs are
    one region when they touch across neighbouring columns; a run's
    neighbour at its first cell is found by bisecting the run starts, and
    two overlapping runs of neighbouring columns always contain one's first
    cell and the cell beside it.  Regions are numbered by their first run in x-major order,
    as ndimage.label numbers the free cells of the dense grid; the
    unbounded face, which holds cell (0, 0), is region 0.
    """
    nx, ny = grid.shape
    m = len(edges)
    start, owner = paint_runs(rects, edges, grid)
    free = owner < 0
    ordinal = np.cumsum(free, dtype=np.int32) - 1  # a free run's index among the free
    s = start[free]
    col = s // ny
    u, v = [], []
    for step, beside in ((ny, col < nx - 1), (-ny, col > 0)):
        i = np.flatnonzero(beside)
        j = np.searchsorted(start, s[i] + step, "right") - 1
        both = free[j]
        u.append(i[both].astype(np.int32))
        v.append(ordinal[j[both]])
    root = _min_components(len(s), np.concatenate(u), np.concatenate(v))
    first = root == np.arange(len(s))
    count = int(first.sum())
    label = np.where(owner >= m, WALL_CELL, owner + count).astype(np.int32)
    label[free] = (np.cumsum(first, dtype=np.int32) - 1)[root]
    labels = np.repeat(label, np.diff(start, append=nx * ny)).reshape(grid.shape)
    return RegionPartition(grid, labels, count, start, label)


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
    pinch the robot.  Free runs that touch are one region
    (build_partition), so regions never touch each other and every link
    ends at a seal node.

    The adjacent pairs are read off the column runs: consecutive runs of
    one column, and each run's first cell against the cells beside it in
    the neighbouring columns (as in build_partition, that finds every pair
    of touching runs).  The runs go _LINK_RUNS at a time, so no temporary
    grows with the whole partition.
    """
    rc = part.region_count
    nodes = rc + len(edges)
    nx, ny = part.grid.shape
    flat = part.labels.ravel()
    keys = [np.empty(0, dtype=np.int64)]
    for r0 in range(0, len(part.run_start), _LINK_RUNS):
        # The runs r0 .. r0 + _LINK_RUNS, and the next one for the last pair.
        start = part.run_start[r0 : r0 + _LINK_RUNS + 1]
        label = part.run_label[r0 : r0 + _LINK_RUNS + 1]
        col = start // ny
        above = np.flatnonzero(col[1:] == col[:-1])
        right = np.flatnonzero(col[:_LINK_RUNS] < nx - 1)
        left = np.flatnonzero(col[:_LINK_RUNS] > 0)
        u = np.concatenate([label[above], label[right], label[left]])
        v = np.concatenate([label[above + 1], flat[start[right] + ny], flat[start[left] - ny]])
        touch = (u != v) & (u != WALL_CELL) & (v != WALL_CELL)
        u, v = u[touch], v[touch]
        keys.append(sorted_unique(np.minimum(u, v).astype(np.int64) * nodes + np.maximum(u, v)))
    a, b = np.divmod(sorted_unique(np.concatenate(keys)), nodes)
    ra, rb = edges.rect[:, np.maximum(a - rc, 0)], edges.rect[:, b - rc]  # b is a seal
    ox = np.minimum(ra[2], rb[2]) - np.maximum(ra[0], rb[0])
    oy = np.minimum(ra[3], rb[3]) - np.maximum(ra[1], rb[1])
    keep = (a < rc) | (ox != 0) | (oy != 0)
    a, b = a[keep], b[keep]
    caps = node_capacities(rc, edges)
    return np.column_stack((a, b, np.minimum(caps[a], caps[b])))
