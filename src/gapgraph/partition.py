"""Region partition over a doubled compressed grid.

The grid stores both coordinate lines and the open intervals between them
as cells (even cell indices are zero-thickness lines, odd are intervals),
so zero-width gap rectangles and flush boundaries need no epsilons.  One
sentinel coordinate beyond each extreme keeps the outermost ring free;
points outside the grid clamp onto that ring, which always belongs to the
unbounded region.  The grid lines are exactly the obstacle and gap
rectangle coordinates (build_grid), so the grid is rebuilt from the
obstacles and edges, never stored.

Cells covered by a closed obstacle are walls; cells covered by a gap edge's
rectangle (and not walls) are sealed; the rest flood-fill 4-connectedly
into regions.  One int32 array holds every cell's node id in the union
graph the query timeline runs on: region r as r in [0, R), the seal of gap
edge k as R + k, and WALL_CELL (-1) for walls.  Point location is one
lookup from a point to its node.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import Obstacle, Rect
from .sweep import GapEdge

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)

WALL_CELL = -1


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

    @classmethod
    def span(cls, coords: list[int], lo: int, hi: int) -> range:
        """Cells along one axis that the open interval (lo, hi) meets."""
        a, b = cls.cell(coords, lo), cls.cell(coords, hi)
        if a % 2 == 0 and coords[a // 2] == lo:
            a += 1  # the open interval excludes its boundary lines
        if b % 2 == 0 and coords[b // 2] == hi:
            b -= 1
        return range(a, b + 1)

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


def build_grid(obstacles: list[Obstacle], edges: list[GapEdge]) -> DoubledGrid:
    """The grid over every obstacle and gap rectangle coordinate, plus one
    sentinel beyond each extreme."""
    coords_x: set[int] = set()
    coords_y: set[int] = set()
    for o in obstacles:
        coords_x.update((o.x1, o.x2))
        coords_y.update((o.y1, o.y2))
    for e in edges:
        coords_x.update((e.edge_rect.x1, e.edge_rect.x2))
        coords_y.update((e.edge_rect.y1, e.edge_rect.y2))
    if not coords_x:
        coords_x, coords_y = {0}, {0}
    xs = sorted({min(coords_x) - 2, *coords_x, max(coords_x) + 2})
    ys = sorted({min(coords_y) - 2, *coords_y, max(coords_y) + 2})
    return DoubledGrid(xs, ys)


def build_partition(
    obstacles: list[Obstacle], edges: list[GapEdge]
) -> RegionPartition:
    """Label the doubled grid with node ids: regions, then sealed edge
    rectangles, then walls.

    The unbounded face gets a region id like any other.  Where gap
    rectangles overlap, the higher edge index owns the cell; walls override
    seals.
    """
    grid = build_grid(obstacles, edges)
    xs, ys = grid.xs, grid.ys

    def cells(r: Rect) -> tuple[slice, slice]:
        return (
            slice(grid.line(xs, r.x1), grid.line(xs, r.x2) + 1),
            slice(grid.line(ys, r.y1), grid.line(ys, r.y2) + 1),
        )

    seal_cells = [cells(e.edge_rect) for e in edges]
    wall_cells = [cells(o.rect) for o in obstacles]
    free = np.ones(grid.shape, dtype=bool)
    for sl in (*seal_cells, *wall_cells):
        free[sl] = False
    labels, count = ndimage.label(free, structure=_CROSS, output=np.int32)
    labels -= 1  # scipy numbers regions from 1 and leaves 0 elsewhere
    for k, sl in enumerate(seal_cells):
        labels[sl] = count + k
    for sl in wall_cells:
        labels[sl] = WALL_CELL
    return RegionPartition(grid, labels, int(count))


def seal_links(
    part: RegionPartition, edges: list[GapEdge]
) -> list[tuple[int, int, int]]:
    """Capacity-weighted links of the union graph the query timeline runs on.

    Nodes are the partition's labels: region ids (0..R-1) plus one node
    R+k per gap edge k.  A seal links to every region its one-cell
    neighborhood touches (at the seal's capacity) and to every other
    seal whose gap rectangle it overlaps or abuts along a segment
    (at the smaller of the two capacities): a robot crossing from one gap
    rectangle into another sits in both at once, so both gaps bound it.
    Rectangles meeting only at a corner point do not link; a point contact
    can pinch the robot.

    Probe-based region pairs need no separate links: a region-seal-region
    path carries exactly the seal's capacity.
    """
    rc = part.region_count
    labels, grid = part.labels, part.grid
    found: dict[tuple[int, int], int] = {}
    for k, e in enumerate(edges):
        r = e.edge_rect
        cx1, cx2 = grid.line(grid.xs, r.x1), grid.line(grid.xs, r.x2)
        cy1, cy2 = grid.line(grid.ys, r.y1), grid.line(grid.ys, r.y2)
        # Four one-cell-out face strips (diagonal corners excluded) plus the
        # rectangle's own cells, which overlapping seals may own.
        strips = (
            (slice(cx1 - 1, cx1), slice(cy1, cy2 + 1)),
            (slice(cx2 + 1, cx2 + 2), slice(cy1, cy2 + 1)),
            (slice(cx1, cx2 + 1), slice(cy1 - 1, cy1)),
            (slice(cx1, cx2 + 1), slice(cy2 + 1, cy2 + 2)),
            (slice(cx1, cx2 + 1), slice(cy1, cy2 + 1)),
        )
        for sx, sy in strips:
            strip = labels[sx, sy]
            for node in np.unique(strip[strip != WALL_CELL]).tolist():
                if node < rc:
                    found.setdefault((node, rc + k), e.capacity)
                    continue
                o = node - rc
                if o == k:
                    continue
                f = edges[o].edge_rect
                ox = min(r.x2, f.x2) - max(r.x1, f.x1)
                oy = min(r.y2, f.y2) - max(r.y1, f.y1)
                if ox == 0 and oy == 0:
                    continue
                key = (rc + min(k, o), rc + max(k, o))
                found.setdefault(key, min(e.capacity, edges[o].capacity))
    return sorted((a, b, w) for (a, b), w in found.items())
