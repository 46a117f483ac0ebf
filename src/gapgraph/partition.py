"""Region partition over a doubled compressed grid.

The grid stores both coordinate lines and the open intervals between them
as cells (even cell indices are zero-thickness lines, odd are intervals),
so zero-width gap rectangles and flush boundaries need no epsilons.  One
sentinel coordinate beyond each extreme keeps the outermost ring free;
points outside the grid clamp onto that ring, which always belongs to the
unbounded region.

Cells covered by a closed obstacle are walls; cells covered by a surviving
edge rectangle (and not walls) are sealed; the rest flood-fill 4-connectedly
into regions.  One int32 array holds every cell's label: a region id >= 0,
WALL_CELL for walls, or -2-k for cells sealed by gap edge k.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import Obstacle, Rect
from .sweep import GapEdge

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)

WALL = "wall"
SEALED = "sealed"
REGION = "region"

WALL_CELL = -1


@dataclass
class DoubledGrid:
    xs: list[int]
    ys: list[int]

    @staticmethod
    def _cell(coords: list[int], v: int) -> int:
        i = bisect_left(coords, v)
        if i == len(coords):
            return 2 * len(coords) - 2  # beyond the top sentinel line
        if coords[i] == v:
            return 2 * i
        if i == 0:
            return 0  # beyond the bottom sentinel line
        return 2 * i - 1

    def cell_x(self, v: int) -> int:
        return self._cell(self.xs, v)

    def cell_y(self, v: int) -> int:
        return self._cell(self.ys, v)

    def line_x(self, v: int) -> int:
        i = bisect_left(self.xs, v)
        assert i < len(self.xs) and self.xs[i] == v, "coordinate not on grid"
        return 2 * i

    def line_y(self, v: int) -> int:
        i = bisect_left(self.ys, v)
        assert i < len(self.ys) and self.ys[i] == v, "coordinate not on grid"
        return 2 * i

    @property
    def shape(self) -> tuple[int, int]:
        return 2 * len(self.xs) - 1, 2 * len(self.ys) - 1


@dataclass
class RegionPartition:
    grid: DoubledGrid
    labels: np.ndarray  # int32 [ix, iy]: region id, WALL_CELL, or -2-k for seal k
    region_count: int

    def locate(self, p: tuple[int, int]) -> tuple[str, int]:
        """(kind, ref) for the cell containing p; O(log n)."""
        ix = self.grid.cell_x(p[0])
        iy = self.grid.cell_y(p[1])
        return self.label_at(ix, iy)

    def label_at(self, ix: int, iy: int) -> tuple[str, int]:
        """(REGION, id), (SEALED, edge index) or (WALL, WALL_CELL)."""
        v = int(self.labels[ix, iy])
        if v >= 0:
            return REGION, v
        if v == WALL_CELL:
            return WALL, WALL_CELL
        return SEALED, -2 - v

    def region_at(self, ix: int, iy: int) -> int | None:
        v = int(self.labels[ix, iy])
        return v if v >= 0 else None


def build_partition(
    obstacles: list[Obstacle], edges: list[GapEdge]
) -> RegionPartition:
    """Label the doubled grid: regions, then sealed edge rectangles, then walls.

    The unbounded face gets a region id like any other.  Where gap
    rectangles overlap, the higher edge index owns the cell; walls override
    seals.
    """
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
    grid = DoubledGrid(xs, ys)

    def cells(r: Rect) -> tuple[slice, slice]:
        return (
            slice(grid.line_x(r.x1), grid.line_x(r.x2) + 1),
            slice(grid.line_y(r.y1), grid.line_y(r.y2) + 1),
        )

    seal_cells = [cells(e.edge_rect) for e in edges]
    wall_cells = [cells(o.rect) for o in obstacles]
    free = np.ones(grid.shape, dtype=bool)
    for sl in (*seal_cells, *wall_cells):
        free[sl] = False
    labels, count = ndimage.label(free, structure=_CROSS, output=np.int32)
    labels -= 1  # scipy numbers regions from 1 and leaves 0 elsewhere
    for k, sl in enumerate(seal_cells):
        labels[sl] = -2 - k
    for sl in wall_cells:
        labels[sl] = WALL_CELL
    return RegionPartition(grid, labels, int(count))


def seal_links(
    part: RegionPartition, edges: list[GapEdge]
) -> list[tuple[int, int, int]]:
    """Capacity-weighted links of the union graph the query timeline runs on.

    Nodes are region ids (0..R-1) plus one node R+k per gap edge k.  A
    passable seal links to every region its one-cell neighborhood touches
    (at the seal's capacity) and to every other passable seal whose gap
    rectangle it overlaps or abuts along a segment (at the smaller of the
    two capacities): a robot crossing from one gap rectangle into another
    sits in both at once, so both gaps bound it.  Rectangles meeting only
    at a corner point do not link; a point contact can pinch the robot.

    Probe-based region pairs need no separate links: a region-seal-region
    path carries exactly the seal's capacity.
    """
    rc = part.region_count
    labels, grid = part.labels, part.grid
    found: dict[tuple[int, int], int] = {}
    for k, e in enumerate(edges):
        if e.capacity <= 0:
            continue
        r = e.edge_rect
        cx1, cx2 = grid.line_x(r.x1), grid.line_x(r.x2)
        cy1, cy2 = grid.line_y(r.y1), grid.line_y(r.y2)
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
            for reg in np.unique(strip[strip >= 0]).tolist():
                found.setdefault((reg, rc + k), e.capacity)
            for code in np.unique(strip[strip < WALL_CELL]).tolist():
                o = -2 - code
                if o == k or edges[o].capacity <= 0:
                    continue
                f = edges[o].edge_rect
                ox = min(r.x2, f.x2) - max(r.x1, f.x1)
                oy = min(r.y2, f.y2) - max(r.y1, f.y1)
                if ox == 0 and oy == 0:
                    continue
                key = (rc + min(k, o), rc + max(k, o))
                found.setdefault(key, min(e.capacity, edges[o].capacity))
    return sorted((a, b, w) for (a, b), w in found.items())
