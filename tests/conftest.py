"""Shared test helpers: a rectangle under a plane symmetry and the inverse
symmetry, a DSU's latest timestamp, random and general-position worlds,
random rectilinear polygons, one sweep pass's primary pairs, the gap edges
of chosen pairs or of a whole world, the edges as Python rows, the partition
of a world, scalar grid lookups (a grid line, a point's cell, an open
interval's cells), a seal's region links, the region adjacency graph that
the planarity criterion bounds, and a per-cell reference for the straddling
remap."""

from __future__ import annotations

import random
from bisect import bisect_left

import numpy as np

from gapgraph.dsu import PersistentDsu
from gapgraph.geometry import Obstacle, RawShape, Rect, Symmetry, gaps, ingest_world
from gapgraph.partition import RegionPartition, build_grid, build_partition
from gapgraph.sweep import (
    GapEdges,
    _sweep_pass,
    build_candidates,
    columns,
    gap_edges,
    relevance_filter,
)


def sym_rect(sym: Symmetry, r: Rect) -> Rect:
    """The rectangle r under the symmetry sym."""
    ax, ay = sym.point(r.x1, r.y1)
    bx, by = sym.point(r.x2, r.y2)
    return Rect(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))


def sym_inverse(sym: Symmetry) -> Symmetry:
    """The symmetry that undoes sym."""
    # Mirrored elements are involutions; pure rotations invert by angle.
    if sym.mirrored:
        return sym
    return Symmetry((4 - sym.rotation) % 4, False)


def dsu_time(dsu: PersistentDsu) -> int:
    """The DSU's latest timestamp: the number of union calls so far."""
    return dsu._time


def random_world(rng: random.Random, n: int, span: int = 18) -> list[RawShape]:
    shapes: list[RawShape] = []
    for _ in range(n):
        x1 = rng.randint(0, span)
        y1 = rng.randint(0, span)
        shapes.append(("rect", (x1, y1, x1 + rng.randint(1, 6), y1 + rng.randint(1, 6))))
    return shapes


def random_obstacles(rng: random.Random, n: int, span: int = 18) -> list[Obstacle]:
    return ingest_world(random_world(rng, n, span))


def general_position(rng: random.Random, n: int) -> list[Obstacle]:
    """Odd half-unit corners spread widely: no two sides share a line."""
    obs = []
    for k in range(n):
        x, y = (2 * rng.randint(-500, 500) + 1 for _ in range(2))
        w, h = (2 * rng.randint(1, 150) for _ in range(2))
        obs.append(Obstacle(k, x, y, x + w, y + h))
    return obs


def shadow_sweep_pass(obstacles: list[Obstacle]) -> list[tuple[int, int]]:
    """Primary pairs (first(o), o) of one sweep pass, as (anchor id,
    obstacle id) in emission order: at most one per obstacle, so at most n."""
    if not obstacles:
        return []
    anchor, other, _, _ = _sweep_pass(*columns(obstacles))
    return list(zip(anchor.tolist(), other.tolist()))


def edges_of(obstacles: list[Obstacle], pairs) -> GapEdges:
    """sweep.gap_edges over (i, j) pairs of positions in `obstacles`."""
    rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return gap_edges(rows, columns(obstacles)[1])


def build_gap_edges(obstacles: list[Obstacle]) -> GapEdges:
    """The build's edge stages alone: sweep candidates, then relevance
    filtering."""
    rects = columns(obstacles)[1]
    return relevance_filter(build_candidates(obstacles), rects, build_grid(rects))


def partition_of(obstacles: list[Obstacle], edges: GapEdges) -> RegionPartition:
    """partition.build_partition over the obstacles' columns and grid."""
    rects = columns(obstacles)[1]
    return build_partition(rects, edges, build_grid(rects))


def line_cell(coords: list[int], v: int) -> int:
    """Cell of the grid line at coordinate v, by one bisect: the scalar
    statement of DoubledGrid.closed along one axis."""
    i = bisect_left(coords, v)
    assert i < len(coords) and coords[i] == v, "coordinate not on grid"
    return 2 * i


def point_cell(coords: list[int], v: int) -> int:
    """Cell containing v along one axis, case by case: the reference for
    DoubledGrid.cell."""
    i = bisect_left(coords, v)
    if i == len(coords):
        return 2 * len(coords) - 2  # beyond the top sentinel line
    if coords[i] == v:
        return 2 * i
    if i == 0:
        return 0  # beyond the bottom sentinel line
    return 2 * i - 1


def open_span(coords: list[int], lo: int, hi: int) -> range:
    """Cells along one axis that the open interval (lo, hi) meets, from the
    cells of its ends: the reference for DoubledGrid.open and body.  Wholly
    beyond a sentinel line it gives the ring cell, where they give none."""
    a, b = point_cell(coords, lo), point_cell(coords, hi)
    if a % 2 == 0 and coords[a // 2] == lo:
        a += 1  # the open interval excludes its boundary lines
    if b % 2 == 0 and coords[b // 2] == hi:
        b -= 1
    return range(a, b + 1)


def edge_rows(edges: GapEdges) -> list[tuple[int, int, int, Rect]]:
    """(i, j, capacity, gap rectangle) of each gap edge, as Python values."""
    return [
        (i, j, cap, Rect(*r))
        for (i, j), cap, r in zip(
            edges.pairs.tolist(), edges.capacity.tolist(), edges.rect.T.tolist()
        )
    ]


def _trace_boundary(cells: set[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """CCW boundary of a polyomino; None when pinched at a corner point
    or when the complement leaves a hole (second boundary loop)."""
    step: dict[tuple[int, int], tuple[int, int]] = {}
    for x, y in cells:
        if (x, y - 1) not in cells:
            if (x, y) in step:
                return None
            step[(x, y)] = (x + 1, y)
        if (x + 1, y) not in cells:
            if (x + 1, y) in step:
                return None
            step[(x + 1, y)] = (x + 1, y + 1)
        if (x, y + 1) not in cells:
            if (x + 1, y + 1) in step:
                return None
            step[(x + 1, y + 1)] = (x, y + 1)
        if (x - 1, y) not in cells:
            if (x, y + 1) in step:
                return None
            step[(x, y + 1)] = (x, y)
    start = min(step)
    loop = [start]
    cur = step[start]
    while cur != start:
        loop.append(cur)
        cur = step[cur]
    if len(loop) != len(step):
        return None  # more than one boundary loop: a hole
    verts = []
    m = len(loop)
    for k in range(m):
        (ax, ay), (bx, by), (cx, cy) = loop[k - 1], loop[k], loop[(k + 1) % m]
        if (bx - ax, by - ay) != (cx - bx, cy - by):
            verts.append((bx, by))
    return verts


def random_rectilinear_polygon(
    rng: random.Random, max_cells: int = 12
) -> list[tuple[int, int]]:
    """Random simple CCW rectilinear polygon grown as a polyomino.

    Growth rejects cells that would touch the shape only at a corner, and
    shapes whose boundary is pinched or has holes are regenerated.
    """
    while True:
        cells = {(0, 0)}
        target = rng.randint(1, max_cells)
        tries = 0
        while len(cells) < target and tries < 200:
            tries += 1
            x, y = rng.choice(sorted(cells))
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            cand = (x + dx, y + dy)
            if cand in cells:
                continue
            cx, cy = cand
            pinch = False
            for ox, oy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                diag = (cx + ox, cy + oy)
                if diag in cells and (cx + ox, cy) not in cells and (cx, cy + oy) not in cells:
                    pinch = True
                    break
            if not pinch:
                cells.add(cand)
        verts = _trace_boundary(cells)
        if verts is not None:
            return verts


def linked_regions(links, region_count: int, seal: int) -> dict[int, int]:
    """Region -> link capacity, for each region that seal node
    region_count + seal links to."""
    node = region_count + seal
    return {a: cap for a, b, cap in links.tolist() if b == node and a < region_count}


def straddling_node_reference(index, p: tuple[int, int], d: int, seal: int) -> int:
    """Cell-by-cell statement of FeasibilityIndex._straddling_node: walk the
    cells under the open body in x-major order and return the first
    region; else the first seal whose capacity admits d; else `seal`."""
    h = d // 2
    px, py = p
    part = index.partition
    grid, labels, rc = part.grid, part.labels, part.region_count
    wide = seal
    rows = open_span(grid.ys, py - h, py + h)
    for ix in open_span(grid.xs, px - h, px + h):
        for iy in rows:
            node = int(labels[ix, iy])
            if 0 <= node < rc:
                return node
            if wide == seal and node >= rc and index.edges.capacity[node - rc] >= d:
                wide = node
    return wide


def region_adjacency(index) -> set[tuple[int, int]]:
    """Region pairs (a < b) joined through a passable gap rectangle.

    Each gap is probed one cell beyond its two faces across the passage
    axis (left/right when the y gap is the bottleneck, below/above
    otherwise), middle cell first; a pair counts when both probes land in
    distinct regions.
    """
    part = index.partition
    grid = part.grid

    def probe(cells):
        for ix, iy in cells:
            reg = int(part.labels[ix, iy])
            if 0 <= reg < part.region_count:
                return reg
        return None

    pairs = set()
    for i, j, _, r in edge_rows(index.edges):
        cx1, cx2 = line_cell(grid.xs, r.x1), line_cell(grid.xs, r.x2)
        cy1, cy2 = line_cell(grid.ys, r.y1), line_cell(grid.ys, r.y2)
        gx, gy = gaps(index.obstacles[i], index.obstacles[j])
        if gy >= gx:
            ys = [(cy1 + cy2) // 2, *range(cy1, cy2 + 1)]
            a = probe((cx1 - 1, y) for y in ys)
            b = probe((cx2 + 1, y) for y in ys)
        else:
            xs = [(cx1 + cx2) // 2, *range(cx1, cx2 + 1)]
            a = probe((x, cy1 - 1) for x in xs)
            b = probe((x, cy2 + 1) for x in xs)
        if a is not None and b is not None and a != b:
            pairs.add((min(a, b), max(a, b)))
    return pairs
