"""Shared test helpers: random worlds, random rectilinear polygons, a seal's
region links, the region adjacency graph that the planarity criterion
bounds, and a per-cell reference for the straddling remap."""

from __future__ import annotations

import random

from gapgraph.geometry import Obstacle, RawShape, gaps, ingest_world


def random_world(rng: random.Random, n: int, span: int = 18) -> list[RawShape]:
    shapes: list[RawShape] = []
    for _ in range(n):
        x1 = rng.randint(0, span)
        y1 = rng.randint(0, span)
        shapes.append(("rect", (x1, y1, x1 + rng.randint(1, 6), y1 + rng.randint(1, 6))))
    return shapes


def random_obstacles(rng: random.Random, n: int, span: int = 18) -> list[Obstacle]:
    return ingest_world(random_world(rng, n, span))


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
    return {a: cap for a, b, cap in links if b == node and a < region_count}


def straddling_node_reference(index, p: tuple[int, int], d: int, seal: int) -> int:
    """Cell-by-cell statement of FeasibilityIndex._straddling_node: walk the
    cells under the open body in x-major order and return the first
    region; else the first seal whose capacity admits d; else `seal`."""
    h = d // 2
    px, py = p
    part = index.partition
    grid, labels, rc = part.grid, part.labels, part.region_count
    wide = seal
    rows = grid.span(grid.ys, py - h, py + h)
    for ix in grid.span(grid.xs, px - h, px + h):
        for iy in rows:
            node = int(labels[ix, iy])
            if 0 <= node < rc:
                return node
            if wide == seal and node >= rc and index.edges[node - rc].capacity >= d:
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
    for e in index.edges:
        r = e.edge_rect
        cx1, cx2 = grid.line(grid.xs, r.x1), grid.line(grid.xs, r.x2)
        cy1, cy2 = grid.line(grid.ys, r.y1), grid.line(grid.ys, r.y2)
        gx, gy = gaps(index.obstacles[e.i], index.obstacles[e.j])
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
