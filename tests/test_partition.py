import math
import random
from collections import deque

import numpy as np
import pytest

from gapgraph.geometry import Rect, ingest_world
from gapgraph.partition import WALL_CELL, build_grid, seal_links
from gapgraph.sweep import columns

from conftest import (
    build_gap_edges,
    edge_rows,
    edges_of,
    general_position,
    line_cell,
    linked_regions,
    open_span,
    partition_of,
    point_cell,
    random_obstacles,
)

# Four obstacles around two pockets, with all five drawn gap rectangles
# sealed (including two a relevance pass would drop): the left pocket and the
# pocket right of the tall box must come out as distinct regions.
FOUR_BOXES = ingest_world(
    [
        ("rect", (0, 4, 4, 10)),     # tall box
        ("rect", (8, 8, 16, 12)),    # upper right bar
        ("rect", (-4, -2, 10, 2)),   # floor bar
        ("rect", (-8, 7, -6, 11)),   # small left block
    ]
)
FIVE_PAIRS = [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]
FIVE_EDGES = edges_of(FOUR_BOXES, FIVE_PAIRS)
LEFT_POCKET = (-4, 9)    # internal half-units
RIGHT_POCKET = (12, 10)


def test_drawn_edge_rects_match_layout():
    rects = {(i, j): r for i, j, _, r in edge_rows(FIVE_EDGES)}
    assert rects[(0, 1)] == Rect(8, 16, 16, 20)
    assert rects[(1, 2)] == Rect(16, 4, 20, 16)
    assert rects[(0, 2)] == Rect(0, 4, 8, 8)
    assert rects[(0, 3)] == Rect(-12, 14, 0, 20)
    assert rects[(2, 3)] == Rect(-12, 4, -8, 14)


def _closed_reference(grid, rects) -> list[list[int]]:
    """DoubledGrid.closed, one bisect per rectangle side."""
    return [
        [
            line_cell(grid.xs, x1),
            line_cell(grid.ys, y1),
            line_cell(grid.xs, x2) + 1,
            line_cell(grid.ys, y2) + 1,
        ]
        for x1, y1, x2, y2 in rects.T.tolist()
    ]


def _near(rng: random.Random, coords: list[int]) -> int:
    """A value on a grid line (sentinels included), next to one, beyond a
    sentinel or anywhere between."""
    v = rng.choice(coords)
    beyond = coords[0] - 5, coords[-1] + 5
    return rng.choice([v, v, v - 1, v + 1, *beyond, v + rng.randint(-9, 9)])


class TestClosed:
    def test_matches_bisect_reference(self):
        # Obstacles, gap rectangles and random rectangles on grid lines
        # (sentinels included), on lattice and general-position worlds,
        # the empty world and worlds without edges; then open rectangles
        # and points anywhere, lo == hi included.
        rng = random.Random(44)
        worlds = [[], *(random_obstacles(rng, 1) for _ in range(2))]
        worlds += [random_obstacles(rng, rng.randint(1, 14), span=10) for _ in range(40)]
        worlds += [general_position(rng, rng.randint(1, 14)) for _ in range(40)]
        edgeless = beyond = 0
        for obs in worlds:
            rects = columns(obs)[1]
            grid = build_grid(rects)
            edges = build_gap_edges(obs)
            edgeless += not len(edges)
            drawn = []
            for _ in range(30):
                (x1, x2), (y1, y2) = (sorted(rng.choices(c, k=2)) for c in (grid.xs, grid.ys))
                drawn.append((x1, y1, x2, y2))
            drawn = np.array(drawn, dtype=np.int64).T
            for rows in (rects, edges.rect, drawn):
                assert grid.closed(rows).T.tolist() == _closed_reference(grid, rows)

            axes = (grid.xs, grid.ys)
            for coords in axes:
                for _ in range(30):
                    v = _near(rng, coords)
                    assert grid.cell(coords, v) == point_cell(coords, v), v
            opened = []
            for _ in range(60):
                (x1, x2), (y1, y2) = [sorted([_near(rng, c), _near(rng, c)]) for c in axes]
                opened.append((x1, y1, x2, y2))
            opened += [(x1, y1, x1, y1) for x1, y1, *_ in opened[:10]]  # lo == hi
            opened = np.array(opened, dtype=np.int64).T
            for box, r in zip(grid.open(opened).T.tolist(), opened.T.tolist()):
                for axis, (coords, size) in enumerate(zip(axes, grid.shape)):
                    lo, hi = r[axis], r[axis + 2]
                    cells = range(*slice(box[axis], box[axis + 2]).indices(size))
                    if hi < coords[0] or lo > coords[-1]:
                        # Wholly beyond a sentinel line: no cell, where
                        # the reference gives the ring cell.
                        ring = 0 if hi < coords[0] else size - 1
                        assert not cells
                        assert open_span(coords, lo, hi) == range(ring, ring + 1)
                        beyond += 1
                    else:
                        assert cells == open_span(coords, lo, hi), (lo, hi)
            for _ in range(20):
                p, d = (_near(rng, grid.xs), _near(rng, grid.ys)), 2 * rng.randint(1, 6)
                h = d // 2
                square = np.array([[p[0] - h], [p[1] - h], [p[0] + h], [p[1] + h]])
                x0, y0, x1, y1 = grid.open(square)[:, 0].tolist()
                assert grid.body(p, d) == (slice(x0, x1), slice(y0, y1))
        assert edgeless >= 3
        assert beyond >= 100

    @pytest.mark.parametrize("side", range(4))
    @pytest.mark.parametrize("shift", [-1, 1, 10**6])
    def test_off_grid_side_fails(self, side, shift):
        rects = columns(FOUR_BOXES)[1]
        grid = build_grid(rects)
        moved = rects.copy()
        moved[side, 2] += shift
        with pytest.raises(AssertionError, match="coordinate not on grid"):
            grid.closed(moved)


def test_single_obstacle_single_region():
    obs = ingest_world([("rect", (0, 0, 3, 2))])
    part = partition_of(obs, edges_of(obs, []))
    assert part.region_count == 1


def test_pockets_are_distinct_regions():
    part = partition_of(FOUR_BOXES, FIVE_EDGES)
    ra = part.locate(LEFT_POCKET)
    rb = part.locate(RIGHT_POCKET)
    assert 0 <= ra < part.region_count and 0 <= rb < part.region_count
    assert ra != rb


def test_sealed_diagonal_pair_leaves_one_region():
    obs = ingest_world([("rect", (0, 1, 2, 2)), ("rect", (3, 5, 5, 7))])
    edges = edges_of(obs, [(0, 1)])
    part = partition_of(obs, edges)
    assert part.region_count == 1


class TestLocate:
    def test_point_inside_obstacle(self):
        part = partition_of(FOUR_BOXES, FIVE_EDGES)
        assert part.locate((2, 14)) == WALL_CELL  # inside the tall box

    def test_point_beyond_all_coordinates(self):
        part = partition_of(FOUR_BOXES, FIVE_EDGES)
        outer = part.locate((10_000, -10_000))
        assert 0 <= outer < part.region_count
        assert part.locate((-9_999, 9_999)) == outer

    def test_point_inside_sealed_gap(self):
        part = partition_of(FOUR_BOXES, FIVE_EDGES)
        node = part.locate((4, 6))  # interior of the (0,2) gap rect
        assert node == part.region_count + FIVE_PAIRS.index((0, 2))

    def test_agrees_with_direct_containment(self):
        rng = random.Random(40)
        checked = 0
        for _ in range(12):
            obs = random_obstacles(rng, rng.randint(1, 12), span=10)
            edges = build_gap_edges(obs)
            rows = edge_rows(edges)
            part = partition_of(obs, edges)
            rc = part.region_count
            for _ in range(900):
                p = (rng.randint(-6, 30), rng.randint(-6, 30))
                node = part.locate(p)
                in_wall = any(
                    o.x1 <= p[0] <= o.x2 and o.y1 <= p[1] <= o.y2 for o in obs
                )
                in_seal = any(
                    r.x1 <= p[0] <= r.x2 and r.y1 <= p[1] <= r.y2
                    for _, _, _, r in rows
                )
                if in_wall:
                    assert node == WALL_CELL
                elif in_seal:
                    assert rc <= node < rc + len(edges)
                    r = rows[node - rc][3]
                    assert r.x1 <= p[0] <= r.x2 and r.y1 <= p[1] <= r.y2
                else:
                    assert 0 <= node < rc
                checked += 1
        assert checked >= 10_000


def test_every_cell_has_exactly_one_label():
    rng = random.Random(41)
    for _ in range(10):
        obs = random_obstacles(rng, rng.randint(1, 10), span=10)
        edges = build_gap_edges(obs)
        rows = edge_rows(edges)
        part = partition_of(obs, edges)
        grid = part.grid

        def covers(r, ix, iy):
            return (
                line_cell(grid.xs, r.x1) <= ix <= line_cell(grid.xs, r.x2)
                and line_cell(grid.ys, r.y1) <= iy <= line_cell(grid.ys, r.y2)
            )

        nx, ny = part.labels.shape
        for ix in range(nx):
            for iy in range(ny):
                seals = [k for k, row in enumerate(rows) if covers(row[3], ix, iy)]
                node = part.labels[ix, iy]
                if any(covers(o.rect, ix, iy) for o in obs):
                    assert node == WALL_CELL
                elif seals:
                    assert node == part.region_count + max(seals)
                else:
                    assert 0 <= node < part.region_count


def test_regions_are_single_connected_components():
    rng = random.Random(42)
    for _ in range(10):
        obs = random_obstacles(rng, rng.randint(1, 10), span=10)
        part = partition_of(obs, build_gap_edges(obs))
        nx, ny = part.labels.shape

        def region_at(ix, iy):
            node = int(part.labels[ix, iy])
            return node if 0 <= node < part.region_count else None

        seen = set()
        for ix in range(nx):
            for iy in range(ny):
                reg = region_at(ix, iy)
                if reg is None or reg in seen:
                    continue
                seen.add(reg)
                # flood from the first cell; all same-labeled cells must be hit
                frontier = deque([(ix, iy)])
                hit = {(ix, iy)}
                while frontier:
                    cx, cy = frontier.popleft()
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nxt = (cx + dx, cy + dy)
                        if (
                            0 <= nxt[0] < nx
                            and 0 <= nxt[1] < ny
                            and nxt not in hit
                            and region_at(*nxt) == reg
                        ):
                            hit.add(nxt)
                            frontier.append(nxt)
                total = sum(
                    1
                    for ax in range(nx)
                    for ay in range(ny)
                    if region_at(ax, ay) == reg
                )
                assert total == len(hit)
        assert len(seen) == part.region_count


class TestSealLinks:
    def test_diagonal_pair_links_its_one_region(self):
        obs = ingest_world([("rect", (0, 1, 2, 2)), ("rect", (3, 5, 5, 7))])
        edges = edges_of(obs, [(0, 1)])
        part = partition_of(obs, edges)
        assert seal_links(part, edges).tolist() == [[0, 1, edges.capacity[0]]]

    def test_room_with_single_gap(self):
        room = ingest_world(
            [
                ("rect", (0, 0, 10, 1)),
                ("rect", (0, 9, 10, 10)),
                ("rect", (0, 0, 1, 10)),
                ("rect", (9, 0, 10, 4)),
                ("rect", (9, 8, 10, 10)),
            ]
        )
        edges = build_gap_edges(room)
        part = partition_of(room, edges)
        links = seal_links(part, edges)
        assert part.region_count == 2
        (gap,) = np.flatnonzero(edges.capacity > 0).tolist()
        assert linked_regions(links, part.region_count, gap) == {0: 8, 1: 8}

    def test_pocket_adjacency_through_gap_under_tall_box(self):
        part = partition_of(FOUR_BOXES, FIVE_EDGES)
        links = seal_links(part, FIVE_EDGES)
        ra = part.locate(LEFT_POCKET)
        rb = part.locate(RIGHT_POCKET)
        crossing = FIVE_PAIRS.index((0, 2))
        assert {ra, rb} <= linked_regions(links, part.region_count, crossing).keys()

    def test_region_endpoints_in_range(self):
        rng = random.Random(43)
        for _ in range(30):
            obs = random_obstacles(rng, rng.randint(2, 14), span=10)
            edges = build_gap_edges(obs)
            part = partition_of(obs, edges)
            rc = part.region_count
            for a, b, cap in seal_links(part, edges).tolist():
                assert 0 <= a < b < rc + len(edges)
                assert b >= rc  # every link ends at a seal node
                assert 0 < cap <= edges.capacity[b - rc]
                if a < rc:
                    assert cap == edges.capacity[b - rc]

    def test_links_are_touching_cell_pairs(self):
        # Brute force over every 4-adjacent cell pair of the same worlds.
        rng = random.Random(43)
        corner_pairs = 0
        for _ in range(30):
            obs = random_obstacles(rng, rng.randint(2, 14), span=10)
            edges = build_gap_edges(obs)
            rows = edge_rows(edges)
            part = partition_of(obs, edges)
            rc = part.region_count
            labels = part.labels.tolist()
            nx, ny = part.labels.shape
            touching = set()
            for ix in range(nx):
                for iy in range(ny):
                    for jx, jy in ((ix + 1, iy), (ix, iy + 1)):
                        if jx < nx and jy < ny:
                            u, v = labels[ix][iy], labels[jx][jy]
                            if u != v and WALL_CELL not in (u, v):
                                touching.add((min(u, v), max(u, v)))

            def corner_only(a, b):
                if a < rc:
                    return False
                r, f = rows[a - rc][3], rows[b - rc][3]
                ox = min(r.x2, f.x2) - max(r.x1, f.x1)
                oy = min(r.y2, f.y2) - max(r.y1, f.y1)
                return ox == 0 and oy == 0

            def capacity(node):
                return math.inf if node < rc else rows[node - rc][2]

            links = seal_links(part, edges).tolist()
            expected = {p for p in touching if not corner_only(*p)}
            assert {(a, b) for a, b, _ in links} == expected
            for a, b, cap in links:
                assert cap == min(capacity(a), capacity(b))
            corner_pairs += sum(corner_only(*p) for p in touching)
        assert corner_pairs > 0


def test_seal_links_connect_corridor_chains():

    # Three gap rectangles tile one corridor; the middle seal's faces all
    # land in sibling seals, yet the links must still reach the open region.
    obs = ingest_world(
        [
            ("rect", (8, 7, 14, 10)),
            ("rect", (9, 11, 11, 14)),
            ("rect", (4, 11, 10, 13)),
            ("rect", (11, 11, 16, 16)),
        ]
    )
    edges = build_gap_edges(obs)
    part = partition_of(obs, edges)
    links = seal_links(part, edges).tolist()
    rc = part.region_count
    # union-find over the links restricted to capacity >= 2
    parent = list(range(rc + len(edges)))

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for a, b, cap in links:
        if cap >= 2:
            parent[find(a)] = find(b)
    middle = part.locate((21, 21))
    assert middle >= rc  # a seal node
    assert find(middle) == find(part.locate((0, 0)))
