import math
import random
from collections import deque

from gapgraph.geometry import Rect, ingest_world
from gapgraph.partition import WALL_CELL, build_partition, seal_links
from gapgraph.sweep import build_gap_edges, make_gap_edge

from conftest import linked_regions, random_obstacles

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
FIVE_EDGES = [make_gap_edge(FOUR_BOXES[i], FOUR_BOXES[j]) for i, j in FIVE_PAIRS]
LEFT_POCKET = (-4, 9)    # internal half-units
RIGHT_POCKET = (12, 10)


def test_drawn_edge_rects_match_layout():
    rects = {(e.i, e.j): e.edge_rect for e in FIVE_EDGES}
    assert rects[(0, 1)] == Rect(8, 16, 16, 20)
    assert rects[(1, 2)] == Rect(16, 4, 20, 16)
    assert rects[(0, 2)] == Rect(0, 4, 8, 8)
    assert rects[(0, 3)] == Rect(-12, 14, 0, 20)
    assert rects[(2, 3)] == Rect(-12, 4, -8, 14)


def test_single_obstacle_single_region():
    obs = ingest_world([("rect", (0, 0, 3, 2))])
    part = build_partition(obs, [])
    assert part.region_count == 1


def test_pockets_are_distinct_regions():
    part = build_partition(FOUR_BOXES, FIVE_EDGES)
    ra = part.locate(LEFT_POCKET)
    rb = part.locate(RIGHT_POCKET)
    assert 0 <= ra < part.region_count and 0 <= rb < part.region_count
    assert ra != rb


def test_sealed_diagonal_pair_leaves_one_region():
    obs = ingest_world([("rect", (0, 1, 2, 2)), ("rect", (3, 5, 5, 7))])
    edges = [make_gap_edge(obs[0], obs[1])]
    part = build_partition(obs, edges)
    assert part.region_count == 1


class TestLocate:
    def test_point_inside_obstacle(self):
        part = build_partition(FOUR_BOXES, FIVE_EDGES)
        assert part.locate((2, 14)) == WALL_CELL  # inside the tall box

    def test_point_beyond_all_coordinates(self):
        part = build_partition(FOUR_BOXES, FIVE_EDGES)
        outer = part.locate((10_000, -10_000))
        assert 0 <= outer < part.region_count
        assert part.locate((-9_999, 9_999)) == outer

    def test_point_inside_sealed_gap(self):
        part = build_partition(FOUR_BOXES, FIVE_EDGES)
        node = part.locate((4, 6))  # interior of the (0,2) gap rect
        assert node == part.region_count + FIVE_PAIRS.index((0, 2))

    def test_agrees_with_direct_containment(self):
        rng = random.Random(40)
        checked = 0
        for _ in range(12):
            obs = random_obstacles(rng, rng.randint(1, 12), span=10)
            edges = build_gap_edges(obs)
            part = build_partition(obs, edges)
            rc = part.region_count
            for _ in range(900):
                p = (rng.randint(-6, 30), rng.randint(-6, 30))
                node = part.locate(p)
                in_wall = any(
                    o.x1 <= p[0] <= o.x2 and o.y1 <= p[1] <= o.y2 for o in obs
                )
                in_seal = any(
                    e.edge_rect.x1 <= p[0] <= e.edge_rect.x2
                    and e.edge_rect.y1 <= p[1] <= e.edge_rect.y2
                    for e in edges
                )
                if in_wall:
                    assert node == WALL_CELL
                elif in_seal:
                    assert rc <= node < rc + len(edges)
                    r = edges[node - rc].edge_rect
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
        part = build_partition(obs, edges)
        grid = part.grid

        def covers(r, ix, iy):
            return (
                grid.line(grid.xs, r.x1) <= ix <= grid.line(grid.xs, r.x2)
                and grid.line(grid.ys, r.y1) <= iy <= grid.line(grid.ys, r.y2)
            )

        nx, ny = part.labels.shape
        for ix in range(nx):
            for iy in range(ny):
                seals = [k for k, e in enumerate(edges) if covers(e.edge_rect, ix, iy)]
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
        part = build_partition(obs, build_gap_edges(obs))
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
        edges = [make_gap_edge(obs[0], obs[1])]
        part = build_partition(obs, edges)
        assert seal_links(part, edges) == [(0, 1, edges[0].capacity)]

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
        part = build_partition(room, edges)
        links = seal_links(part, edges)
        assert part.region_count == 2
        (gap,) = [k for k, e in enumerate(edges) if e.capacity > 0]
        assert linked_regions(links, part.region_count, gap) == {0: 8, 1: 8}

    def test_pocket_adjacency_through_gap_under_tall_box(self):
        part = build_partition(FOUR_BOXES, FIVE_EDGES)
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
            part = build_partition(obs, edges)
            rc = part.region_count
            for a, b, cap in seal_links(part, edges):
                assert 0 <= a < b < rc + len(edges)
                assert b >= rc  # every link ends at a seal node
                assert 0 < cap <= edges[b - rc].capacity
                if a < rc:
                    assert cap == edges[b - rc].capacity

    def test_links_are_touching_cell_pairs(self):
        # Brute force over every 4-adjacent cell pair of the same worlds.
        rng = random.Random(43)
        corner_pairs = 0
        for _ in range(30):
            obs = random_obstacles(rng, rng.randint(2, 14), span=10)
            edges = build_gap_edges(obs)
            part = build_partition(obs, edges)
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
                r, f = edges[a - rc].edge_rect, edges[b - rc].edge_rect
                ox = min(r.x2, f.x2) - max(r.x1, f.x1)
                oy = min(r.y2, f.y2) - max(r.y1, f.y1)
                return ox == 0 and oy == 0

            def capacity(node):
                return math.inf if node < rc else edges[node - rc].capacity

            links = seal_links(part, edges)
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
    part = build_partition(obs, edges)
    links = seal_links(part, edges)
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
