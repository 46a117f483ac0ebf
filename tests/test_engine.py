import math
import random

import pytest

from gapgraph.cli import inject_fault
from gapgraph.engine import Query, Verdict, build_index, preprocess
from gapgraph.geometry import SYMMETRIES, Obstacle, ingest_world
from gapgraph.oracle import oracle_feasible
from gapgraph.partition import build_grid
from gapgraph.worldgen import world_shapes

from conftest import linked_regions, random_world, straddling_node_reference

ROOM = [
    ("rect", (0, 0, 10, 1)),
    ("rect", (0, 9, 10, 10)),
    ("rect", (0, 0, 1, 10)),
    ("rect", (9, 0, 10, 4)),
    ("rect", (9, 8, 10, 10)),
]


def test_empty_world():
    idx = build_index([])
    assert idx.partition.region_count == 1
    assert idx.edges == []
    assert idx.feasible(Query((0, 0), (500, -500), 2)) is Verdict.FEASIBLE


def test_same_start_and_goal():
    idx = build_index(ROOM)
    assert idx.feasible(Query((10, 10), (10, 10), 2)) is Verdict.FEASIBLE


def test_room_threshold():
    idx = build_index(ROOM)
    inside, outside = (10, 10), (30, 10)
    assert idx.feasible(Query(inside, outside, 8)) is Verdict.FEASIBLE
    assert idx.feasible(Query(inside, outside, 10)) is Verdict.INFEASIBLE


def test_invalid_endpoints():
    idx = build_index(ROOM)
    assert idx.feasible(Query((1, 1), (30, 10), 2)) is Verdict.INVALID_START
    assert idx.feasible(Query((30, 10), (1, 1), 2)) is Verdict.INVALID_GOAL


def test_query_validation():
    with pytest.raises(ValueError):
        Query((0, 0), (1, 1), 0)
    with pytest.raises(ValueError):
        Query((0, 0), (1, 1), 3)  # odd half-units


def test_fig_style_world_counts():
    # the four-box layout: three of six candidate pairs survive filtering
    idx = build_index(
        [
            ("rect", (0, 4, 4, 10)),
            ("rect", (8, 8, 16, 12)),
            ("rect", (-4, -2, 10, 2)),
            ("rect", (-8, 7, -6, 11)),
        ]
    )
    assert len(idx.obstacles) == 4
    passable = [(e.i, e.j) for e in idx.edges if e.capacity > 0]
    assert passable == [(0, 1), (0, 2), (2, 3)]


class TestSealedRemap:
    def test_gap_placement_maps_to_seal_node(self):
        # two stacked boxes with a gap of capacity 8 between them
        idx = build_index([("rect", (0, 0, 4, 4)), ("rect", (0, 8, 4, 12))])
        p = (4, 12)  # center of the gap rectangle
        node = idx.partition.locate(p)
        assert node >= idx.partition.region_count  # a seal node
        assert idx.region_of(p, 8) == node

    def test_room_gap_placement_equivalent_for_both_incident_regions(self):
        idx = build_index(ROOM)
        p = (19, 12)  # center of the gap rectangle, d = capacity
        ref = idx.partition.locate(p) - idx.partition.region_count
        assert ref >= 0  # a seal
        assert idx.placement_free(p, 8)
        inside, outside = idx.region_of((10, 10), 8), idx.region_of((30, 10), 8)
        linked = linked_regions(idx.links, idx.partition.region_count, ref)
        assert linked.keys() == {inside, outside}
        T = idx.threshold_timestamp(8)
        assert idx.dsu.connected_with_hops(inside, outside, T)[0]

    def test_choice_of_incident_region_cannot_change_verdicts(self):
        rng = random.Random(50)
        tried = 0
        for _ in range(120):
            shapes = random_world(rng, rng.randint(2, 12), span=10)
            idx = build_index(shapes)
            for _ in range(40):
                p = (rng.randint(-4, 26), rng.randint(-4, 26))
                d = 2 * rng.randint(1, 4)
                ref = idx.partition.locate(p) - idx.partition.region_count
                if ref < 0 or not idx.placement_free(p, d):
                    continue
                if d > idx.edges[ref].capacity:
                    continue
                probes = linked_regions(idx.links, idx.partition.region_count, ref)
                if len(probes) < 2:
                    continue
                t = (rng.randint(-4, 26), rng.randint(-4, 26))
                v = idx.region_of(t, d)
                if v is None:
                    continue
                T = idx.threshold_timestamp(d)
                results = {
                    idx.dsu.connected_with_hops(r, v, T)[0] if r != v else True
                    for r in probes
                }
                assert len(results) == 1
                tried += 1
        assert tried >= 1


def _general_position_index(rng: random.Random):
    obstacles = []
    for k in range(rng.randint(3, 16)):
        x, y = rng.randint(0, 40), rng.randint(0, 40)
        obstacles.append(Obstacle(k, x, y, x + rng.randint(1, 12), y + rng.randint(1, 12)))
    return preprocess(obstacles)


class TestStraddlingNode:
    """_straddling_node against the cell-by-cell walk in conftest."""

    def test_matches_cell_walk_in_narrow_seals(self):
        # centres inside a seal narrower than the robot, bodies free
        rng = random.Random(53)
        tried = 0
        for _ in range(150):
            idx = _general_position_index(rng)
            rc = idx.partition.region_count
            for e in idx.edges:
                r = e.edge_rect
                for _ in range(10):
                    p = (rng.randint(r.x1, r.x2), rng.randint(r.y1, r.y2))
                    seal = idx.partition.locate(p)
                    if seal < rc:
                        continue
                    d = 2 * (idx.edges[seal - rc].capacity // 2 + rng.randint(1, 4))
                    if not idx.placement_free(p, d):
                        continue
                    got = idx._straddling_node(p, d, seal)
                    assert got == straddling_node_reference(idx, p, d, seal)
                    tried += 1
        assert tried >= 50

    def test_matches_cell_walk_on_every_branch(self):
        # Real worlds rarely put a body wholly on seal cells, so relabel the
        # cells under a free body at random: regions, wide and narrow seals.
        rng = random.Random(54)
        branches = set()
        for _ in range(300):
            idx = _general_position_index(rng)
            part = idx.partition
            rc, nodes = part.region_count, part.region_count + len(idx.edges)
            p, d = (rng.randint(0, 52), rng.randint(0, 52)), 2 * rng.randint(1, 4)
            narrow = [rc + k for k, e in enumerate(idx.edges) if e.capacity < d]
            if not narrow or not idx.placement_free(p, d):
                continue
            body = part.labels[part.grid.body(p, d)]
            if not body.size:
                continue
            choices = [*range(rc, nodes), *rng.sample(range(rc), min(rc, rng.randint(0, 2)))]
            body[...] = [[rng.choice(choices) for _ in row] for row in body]
            seal = rng.choice(narrow)
            grid = part.grid
            part.labels[grid.cell(grid.xs, p[0]), grid.cell(grid.ys, p[1])] = seal
            got = idx._straddling_node(p, d, seal)
            assert got == straddling_node_reference(idx, p, d, seal)
            branches.add("region" if got < rc else "seal" if got == seal else "wide")
        assert branches == {"region", "seal", "wide"}


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_lattice_query_reads_at_most_2d_plus_1_squared_cells(n):
    # On integer coordinates an open interval of length D meets at most D
    # grid lines and D + 1 intervals between them, whatever n is.
    grid = build_grid(ingest_world(world_shapes("uniform", n, 0)))
    rng = random.Random(n)
    lo, hi = grid.xs[0] // 2 - 3, grid.xs[-1] // 2 + 3
    for side in range(1, 9):
        for _ in range(500):
            p = (2 * rng.randint(lo, hi), 2 * rng.randint(lo, hi))
            bx, by = grid.body(p, 2 * side)
            cells = (bx.stop - bx.start) * (by.stop - by.start)
            assert cells <= (2 * side + 1) ** 2, (p, side, cells)


def test_size_monotonicity():
    rng = random.Random(51)
    for _ in range(60):
        shapes = random_world(rng, rng.randint(1, 12), span=12)
        idx = build_index(shapes)
        for _ in range(10):
            s = (rng.randint(-4, 30), rng.randint(-4, 30))
            t = (rng.randint(-4, 30), rng.randint(-4, 30))
            for d in (8, 6, 4, 2):
                if idx.feasible(Query(s, t, d + 2)) is Verdict.FEASIBLE:
                    assert idx.feasible(Query(s, t, d)) is Verdict.FEASIBLE


def test_scale_invariance():
    rng = random.Random(52)
    for _ in range(25):
        shapes = random_world(rng, rng.randint(1, 10), span=8)
        idx = build_index(shapes)
        scaled = [
            ("rect", tuple(3 * v for v in data)) for _, data in shapes
        ]
        idx3 = build_index(scaled)
        for _ in range(12):
            s = (rng.randint(-4, 22), rng.randint(-4, 22))
            t = (rng.randint(-4, 22), rng.randint(-4, 22))
            d = 2 * rng.randint(1, 5)
            q = Query(s, t, d)
            q3 = Query(
                (3 * s[0], 3 * s[1]), (3 * t[0], 3 * t[1]), 3 * d
            )
            assert idx.feasible(q) == idx3.feasible(q3)


def test_symmetry_invariance():
    rng = random.Random(53)
    for _ in range(12):
        obstacles = ingest_world(random_world(rng, rng.randint(1, 9), span=8))
        idx = preprocess(obstacles)
        queries = [
            (
                (rng.randint(-4, 22), rng.randint(-4, 22)),
                (rng.randint(-4, 22), rng.randint(-4, 22)),
                2 * rng.randint(1, 5),
            )
            for _ in range(8)
        ]
        for sym in SYMMETRIES:
            transformed = [
                Obstacle(o.id, *sym.rect(o.rect)) for o in obstacles
            ]
            idx_t = preprocess(transformed)
            for s, t, d in queries:
                v1 = idx.feasible(Query(s, t, d))
                v2 = idx_t.feasible(Query(sym.point(*s), sym.point(*t), d))
                assert v1 == v2


def test_oracle_equivalence_smoke():
    rng = random.Random(54)
    for _ in range(80):
        obstacles = ingest_world(random_world(rng, rng.randint(1, 14), span=14))
        idx = preprocess(obstacles)
        for _ in range(10):
            s = (rng.randint(-4, 34), rng.randint(-4, 34))
            t = (rng.randint(-4, 34), rng.randint(-4, 34))
            d = 2 * rng.randint(1, 6)
            assert idx.feasible(Query(s, t, d)) == oracle_feasible(
                obstacles, s, t, d
            )


def test_dsu_hops_within_logarithmic_bound():
    rng = random.Random(55)
    for _ in range(20):
        obstacles = ingest_world(random_world(rng, rng.randint(4, 16), span=10))
        idx = preprocess(obstacles)
        nodes = idx.partition.region_count + len(idx.edges)
        bound = 2 * (math.ceil(math.log2(max(nodes, 2))) + 1)
        for _ in range(20):
            s = (rng.randint(-4, 26), rng.randint(-4, 26))
            t = (rng.randint(-4, 26), rng.randint(-4, 26))
            _, hops = idx.feasible_with_stats(Query(s, t, 2 * rng.randint(1, 4)))
            assert hops <= bound


def test_timeline_capacities_non_increasing():
    rng = random.Random(56)
    for _ in range(30):
        idx = build_index(random_world(rng, rng.randint(2, 14), span=10))
        caps = [-c for c in idx._neg_caps]
        assert caps == sorted(caps, reverse=True)


def test_fault_injection_flips_boundary_verdicts():
    idx = build_index(ROOM)
    bad = inject_fault(build_index(ROOM))
    q = Query((10, 10), (30, 10), 8)  # d equals the gap capacity
    assert idx.feasible(q) is Verdict.FEASIBLE
    assert bad.feasible(q) is Verdict.INFEASIBLE


def test_link_only_across_owned_cells():
    # 17 lattice boxes (external units) cut down from a 2000-box cluster
    # world.  A seal's rectangle is partly covered by a higher seal of
    # smaller capacity; linking the lower seal to the region beyond that
    # cover let a side-3 robot through where no placement of it fits.
    boxes = [
        (142, 29, 147, 34), (162, 29, 166, 35), (167, 20, 171, 24), (165, 18, 168, 19),
        (152, 37, 158, 43), (149, 32, 151, 35), (145, 19, 149, 24), (162, 13, 163, 16),
        (146, 13, 152, 17), (160, 26, 164, 30), (150, 7, 155, 11), (160, 11, 161, 13),
        (162, 27, 166, 29), (156, 37, 161, 40), (157, 4, 163, 9), (167, 20, 172, 25),
        (148, 25, 151, 28),
    ]
    obstacles = ingest_world([("rect", box) for box in boxes])
    q = Query((42, -14), (314, 64), 6)
    assert oracle_feasible(obstacles, q.s, q.t, q.d) is Verdict.INFEASIBLE
    assert preprocess(obstacles).feasible(q) is Verdict.INFEASIBLE


# Known wrong verdicts, in external units: 22 boxes cut down from a 7000-box
# lattice cluster world (one side-4 query), and 21 boxes in general position
# cut down from a 1000-box world (two queries of side 3% of the span, each
# starting inside a sealed gap rectangle).  Acceptance 01 misses both.
CLUSTER_PROBE = (
    [
        (111, 325, 115, 327), (110, 314, 115, 320), (107, 294, 113, 297),
        (91, 327, 95, 332), (105, 330, 106, 331), (93, 340, 96, 344),
        (109, 330, 111, 331), (112, 308, 117, 314), (89, 310, 93, 316),
        (115, 299, 120, 304), (96, 315, 101, 320), (114, 304, 115, 305),
        (104, 293, 110, 295), (92, 333, 95, 339), (88, 296, 91, 302),
        (90, 321, 95, 324), (91, 306, 93, 311), (111, 319, 113, 325),
        (89, 292, 95, 297), (97, 298, 101, 300), (89, 303, 93, 305),
        (99, 332, 103, 338),
    ],
    [(103, 323, 101, 341, 4)],
)
SPARSE_PROBE = (
    [
        (298163090, 289483368, 311795061, 308947255), (225114650, 121068230, 243930539, 140927383),
        (393927332, 168222734, 413475435, 176343445), (291978615, 262731459, 293904379, 274406953),
        (332856687, 255294205, 348096061, 260718060), (339724377, 106751295, 354991494, 122294856),
        (300564609, 103283353, 313382583, 122956077), (371080863, 137485635, 383425733, 148588462),
        (277311741, 101507579, 279084085, 106455417), (379370025, 211840848, 398589671, 226451644),
        (385949421, 178995308, 392505993, 189184027), (246078654, 280321030, 263759656, 295702486),
        (167449829, 201492001, 173262957, 201867984), (205147985, 246819040, 212328522, 248484489),
        (175709382, 167474459, 195227032, 181043579), (231129091, 125625725, 231525939, 145078872),
        (242168271, 252237873, 247075671, 268237896), (374684790, 234721133, 384819962, 240620735),
        (187544682, 179370520, 197552339, 180948982), (263217069, 134361234, 267594398, 146005902),
        (162437035, 229083416, 180771733, 246583747),
    ],
    [
        (206214382, 148139911, 992433878, 94331795, 30000000),
        (256404218, 232955907, 200365194, 146527674, 30000000),
    ],
)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known wrong verdict, not yet mended")
@pytest.mark.parametrize(
    "boxes, query",
    [
        (CLUSTER_PROBE[0], CLUSTER_PROBE[1][0]),
        (SPARSE_PROBE[0], SPARSE_PROBE[1][0]),
        (SPARSE_PROBE[0], SPARSE_PROBE[1][1]),
    ],
    ids=["cluster", "sparse-0", "sparse-1"],
)
def test_known_wrong_verdicts_match_oracle(boxes, query):
    obstacles = ingest_world([("rect", box) for box in boxes])
    sx, sy, tx, ty, d = query
    s, t = (2 * sx, 2 * sy), (2 * tx, 2 * ty)
    verdict = preprocess(obstacles).feasible(Query(s, t, 2 * d))
    assert verdict == oracle_feasible(obstacles, s, t, 2 * d)
