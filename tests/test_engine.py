import math
import random

import pytest

from gapgraph.cli import inject_fault
from gapgraph.engine import Query, Verdict, build_index, preprocess
from gapgraph.geometry import SYMMETRIES, Obstacle, ingest_world
from gapgraph.oracle import oracle_feasible
from gapgraph.partition import SEALED

from conftest import linked_regions, random_world

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
        kind, ref = idx.partition.locate(p)
        assert kind == SEALED
        assert idx.region_of(p, 8) == idx.partition.region_count + ref

    def test_room_gap_placement_equivalent_for_both_incident_regions(self):
        idx = build_index(ROOM)
        p = (19, 12)  # center of the gap rectangle, d = capacity
        kind, ref = idx.partition.locate(p)
        assert kind == SEALED
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
                kind, ref = idx.partition.locate(p)
                if kind != SEALED or not idx.placement_free(p, d):
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
