import random

import pytest

from gapgraph.geometry import (
    SYMMETRIES,
    Obstacle,
    Rect,
    capacity,
    ingest_world,
)
from gapgraph.oracle import oracle_relevant_edges
from gapgraph.partition import WALL_CELL, build_partition
from gapgraph.sweep import (
    build_candidates,
    build_gap_edges,
    make_gap_edge,
    minimum_pathway,
    relevance_filter,
    shadow_contains,
    shadow_sweep_pass,
)

from conftest import random_obstacles
from planarity import is_diagonal, non_crossing_violations

# External-unit fixtures, doubled by hand.
DIAG_A = Obstacle(0, 0, 2, 4, 4)      # [0,2]x[1,2]
DIAG_B = Obstacle(1, 6, 10, 10, 14)   # [3,5]x[5,7]
OVER_A = Obstacle(0, 14, 2, 18, 6)    # [7,9]x[1,3]
OVER_B = Obstacle(1, 12, 10, 19, 14)  # [6,9.5]x[5,7]

COLLINEAR = ingest_world(
    [("rect", (0, 0, 1, 1)), ("rect", (4, 0, 5, 1)), ("rect", (2, 0, 3, 1))]
)


class TestMinimumPathway:
    def test_diagonal_pair(self):
        # bottleneck is the y gap (6); corridor extended 6 past the x span
        assert minimum_pathway(DIAG_A, DIAG_B) == Rect(0, 4, 10, 10)

    def test_overlap_pair(self):
        assert minimum_pathway(OVER_A, OVER_B) == Rect(10, 6, 22, 10)

    def test_double_overlap_has_no_pathway(self):
        a = Obstacle(0, 0, 0, 4, 4)
        b = Obstacle(1, 2, 2, 6, 6)
        assert minimum_pathway(a, b) is None
        with pytest.raises(ValueError, match="no passage"):
            make_gap_edge(a, b)

    def test_pathway_contains_edge_rect(self):
        rng = random.Random(20)
        for _ in range(400):
            a, b = random_obstacles(rng, 2)
            if capacity(a, b) == 0:
                continue
            e = make_gap_edge(a, b)
            p, r = e.pathway, e.edge_rect
            assert p.x1 <= r.x1 and p.y1 <= r.y1 and p.x2 >= r.x2 and p.y2 >= r.y2


def _passage_axis(e) -> str | None:
    """The axis the minimum pathway runs along: it extends past the gap
    rectangle in that direction and matches it across."""
    p, r = e.pathway, e.edge_rect
    if (p.y1, p.y2) == (r.y1, r.y2) and p.x1 < r.x1 and r.x2 < p.x2:
        return "horizontal"
    if (p.x1, p.x2) == (r.x1, r.x2) and p.y1 < r.y1 and r.y2 < p.y2:
        return "vertical"
    return None


class TestGapEdge:
    def test_diagonal_kind_and_axis(self):
        e = make_gap_edge(DIAG_A, DIAG_B)
        assert is_diagonal(DIAG_A, DIAG_B)
        assert (_passage_axis(e), e.capacity) == ("horizontal", 6)

    def test_overlap_kind(self):
        e = make_gap_edge(OVER_A, OVER_B)
        assert not is_diagonal(OVER_A, OVER_B)
        assert (_passage_axis(e), e.capacity) == ("horizontal", 4)

    def test_vertical_passage(self):
        e = make_gap_edge(COLLINEAR[0], COLLINEAR[1])
        assert not is_diagonal(COLLINEAR[0], COLLINEAR[1])
        assert _passage_axis(e) == "vertical"


class TestShadowContains:
    def test_drawn_configuration(self):
        anchor = Obstacle(1, 5, 0, 12, 3)
        other = Obstacle(0, -8, 4, 2, 9)
        assert shadow_contains(anchor, other)

    def test_other_to_the_right_fails(self):
        anchor = Obstacle(1, 5, 0, 12, 3)
        assert not shadow_contains(anchor, Obstacle(0, 13, 4, 14, 9))

    def test_diagonal_bound_binds_at_bottom_right(self):
        anchor = Obstacle(1, 10, 0, 24, 6)       # [5,12]x[0,3] doubled
        inside = Obstacle(0, -16, 8, 4, 18)      # x2 = 2 external
        outside = Obstacle(0, -16, 8, 9, 18)     # x2 = 4.5 external
        assert shadow_contains(anchor, inside)
        assert not shadow_contains(anchor, outside)


def brute_force_pass(obstacles):
    """Linear-scan re-simulation of one sweep pass: every anchor claims and
    deletes all active obstacles whose bottom side sits in its shadow."""
    active: list[Obstacle] = []
    out = []
    for anchor in sorted(obstacles, key=lambda o: (o.x1, o.y1, o.id)):
        matched = [o for o in sorted(active, key=lambda o: (o.y1, o.id))
                   if shadow_contains(anchor, o)]
        for o in matched:
            out.append((anchor.id, o.id))
            active.remove(o)
        active.append(anchor)
    return out


class TestShadowSweepPass:
    def test_single_obstacle(self):
        assert shadow_sweep_pass([Obstacle(0, 0, 0, 2, 2)]) == []

    def test_two_obstacles_one_pair(self):
        anchor = Obstacle(1, 5, 0, 12, 3)
        other = Obstacle(0, -8, 4, 2, 9)
        assert shadow_sweep_pass([anchor, other]) == [(1, 0)]

    def test_matches_linear_scan_simulation(self):
        rng = random.Random(21)
        for _ in range(120):
            obs = random_obstacles(rng, rng.randint(2, 20))
            assert sorted(shadow_sweep_pass(obs)) == sorted(brute_force_pass(obs))

    def test_emits_at_most_n(self):
        rng = random.Random(22)
        for _ in range(60):
            obs = random_obstacles(rng, rng.randint(1, 30), span=10)
            for sym in SYMMETRIES:
                transformed = [Obstacle(o.id, *sym.rect(o.rect)) for o in obs]
                assert len(shadow_sweep_pass(transformed)) <= len(obs)


class TestBuildCandidates:
    def test_trivial_worlds(self):
        assert build_candidates([]) == []
        assert build_candidates([Obstacle(0, 0, 0, 2, 2)]) == []

    def test_two_diagonal_obstacles(self):
        assert build_candidates([DIAG_A, DIAG_B]) == [(0, 1)]

    def test_bound_and_completeness(self):
        rng = random.Random(23)
        for _ in range(80):
            obs = random_obstacles(rng, rng.randint(1, 24), span=14)
            cands = set(build_candidates(obs))
            assert len(cands) <= 8 * len(obs)
            assert oracle_relevant_edges(obs) <= cands


class TestRelevanceFilter:
    def test_lone_pair_survives(self):
        edges = build_gap_edges([DIAG_A, DIAG_B])
        assert [(e.i, e.j) for e in edges] == [(0, 1)]

    def test_collinear_middle_kills_long_edge(self):
        all_pairs = [(0, 1), (0, 2), (1, 2)]
        kept = {(e.i, e.j) for e in relevance_filter(all_pairs, COLLINEAR)}
        assert kept == {(0, 2), (1, 2)}

    def test_capacity_zero_pairs_dropped(self):
        touching = ingest_world([("rect", (0, 0, 1, 1)), ("rect", (1, 0, 2, 1))])
        assert relevance_filter([(0, 1)], touching) == []
        part = build_partition(touching, [])
        for y in (0, 1, 2):  # the whole contact segment is wall
            assert part.locate((2, y)) == WALL_CELL

    def test_equals_oracle_on_random_worlds(self):
        rng = random.Random(24)
        for _ in range(120):
            obs = random_obstacles(rng, rng.randint(1, 22), span=12)
            built = {(e.i, e.j) for e in build_gap_edges(obs)}
            assert built == oracle_relevant_edges(obs)

    def test_superseding_inequalities_for_removed_edges(self):
        rng = random.Random(25)
        checked = 0
        for _ in range(150):
            obs = random_obstacles(rng, rng.randint(3, 14), span=8)
            kept = {(e.i, e.j) for e in build_gap_edges(obs)}
            for (i, j) in build_candidates(obs):
                if (i, j) in kept or capacity(obs[i], obs[j]) == 0:
                    continue
                e = make_gap_edge(obs[i], obs[j])
                p = e.pathway
                for k, o in enumerate(obs):
                    if k in (i, j):
                        continue
                    if p.x1 <= o.x1 and o.x2 <= p.x2 and p.y1 <= o.y1 and o.y2 <= p.y2:
                        assert capacity(obs[i], o) <= e.capacity
                        assert capacity(obs[j], o) <= e.capacity
                        checked += 1
        assert checked > 20


def test_surviving_edges_never_cross():
    rng = random.Random(26)
    for _ in range(100):
        obs = random_obstacles(rng, rng.randint(2, 20), span=12)
        assert non_crossing_violations(obs, build_gap_edges(obs)) == []
