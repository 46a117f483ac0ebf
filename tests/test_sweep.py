import math
import random
import timeit

import numpy as np
import pytest

from gapgraph.engine import Query, build_index
from gapgraph.geometry import COORD_LIMIT, SYMMETRIES, Rect, gaps, ingest_world
from gapgraph.oracle import minimum_pathway, oracle_feasible, oracle_relevant_edges
from gapgraph.partition import WALL_CELL
from gapgraph.sweep import build_candidates, pathways, relevance_filter
from gapgraph.worldgen import world_shapes

from conftest import (
    build_gap_edges,
    edge_rows,
    edges_of,
    general_position,
    partition_of,
    random_obstacles,
    rect_list,
    rect_rows,
    shadow_sweep_pass,
    sym_rows,
)
from planarity import is_diagonal, non_crossing_violations
from sweep_reference import boxes, reference_candidates, reference_sweep_pass, shadow_contains

# External-unit fixtures, doubled by hand.
DIAG_A = Rect(0, 2, 4, 4)      # [0,2]x[1,2]
DIAG_B = Rect(6, 10, 10, 14)   # [3,5]x[5,7]
OVER_A = Rect(14, 2, 18, 6)    # [7,9]x[1,3]
OVER_B = Rect(12, 10, 19, 14)  # [6,9.5]x[5,7]
DIAG = rect_rows([DIAG_A, DIAG_B])

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
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 2, 6, 6)
        assert minimum_pathway(a, b) is None
        with pytest.raises(ValueError, match="no passage"):
            edges_of(rect_rows([a, b]), [(0, 1)])

    def test_pathway_contains_edge_rect(self):
        rng = random.Random(20)
        for _ in range(400):
            pair = random_obstacles(rng, 2)
            a, b = rect_list(pair)
            if max(gaps(a, b)) <= 0:
                continue
            ((*_, r),) = edge_rows(edges_of(pair, [(0, 1)]))
            p = minimum_pathway(a, b)
            assert p.x1 <= r.x1 and p.y1 <= r.y1 and p.x2 >= r.x2 and p.y2 >= r.y2


def _pairs(rows: np.ndarray) -> list[tuple[int, int]]:
    """int64 (m, 2) pair rows as Python tuples."""
    return [(i, j) for i, j in rows.tolist()]


def _passage_axis(a: Rect, b: Rect) -> str | None:
    """The axis the pair's minimum pathway runs along: it extends past the
    gap rectangle in that direction and matches it across."""
    ((*_, r),) = edge_rows(edges_of(rect_rows([a, b]), [(0, 1)]))
    p = minimum_pathway(a, b)
    if (p.y1, p.y2) == (r.y1, r.y2) and p.x1 < r.x1 and r.x2 < p.x2:
        return "horizontal"
    if (p.x1, p.x2) == (r.x1, r.x2) and p.y1 < r.y1 and r.y2 < p.y2:
        return "vertical"
    return None


class TestGapEdges:
    def test_diagonal_kind_and_axis(self):
        (cap,) = edges_of(DIAG, [(0, 1)]).capacity.tolist()
        assert is_diagonal(DIAG_A, DIAG_B)
        assert (_passage_axis(DIAG_A, DIAG_B), cap) == ("horizontal", 6)

    def test_overlap_kind(self):
        (cap,) = edges_of(rect_rows([OVER_A, OVER_B]), [(0, 1)]).capacity.tolist()
        assert not is_diagonal(OVER_A, OVER_B)
        assert (_passage_axis(OVER_A, OVER_B), cap) == ("horizontal", 4)

    def test_vertical_passage(self):
        a, b, _ = rect_list(COLLINEAR)
        assert not is_diagonal(a, b)
        assert _passage_axis(a, b) == "vertical"


class TestShadowContains:
    def test_drawn_configuration(self):
        anchor = Rect(5, 0, 12, 3)
        other = Rect(-8, 4, 2, 9)
        assert shadow_contains(anchor, other)

    def test_other_to_the_right_fails(self):
        anchor = Rect(5, 0, 12, 3)
        assert not shadow_contains(anchor, Rect(13, 4, 14, 9))

    def test_diagonal_bound_binds_at_bottom_right(self):
        anchor = Rect(10, 0, 24, 6)       # [5,12]x[0,3] doubled
        inside = Rect(-16, 8, 4, 18)      # x2 = 2 external
        outside = Rect(-16, 8, 9, 18)     # x2 = 4.5 external
        assert shadow_contains(anchor, inside)
        assert not shadow_contains(anchor, outside)


def brute_force_pass(rects):
    """Linear-scan re-simulation of one sweep pass over int64 (4, n) rect
    rows: every anchor claims and deletes all active obstacles whose bottom
    side sits in its shadow."""
    active = []
    out = []
    for anchor in sorted(boxes(rects), key=lambda o: (o.x1, o.y1, o.id)):
        matched = [o for o in sorted(active, key=lambda o: (o.y1, o.id))
                   if shadow_contains(anchor, o)]
        for o in matched:
            out.append((anchor.id, o.id))
            active.remove(o)
        active.append(anchor)
    return out


class TestShadowSweepPass:
    def test_single_obstacle(self):
        assert shadow_sweep_pass(rect_rows([(0, 0, 2, 2)])) == []

    def test_two_obstacles_one_pair(self):
        other = (-8, 4, 2, 9)
        anchor = (5, 0, 12, 3)
        assert shadow_sweep_pass(rect_rows([other, anchor])) == [(1, 0)]

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
                transformed = sym_rows(sym, obs)
                assert len(shadow_sweep_pass(transformed)) <= obs.shape[1]


class TestBuildCandidates:
    def test_trivial_worlds(self):
        for obs in (ingest_world([]), rect_rows([(0, 0, 2, 2)])):
            cands = build_candidates(obs)
            assert cands.dtype == np.int64 and cands.shape == (0, 2)

    def test_two_diagonal_obstacles(self):
        assert build_candidates(DIAG).tolist() == [[0, 1]]

    def test_bound_and_completeness(self):
        rng = random.Random(23)
        for _ in range(80):
            obs = random_obstacles(rng, rng.randint(1, 24), span=14)
            cands = set(map(tuple, build_candidates(obs).tolist()))
            assert len(cands) <= 8 * obs.shape[1]
            assert oracle_relevant_edges(obs) <= cands


def _tied_columns(rng: random.Random, n: int) -> np.ndarray:
    """Boxes whose x1 falls on one of a few shared columns, so that x1
    groups are large and anchors in them fit the same obstacles."""
    columns = rng.randint(1, 6)
    shapes = []
    for _ in range(n):
        x, y = 3 * rng.randrange(columns), rng.randint(0, 20)
        shapes.append(("rect", (x, y, x + rng.randint(1, 3), y + rng.randint(1, 4))))
    return ingest_world(shapes)


def _extreme_corners(rng: random.Random, n: int) -> np.ndarray:
    """Boxes whose corners reach +-COORD_LIMIT external units."""
    e = COORD_LIMIT
    shapes = []
    for _ in range(n):
        pool = sorted({-e, -e + 1, -1, 0, 1, e - 1, e, rng.randint(-e, e)})
        (x1, x2), (y1, y2) = (sorted(rng.sample(pool, 2)) for _ in range(2))
        shapes.append(("rect", (x1, y1, x2, y2)))
    return ingest_world(shapes)


def test_gap_edges_match_python_reference():
    """gap_edges and pathways, on int64 columns, equal the oracle's scalar
    minimum_pathway and gaps on Python ints, pair for pair: random lattice
    pairs, odd general-position coordinates, and corners at +-COORD_LIMIT
    external units, where an int64 overflow would show.  A batch holding a
    pair with no passage raises and names the first such pair."""
    rng = random.Random(29)
    worlds = [random_obstacles(rng, 12, span=10) for _ in range(20)]
    worlds += [general_position(rng, 12) for _ in range(20)]
    worlds += [_extreme_corners(rng, 12) for _ in range(20)]
    shut_seen = 0
    for rects in worlds:
        obs = rect_list(rects)
        pairs = [(i, j) for i in range(len(obs)) for j in range(i + 1, len(obs))]
        shut = [(i, j) for i, j in pairs if minimum_pathway(obs[i], obs[j]) is None]
        if shut:
            shut_seen += 1
            with pytest.raises(ValueError, match="obstacles %d and %d: no passage" % shut[0]):
                edges_of(rects, pairs)
        passable = [pair for pair in pairs if pair not in shut]
        expected, expected_paths = [], []
        for i, j in passable:
            gx, gy = gaps(obs[i], obs[j])
            s, p = max(gx, gy), minimum_pathway(obs[i], obs[j])
            # The pathway runs s past the gap along the passage axis.
            if gy >= gx:
                (x1, x2), (y1, y2) = sorted((p.x1 + s, p.x2 - s)), (p.y1, p.y2)
            else:
                (x1, x2), (y1, y2) = (p.x1, p.x2), sorted((p.y1 + s, p.y2 - s))
            expected.append((i, j, s, Rect(x1, y1, x2, y2)))
            expected_paths.append(list(p))
        edges = edges_of(rects, passable)
        assert edge_rows(edges) == expected
        assert [a.dtype for a in (edges.pairs, edges.capacity, edges.rect)] == [np.int64] * 3
        i, j = np.array(passable, dtype=np.int64).reshape(-1, 2).T
        assert pathways(rects[:, i], rects[:, j])[2].T.tolist() == expected_paths
    assert shut_seen >= 10


def _reference_worlds():
    rng = random.Random(27)
    for span in range(4, 31, 2):
        for _ in range(8):
            yield random_obstacles(rng, rng.randint(1, 30), span)
    for k in range(45):
        kind = ("uniform", "cluster", "maze")[k % 3]
        yield ingest_world(world_shapes(kind, 1 + (k * 37) % 120, 500 + k))
    for _ in range(60):
        yield _tied_columns(rng, rng.randint(1, 40))
    for _ in range(60):
        yield general_position(rng, rng.randint(1, 30))


class TestMatchesReference:
    """The numpy pass reproduces the retired pure-Python sweep
    (tests/sweep_reference.py) pair for pair and in the same order."""

    def test_build_candidates(self):
        for obs in _reference_worlds():
            assert _pairs(build_candidates(obs)) == reference_candidates(obs), obs

    def test_shadow_sweep_pass_under_every_symmetry(self):
        for obs in _reference_worlds():
            for sym in SYMMETRIES:
                transformed = sym_rows(sym, obs)
                assert shadow_sweep_pass(transformed) == reference_sweep_pass(
                    transformed
                ), (sym, obs)


def test_int64_headroom_at_the_coordinate_limit():
    """Boxes at the corners of [-2**60, 2**60] (external units): in
    half-units x1 + y2 reaches 2**62 and aligned corner pairs put pathway
    ends near -3 * 2**61, all below 2**63.  An int64 overflow would part
    the sweep from the reference (Python ints) or the index from the
    oracle."""
    e = COORD_LIMIT
    shapes = [("rect", (x, y, x + 1, y + 1)) for x in (-e, e - 1) for y in (-e, e - 1)]
    shapes += [
        ("rect", (-e, -1, 3 - e, 2)),
        ("rect", (0, 0, 1, 1)),
        ("rect", (e - 5, 3, e, 9)),
        ("rect", (-7, e - 2, 5, e)),
    ]
    obstacles = ingest_world(shapes)
    assert _pairs(build_candidates(obstacles)) == reference_candidates(obstacles)
    index = build_index(shapes)
    assert set(_pairs(index.edges.pairs)) == oracle_relevant_edges(obstacles)
    rng = random.Random(28)
    verdicts = set()
    for _ in range(60):
        s, t = ((rng.randint(-2 * e, 2 * e), rng.randint(-2 * e, 2 * e)) for _ in range(2))
        d = 2 * rng.choice([1, 2**20, e // 4, e // 2, e])
        got = index.feasible(Query(s, t, d))
        assert got == oracle_feasible(obstacles, s, t, d), (s, t, d)
        verdicts.add(got)
    assert len(verdicts) >= 2


def _staggered_ties(n: int) -> np.ndarray:
    """sqrt(n) columns of 2x2 boxes at pitch 3; a column's boxes share x1,
    and its rows sit half a box off those of the columns beside it."""
    side = math.isqrt(n)
    shapes = []
    for k in range(n):
        col, row = divmod(k, side)
        y = 3 * row + col % 2
        shapes.append(("rect", (3 * col, y, 3 * col + 2, y + 2)))
    return ingest_world(shapes)


def test_staggered_tie_doubling_ratio():
    """Two doublings of n cost at most 2.3x each (ROADMAP item 4); an
    n log n sweep gives about 4 * 15 / 13 = 4.6 over both.  Best of three
    timings at each size, since one timing of one doubling spreads widely.
    The sizes take turns and a timing at 8 000 covers four builds, so a
    fast or slow spell of the machine meets both sizes alike; timeit keeps
    the garbage collector, which walks the whole test process, out of
    them."""
    worlds = {n: _staggered_ties(n) for n in (8_000, 32_000)}
    best = dict.fromkeys(worlds, math.inf)
    for _ in range(3):
        for n, obstacles in worlds.items():
            builds = 32_000 // n
            seconds = timeit.timeit(lambda: build_candidates(obstacles), number=builds)
            best[n] = min(best[n], seconds / builds)
    assert best[32_000] / best[8_000] <= 5.3, best


class TestRelevanceFilter:
    def test_lone_pair_survives(self):
        edges = build_gap_edges(DIAG)
        assert _pairs(edges.pairs) == [(0, 1)]

    def test_collinear_middle_kills_long_edge(self):
        all_pairs = np.array([(0, 1), (0, 2), (1, 2)], dtype=np.int64)
        kept = set(_pairs(relevance_filter(all_pairs, COLLINEAR).pairs))
        assert kept == {(0, 2), (1, 2)}

    def test_capacity_zero_pairs_dropped(self):
        touching = ingest_world([("rect", (0, 0, 1, 1)), ("rect", (1, 0, 2, 1))])
        pair = np.array([(0, 1)], dtype=np.int64)
        assert len(relevance_filter(pair, touching)) == 0
        part = partition_of(touching, edges_of(touching, []))
        for y in (0, 1, 2):  # the whole contact segment is wall
            assert part.locate((2, y)) == WALL_CELL

    def test_equals_oracle_on_random_worlds(self):
        rng = random.Random(24)
        for _ in range(120):
            obs = random_obstacles(rng, rng.randint(1, 22), span=12)
            built = set(_pairs(build_gap_edges(obs).pairs))
            assert built == oracle_relevant_edges(obs)
        # General position: odd half-unit coordinates spread widely, so
        # pathway ends fall between grid lines and beyond the sentinels.
        for _ in range(120):
            obs = general_position(rng, rng.randint(1, 22))
            built = set(_pairs(build_gap_edges(obs).pairs))
            assert built == oracle_relevant_edges(obs)

    def test_superseding_inequalities_for_removed_edges(self):
        rng = random.Random(25)
        checked = 0
        for _ in range(150):
            rects = random_obstacles(rng, rng.randint(3, 14), span=8)
            obs = rect_list(rects)
            kept = set(_pairs(build_gap_edges(rects).pairs))
            removed = [
                (i, j)
                for i, j in _pairs(build_candidates(rects))
                if (i, j) not in kept and max(gaps(obs[i], obs[j])) > 0
            ]
            for i, j, cap, _ in edge_rows(edges_of(rects, removed)):
                p = minimum_pathway(obs[i], obs[j])
                for k, o in enumerate(obs):
                    if k in (i, j):
                        continue
                    if p.x1 <= o.x1 and o.x2 <= p.x2 and p.y1 <= o.y1 and o.y2 <= p.y2:
                        assert max(*gaps(obs[i], o), 0) <= cap
                        assert max(*gaps(obs[j], o), 0) <= cap
                        checked += 1
        assert checked > 20


def test_surviving_edges_never_cross():
    rng = random.Random(26)
    for _ in range(100):
        obs = random_obstacles(rng, rng.randint(2, 20), span=12)
        assert non_crossing_violations(obs, build_gap_edges(obs)) == []
