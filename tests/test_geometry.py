import random

import pytest

from gapgraph.geometry import (
    SYMMETRIES,
    GapVector,
    Obstacle,
    Rect,
    gaps,
    ingest_world,
    placement_free,
)

from conftest import edges_of, sym_inverse, sym_rect
from planarity import segments_properly_cross


def rect_obstacle(i, x1, y1, x2, y2):
    return Obstacle(i, x1, y1, x2, y2)


# Two diagonal boxes and an overlapping pair, coordinates as drawn in the
# reference sketches (units are arbitrary; the ops are unit-agnostic).
A_DIAG = rect_obstacle(0, 0, 1, 2, 2)
B_DIAG = rect_obstacle(1, 3, 5, 5, 7)
# overlap pair needs the .5 coordinate doubled: [7,9]x[1,3] and [6,9.5]x[5,7]
A_OVER = rect_obstacle(0, 14, 2, 18, 6)
B_OVER = rect_obstacle(1, 12, 10, 19, 14)


class TestIngest:
    def test_doubles_coordinates(self):
        (o,) = ingest_world([("rect", (0, 1, 2, 2))])
        assert (o.x1, o.y1, o.x2, o.y2) == (0, 2, 4, 4)

    def test_empty_input(self):
        assert ingest_world([]) == []

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError, match="input 1"):
            ingest_world([("rect", (0, 0, 1, 1)), ("rect", (3, 5, 3, 7))])

    def test_dense_ids_across_polygons(self):
        shapes = [
            ("rect", (0, 0, 1, 1)),
            ("poly", [(0, 3), (2, 3), (2, 4), (1, 4), (1, 5), (0, 5)]),
            ("rect", (6, 6, 7, 7)),
        ]
        obs = ingest_world(shapes)
        assert [o.id for o in obs] == list(range(4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown shape kind"):
            ingest_world([("blob", (0, 0, 1, 1))])


class TestGaps:
    def test_diagonal_pair(self):
        assert gaps(A_DIAG, B_DIAG) == GapVector(1, 3)

    def test_identical_rects_fully_overlap(self):
        a = rect_obstacle(0, 0, 0, 2, 2)
        b = rect_obstacle(1, 0, 0, 2, 2)
        assert gaps(a, b) == GapVector(-2, -2)

    def test_overlap_pair(self):
        assert gaps(A_OVER, B_OVER) == GapVector(-4, 4)  # 2x the drawn (-2, 2)

    def test_symmetric(self):
        rng = random.Random(1)
        for _ in range(200):
            a = fixed_obstacle(rng, 0)
            b = fixed_obstacle(rng, 1)
            assert gaps(a, b) == gaps(b, a)


def sorted_pair(rng, span):
    v = rng.randint(-span, span)
    return (v, v + rng.randint(1, 6))


def fixed_obstacle(rng, i, span=20):
    x1, x2 = sorted_pair(rng, span)
    y1, y2 = sorted_pair(rng, span)
    return Obstacle(i, x1, y1, x2, y2)


class TestCapacity:
    def test_diagonal_pair(self):
        assert edges_of([A_DIAG, B_DIAG], [(0, 1)]).capacity[0] == 3

    def test_full_overlap_has_no_passage(self):
        a = rect_obstacle(0, 0, 0, 2, 2)
        with pytest.raises(ValueError, match="obstacles 0 and 1: no passage"):
            edges_of([a, rect_obstacle(1, 0, 0, 2, 2)], [(0, 1)])

    def test_overlap_pair(self):
        assert edges_of([A_OVER, B_OVER], [(0, 1)]).capacity[0] == 4

    def test_zero_iff_projections_meet_on_both_axes(self):
        rng = random.Random(2)
        for _ in range(300):
            a = fixed_obstacle(rng, 0, 8)
            b = fixed_obstacle(rng, 1, 8)
            g = gaps(a, b)
            if g.gx <= 0 and g.gy <= 0:
                with pytest.raises(ValueError, match="no passage"):
                    edges_of([a, b], [(0, 1)])
            else:
                assert edges_of([a, b], [(0, 1)]).capacity[0] == max(g)


class TestThinEdgeRect:
    def test_overlap_pair(self):
        assert edges_of([A_OVER, B_OVER], [(0, 1)]).rect.T.tolist() == [[14, 6, 18, 10]]

    def test_diagonal_pair_normalized(self):
        assert edges_of([A_DIAG, B_DIAG], [(0, 1)]).rect.T.tolist() == [[2, 2, 3, 5]]


class TestPlacementFree:
    def test_far_point(self):
        assert placement_free((100, 100), 8, [rect_obstacle(0, 0, 0, 2, 2)])

    def test_center_of_obstacle_any_size(self):
        o = rect_obstacle(0, 0, 0, 2, 2)
        assert not placement_free((1, 1), 0, [o])
        assert not placement_free((1, 1), 2, [o])

    def test_boundary_touch_allowed(self):
        o = rect_obstacle(0, 4, 0, 8, 4)
        assert placement_free((2, 2), 4, [o])  # exactly d/2 left of the side
        assert not placement_free((3, 2), 4, [o])

    def test_matches_interval_arithmetic(self):
        rng = random.Random(3)
        for _ in range(2000):
            o = fixed_obstacle(rng, 0, 10)
            p = (rng.randint(-12, 14), rng.randint(-12, 14))
            d = 2 * rng.randint(0, 5)
            h = d // 2
            overlap = (
                p[0] - h < o.x2
                and p[0] + h > o.x1
                and p[1] - h < o.y2
                and p[1] + h > o.y1
            ) if h else (o.x1 < p[0] < o.x2 and o.y1 < p[1] < o.y2)
            assert placement_free(p, d, [o]) == (not overlap)


class TestSymmetry:
    def test_identity(self):
        r = Rect(1, 2, 3, 5)
        assert sym_rect(SYMMETRIES[0], r) == r

    def test_quarter_turn(self):
        sym = SYMMETRIES[1]
        assert (sym.rotation, sym.mirrored) == (1, False)
        assert sym_rect(sym, Rect(0, 0, 1, 2)) == Rect(0, -1, 2, 0)

    def test_eight_distinct_round_trips(self):
        rng = random.Random(4)
        assert len(SYMMETRIES) == 8
        for sym in SYMMETRIES:
            inv = sym_inverse(sym)
            for _ in range(50):
                x1, x2 = sorted_pair(rng, 15)
                y1, y2 = sorted_pair(rng, 15)
                r = Rect(x1, y1, x2, y2)
                assert sym_rect(inv, sym_rect(sym, r)) == r
                p = (rng.randint(-9, 9), rng.randint(-9, 9))
                assert inv.point(*sym.point(*p)) == p

    def test_images_are_distinct(self):
        probe = Rect(1, 2, 4, 8)
        images = {sym_rect(sym, probe) for sym in SYMMETRIES}
        assert len(images) == 8


class TestSegmentsProperlyCross:
    def test_crossing(self):
        assert segments_properly_cross((0, 0), (4, 4), (0, 4), (4, 0))

    def test_shared_endpoint_not_crossing(self):
        assert not segments_properly_cross((0, 0), (4, 4), (4, 4), (8, 0))

    def test_touching_midpoint_not_crossing(self):
        assert not segments_properly_cross((0, 0), (4, 0), (2, 0), (2, 3))

    def test_parallel_disjoint(self):
        assert not segments_properly_cross((0, 0), (4, 0), (0, 1), (4, 1))
