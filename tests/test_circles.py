import random
from fractions import Fraction

import pytest

from gapgraph.circles import diametral_disc_blocked, fold_radius, gabriel_edges

from planarity import segments_properly_cross


class TestFoldRadius:
    def test_zero_obstacle_radius_is_identity(self):
        assert fold_radius(1, 0) == 1

    def test_folding(self):
        assert fold_radius(1, 2) == 5

    def test_fractional(self):
        assert fold_radius(0.5, 0.25) == 1.0
        assert fold_radius(Fraction(1, 2), Fraction(1, 4)) == Fraction(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            fold_radius(0, 1)
        with pytest.raises(ValueError):
            fold_radius(1, -1)


class TestGabrielEdges:
    def test_two_points(self):
        edges = gabriel_edges([(0, 0), (3, 4)])
        assert len(edges) == 1
        assert edges[0].sq_capacity == 25

    def test_midpoint_witness_splits_edge(self):
        pts = [(0, 0), (4, 0), (2, 1)]
        kept = {(e.i, e.j) for e in gabriel_edges(pts)}
        assert kept == {(0, 2), (1, 2)}

    def test_square_corners_keep_sides_only(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        kept = {(e.i, e.j) for e in gabriel_edges(pts)}
        assert kept == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_duplicate_centers_rejected(self):
        with pytest.raises(ValueError):
            gabriel_edges([(0, 0), (1, 1), (0, 0)])

    def test_fraction_coordinates(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(1, 4), Fraction(1, 8))]
        kept = {(e.i, e.j) for e in gabriel_edges(pts)}
        assert kept == {(0, 2), (1, 2)}


def random_points(rng, n, span=40):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    return sorted(pts)


def test_emitted_edges_pass_empty_disc_recheck():
    rng = random.Random(60)
    for _ in range(40):
        pts = random_points(rng, rng.randint(2, 40))
        for e in gabriel_edges(pts):
            for k, c in enumerate(pts):
                if k in (e.i, e.j):
                    continue
                assert not diametral_disc_blocked(pts[e.i], pts[e.j], c)


def test_rejected_pairs_witness_superseding():
    rng = random.Random(61)
    for _ in range(30):
        pts = random_points(rng, rng.randint(3, 25))
        kept = {(e.i, e.j) for e in gabriel_edges(pts)}
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if (i, j) in kept:
                    continue
                witnesses = [
                    k
                    for k in range(len(pts))
                    if k not in (i, j)
                    and diametral_disc_blocked(pts[i], pts[j], pts[k])
                ]
                assert witnesses
                dij = _sq(pts[i], pts[j])
                for k in witnesses:
                    assert _sq(pts[i], pts[k]) <= dij
                    assert _sq(pts[j], pts[k]) <= dij


def _sq(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def test_edges_pairwise_non_crossing():
    rng = random.Random(62)
    for _ in range(30):
        pts = random_points(rng, rng.randint(2, 35))
        edges = gabriel_edges(pts)
        for x in range(len(edges)):
            for y in range(x + 1, len(edges)):
                a, b = edges[x], edges[y]
                if {a.i, a.j} & {b.i, b.j}:
                    continue
                assert not segments_properly_cross(
                    pts[a.i], pts[a.j], pts[b.i], pts[b.j]
                )


def test_diametral_disc_is_an_empty_circumscribed_disc():
    # Delaunay-subgraph witness: the diametral disc itself passes through
    # both endpoints and contains no other point even on its boundary.
    rng = random.Random(63)
    for _ in range(25):
        pts = random_points(rng, rng.randint(3, 30))
        for e in gabriel_edges(pts):
            a, b = pts[e.i], pts[e.j]
            for k, c in enumerate(pts):
                if k in (e.i, e.j):
                    continue
                # strictly outside the closed disc
                ux = a[0] + b[0] - 2 * c[0]
                uy = a[1] + b[1] - 2 * c[1]
                assert ux * ux + uy * uy > e.sq_capacity
