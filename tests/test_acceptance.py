"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1 and 6 run thousands of worlds and a trio of large builds; the
whole module stays within a few minutes.
"""

import math
import random
import time

from gapgraph.circles import diametral_disc_blocked, gabriel_edges
from gapgraph.dsu import PersistentDsu
from gapgraph.engine import Query, build_index, preprocess
from gapgraph.geometry import Rect, ingest_world, placement_free
from gapgraph.oracle import oracle_feasible, oracle_relevant_edges
from gapgraph.polygons import decompose, polygon_area
from gapgraph.store import load_index, save_index
from gapgraph.sweep import build_candidates
from gapgraph.worldgen import gen_world, world_shapes
from gapgraph.geometry import SYMMETRIES

from conftest import (
    dsu_time,
    edge_rows,
    random_rectilinear_polygon,
    rect_rows,
    region_adjacency,
    shadow_sweep_pass,
    sym_rows,
)
from planarity import non_crossing_violations

KINDS = ("uniform", "cluster", "maze")


def _generated_worlds(count, max_n, seed0=0):
    for k in range(count):
        kind = KINDS[k % 3]
        n = 1 + (k * 7919) % max_n
        yield kind, n, seed0 + k


def _random_queries(rng, rects, k):
    if rects.shape[1]:
        xs, ys = rects[[0, 2]].ravel().tolist(), rects[[1, 3]].ravel().tolist()
        lo_x, hi_x, lo_y, hi_y = min(xs) - 6, max(xs) + 6, min(ys) - 6, max(ys) + 6
    else:
        lo_x = lo_y = -10
        hi_x = hi_y = 10
    for _ in range(k):
        yield Query(
            (rng.randint(lo_x, hi_x), rng.randint(lo_y, hi_y)),
            (rng.randint(lo_x, hi_x), rng.randint(lo_y, hi_y)),
            2 * rng.randint(1, 8),
        )


def test_acceptance_01_oracle_equivalence():
    rng = random.Random(1)
    worlds = 0
    queries = 0
    for kind, n, seed in _generated_worlds(2100, 60):
        obstacles = ingest_world(world_shapes(kind, n, seed))
        index = preprocess(obstacles)
        batch = list(_random_queries(rng, obstacles, 20))
        verdicts = [index.feasible(q) for q in batch]
        for q, verdict in zip(batch, verdicts):
            assert verdict == oracle_feasible(obstacles, q.s, q.t, q.d), (kind, n, seed, q)
            queries += 1
        # The batch path answers the same 20 queries in one call.
        assert index.feasible_many(batch) == verdicts, (kind, n, seed)
        worlds += 1
    assert worlds >= 2000
    print(f"ACCEPTANCE 1 oracle equivalence: PASS ({worlds} worlds, {queries} queries)")


def test_acceptance_02_edge_set_equivalence():
    worlds = 0
    for kind, n, seed in _generated_worlds(600, 30, seed0=10_000):
        obstacles = ingest_world(world_shapes(kind, n, seed))
        edges = build_index(world_shapes(kind, n, seed)).edges
        built = {(i, j) for i, j, cap, _ in edge_rows(edges) if cap > 0}
        assert built == oracle_relevant_edges(obstacles), (kind, n, seed)
        worlds += 1
    assert worlds >= 500
    print(f"ACCEPTANCE 2 edge-set equivalence: PASS ({worlds} worlds)")


def test_acceptance_03_candidate_bounds():
    worlds = 0
    for kind, n, seed in _generated_worlds(450, 60, seed0=20_000):
        obstacles = ingest_world(world_shapes(kind, n, seed))
        count = obstacles.shape[1]
        assert len(build_candidates(obstacles)) <= 8 * count
        for sym in SYMMETRIES:
            assert len(shadow_sweep_pass(sym_rows(sym, obstacles))) <= count
        worlds += 1
    print(f"ACCEPTANCE 3 candidate bounds: PASS ({worlds} worlds)")


def test_acceptance_04_planarity():
    worlds = 0
    for kind, n, seed in _generated_worlds(450, 60, seed0=30_000):
        index = build_index(world_shapes(kind, n, seed))
        assert non_crossing_violations(index.rects, index.edges) == [], (
            kind,
            n,
            seed,
        )
        regions = index.partition.region_count
        if regions >= 3:
            assert len(region_adjacency(index)) <= 3 * regions - 6, (kind, n, seed)
        worlds += 1
    print(f"ACCEPTANCE 4 planarity: PASS ({worlds} worlds)")


def test_acceptance_05_persistent_dsu():
    rng = random.Random(5)
    sequences = 0
    for _ in range(1000):
        n = rng.randint(2, 100)
        dsu = PersistentDsu(n)
        scratch_parent = list(range(n))

        def find(u):
            while scratch_parent[u] != u:
                u = scratch_parent[u]
            return u

        snapshots = [list(scratch_parent)]
        for _ in range(rng.randint(1, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            dsu.union(u, v)
            ru, rv = find(u), find(v)
            if ru != rv:
                scratch_parent[ru] = rv
            snapshots.append(list(scratch_parent))
        exhaustive = n <= 10
        for t, snap in enumerate(snapshots):
            def find_at(u):
                while snap[u] != u:
                    u = snap[u]
                return u

            if exhaustive:
                pairs = [(u, v) for u in range(n) for v in range(n)]
            else:
                pairs = [
                    (rng.randrange(n), rng.randrange(n)) for _ in range(30)
                ]
            for u, v in pairs:
                assert dsu.connected_with_hops(u, v, t)[0] == (find_at(u) == find_at(v))
        bound = math.ceil(math.log2(n)) + 1
        worst = max(dsu.find(u, dsu_time(dsu))[1] for u in range(n))
        assert worst <= bound
        sequences += 1
    assert sequences == 1000
    print(f"ACCEPTANCE 5 persistent DSU: PASS ({sequences} sequences)")


def test_acceptance_06_complexity_smoke():
    sizes = (1_000, 10_000, 100_000)
    build_index(world_shapes("uniform", 200, 99))  # warmup
    build_s = {}
    hops_max = {}
    t_start = time.perf_counter()
    for n in sizes:
        shapes = world_shapes("uniform", n, 0)
        t0 = time.perf_counter()
        index = build_index(shapes)
        build_s[n] = time.perf_counter() - t0
        rng = random.Random(6)
        hops = [
            index.feasible_with_stats(q)[1]
            for q in _random_queries(rng, index.rects, 400)
        ]
        hops_max[n] = max(hops)
    total = time.perf_counter() - t_start
    slack = 2 * math.ceil(math.log2(sizes[-1] / sizes[0]))
    assert hops_max[sizes[-1]] <= hops_max[sizes[0]] + slack, (hops_max, slack)
    for n1, n2 in zip(sizes, sizes[1:]):
        allowed = 1.3 * (n2 * math.log(n2)) / (n1 * math.log(n1)) * 2
        ratio = build_s[n2] / build_s[n1]
        assert ratio <= allowed, (n1, n2, ratio, allowed)
    assert total <= 600
    print(
        "ACCEPTANCE 6 complexity smoke: PASS "
        f"(build {', '.join(f'{n}:{build_s[n]:.2f}s' for n in sizes)}; "
        f"max hops {', '.join(f'{n}:{hops_max[n]}' for n in sizes)})"
    )


def test_acceptance_07_decomposition():
    rng = random.Random(7)
    polygons = 0
    while polygons < 500:
        poly = random_rectilinear_polygon(rng, rng.randint(1, 24))
        if len(poly) > 40:
            continue
        rects = decompose(poly)
        assert sum((x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in rects) == polygon_area(poly)
        assert len(rects) <= len(poly)
        for a in range(len(rects)):
            for b in range(a + 1, len(rects)):
                r, s = rects[a], rects[b]
                assert not (
                    r[0] < s[2] and r[2] > s[0] and r[1] < s[3] and r[3] > s[1]
                )
        polygons += 1
    print(f"ACCEPTANCE 7 decomposition: PASS ({polygons} polygons)")


def test_acceptance_08_minkowski_equivalence():
    rng = random.Random(8)
    trials = 100_000
    for _ in range(trials):
        x1 = rng.randint(-10, 10)
        y1 = rng.randint(-10, 10)
        o = Rect(x1, y1, x1 + rng.randint(1, 9), y1 + rng.randint(1, 9))
        p = (rng.randint(-16, 24), rng.randint(-16, 24))
        d = 2 * rng.randint(0, 6)
        h = d // 2
        if h:
            collide = (
                p[0] - h < o.x2
                and p[0] + h > o.x1
                and p[1] - h < o.y2
                and p[1] + h > o.y1
            )
        else:
            collide = o.x1 < p[0] < o.x2 and o.y1 < p[1] < o.y2
        assert placement_free(p, d, rect_rows([o])) == (not collide)
    print(f"ACCEPTANCE 8 expansion equivalence: PASS ({trials} triples)")


def test_acceptance_09_circular_case():
    rng = random.Random(9)
    sets = 0
    for _ in range(300):
        n = rng.randint(2, 100)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(-60, 60), rng.randint(-60, 60)))
        pts = sorted(pts)
        edges = gabriel_edges(pts)
        kept = set()
        for e in edges:
            kept.add((e.i, e.j))
            for k, c in enumerate(pts):
                if k not in (e.i, e.j):
                    assert not diametral_disc_blocked(pts[e.i], pts[e.j], c)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) in kept:
                    continue
                dij = (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
                witnessed = False
                for k in range(n):
                    if k in (i, j):
                        continue
                    if diametral_disc_blocked(pts[i], pts[j], pts[k]):
                        witnessed = True
                        dik = (pts[i][0] - pts[k][0]) ** 2 + (pts[i][1] - pts[k][1]) ** 2
                        djk = (pts[j][0] - pts[k][0]) ** 2 + (pts[j][1] - pts[k][1]) ** 2
                        assert dik <= dij and djk <= dij
                assert witnessed
        sets += 1
    square = {(e.i, e.j) for e in gabriel_edges([(0, 0), (2, 0), (2, 2), (0, 2)])}
    assert square == {(0, 1), (1, 2), (2, 3), (0, 3)}
    print(f"ACCEPTANCE 9 circular case: PASS ({sets} point sets)")


def test_acceptance_10_determinism_round_trip(tmp_path):
    for kind in KINDS:
        assert gen_world(kind, 120, 17) == gen_world(kind, 120, 17)
    fixtures = [
        [("rect", (0, 0, 10, 1)), ("rect", (0, 9, 10, 10)), ("rect", (0, 0, 1, 10)),
         ("rect", (9, 0, 10, 4)), ("rect", (9, 8, 10, 10))],
        world_shapes("maze", 60, 3),
        world_shapes("uniform", 40, 4),
        world_shapes("cluster", 40, 5),
        [],
    ]
    rng = random.Random(10)
    for k, shapes in enumerate(fixtures):
        index = build_index(shapes)
        path = tmp_path / f"fixture{k}.idx"
        save_index(index, str(path))
        loaded = load_index(str(path))
        for q in _random_queries(rng, index.rects, 60):
            assert loaded.feasible(q) == index.feasible(q)
    print("ACCEPTANCE 10 determinism and round-trip: PASS")
