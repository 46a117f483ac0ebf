"""Seeded generators for the benchmark's worlds and query sets.

The benchmark owns these generators so that a later change to
gapgraph.worldgen cannot change what is measured.  Worlds are int64 arrays
of rectangles (x1, y1, x2, y2) and query sets are int64 arrays of rows
(sx, sy, tx, ty, d), all in external integer units.  Every endpoint's
validity is decided by the reference's covered grid (reference.py), never
by the program under test.
"""

from __future__ import annotations

import math

import numpy as np

from reference import SizeReference

#: Share of queries whose start (then, separately, whose goal) is placed on
#: a closed obstacle on purpose, so both INVALID verdicts occur.
INVALID_SHARE = 0.02


#: Fixed reproductions of wrong verdicts the program gives today, as
#: (island of rectangles, queries on it).  They do not depend on the seed:
#: with_probe() puts one into a seeded world, far from its obstacles, so
#: every run counts the same share of failed operations, and a fix of the
#: fault shows as that share dropping to 0.  The reference's verdict is
#: given for each query; the program answers the other one.
#: A side-4 robot among 22 lattice boxes (cut down from a cluster world):
#: the reference says INFEASIBLE, the program FEASIBLE.
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
#: A robot of side 3% of the span among 21 boxes in general position (cut
#: down from sparse_world(default_rng(3), 1000)), from two starts that lie
#: inside sealed gap rectangles.  The reference says FEASIBLE for the first
#: query and INFEASIBLE for the second; the program the other way round.
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


def with_probe(rects, queries, probe, offset, block: int):
    """The world with `probe`'s island shifted by `offset` = (dx, dy), and
    the queries with the probe's queries (shifted alike) put at the start
    of every `block - len(probe queries)` of them, so that every block of
    `block` queries, the batch file among them, holds the probe's queries
    once."""
    island, probe_queries = probe
    dx, dy = offset
    island = np.asarray(island, dtype=np.int64) + (dx, dy, dx, dy)
    probe_queries = np.asarray(probe_queries, dtype=np.int64) + (dx, dy, dx, dy, 0)
    step = block - len(probe_queries)
    parts = []
    for k in range(0, len(queries), step):
        parts += [probe_queries, queries[k : k + step]]
    return np.vstack((rects, island)), np.vstack(parts)


def cluster_world(rng: np.random.Generator, n: int):
    """Lattice boxes of side 1-6 scattered around about sqrt(n)/2 hubs.
    The hubs sit at jittered points of a square grid, so clusters overlap
    about as much from one seed to the next and the cost of a world varies
    little with the seed."""
    span = math.ceil(4 * math.sqrt(n))
    side = max(1, round(math.sqrt(math.sqrt(n) / 2)))
    cell = span // side
    corners = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2) * cell
    hubs = corners + cell // 4 + rng.integers(0, cell // 2 + 1, size=corners.shape)
    spread = max(3, span // 10)
    at = hubs[rng.integers(0, len(hubs), n)]
    x1 = at[:, 0] + rng.integers(-spread, spread + 1, n)
    y1 = at[:, 1] + rng.integers(-spread, spread + 1, n)
    w = rng.integers(1, 7, n)
    h = rng.integers(1, 7, n)
    rects = np.stack((x1, y1, x1 + w, y1 + h), axis=1).astype(np.int64)
    return rects, {"hubs": hubs, "spread": spread}


def _split_options(lo: int, hi: int, doors: list[tuple[int, int]]) -> list[int]:
    """Wall positions w in [lo+2, hi-3] whose unit wall [w, w+1] leaves
    every door interval on the perpendicular sides open."""
    return [
        w
        for w in range(lo + 2, hi - 2)
        if not any(w < d_hi and w + 1 > d_lo for d_lo, d_hi in doors)
    ]


def maze_world(rng: np.random.Generator, n: int):
    """Recursive division into chambers by unit-thick walls that touch the
    chamber boundary, each with one door of width 1 or 2.  A later wall is
    never placed across an earlier door, so a robot of side 1 reaches
    every chamber."""
    side = math.ceil(3.6 * math.sqrt(n)) + 3
    walls = [
        (-1, -1, side + 1, 0),
        (-1, side, side + 1, side + 1),
        (-1, 0, 0, side),
        (side, 0, side + 1, side),
    ]
    # (x1, y1, x2, y2, doors along x on the bottom/top sides, doors along y
    # on the left/right sides)
    chambers = [(0, 0, side, side, [], [])]
    while chambers and len(walls) < n:
        x1, y1, x2, y2, xdoors, ydoors = chambers.pop(int(rng.integers(len(chambers))))
        if x2 - x1 >= y2 - y1:
            options = _split_options(x1, x2, xdoors)
            if not options:
                continue
            wx = options[int(rng.integers(len(options)))]
            door = int(rng.integers(y1, y2 - 1))
            door_hi = min(y2, door + int(rng.integers(1, 3)))
            if door > y1:
                walls.append((wx, y1, wx + 1, door))
            if door_hi < y2:
                walls.append((wx, door_hi, wx + 1, y2))
            ys = ydoors + [(door, door_hi)]
            chambers.append((x1, y1, wx, y2, [d for d in xdoors if d[1] <= wx], ys))
            chambers.append((wx + 1, y1, x2, y2, [d for d in xdoors if d[0] >= wx + 1], ys))
        else:
            options = _split_options(y1, y2, ydoors)
            if not options:
                continue
            wy = options[int(rng.integers(len(options)))]
            door = int(rng.integers(x1, x2 - 1))
            door_hi = min(x2, door + int(rng.integers(1, 3)))
            if door > x1:
                walls.append((x1, wy, door, wy + 1))
            if door_hi < x2:
                walls.append((door_hi, wy, x2, wy + 1))
            xs = xdoors + [(door, door_hi)]
            chambers.append((x1, y1, x2, wy, xs, [d for d in ydoors if d[1] <= wy]))
            chambers.append((x1, wy + 1, x2, y2, xs, [d for d in ydoors if d[0] >= wy + 1]))
    return np.array(walls[:n], dtype=np.int64), {"side": side}


def sparse_world(rng: np.random.Generator, n: int):
    """General position: every x and every y coordinate distinct, over a
    span of 10^6 * n, boxes up to 2% of the span on a side."""
    span = 10**6 * n
    while True:
        x1 = rng.integers(0, span, n)
        y1 = rng.integers(0, span, n)
        x2 = x1 + rng.integers(1, span // 50 + 1, n)
        y2 = y1 + rng.integers(1, span // 50 + 1, n)
        if (
            len(np.unique(np.concatenate((x1, x2)))) == 2 * n
            and len(np.unique(np.concatenate((y1, y2)))) == 2 * n
        ):
            break
    return np.stack((x1, y1, x2, y2), axis=1).astype(np.int64), {"span": span}


def _free_points(rng, ref: SizeReference, count: int, draw) -> np.ndarray:
    """`count` points from `draw(rng, m) -> (m, 2) array` that the
    reference finds to be valid placements."""
    got: list[np.ndarray] = []
    have = 0
    while have < count:
        pts = draw(rng, max(256, 2 * (count - have)))
        pts = pts[ref.free(pts[:, 0], pts[:, 1])]
        got.append(pts)
        have += len(pts)
    return np.concatenate(got)[:count]


def make_queries(rng, rects, sizes, count, draw_start, draw_goal) -> np.ndarray:
    """`count` queries with robot sides drawn evenly from `sizes`.  Both
    endpoints are valid placements, except that INVALID_SHARE of the starts
    and, separately, of the goals sit on an obstacle corner.
    draw_goal(rng, starts) -> goal candidates, one per start."""
    d = np.asarray(sizes, dtype=np.int64)[rng.integers(0, len(sizes), count)]
    out = np.empty((count, 5), dtype=np.int64)
    out[:, 4] = d
    for size in np.unique(d).tolist():
        rows = np.flatnonzero(d == size)
        ref = SizeReference(rects, size)
        out[rows, 0:2] = _free_points(rng, ref, len(rows), draw_start)
        goals = np.empty((len(rows), 2), dtype=np.int64)
        todo = np.arange(len(rows))
        while len(todo):
            cand = draw_goal(rng, out[rows[todo], 0:2])
            ok = ref.free(cand[:, 0], cand[:, 1])
            goals[todo[ok]] = cand[ok]
            todo = todo[~ok]
        out[rows, 2:4] = goals
    k = max(1, round(INVALID_SHARE * count))
    picks = rng.permutation(count)[: 2 * k]
    corners = rects[rng.integers(0, len(rects), 2 * k)]
    out[picks[:k], 0:2] = corners[:k, 0:2]
    out[picks[k:], 2:4] = corners[k:, 0:2]
    return out
