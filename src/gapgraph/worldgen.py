"""Deterministic world generators for tests and benchmarks.

Three kinds: `uniform` scatters boxes over a domain that grows with sqrt(n)
so density stays roughly constant; `cluster` concentrates boxes around a few
hubs; `maze` recursively divides a chamber with unit-thick walls and door
gaps, producing touching, non-disjoint obstacles where feasibility is
non-monotone (spiral-like corridors).  A maze wall never crosses an earlier
door and its top-up blocks touch nothing, so a robot of side 1 reaches every
chamber.  Output is byte-identical per seed.
"""

from __future__ import annotations

import math
import random

from .geometry import RawShape
from .worldio import format_world


def _uniform_shapes(rng: random.Random, n: int) -> list[RawShape]:
    span = max(12, math.ceil(4 * math.sqrt(n)))
    shapes: list[RawShape] = []
    for _ in range(n):
        x1 = rng.randint(0, span)
        y1 = rng.randint(0, span)
        w = rng.randint(1, 8)
        h = rng.randint(1, 8)
        shapes.append(("rect", (x1, y1, x1 + w, y1 + h)))
    return shapes


def _cluster_shapes(rng: random.Random, n: int) -> list[RawShape]:
    span = max(12, math.ceil(4 * math.sqrt(n)))
    hubs = [
        (rng.randint(0, span), rng.randint(0, span))
        for _ in range(max(1, round(math.sqrt(n) / 2)))
    ]
    spread = max(3, span // 10)
    shapes: list[RawShape] = []
    for _ in range(n):
        cx, cy = hubs[rng.randrange(len(hubs))]
        x1 = cx + rng.randint(-spread, spread)
        y1 = cy + rng.randint(-spread, spread)
        w = rng.randint(1, 6)
        h = rng.randint(1, 6)
        shapes.append(("rect", (x1, y1, x1 + w, y1 + h)))
    return shapes


def _split_options(lo: int, hi: int, doors: list[tuple[int, int]]) -> list[int]:
    """Wall positions w in [lo+2, hi-3] whose unit wall [w, w+1] crosses
    none of the door intervals on the chamber's perpendicular sides."""
    return [
        w
        for w in range(lo + 2, hi - 2)
        if not any(w < d_hi and w + 1 > d_lo for d_lo, d_hi in doors)
    ]


def _top_up(rng: random.Random, walls: list[RawShape], n: int, side: int) -> None:
    """Add free-standing unit blocks inside [0, side]^2 until there are n
    shapes or no spot is left.  A block goes only where its closed unit box
    touches no wall or earlier block, so it never narrows a door; each spot
    is drawn at most once."""
    taken: set[tuple[int, int]] = set()

    def take(x1: int, y1: int, x2: int, y2: int) -> None:
        taken.update(
            (x, y) for x in range(x1 - 1, x2 + 1) for y in range(y1 - 1, y2 + 1)
        )

    for _, rect in walls:
        take(*rect)
    spots = [(x, y) for x in range(1, side - 1) for y in range(1, side - 1)]
    while len(walls) < n and spots:
        k = rng.randrange(len(spots))
        spots[k], spots[-1] = spots[-1], spots[k]
        x, y = spots.pop()
        if (x, y) not in taken:
            walls.append(("rect", (x, y, x + 1, y + 1)))
            take(x, y, x + 1, y + 1)


def _maze_shapes(rng: random.Random, n: int) -> list[RawShape]:
    side = max(9, 3 * math.ceil(math.sqrt(n)) + 3)
    walls: list[RawShape] = [
        ("rect", (-1, -1, side + 1, 0)),
        ("rect", (-1, side, side + 1, side + 1)),
        ("rect", (-1, 0, 0, side)),
        ("rect", (side, 0, side + 1, side)),
    ]
    # (x1, y1, x2, y2, doors along x on the bottom/top sides, doors along y
    # on the left/right sides)
    chambers = [(0, 0, side, side, [], [])]
    while chambers and len(walls) < n + 8:
        x1, y1, x2, y2, xdoors, ydoors = chambers.pop(rng.randrange(len(chambers)))
        if x2 - x1 >= y2 - y1:
            options = _split_options(x1, x2, xdoors)
            if not options:
                continue
            wx = rng.choice(options)
            door = rng.randint(y1, y2 - 2)
            dh = rng.randint(1, 2)
            if door > y1:
                walls.append(("rect", (wx, y1, wx + 1, door)))
            if door + dh < y2:
                walls.append(("rect", (wx, door + dh, wx + 1, y2)))
            ys = ydoors + [(door, door + dh)]
            left = [d for d in xdoors if d[1] <= wx]
            right = [d for d in xdoors if d[0] >= wx + 1]
            chambers.append((x1, y1, wx, y2, left, ys))
            chambers.append((wx + 1, y1, x2, y2, right, ys))
        else:
            options = _split_options(y1, y2, ydoors)
            if not options:
                continue
            wy = rng.choice(options)
            door = rng.randint(x1, x2 - 2)
            dw = rng.randint(1, 2)
            if door > x1:
                walls.append(("rect", (x1, wy, door, wy + 1)))
            if door + dw < x2:
                walls.append(("rect", (door + dw, wy, x2, wy + 1)))
            xs = xdoors + [(door, door + dw)]
            below = [d for d in ydoors if d[1] <= wy]
            above = [d for d in ydoors if d[0] >= wy + 1]
            chambers.append((x1, y1, x2, wy, xs, below))
            chambers.append((x1, wy + 1, x2, y2, xs, above))
    if len(walls) < n:
        _top_up(rng, walls, n, side)
    return walls[:n]


_KINDS = {
    "uniform": _uniform_shapes,
    "cluster": _cluster_shapes,
    "maze": _maze_shapes,
}


def world_shapes(kind: str, n: int, seed: int) -> list[RawShape]:
    if kind not in _KINDS:
        raise ValueError(f"unknown world kind {kind!r} (have {sorted(_KINDS)})")
    if n <= 0:
        raise ValueError("n must be positive")
    return _KINDS[kind](random.Random(seed), n)


def gen_world(kind: str, n: int, seed: int) -> str:
    return format_world(world_shapes(kind, n, seed))
