import random
from collections import deque

from gapgraph.engine import Verdict
from gapgraph.geometry import Rect, ingest_world
from gapgraph.oracle import oracle_feasible, oracle_relevant_edges

from conftest import random_obstacles, rect_list

ROOM = ingest_world(
    [
        ("rect", (0, 0, 10, 1)),
        ("rect", (0, 9, 10, 10)),
        ("rect", (0, 0, 1, 10)),
        ("rect", (9, 0, 10, 4)),   # right wall, gap of width 4 above
        ("rect", (9, 8, 10, 10)),
    ]
)
INSIDE = (10, 10)
OUTSIDE = (30, 10)


def test_empty_world_feasible():
    assert oracle_feasible(ingest_world([]), (0, 0), (100, -50), 2) is Verdict.FEASIBLE


def test_room_gap_threshold():
    assert oracle_feasible(ROOM, INSIDE, OUTSIDE, 8) is Verdict.FEASIBLE
    assert oracle_feasible(ROOM, INSIDE, OUTSIDE, 10) is Verdict.INFEASIBLE


def test_invalid_endpoints():
    inside_wall = (1, 1)
    assert oracle_feasible(ROOM, inside_wall, OUTSIDE, 2) is Verdict.INVALID_START
    assert oracle_feasible(ROOM, OUTSIDE, inside_wall, 2) is Verdict.INVALID_GOAL


def test_symmetric_in_endpoints():
    rng = random.Random(30)
    for _ in range(150):
        obs = random_obstacles(rng, rng.randint(1, 10), span=10)
        s = (rng.randint(-4, 26), rng.randint(-4, 26))
        t = (rng.randint(-4, 26), rng.randint(-4, 26))
        d = 2 * rng.randint(1, 5)
        a = oracle_feasible(obs, s, t, d)
        b = oracle_feasible(obs, t, s, d)
        if a in (Verdict.FEASIBLE, Verdict.INFEASIBLE):
            assert b == a  # both endpoints valid either way around
        else:
            assert b in (Verdict.INVALID_START, Verdict.INVALID_GOAL)


def test_monotone_in_robot_size():
    rng = random.Random(31)
    for _ in range(120):
        obs = random_obstacles(rng, rng.randint(1, 10), span=10)
        s = (rng.randint(-4, 26), rng.randint(-4, 26))
        t = (rng.randint(-4, 26), rng.randint(-4, 26))
        for d in (8, 6, 4, 2):
            big = oracle_feasible(obs, s, t, d + 2)
            small = oracle_feasible(obs, s, t, d)
            if big is Verdict.FEASIBLE:
                assert small is Verdict.FEASIBLE


def test_refinement_invariance():
    rng = random.Random(32)
    for _ in range(80):
        obs = random_obstacles(rng, rng.randint(1, 8), span=10)
        s = (rng.randint(-4, 26), rng.randint(-4, 26))
        t = (rng.randint(-4, 26), rng.randint(-4, 26))
        d = 2 * rng.randint(1, 4)
        base = oracle_feasible(obs, s, t, d)
        extra_x = tuple(rng.randint(-10, 30) for _ in range(5))
        extra_y = tuple(rng.randint(-10, 30) for _ in range(5))
        assert oracle_feasible(obs, s, t, d, extra_x, extra_y) == base


def _bfs_feasible(rects, s, t, d):
    """Fully independent reference: pure-python BFS over the expanded grid."""
    obstacles = rect_list(rects)
    if not obstacles:
        return Verdict.FEASIBLE
    h = d // 2
    boxes = [Rect(o.x1 - h, o.y1 - h, o.x2 + h, o.y2 + h) for o in obstacles]
    xs = sorted({v for b in boxes for v in (b.x1, b.x2)})
    ys = sorted({v for b in boxes for v in (b.y1, b.y2)})
    xs = [xs[0] - 2] + xs + [xs[-1] + 2]
    ys = [ys[0] - 2] + ys + [ys[-1] + 2]

    def cell(coords, v):
        from bisect import bisect_left

        i = bisect_left(coords, v)
        if i == len(coords):
            return 2 * len(coords) - 2
        if coords[i] == v:
            return 2 * i
        return max(2 * i - 1, 0)

    def covered(cx, cy):
        # midpoint of the cell in quarter-units, exact
        px = 2 * xs[cx // 2] if cx % 2 == 0 else xs[(cx - 1) // 2] + xs[(cx + 1) // 2]
        py = 2 * ys[cy // 2] if cy % 2 == 0 else ys[(cy - 1) // 2] + ys[(cy + 1) // 2]
        return any(
            2 * b.x1 < px < 2 * b.x2 and 2 * b.y1 < py < 2 * b.y2 for b in boxes
        )

    cs = (cell(xs, s[0]), cell(ys, s[1]))
    ct = (cell(xs, t[0]), cell(ys, t[1]))
    if covered(*cs):
        return Verdict.INVALID_START
    if covered(*ct):
        return Verdict.INVALID_GOAL
    nx, ny = 2 * len(xs) - 1, 2 * len(ys) - 1
    seen = {cs}
    queue = deque([cs])
    while queue:
        cx, cy = queue.popleft()
        if (cx, cy) == ct:
            return Verdict.FEASIBLE
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cx + dx, cy + dy)
            if (
                0 <= nxt[0] < nx
                and 0 <= nxt[1] < ny
                and nxt not in seen
                and not covered(*nxt)
            ):
                seen.add(nxt)
                queue.append(nxt)
    return Verdict.INFEASIBLE


def test_matches_independent_bfs():
    rng = random.Random(33)
    for _ in range(120):
        obs = random_obstacles(rng, rng.randint(1, 6), span=8)
        s = (rng.randint(-4, 22), rng.randint(-4, 22))
        t = (rng.randint(-4, 22), rng.randint(-4, 22))
        d = 2 * rng.randint(1, 4)
        assert oracle_feasible(obs, s, t, d) == _bfs_feasible(obs, s, t, d)


def test_relevant_edges_small_fixtures():
    pair = random_obstacles(random.Random(34), 2)
    if not oracle_relevant_edges(pair):  # overlapping draw: force a clean pair
        pair = ingest_world([("rect", (0, 0, 1, 1)), ("rect", (3, 0, 4, 1))])
    assert oracle_relevant_edges(pair) == {(0, 1)}

    collinear = ingest_world(
        [("rect", (0, 0, 1, 1)), ("rect", (4, 0, 5, 1)), ("rect", (2, 0, 3, 1))]
    )
    assert oracle_relevant_edges(collinear) == {(0, 2), (1, 2)}
