"""Property-based fuzzing: malformed text and out-of-domain coordinates end
in ValueError (a clean exit-1 message in the CLI), never in another
exception; the index's grid placement check and the obstacle counter each
equal the obstacle scan."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapgraph.engine import build_index
from gapgraph.geometry import COORD_LIMIT, ingest_world, placement_free
from gapgraph.sweep import ObstacleCounter
from gapgraph.worldio import parse_queries, parse_world

FUZZ = settings(max_examples=300, deadline=None)

_NUMBERS = st.one_of(
    st.integers(-8, 8),
    st.integers(-(2**70), 2**70),
    st.sampled_from([COORD_LIMIT, COORD_LIMIT + 1, -COORD_LIMIT, -COORD_LIMIT - 1]),
)
_TOKENS = st.one_of(
    st.sampled_from(["R", "P", "Q", "#", "-", "+3", "0x10", "1_000", "٣", "1e3"]),
    _NUMBERS.map(str),
    st.text(max_size=3),
)
#: Free text, and lines of record-like tokens that often parse.
TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(_TOKENS, max_size=12).map(" ".join), max_size=6).map("\n".join),
)


@FUZZ
@given(TEXT)
def test_parse_world_raises_only_value_error(text):
    try:
        shapes = parse_world(text)
        build_index(shapes)
    except ValueError:
        pass


@FUZZ
@given(TEXT)
def test_parse_queries_raises_only_value_error(text):
    try:
        parse_queries(text)
    except ValueError:
        pass


@FUZZ
@given(st.lists(st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS), max_size=4))
def test_ingest_world_raises_only_value_error(rects):
    try:
        obstacles = ingest_world([("rect", r) for r in rects])
    except ValueError:
        return
    assert obstacles.dtype == np.int64 and obstacles.shape == (4, len(rects))
    assert obstacles.T.tolist() == [[2 * v for v in r] for r in rects]
    assert all(abs(v) <= 2 * COORD_LIMIT for v in obstacles.ravel().tolist())
    build_index([("rect", r) for r in rects])


#: Small boxes on a narrow lattice, so ties, touching sides and overlaps
#: are common.
_BOXES = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3)),
    max_size=6,
)
#: Half-unit points, odd ones included, from inside the world to well
#: beyond its sentinel lines.
_POINTS = st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=20)


@FUZZ
@given(_BOXES, _POINTS, st.integers(1, 16))
@example([], [(4, 0)], 2)  # the body starts on the last sentinel line: empty block
def test_grid_placement_check_equals_obstacle_scan(boxes, points, half_side):
    index = build_index([("rect", (x, y, x + w, y + h)) for x, y, w, h in boxes])
    d = 2 * half_side
    for p in points:
        assert index.placement_free(p, d) == placement_free(p, d, index.rects), (p, d)


@FUZZ
@given(
    _BOXES,
    st.lists(
        st.tuples(_POINTS.map(lambda ps: ps[0]), st.integers(1, 40), st.integers(1, 40)),
        min_size=1,
        max_size=20,
    ),
)
# One box of half-units (0, 0)-(2, 2): a rectangle that ends 2 half-units
# left of it, one that spans it, and one wholly above and right of it.
@example([(0, 0, 1, 1)], [((-30, 1), 28, 2), ((-30, -30), 40, 40), ((5, 6), 3, 1)])
@example([], [((0, 0), 1, 1), ((-30, -30), 40, 40)])  # no obstacles
# Boxes that touch along a side and at a corner, one nested in another, two
# crossing in a plus, tied coordinates throughout; rectangles that touch
# them, sit inside them or cross them.
@example(
    [(0, 0, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1), (-3, -3, 6, 6), (-2, 0, 5, 1), (0, -2, 1, 5)],
    [
        ((0, 0), 2, 2),
        ((2, 2), 2, 2),
        ((-1, 1), 2, 1),
        ((4, 4), 1, 1),
        ((-6, -6), 1, 1),
        ((-30, 0), 60, 1),
    ],
)
def test_obstacle_counter_equals_obstacle_scan(boxes, corners_and_sizes):
    """The number of obstacles each open rectangle meets, from one
    ObstacleCounter.meets call as the relevance filter and the batch
    placement check make it, equals a scan of every obstacle: rectangles of
    independent width and height, corners on odd and even half-units,
    reaching beyond the extremes."""
    obstacles = ingest_world([("rect", (x, y, x + w, y + h)) for x, y, w, h in boxes])
    opened = np.array([(x, y, x + w, y + h) for (x, y), w, h in corners_and_sizes]).T
    counts = ObstacleCounter(obstacles).meets(opened).tolist()
    for (x1, y1, x2, y2), count in zip(opened.T.tolist(), counts):
        scan = sum(
            o1 < x2 and o2 > x1 and p1 < y2 and p2 > y1
            for o1, p1, o2, p2 in obstacles.T.tolist()
        )
        assert count == scan, (x1, y1, x2, y2)
