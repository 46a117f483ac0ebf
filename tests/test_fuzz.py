"""Property-based input fuzzing: malformed text and out-of-domain
coordinates end in ValueError (a clean exit-1 message in the CLI), never in
another exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gapgraph.engine import build_index
from gapgraph.geometry import COORD_LIMIT, ingest_world
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
    assert all(
        abs(v) <= 2 * COORD_LIMIT for o in obstacles for v in (o.x1, o.y1, o.x2, o.y2)
    )
    build_index([("rect", r) for r in rects])
