"""Plain-text world and query file formats.

World files: one shape per line, integer external units.
    R x1 y1 x2 y2                 axis-aligned rectangle
    P k x1 y1 ... xk yk           simple CCW rectilinear polygon, k vertices
Query files: one query per line.
    Q sx sy tx ty d               robot side d > 0

Query coordinates and d are bounded by geometry.COORD_LIMIT in absolute
value, like world coordinates (checked on ingestion).
`#` starts a comment; blank lines are skipped.  Writers emit a versioned
header comment so future format changes stay recognizable.
"""

from __future__ import annotations

from typing import Sequence

from .engine import Query
from .geometry import COORD_LIMIT, RawShape

WORLD_HEADER = "# gapgraph world v1"
QUERY_HEADER = "# gapgraph queries v1"


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def parse_world(text: str) -> list[RawShape]:
    shapes: list[RawShape] = []
    for lineno, parts in _data_lines(text):
        kind, args = parts[0], parts[1:]
        try:
            values = [int(v) for v in args]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer coordinate") from None
        if kind == "R":
            if len(values) != 4:
                raise ValueError(f"line {lineno}: R needs 4 coordinates")
            shapes.append(("rect", tuple(values)))
        elif kind == "P":
            if not values:
                raise ValueError(f"line {lineno}: P needs a vertex count")
            k, coords = values[0], values[1:]
            if k < 4 or len(coords) != 2 * k:
                raise ValueError(
                    f"line {lineno}: P {k} needs {2 * max(k, 4)} coordinates"
                )
            shapes.append(("poly", list(zip(coords[0::2], coords[1::2]))))
        else:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
    return shapes


def format_world(shapes: Sequence[RawShape]) -> str:
    lines = [WORLD_HEADER]
    for kind, data in shapes:
        if kind == "rect":
            lines.append("R " + " ".join(str(v) for v in data))
        elif kind == "poly":
            flat = " ".join(f"{x} {y}" for x, y in data)
            lines.append(f"P {len(data)} {flat}")
        else:
            raise ValueError(f"unknown shape kind {kind!r}")
    return "\n".join(lines) + "\n"


def parse_queries(text: str) -> list[Query]:
    """Queries in external units, doubled into half-unit Query objects."""
    queries: list[Query] = []
    for lineno, parts in _data_lines(text):
        if parts[0] != "Q" or len(parts) != 6:
            raise ValueError(f"line {lineno}: expected `Q sx sy tx ty d`")
        try:
            sx, sy, tx, ty, d = (int(v) for v in parts[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer value") from None
        if d <= 0:
            raise ValueError(f"line {lineno}: robot side must be positive")
        if max(abs(sx), abs(sy), abs(tx), abs(ty), d) > COORD_LIMIT:
            raise ValueError(f"line {lineno}: value outside [-2**60, 2**60]")
        queries.append(Query((2 * sx, 2 * sy), (2 * tx, 2 * ty), 2 * d))
    return queries


def format_queries(queries: Sequence[tuple[int, int, int, int, int]]) -> str:
    """External-unit (sx, sy, tx, ty, d) tuples to text."""
    lines = [QUERY_HEADER]
    lines.extend("Q " + " ".join(str(v) for v in q) for q in queries)
    return "\n".join(lines) + "\n"
