"""Exact integer rectangle primitives.

Everything downstream works in *half-units*: external integer coordinates
are doubled on ingestion so that rectangle midpoints and half-robot offsets
(d/2) stay integral.  No operation in this package ever rounds.

Obstacles are closed axis-aligned rectangles; the robot is an open square.
A placement therefore remains free when the robot boundary touches an
obstacle boundary, and a robot of side d passes a gap of width exactly d.
A world's obstacles are one int64 (4, n) array of rect rows x1, y1, x2, y2,
and an obstacle's id is its column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import polygons


class Rect(NamedTuple):
    """Closed axis-aligned rectangle, possibly degenerate (x1 == x2 etc.)."""

    x1: int
    y1: int
    x2: int
    y2: int


class GapVector(NamedTuple):
    """Per-axis gap between two obstacles; negative values mean overlap."""

    gx: int
    gy: int


@dataclass(frozen=True, slots=True)
class Symmetry:
    """One of the 8 plane symmetries: mirror x -> -x first, then
    `rotation` quarter turns of (x, y) -> (y, -x)."""

    rotation: int  # quarter turns, 0..3
    mirrored: bool

    def point(self, x: int, y: int) -> tuple[int, int]:
        if self.mirrored:
            x = -x
        for _ in range(self.rotation):
            x, y = y, -x
        return x, y


SYMMETRIES: tuple[Symmetry, ...] = tuple(
    Symmetry(rot, mir) for mir in (False, True) for rot in range(4)
)

#: Largest absolute external coordinate (and robot side) accepted.  Doubled
#: into half-units and offset by a robot half-side of the same bound, every
#: derived value still fits the int64 arrays the engine keeps.
COORD_LIMIT = 2**60

#: Raw ingestion shapes: ("rect", (x1, y1, x2, y2)) or ("poly", [(x, y), ...]),
#: all in external (undoubled) integer units.
RawShape = tuple[str, Sequence]


def ingest_world(shapes: Iterable[RawShape]) -> np.ndarray:
    """Convert external-unit rectangles and rectilinear polygons into the
    obstacles' half-unit int64 (4, n) rect rows, ids (columns) assigned
    densely in input order.

    Polygons are cut into disjoint rectangles first; each piece gets its
    own id. Raises ValueError naming the offending input index, also for a
    coordinate beyond COORD_LIMIT, which is checked on the input's ints
    before they become int64.
    """
    corners: list[Sequence[int]] = []
    for index, (kind, data) in enumerate(shapes):
        if kind == "rect":
            x1, y1, x2, y2 = data
            if not (x1 < x2 and y1 < y2):
                raise ValueError(f"input {index}: degenerate extent")
            pieces = [data]
        elif kind == "poly":
            try:
                pieces = polygons.decompose(data)
            except ValueError as exc:
                raise ValueError(f"input {index}: {exc}") from exc
        else:
            raise ValueError(f"input {index}: unknown shape kind {kind!r}")
        if any(abs(v) > COORD_LIMIT for piece in pieces for v in piece):
            raise ValueError(f"input {index}: coordinate outside [-2**60, 2**60]")
        corners += pieces
    return 2 * np.ascontiguousarray(np.array(corners, dtype=np.int64).reshape(-1, 4).T)


def gaps(a: Rect, b: Rect) -> GapVector:
    """Axis gaps between two obstacles (negative = projections overlap)."""
    return GapVector(
        max(a.x1, b.x1) - min(a.x2, b.x2),
        max(a.y1, b.y1) - min(a.y2, b.y2),
    )


def placement_free(p: tuple[int, int], d: int, rects: np.ndarray) -> bool:
    """True iff the open square of side d centered at p misses every
    obstacle of the int64 (4, n) rect rows.

    Boundary contact is allowed: the robot is open, obstacles are closed.
    """
    if d < 0 or d % 2:
        raise ValueError("robot side must be a nonnegative even half-unit count")
    px, py = p
    h = d // 2
    for x1, y1, x2, y2 in rects.T.tolist():
        if x1 - h < px < x2 + h and y1 - h < py < y2 + h:
            return False
    return True
