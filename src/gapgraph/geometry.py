"""Exact integer rectangle primitives.

Everything downstream works in *half-units*: external integer coordinates
are doubled on ingestion so that rectangle midpoints and half-robot offsets
(d/2) stay integral.  No operation in this package ever rounds.

Obstacles are closed axis-aligned rectangles; the robot is an open square.
A placement therefore remains free when the robot boundary touches an
obstacle boundary, and a robot of side d passes a gap of width exactly d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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
class Obstacle:
    """Closed rectangle with a dense id, coordinates in half-units."""

    id: int
    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"obstacle {self.id}: degenerate extent")

    @property
    def rect(self) -> Rect:
        return Rect(self.x1, self.y1, self.x2, self.y2)


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

    def rect(self, r: Rect) -> Rect:
        ax, ay = self.point(r.x1, r.y1)
        bx, by = self.point(r.x2, r.y2)
        return Rect(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))

    def inverse(self) -> "Symmetry":
        # Mirrored elements are involutions; pure rotations invert by angle.
        if self.mirrored:
            return self
        return Symmetry((4 - self.rotation) % 4, False)


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


def ingest_world(shapes: Iterable[RawShape]) -> list[Obstacle]:
    """Convert external-unit rectangles and rectilinear polygons into
    half-unit obstacles with ids assigned densely in input order.

    Polygons are cut into disjoint rectangles first; each piece gets its
    own id. Raises ValueError naming the offending input index, also for a
    coordinate beyond COORD_LIMIT.
    """
    obstacles: list[Obstacle] = []
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
        for x1, y1, x2, y2 in pieces:
            obstacles.append(
                Obstacle(len(obstacles), 2 * x1, 2 * y1, 2 * x2, 2 * y2)
            )
    return obstacles


def gaps(a: Obstacle, b: Obstacle) -> GapVector:
    """Axis gaps between two obstacles (negative = projections overlap)."""
    return GapVector(
        max(a.x1, b.x1) - min(a.x2, b.x2),
        max(a.y1, b.y1) - min(a.y2, b.y2),
    )


def capacity(a: Obstacle, b: Obstacle) -> int:
    """Largest square side that can pass between the pair; 0 = no passage."""
    g = gaps(a, b)
    return max(g.gx, g.gy, 0)


def thin_edge_rect(a: Obstacle, b: Obstacle) -> Rect:
    """Normalized contact/gap rectangle between two obstacles.

    Per axis: the projection overlap when the intervals meet, otherwise the
    gap interval between them.  Degenerate (zero extent) when they touch.
    """
    xl, xh = max(a.x1, b.x1), min(a.x2, b.x2)
    yl, yh = max(a.y1, b.y1), min(a.y2, b.y2)
    if xl > xh:
        xl, xh = xh, xl
    if yl > yh:
        yl, yh = yh, yl
    return Rect(xl, yl, xh, yh)


def placement_free(p: tuple[int, int], d: int, obstacles: Iterable[Obstacle]) -> bool:
    """True iff the open square of side d centered at p misses every obstacle.

    Boundary contact is allowed: the robot is open, obstacles are closed.
    """
    if d < 0 or d % 2:
        raise ValueError("robot side must be a nonnegative even half-unit count")
    px, py = p
    h = d // 2
    for o in obstacles:
        if o.x1 - h < px < o.x2 + h and o.y1 - h < py < o.y2 + h:
            return False
    return True
