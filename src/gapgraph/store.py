"""Versioned plain-text serialization of a FeasibilityIndex.

Format v6 holds what cannot be rebuilt: the candidate count, the obstacles
(`x1 y1 x2 y2`, the id is the line's position) and the gap edges as
obstacle pairs (`i j`).  The obstacles are the index's int64 (4, n) rect
rows, written with one join and read back by one np.loadtxt into int64,
like the edges; np.loadtxt takes no comments, so a stray `#` fails.
Loading rebuilds everything else with the functions the build uses: the
edges from their pairs (sweep.gap_edges), the grid from the obstacles and
the partition from both (partition.build_partition, as engine.preprocess
calls it); the index then derives its links and DSU timeline, as after a
build.  A load rejects a misnamed section, a negative count, a line of
the wrong width, a coordinate beyond 2 * COORD_LIMIT half-units (before
numpy's int64 arithmetic could wrap), a degenerate obstacle, a pair that
is out of order or out of range or has no passage, any line after the
edges, and a pair whose pathway meets an obstacle, which the build's
relevance filter would have dropped.  That last check counts with the
index's own obstacle counter, which the first batch of queries then
reuses.  A reloaded index answers every query exactly like the original.
The text is deterministic for a given index.  Files of earlier versions
are rejected.
"""

from __future__ import annotations

import numpy as np

from .engine import FeasibilityIndex
from .geometry import COORD_LIMIT
from .partition import build_grid, build_partition
from .sweep import gap_edges, pathways

FORMAT_TAG = "gapgraph-index"
FORMAT_VERSION = 6


def _ints(lines: list[str]) -> np.ndarray:
    """int64 rows, one per line, of whitespace-separated integers: one
    np.loadtxt with no comment character, so a `#` fails like any other
    non-integer.  Lines of unequal width or a blank line fail."""
    rows = np.empty((0, 0), dtype=np.int64)
    if any(map(str.strip, lines)):  # loadtxt warns when there is no data
        rows = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
    if len(rows) != len(lines):
        raise ValueError("a blank line where integers were due")
    return rows


def save_index(index: FeasibilityIndex, path: str) -> None:
    lines: list[str] = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append(f"candidates {index.candidate_count}")
    lines.append(f"obstacles {index.rects.shape[1]}")
    lines += map("{} {} {} {}".format, *index.rects.tolist())
    lines.append(f"edges {len(index.edges)}")
    lines += [f"{i} {j}" for i, j in index.edges.pairs.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_index(path: str) -> FeasibilityIndex:
    """Raises ValueError for anything but a complete, consistent v6 file."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [f"{FORMAT_TAG} {FORMAT_VERSION}"]:
        raise ValueError(f"not a {FORMAT_TAG} v{FORMAT_VERSION} file")
    try:
        return _parse(iter(lines[1:]))
    except (StopIteration, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt {FORMAT_TAG} file ({exc!r})") from None


def _parse(rows) -> FeasibilityIndex:
    def section(name: str) -> str:
        key, *rest = next(rows).split(maxsplit=1)
        if key != name:
            raise ValueError(f"expected a {name!r} line, got {key!r}")
        return rest[0] if rest else ""

    def count(name: str) -> int:
        n = int(section(name))
        if n < 0:
            raise ValueError(f"negative {name} count {n}")
        return n

    def table(name: str, width: int) -> np.ndarray:
        """The lines a `name` count announces, as int64 (count, width) rows;
        reshaping to the count, not to (-1, width), fails any other width."""
        k = count(name)
        return _ints([next(rows) for _ in range(k)]).reshape(k, width)

    candidate_count = count("candidates")

    corners = table("obstacles", 4)
    limit = 2 * COORD_LIMIT
    outside = np.flatnonzero(((corners < -limit) | (corners > limit)).any(axis=1))
    if outside.size:
        raise ValueError(f"obstacle {outside[0]}: coordinate outside [-2**61, 2**61]")
    rects = np.ascontiguousarray(corners.T)
    flat = np.flatnonzero((rects[:2] >= rects[2:]).any(axis=0))
    if flat.size:
        raise ValueError(f"obstacle {flat[0]}: degenerate extent")

    n = rects.shape[1]
    pairs = table("edges", 2)
    i, j = pairs.T
    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
    if bad.size:
        raise ValueError(f"edge {pairs[bad[0]].tolist()} outside 0 <= i < j < {n}")
    edges = gap_edges(pairs, rects)

    if next(rows, None) is not None:
        raise ValueError("trailing lines after the edges")

    index = FeasibilityIndex(
        rects=rects,
        edges=edges,
        candidate_count=candidate_count,
        partition=build_partition(rects, edges, build_grid(rects)),
    )
    blocked = np.flatnonzero(index.counter.meets(pathways(rects[:, i], rects[:, j])[2]))
    if blocked.size:
        raise ValueError(f"edge {pairs[blocked[0]].tolist()}: pathway meets an obstacle")
    return index
