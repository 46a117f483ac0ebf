"""Versioned plain-text serialization of a FeasibilityIndex.

Format v5 holds the candidate count, the obstacles (`x1 y1 x2 y2`, the id
is the line's position), the gap edges as obstacle pairs (`i j`), the
run-length encoded cell labels (each cell's union-graph node id, or -1 for
walls) and the region count.  Loading rebuilds the edges from their pairs
(sweep.gap_edges) and the grid from the obstacles, the same functions the
build uses; the index then derives its links and DSU timeline from the
partition, as after a build.  Each table and the labels line is read by one
np.loadtxt into int64, which takes no comments, so a stray `#` fails.  A
load rejects a misnamed section, a negative count, a line of the wrong
width, a coordinate beyond 2 * COORD_LIMIT half-units (before numpy's int64
arithmetic could wrap), a degenerate obstacle, a pair that is out of order
or out of range or has no passage, label runs that do not exactly cover the
grid, more regions than label runs (a region owns at least one; the bound
also keeps node ids within int32), a region that labels no run, a label
that names no node, wall labels on any cell but the obstacles' own
(wall_cells), and any line after the region count.  A reloaded index
answers every query exactly like the original.  The text is deterministic
for a given index.  Files of earlier versions are rejected.
"""

from __future__ import annotations

import numpy as np

from .engine import FeasibilityIndex
from .geometry import COORD_LIMIT, Obstacle
from .partition import WALL_CELL, RegionPartition, build_grid, wall_cells
from .sweep import gap_edges

FORMAT_TAG = "gapgraph-index"
FORMAT_VERSION = 5


def _rle(array: np.ndarray) -> list[int]:
    """(count, value) runs of a non-empty array in row-major order, flat."""
    flat = np.asarray(array).ravel()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(flat)) + 1))
    counts = np.diff(starts, append=flat.size)
    return np.column_stack((counts, flat[starts])).ravel().tolist()


def _unrle(runs: np.ndarray, shape: tuple[int, int], nodes: int) -> np.ndarray:
    """Cell labels from int64 (count, label) rows; each label must name one
    of `nodes` union-graph nodes or be WALL_CELL.  Each count is bounded by
    the cell count before the counts are summed, so the sum cannot wrap."""
    counts, labels = runs.T
    cells = shape[0] * shape[1]
    if not ((counts >= 1) & (counts <= cells)).all() or counts.sum() != cells:
        raise ValueError(f"label runs do not cover the {shape[0]}x{shape[1]} grid")
    if labels.size and (labels.min() < WALL_CELL or labels.max() >= nodes):
        raise ValueError(f"cell label outside [{WALL_CELL}, {nodes})")
    return np.repeat(labels.astype(np.int32), counts).reshape(shape)


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
    part = index.partition
    lines: list[str] = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append(f"candidates {index.candidate_count}")
    lines.append(f"obstacles {len(index.obstacles)}")
    lines += [f"{o.x1} {o.y1} {o.x2} {o.y2}" for o in index.obstacles]
    lines.append(f"edges {len(index.edges)}")
    lines += [f"{i} {j}" for i, j in index.edges.pairs.tolist()]
    lines.append("labels " + " ".join(str(v) for v in _rle(part.labels)))
    lines.append(f"regions {part.region_count}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_index(path: str) -> FeasibilityIndex:
    """Raises ValueError for anything but a complete, consistent v5 file."""
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
    obstacles = [Obstacle(k, *c) for k, c in enumerate(corners.tolist())]
    rects = np.ascontiguousarray(corners.T)

    n = len(obstacles)
    pairs = table("edges", 2)
    i, j = pairs.T
    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
    if bad.size:
        raise ValueError(f"edge {pairs[bad[0]].tolist()} outside 0 <= i < j < {n}")
    edges = gap_edges(pairs, rects)

    grid = build_grid(rects)
    runs = _ints([section("labels")]).reshape(-1, 2)
    region_count = count("regions")
    if region_count > len(runs):
        raise ValueError(f"{region_count} regions in {len(runs)} label runs")
    ids = runs[:, 1][(runs[:, 1] >= 0) & (runs[:, 1] < region_count)]
    owned = np.bincount(ids, minlength=region_count)
    if not owned.all():
        raise ValueError(f"region {np.argmin(owned)} labels no cell")
    labels = _unrle(runs, grid.shape, region_count + len(edges))
    if not np.array_equal(labels == WALL_CELL, wall_cells(grid, rects)):
        raise ValueError("wall labels differ from the obstacles' cells")
    if next(rows, None) is not None:
        raise ValueError("trailing lines after the region count")

    return FeasibilityIndex(
        obstacles=obstacles,
        edges=edges,
        candidate_count=candidate_count,
        partition=RegionPartition(grid, labels, region_count),
    )
