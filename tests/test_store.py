import random

import numpy as np
import pytest

from gapgraph.engine import Query, Verdict, build_index
from gapgraph.store import load_index, save_index

from conftest import random_world


def test_round_trip_reproduces_verdicts(tmp_path):
    rng = random.Random(70)
    for w in range(15):
        shapes = random_world(rng, rng.randint(0, 14), span=12)
        idx = build_index(shapes)
        path = tmp_path / f"w{w}.idx"
        save_index(idx, str(path))
        loaded = load_index(str(path))
        for column in ("pairs", "capacity", "rect"):
            assert np.array_equal(getattr(loaded.edges, column), getattr(idx.edges, column))
        assert loaded.partition.grid == idx.partition.grid
        assert loaded.partition.region_count == idx.partition.region_count
        assert np.array_equal(loaded.partition.labels, idx.partition.labels)
        # A load cuts the file's runs into the build's column runs.
        assert np.array_equal(loaded.partition.run_start, idx.partition.run_start)
        assert np.array_equal(loaded.partition.run_label, idx.partition.run_label)
        # The links and the DSU timeline are derived on load, not stored.
        assert np.array_equal(loaded.links, idx.links)
        assert loaded.dsu._parent == idx.dsu._parent
        assert loaded.dsu._link_time == idx.dsu._link_time
        assert loaded._neg_caps == idx._neg_caps
        assert loaded.candidate_count == idx.candidate_count
        for _ in range(40):
            q = Query(
                (rng.randint(-6, 32), rng.randint(-6, 32)),
                (rng.randint(-6, 32), rng.randint(-6, 32)),
                2 * rng.randint(1, 6),
            )
            assert loaded.feasible(q) == idx.feasible(q)


def _write_labels(path, labels: np.ndarray) -> None:
    """Replace the labels line of the index file at path with the
    (count, label) runs of `labels` in x-major order."""
    flat = labels.ravel()
    starts = np.flatnonzero(np.diff(flat, prepend=flat[0] - 1))
    runs = np.column_stack((np.diff(starts, append=flat.size), flat[starts]))
    lines = path.read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("labels "))
    lines[at] = "labels " + " ".join(map(str, runs.ravel().tolist()))
    path.write_text("\n".join(lines) + "\n")


def test_serialization_is_deterministic(tmp_path):
    shapes = random_world(random.Random(71), 10)
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(build_index(shapes), str(a))
    save_index(build_index(shapes), str(b))
    assert a.read_bytes() == b.read_bytes()



def test_forged_labels_that_merge_two_regions_fail_to_load(tmp_path):
    # A sealed room plus one gap edge outside it.  Giving the grid's corner
    # cell the inside's region 1 makes the two regions touch; the links
    # derived from such labels would join them at unbounded capacity.
    room = [(0, 0, 10, 1), (0, 9, 10, 10), (0, 0, 1, 10), (9, 0, 10, 10)]
    idx = build_index([("rect", box) for box in [*room, (20, 0, 21, 1), (23, 0, 24, 1)]])
    sealed = Query((10, 10), (40, 40), 2)
    assert idx.feasible(sealed) is Verdict.INFEASIBLE
    path = tmp_path / "room.idx"
    save_index(idx, str(path))
    text = path.read_text()
    assert " 28 0\nregions 2\n" in text
    path.write_text(text.replace(" 28 0\nregions 2\n", " 27 0 1 1\nregions 2\n"))
    with pytest.raises(ValueError, match="regions 0 and 1 touch"):
        load_index(str(path))


# A room whose gap has capacity 8 half-units, plus two capacity-20 edges
# outside.
ROOM_AND_GAPS = [
    ("rect", box)
    for box in [
        (0, 0, 10, 1), (0, 9, 10, 10), (0, 0, 1, 10), (9, 0, 10, 4), (9, 8, 10, 10),
        (20, 0, 21, 1), (31, 0, 32, 1),
    ]
]


def test_forged_labels_that_give_a_seal_a_wider_seals_id_fail_to_load(tmp_path):
    # Giving the gap's cells a wide seal's id keeps every region apart, but
    # a robot too wide for the gap would pass through it.
    idx = build_index(ROOM_AND_GAPS)
    sealed = Query((10, 10), (60, 40), 10)
    assert idx.feasible(sealed) is Verdict.INFEASIBLE
    rc, caps = idx.partition.region_count, idx.edges.capacity.tolist()
    narrow, wide = rc + caps.index(8), rc + caps.index(20)
    path = tmp_path / "room.idx"
    save_index(idx, str(path))
    labels = idx.partition.labels.copy()
    labels[labels == narrow] = wide
    _write_labels(path, labels)
    with pytest.raises(ValueError, match=f"a run labelled {wide} lies outside its seal's cells"):
        load_index(str(path))


def test_forged_seal_label_one_cell_beyond_its_block_fails_to_load(tmp_path):
    # A free cell just beyond each side of each seal's cell block,
    # relabelled with that seal.
    idx = build_index(ROOM_AND_GAPS)
    part = idx.partition
    rc = part.region_count
    blocks = part.grid.closed(idx.edges.rect).T.tolist()
    path = tmp_path / "room.idx"
    sides = set()
    for k, (x0, y0, x1, y1) in enumerate(blocks):
        beyond = [
            [(x0 - 1, y) for y in range(y0, y1)],
            [(x1, y) for y in range(y0, y1)],
            [(x, y0 - 1) for x in range(x0, x1)],
            [(x, y1) for x in range(x0, x1)],
        ]
        for side, cells in enumerate(beyond):
            free = [cell for cell in cells if 0 <= part.labels[cell] < rc]
            if not free:
                continue
            cell = free[0]
            labels = part.labels.copy()
            labels[cell] = rc + k
            save_index(idx, str(path))
            _write_labels(path, labels)
            with pytest.raises(ValueError, match=f"a run labelled {rc + k} lies outside its seal's cells"):
                load_index(str(path))
            sides.add(side)
    assert sides == {0, 1, 2, 3}
