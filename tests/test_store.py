import random

import numpy as np
import pytest

from gapgraph.cli import main
from gapgraph.engine import Query, Verdict, build_index, preprocess
from gapgraph.geometry import ingest_world
from gapgraph.oracle import oracle_feasible
from gapgraph.store import load_index, save_index

from conftest import random_world, world_families


def _assert_round_trip(idx, path, queries) -> None:
    """Saving idx and loading it back gives the same edges, partition,
    links, DSU timeline and verdicts, and saving the loaded index writes
    the same bytes."""
    save_index(idx, str(path))
    text = path.read_bytes()
    loaded = load_index(str(path))
    for column in ("pairs", "capacity", "rect"):
        assert np.array_equal(getattr(loaded.edges, column), getattr(idx.edges, column))
    # The partition is rebuilt on load, not stored.
    assert loaded.partition.grid == idx.partition.grid
    assert loaded.partition.region_count == idx.partition.region_count
    for field in ("labels", "run_start", "run_label"):
        assert np.array_equal(getattr(loaded.partition, field), getattr(idx.partition, field))
    # So are the links and the DSU timeline.
    assert np.array_equal(loaded.links, idx.links)
    assert loaded.dsu._parent == idx.dsu._parent
    assert loaded.dsu._link_time == idx.dsu._link_time
    assert loaded._neg_caps == idx._neg_caps
    assert loaded.candidate_count == idx.candidate_count
    assert [loaded.feasible(q) for q in queries] == [idx.feasible(q) for q in queries]
    save_index(loaded, str(path))
    assert path.read_bytes() == text


def _queries(rng: random.Random, lo: int, hi: int, sides: int) -> list[Query]:
    """40 half-unit queries with both endpoints in [lo, hi]^2 and robot
    sides of 2 to 2 * sides half-units."""
    def point():
        return rng.randint(lo, hi), rng.randint(lo, hi)

    return [Query(point(), point(), 2 * rng.randint(1, sides)) for _ in range(40)]


def test_round_trip_reproduces_verdicts(tmp_path):
    rng = random.Random(70)
    path = tmp_path / "x.idx"
    for _ in range(15):
        idx = build_index(random_world(rng, rng.randint(0, 14), span=12))
        _assert_round_trip(idx, path, _queries(rng, -6, 32, 6))
    families = world_families(rng)
    del families["random"]  # the worlds above
    for make in families.values():
        for _ in range(6):
            obstacles = make(rng.randint(1, 16))
            idx = preprocess(obstacles)
            lo, hi = int(obstacles.min()) - 6, int(obstacles.max()) + 6
            _assert_round_trip(idx, path, _queries(rng, lo, hi, max(6, (hi - lo) // 60)))


def test_serialization_is_deterministic(tmp_path):
    shapes = random_world(random.Random(71), 10)
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(build_index(shapes), str(a))
    save_index(build_index(shapes), str(b))
    assert a.read_bytes() == b.read_bytes()


def _assert_labels_rejected(idx, path, labels: np.ndarray) -> None:
    """idx's file with a labels section of `labels` after the edges, as v5
    wrote it ((count, label) runs in x-major order, then the region count),
    fails to load: as a v5 file, and as a v6 file, which ends at its edges.
    No label is read back, so forged labels cannot change a verdict."""
    save_index(idx, str(path))
    flat = labels.ravel()
    starts = np.flatnonzero(np.diff(flat, prepend=flat[0] - 1))
    runs = np.column_stack((np.diff(starts, append=flat.size), flat[starts]))
    text = path.read_text() + "labels " + " ".join(map(str, runs.ravel().tolist()))
    text += f"\nregions {idx.partition.region_count}\n"
    for version, message in ((5, "not a gapgraph-index v6 file"), (6, "trailing lines after the edges")):
        path.write_text(text.replace("gapgraph-index 6", f"gapgraph-index {version}", 1))
        with pytest.raises(ValueError, match=message):
            load_index(str(path))


def test_forged_labels_that_merge_two_regions_fail_to_load(tmp_path):
    # A sealed room plus one gap edge outside it.  Giving the grid's corner
    # cell the inside's region 1 makes the two regions touch; the links
    # derived from such labels would join them at unbounded capacity.
    room = [(0, 0, 10, 1), (0, 9, 10, 10), (0, 0, 1, 10), (9, 0, 10, 10)]
    idx = build_index([("rect", box) for box in [*room, (20, 0, 21, 1), (23, 0, 24, 1)]])
    sealed = Query((10, 10), (40, 40), 2)
    assert idx.feasible(sealed) is Verdict.INFEASIBLE
    labels = idx.partition.labels.copy()
    assert labels[-1, -1] == 0 and idx.partition.region_count == 2
    labels[-1, -1] = 1
    _assert_labels_rejected(idx, tmp_path / "room.idx", labels)


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
    labels = idx.partition.labels.copy()
    labels[labels == narrow] = wide
    _assert_labels_rejected(idx, tmp_path / "room.idx", labels)


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
            _assert_labels_rejected(idx, path, labels)
            sides.add(side)
    assert sides == {0, 1, 2, 3}


# Eight boxes whose pair (0, 1) has a passage, but other boxes block its
# pathway, so the build's relevance filter drops it.
BLOCKED_PAIR = [(6, 10, 9, 12), (14, 3, 17, 6), (12, 13, 14, 17), (11, 5, 14, 8),
                (6, 10, 10, 12), (14, 10, 17, 13), (12, 14, 14, 17), (8, 14, 12, 17)]


def test_forged_edge_with_a_blocked_pathway_does_not_change_a_verdict(tmp_path, capsys):
    # A hand-added pair (0, 1) has a passage, but its pathway is blocked, so
    # its seal would let a robot through where the build's index and the
    # oracle say no.  The load rejects the pair by name, and `gapgraph
    # query` on the file exits 1 instead of answering.
    obstacles = ingest_world([("rect", box) for box in BLOCKED_PAIR])
    idx = preprocess(obstacles)
    assert [0, 1] not in idx.edges.pairs.tolist()
    path = tmp_path / "forged.idx"
    save_index(idx, str(path))
    q = Query((31, 37), (24, 19), 6)
    assert load_index(str(path)).feasible(q) is idx.feasible(q)
    assert idx.feasible(q) is oracle_feasible(obstacles, q.s, q.t, q.d) is Verdict.INFEASIBLE
    m = len(idx.edges)
    path.write_text(path.read_text().replace(f"edges {m}\n", f"edges {m + 1}\n") + "0 1\n")
    with pytest.raises(ValueError, match=r"edge \[0, 1\]: pathway meets an obstacle"):
        load_index(str(path))
    queries = tmp_path / "q.txt"
    queries.write_text("Q 15 18 12 9 3\n")
    assert main(["query", str(path), str(queries)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "edge [0, 1]: pathway meets an obstacle" in err
