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
