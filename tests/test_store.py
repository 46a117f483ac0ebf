import random

import numpy as np

from gapgraph.engine import Query, build_index
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

