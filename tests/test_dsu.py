import math
import random

import numpy as np
import pytest

from gapgraph.dsu import PersistentDsu

from conftest import dsu_time


def test_union_returns_timestamps_and_connects():
    dsu = PersistentDsu(4)
    assert dsu.union(1, 2) == 1
    assert dsu.connected_with_hops(1, 2, 1)[0]
    assert not dsu.connected_with_hops(1, 2, 0)[0]


def test_redundant_union_still_advances_time():
    dsu = PersistentDsu(4)
    assert dsu.union(1, 2) == 1
    assert dsu.union(1, 2) == 2
    assert dsu_time(dsu) == 2


def test_hand_traced_history():
    dsu = PersistentDsu(5)
    dsu.union(1, 2)  # t=1
    dsu.union(3, 4)  # t=2
    dsu.union(2, 3)  # t=3
    assert not dsu.connected_with_hops(1, 4, 2)[0]
    assert dsu.connected_with_hops(1, 4, 3)[0]


def test_self_connected_at_time_zero():
    dsu = PersistentDsu(3)
    assert dsu.connected_with_hops(2, 2, 0)[0]


def test_invalid_inputs():
    dsu = PersistentDsu(3)
    with pytest.raises(ValueError):
        dsu.union(0, 3)
    with pytest.raises(ValueError):  # checked before any pair is linked
        dsu.union_many([(0, 1), (-1, 2)])
    assert dsu_time(dsu) == 0 and dsu._parent == [-1, -1, -1]
    with pytest.raises(ValueError):
        dsu.connected_with_hops(0, 1, 1)  # beyond current time
    with pytest.raises(ValueError):
        dsu.connected_with_hops(0, 1, -1)


class _ScratchDsu:
    """Plain union-find rebuilt per query, the reference semantics."""

    def __init__(self, n, unions):
        self.parent = list(range(n))
        for u, v in unions:
            ru, rv = self.find(u), self.find(v)
            if ru != rv:
                self.parent[ru] = rv

    def find(self, u):
        while self.parent[u] != u:
            u = self.parent[u]
        return u


def test_matches_scratch_recomputation():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(2, 60)
        ops = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 80))]
        dsu = PersistentDsu(n)
        for u, v in ops:
            dsu.union(u, v)
        batch = PersistentDsu(n)
        batch.union_many(ops)
        assert (batch._parent, batch._link_time, dsu_time(batch)) == (dsu._parent, dsu._link_time, len(ops))
        for t in range(len(ops) + 1):
            scratch = _ScratchDsu(n, ops[:t])
            for _ in range(20):
                u, v = rng.randrange(n), rng.randrange(n)
                assert dsu.connected_with_hops(u, v, t)[0] == (
                    scratch.find(u) == scratch.find(v)
                )


def test_monotone_in_time():
    rng = random.Random(11)
    n = 40
    dsu = PersistentDsu(n)
    ops = [(rng.randrange(n), rng.randrange(n)) for _ in range(60)]
    for u, v in ops:
        dsu.union(u, v)
    for _ in range(300):
        u, v = rng.randrange(n), rng.randrange(n)
        seen_true = False
        for t in range(dsu_time(dsu) + 1):
            now = dsu.connected_with_hops(u, v, t)[0]
            assert now or not seen_true
            seen_true = seen_true or now


def test_find_path_length_within_rank_bound():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 100)
        dsu = PersistentDsu(n)
        for _ in range(rng.randint(n, 3 * n)):
            dsu.union(rng.randrange(n), rng.randrange(n))
        bound = math.ceil(math.log2(n)) + 1
        worst = max(dsu.find(u, dsu_time(dsu))[1] for u in range(n))
        assert worst <= bound


def test_storage_is_one_link_per_node():
    dsu = PersistentDsu(50)
    for k in range(200):
        dsu.union(k % 50, (3 * k + 1) % 50)
    assert len(dsu._parent) == 50
    assert len(dsu._link_time) == 50


def test_connected_many_equals_connected_with_hops():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 80)
        dsu = PersistentDsu(n)
        for _ in range(rng.randint(0, 2 * n)):
            dsu.union(rng.randrange(n), rng.randrange(n))
        m = rng.randint(0, 50)
        u, v = ([rng.randrange(n) for _ in range(m)] for _ in range(2))
        t = [rng.randint(0, dsu_time(dsu)) for _ in range(m)]
        ok, hops = dsu.connected_many(np.array(u), np.array(v), np.array(t))
        assert ok.dtype == bool and ok.shape == hops.shape == (m,)
        want = [dsu.connected_with_hops(*q) for q in zip(u, v, t)]
        assert list(zip(ok.tolist(), hops.tolist())) == want


def test_connected_many_rejects_what_connected_with_hops_rejects():
    dsu = PersistentDsu(3)
    dsu.union(0, 1)
    for u, v, t in [(0, 3, 1), (-1, 0, 1), (0, 1, 2), (0, 1, -1)]:
        with pytest.raises(ValueError):
            dsu.connected_with_hops(u, v, t)
        with pytest.raises(ValueError):
            dsu.connected_many(np.array([0, u]), np.array([1, v]), np.array([1, t]))


def test_batch_sees_unions_made_after_an_earlier_batch():
    # connected_many keeps its arrays between batches; a union drops them.
    dsu = PersistentDsu(4)
    t = dsu.union(0, 1)
    assert dsu.connected_many([0, 2], [1, 3], [t, t])[0].tolist() == [True, False]
    t = dsu.union(2, 3)
    t = dsu.union(1, 2)
    u, v = [0, 2, 0, 0], [1, 3, 3, 3]
    times = [t, t, t, t - 1]
    connected, hops = dsu.connected_many(u, v, times)
    assert connected.tolist() == [True, True, True, False]
    assert list(zip(connected.tolist(), hops.tolist())) == [
        dsu.connected_with_hops(*q) for q in zip(u, v, times)
    ]
