"""Partially persistent disjoint-set union.

Unions happen at increasing integer timestamps; connectivity can be queried
at any past timestamp.  Links are by rank only and each parent pointer is
written exactly once, so no fat nodes are needed: a find at time t simply
stops at the first link younger than t.  Path compression is deliberately
absent (it would rewrite history).
"""

from __future__ import annotations

import numpy as np


class PersistentDsu:
    def __init__(self, n: int):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        self.n = n
        self._parent = [-1] * n
        self._link_time = [0] * n
        self._rank = [0] * n
        self._time = 0
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None  # connected_many's

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range 0..{self.n - 1}")

    def find(self, u: int, t: int) -> tuple[int, int]:
        """Root of u in the forest restricted to links made at or before t,
        and the number of parent hops taken to reach it."""
        parent, link_time = self._parent, self._link_time
        hops = 0
        while parent[u] >= 0 and link_time[u] <= t:
            u = parent[u]
            hops += 1
        return u, hops

    def union(self, u: int, v: int) -> int:
        """Merge the components of u and v; returns the new timestamp.

        Time advances even when u and v are already connected, keeping a
        one-to-one correspondence between timestamps and union calls.
        """
        self.union_many([(u, v)])
        return self._time

    def union_many(self, pairs: list[tuple[int, int]]) -> None:
        """union(u, v) for each (u, v) of pairs in order, one timestamp
        each: one loop over local lists, since a replay makes thousands.
        Every link so far is at or before the new timestamp, so each find
        walks to the root."""
        for nodes in zip(*pairs):  # every u, then every v
            self._check_node(min(nodes))
            self._check_node(max(nodes))
        self._arrays = None
        parent, link_time, rank = self._parent, self._link_time, self._rank
        time = self._time
        for u, v in pairs:
            time += 1
            while parent[u] >= 0:
                u = parent[u]
            while parent[v] >= 0:
                v = parent[v]
            if u == v:
                continue
            # u becomes the root: the higher rank, on a tie the smaller id.
            if rank[u] < rank[v] or (rank[u] == rank[v] and v < u):
                u, v = v, u
            if rank[u] == rank[v]:
                rank[u] += 1
            parent[v] = u
            link_time[v] = time
        self._time = time

    def connected_with_hops(self, u: int, v: int, t: int) -> tuple[bool, int]:
        """Whether u and v are connected at time t, and the parent hops spent."""
        self._check_node(u)
        self._check_node(v)
        if not 0 <= t <= self._time:
            raise ValueError(f"timestamp {t} out of range 0..{self._time}")
        ru, hu = self.find(u, t)
        rv, hv = self.find(v, t)
        return ru == rv, hu + hv

    def connected_many(
        self, u: np.ndarray, v: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """connected_with_hops for every (u[k], v[k], t[k]) of equal-length
        int arrays, as a bool and an int64 array: the finds of all 2m
        endpoints walk in lock-step, one numpy pass per hop, so a batch
        takes at most as many passes as the deepest find has hops.  The
        parent and link-time lists are copied into arrays on the first batch
        after a union, not on every batch."""
        u, v, t = (np.asarray(a, dtype=np.int64) for a in (u, v, t))
        for w in (u, v):
            bad = np.flatnonzero((w < 0) | (w >= self.n))
            if bad.size:
                self._check_node(int(w[bad[0]]))
        bad = np.flatnonzero((t < 0) | (t > self._time))
        if bad.size:
            raise ValueError(f"timestamp {t[bad[0]]} out of range 0..{self._time}")
        if self._arrays is None:
            self._arrays = (
                np.array(self._parent, dtype=np.int64),
                np.array(self._link_time, dtype=np.int64),
            )
        parent, link_time = self._arrays
        at, until = np.concatenate([u, v]), np.concatenate([t, t])
        hops = np.zeros(len(at), dtype=np.int64)
        live = np.arange(len(at))
        while live.size:
            x = at[live]
            up = parent[x]
            step = (up >= 0) & (link_time[x] <= until[live])
            live = live[step]
            at[live] = up[step]
            hops[live] += 1
        m = len(u)
        return at[:m] == at[m:], hops[:m] + hops[m:]
