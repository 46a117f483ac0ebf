"""Self-test of the benchmark's own checking code.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It shows that
  * one flipped verdict is counted as exactly one failed operation, and a
    missing verdict as a failed one too;
  * a reloaded index or CLI batch that disagrees with the built index fails
    a property check;
  * the reference (reference.py) agrees with a brute-force placement scan
    on every endpoint, and with gapgraph's own oracle on every verdict, on
    small worlds from each of the benchmark's generators;
and it prints what the program answers on the fixed reproductions of wrong
verdicts that the workloads carry (gen.CLUSTER_PROBE, gen.SPARSE_PROBE),
without asserting it.  Exits 1 on a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gapgraph import engine, oracle  # noqa: E402
from gapgraph.engine import Query  # noqa: E402

import gen  # noqa: E402
from reference import CODE, brute_force_free, reference_verdicts  # noqa: E402
from run import count_failures, property_checks  # noqa: E402

#: The fixed reproductions of wrong verdicts that the workloads carry.
KNOWN_FAULTS = [("cluster probe", gen.CLUSTER_PROBE), ("sparse probe", gen.SPARSE_PROBE)]


def program_verdicts(rects: np.ndarray, queries: np.ndarray) -> str:
    index = engine.build_index([("rect", tuple(r)) for r in rects.tolist()])
    return "".join(
        CODE[index.feasible(Query((2 * a, 2 * b), (2 * c, 2 * d), 2 * e)).value]
        for a, b, c, d, e in queries.tolist()
    )


def oracle_verdicts(rects: np.ndarray, queries: np.ndarray) -> str:
    obstacles = engine.ingest_world([("rect", tuple(r)) for r in rects.tolist()])
    return "".join(
        CODE[oracle.oracle_feasible(obstacles, (2 * a, 2 * b), (2 * c, 2 * d), 2 * e).value]
        for a, b, c, d, e in queries.tolist()
    )


def small_workloads(seed: int):
    rng = np.random.default_rng(seed)
    rects, info = gen.cluster_world(rng, 60)
    hubs, spread = info["hubs"], info["spread"]

    def near_hub(rng, m):
        return hubs[rng.integers(0, len(hubs), m)] + rng.integers(-spread - 6, spread + 7, (m, 2))

    yield "cluster", rects, gen.make_queries(rng, rects, (1, 2, 3), 150, near_hub, lambda r, s: near_hub(r, len(s)))

    rects, info = gen.maze_world(rng, 60)
    side = info["side"]

    def anywhere(rng, m):
        return rng.integers(0, side + 1, (m, 2))

    yield "maze", rects, gen.make_queries(rng, rects, (1, 2, 3), 150, anywhere, lambda r, s: anywhere(r, len(s)))

    rects, info = gen.sparse_world(rng, 40)
    span = info["span"]

    def spread_out(rng, m):
        return rng.integers(0, span + 1, (m, 2))

    sizes = tuple(span * p // 100 for p in (2, 5, 10))
    yield "sparse", rects, gen.make_queries(rng, rects, sizes, 150, spread_out, lambda r, s: spread_out(r, len(s)))


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for seed in (1, 2):
        for name, rects, queries in small_workloads(seed):
            expected = reference_verdicts(rects, queries)
            for cols, invalid in (((0, 1), "S"), ((2, 3), "G")):
                free = brute_force_free(rects, queries[:, cols[0]], queries[:, cols[1]], queries[:, 4])
                valid = np.array([v != invalid for v in expected])
                if invalid == "G":  # the goal is only looked at when the start is valid
                    starts = np.array([v != "S" for v in expected])
                    free, valid = free[starts], valid[starts]
                expect(bool((free == valid).all()), f"{name} seed {seed}: brute force agrees on {invalid} endpoints")
            expect(oracle_verdicts(rects, queries) == expected, f"{name} seed {seed}: reference equals gapgraph's oracle")

    name, rects, queries = list(small_workloads(3))[1]
    expected = reference_verdicts(rects, queries)
    got = program_verdicts(rects, queries)
    expect(count_failures([(got, expected)]) == (len(expected), 0), f"program agrees with the reference on a small {name}")
    flipped = got[:7] + ("I" if got[7] == "F" else "F") + got[8:]
    expect(count_failures([(flipped, expected)]) == (len(expected), 1), "one flipped verdict is one failed operation")
    expect(count_failures([(got[:-1], expected)]) == (len(expected), 1), "a missing verdict is a failed operation")

    result = {"candidates": 1, "dsu_nodes": 8, "hops_max": 6, "online": [expected], "batch": [expected], "reload": flipped}
    expect(any("reloaded" in b for b in property_checks(result, len(rects), len(expected))),
           "a reloaded index that disagrees fails a property check")
    result.update(reload=expected, hops_max=7)
    expect(any("hops" in b for b in property_checks(result, len(rects), len(expected))),
           "DSU hops above 2*floor(log2 N) fail a property check")

    for what, (island, rows) in KNOWN_FAULTS:
        rects, queries = np.array(island, dtype=np.int64), np.array(rows, dtype=np.int64)
        expected = reference_verdicts(rects, queries)
        expect(oracle_verdicts(rects, queries) == expected, f"reference equals gapgraph's oracle on the {what}: {expected}")
        print(f"info program answers {program_verdicts(rects, queries)} on the {what}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
