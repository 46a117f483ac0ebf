"""gapgraph benchmark: build, store and query cost on generated worlds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run generates the workload's
world and queries from the seed, computes every reference verdict with
reference.py (which shares no code with gapgraph), starts worker.py in a
fresh process to run the program on those inputs, and then checks each
verdict the program gave.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.

An attempted operation is one verdict: one online feasible() call, one
line of a CLI batch, or one query answered by the reloaded index.  It
fails when it differs from the reference.  The cluster-online and
sparse-build queries include fixed reproductions of wrong verdicts the
program gives today (gen.CLUSTER_PROBE, gen.SPARSE_PROBE), so their failed
share is the same, above 0, in every run until the program is mended.
`correct` is false when a property check fails: candidates <= 8n, DSU hops
per query <= 2*floor(log2 N), and the reloaded index and the CLI batch
agreeing with the built index.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from gen import (
    CLUSTER_PROBE,
    SPARSE_PROBE,
    cluster_world,
    make_queries,
    maze_world,
    sparse_world,
    with_probe,
)
from reference import brute_force_free, reference_verdicts

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Scratch space inside the checkout for one run's inputs and index file.
RUNS = ROOT / ".perfbench-runs"
#: Endpoints per run re-checked by the brute-force placement scan.
BRUTE_FORCE_SAMPLE = 1000
WORKER_TIMEOUT_S = 160


def cluster_online(rng):
    """7000 lattice boxes around hubs; 25k queries near the hubs for a
    robot of side 1, plus gen.CLUSTER_PROBE once in every 5000 (the batch
    file is the first 5000)."""
    rects, info = cluster_world(rng, 7000)
    hubs, spread = info["hubs"], info["spread"]

    def near_hub(rng, m):
        return hubs[rng.integers(0, len(hubs), m)] + rng.integers(-spread - 6, spread + 7, (m, 2))

    batch = 5_000
    queries = make_queries(
        rng, rects, (1,), 5 * (batch - 1), near_hub, lambda rng, s: near_hub(rng, len(s))
    )
    # The world lies within about -40..380 on both axes.
    rects, queries = with_probe(rects, queries, CLUSTER_PROBE, (420, -280), batch)
    return rects, queries, batch


def maze_batch(rng):
    """7000 touching walls; 10k queries whose goal lies within 12 units of
    the start; all of them form the batch file."""
    rects, info = maze_world(rng, 7000)
    side = info["side"]

    def anywhere(rng, m):
        return rng.integers(0, side + 1, (m, 2))

    def nearby(rng, starts):
        return np.clip(starts + rng.integers(-12, 13, starts.shape), 0, side)

    queries = make_queries(rng, rects, (1, 2, 3), 10_000, anywhere, nearby)
    return rects, queries, len(queries)


def sparse_build(rng):
    """1000 boxes in general position; 20k queries over the whole span
    with robot sides of 1% and 2% of the span, plus gen.SPARSE_PROBE; all
    of them form the batch file.  A few queries in ten thousand cost
    milliseconds (see the README), so the set is large enough for their
    count to vary little by seed."""
    rects, info = sparse_world(rng, 1000)
    span = info["span"]

    def anywhere(rng, m):
        return rng.integers(0, span + 1, (m, 2))

    count = 20_000
    sizes = (span // 100, span // 50)
    queries = make_queries(
        rng, rects, sizes, count - len(SPARSE_PROBE[1]), anywhere, lambda rng, s: anywhere(rng, len(s))
    )
    # Shifted past the span on both axes, so every coordinate stays distinct.
    rects, queries = with_probe(rects, queries, SPARSE_PROBE, (span + span // 10,) * 2, count)
    return rects, queries, count


WORKLOADS = {
    "cluster-online": cluster_online,
    "maze-batch": maze_batch,
    "sparse-build": sparse_build,
}


def write_inputs(rundir: Path, rects: np.ndarray, queries: np.ndarray, batch: int) -> None:
    world = ["# gapgraph world v1"] + ["R %d %d %d %d" % tuple(r) for r in rects.tolist()]
    (rundir / "world.txt").write_text("\n".join(world) + "\n")
    lines = ["Q %d %d %d %d %d" % tuple(q) for q in queries.tolist()]
    (rundir / "queries.txt").write_text("# gapgraph queries v1\n" + "\n".join(lines) + "\n")
    (rundir / "batch.txt").write_text("# gapgraph queries v1\n" + "\n".join(lines[:batch]) + "\n")


def check_endpoints(rng, rects: np.ndarray, queries: np.ndarray, expected: str) -> None:
    """Re-check a sample of endpoints with the brute-force scan: a start is
    valid iff the reference did not say INVALID_START, and so on."""
    rows = rng.choice(len(queries), min(BRUTE_FORCE_SAMPLE, len(queries)), replace=False)
    q = queries[rows]
    s_free = brute_force_free(rects, q[:, 0], q[:, 1], q[:, 4])
    t_free = brute_force_free(rects, q[:, 2], q[:, 3], q[:, 4])
    for k, row in enumerate(rows.tolist()):
        v = expected[row]
        if s_free[k] != (v != "S") or (s_free[k] and t_free[k] != (v != "G")):
            raise SystemExit(f"error: reference and brute force disagree on query {row}")


def count_failures(pairs: list[tuple[str, str]]) -> tuple[int, int]:
    """(attempted, failed) over (answers, reference) verdict strings: each
    reference verdict is one attempted operation, and it fails when the
    program's answer at that position differs or is missing."""
    attempted = failed = 0
    for got, want in pairs:
        attempted += len(want)
        wrong = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        failed += min(wrong, len(want))
    return attempted, failed


def property_checks(result: dict, n: int, batch: int) -> list[str]:
    """Names of the property checks that failed."""
    bad = []
    if result["candidates"] > 8 * n:
        bad.append(f"candidates {result['candidates']} > 8n = {8 * n}")
    nodes, hops = result["dsu_nodes"], result["hops_max"]
    if hops > 2 * int(math.log2(max(nodes, 1))):
        bad.append(f"DSU hops {hops} > 2*floor(log2 {nodes})")
    built = result["online"][0][:batch]
    if result["reload"] != built:
        bad.append("reloaded index disagrees with the built index")
    if any(b != built for b in result["batch"]):
        bad.append("CLI batch disagrees with the built index")
    return bad


def run_worker(rundir: Path, seconds: float, trace: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), str(rundir), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise SystemExit(f"error: worker exited {rc}")
    return json.loads((rundir / "result.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description="gapgraph benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Let `finally` stop the worker and remove the run directory on SIGTERM.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gapgraph" / "__init__.py").is_file():
        print(f"error: no gapgraph source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    rects, queries, batch = WORKLOADS[args.workload](rng)
    expected = reference_verdicts(rects, queries)
    check_endpoints(rng, rects, queries, expected)

    RUNS.mkdir(exist_ok=True)
    rundir = RUNS / f"{args.workload}-{os.getpid()}"
    rundir.mkdir()
    try:
        write_inputs(rundir, rects, queries, batch)
        result = run_worker(rundir, args.seconds, args.trace)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass  # another run still uses it

    pairs = [(got, expected) for got in result["online"]]
    pairs += [(got, expected[:batch]) for got in result["batch"] + [result["reload"]]]
    attempted, failed = count_failures(pairs)
    bad = property_checks(result, len(rects), batch)
    for line in bad:
        print(f"property check failed: {line}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
