"""Run the program on one workload's generated inputs and time it.

    python3 perfbench/worker.py RUNDIR --seconds S --trace 0|1

run.py starts this in a fresh process, so the peak memory it reads belongs
to the program's work alone and not to the benchmark's generators or
reference.  It reads RUNDIR/world.txt, RUNDIR/queries.txt (every query) and
RUNDIR/batch.txt (the batch file), calls the program's public functions,
and writes RUNDIR/result.json: the metrics plus every verdict the program
gave, which run.py checks against the reference.  This process never sees
a reference verdict.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gapgraph  # noqa: E402
from gapgraph import cli, dsu, engine, partition, store, worldio  # noqa: E402
from gapgraph.engine import Query  # noqa: E402

from reference import CODE  # noqa: E402
from spans import Tracer  # noqa: E402

#: Passes of build, loads, online queries, CLI batch and loads per run.
CYCLES = 4
#: Loads at each of the two points of a pass: a load is a short sample.
LOADS = 2
#: Online calls per window; every query set is a whole number of windows.
WINDOW = 5000
MB = 1e6


def setup(text: str):
    """The user's one-off cost: parse the world text and build the index."""
    t0 = perf_counter()
    index = engine.build_index(worldio.parse_world(text))
    return index, perf_counter() - t0


def read_queries(path: Path) -> list[Query]:
    """The benchmark's own reader for `Q sx sy tx ty d` lines (the
    program's parse_queries is measured inside the CLI batch instead)."""
    out = []
    for line in path.read_text().splitlines():
        if line.startswith("Q "):
            sx, sy, tx, ty, d = (int(v) for v in line.split()[1:])
            out.append(Query((2 * sx, 2 * sy), (2 * tx, 2 * ty), 2 * d))
    return out


def online_pass(index, queries, seconds: float, rounds: int | None = None):
    """Whole rounds over `queries`, one timed feasible() call at a time,
    until `seconds` have passed (or for exactly `rounds` rounds).  Returns
    every window of WINDOW consecutive calls as (latencies in ns, seconds
    it took), and the verdicts of each round."""
    feasible = index.feasible
    chunks = [queries[k : k + WINDOW] for k in range(0, len(queries), WINDOW)]
    windows, rounds_out = [], []
    gc.collect()
    start = perf_counter()
    while len(rounds_out) != rounds:
        answers = []
        for chunk in chunks:
            latencies: list[int] = []
            t_window = perf_counter()
            for q in chunk:
                t0 = perf_counter_ns()
                v = feasible(q)
                latencies.append(perf_counter_ns() - t0)
                answers.append(v)
            windows.append((latencies, perf_counter() - t_window))
        rounds_out.append(answers)
        if rounds is None and perf_counter() - start >= seconds:
            break
    return windows, ["".join(CODE[v.value] for v in answers) for answers in rounds_out]


def cli_batch(index_path: str, batch_path: str):
    """`gapgraph query INDEX QUERIES` in-process, stdout captured."""
    buf = io.StringIO()
    gc.collect()
    t0 = perf_counter()
    with redirect_stdout(buf):
        rc = cli.main(["query", index_path, batch_path])
    elapsed = perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"gapgraph query exited {rc}")
    return elapsed, "".join(CODE[w] for w in buf.getvalue().split())


def reload_check(index, queries):
    """Verdicts of a reloaded index, the most DSU hops any query took, and
    the number of DSU nodes."""
    out, hops_max = [], 0
    for q in queries:
        v, hops = index.feasible_with_stats(q)
        out.append(v)
        hops_max = max(hops_max, hops)
    return "".join(CODE[v.value] for v in out), hops_max, index.dsu.n


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(rundir: Path, seconds: float) -> dict:
    """End-to-end metrics.  The run makes CYCLES passes of build, loads,
    online queries, CLI batch and loads, so that the samples of every metric
    are spread over the whole run, and reports the median of each metric's
    samples: of all online calls for query_p50_us, of the windows of
    WINDOW calls for query_p99_us."""
    text = (rundir / "world.txt").read_text()
    index_path = str(rundir / "world.idx")
    setup_times, load_times, batch_times = [], [], []
    latencies: list[int] = []
    window_p99, online_s = [], 0.0
    online, batch = [], []
    peak_rss_mb = candidates = reload = hops_max = dsu_nodes = None

    def load():
        for _ in range(LOADS):
            loaded = None
            gc.collect()
            t0 = perf_counter()
            loaded = store.load_index(index_path)
            load_times.append(perf_counter() - t0)
        return loaded

    for cycle in range(CYCLES):
        index = None
        gc.collect()
        index, dt = setup(text)
        setup_times.append(dt)
        if cycle == 0:
            # Read before any query, copy or check can raise it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
            candidates = index.candidate_count
            store.save_index(index, index_path)
            queries = read_queries(rundir / "queries.txt")
            batch_queries = read_queries(rundir / "batch.txt")
        loaded = load()
        if cycle == 0:
            reload, hops_max, dsu_nodes = reload_check(loaded, batch_queries)
        loaded = None
        windows, verdicts = online_pass(index, queries, seconds / CYCLES)
        for lat, dt in windows:
            latencies += lat
            window_p99.append(quantile(lat, 0.99))
            online_s += dt
        online += verdicts
        dt, verdicts = cli_batch(index_path, str(rundir / "batch.txt"))
        batch_times.append(dt)
        batch.append(verdicts)
        load()

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "build_peak_rss_mb": (peak_rss_mb, "MB"),
        "index_mb": (os.path.getsize(index_path) / MB, "MB"),
        "load_s": (statistics.median(load_times), "s"),
        "query_p50_us": (statistics.median(latencies) / 1e3, "us"),
        # Per window, so that one disturbed spell moves few of the samples.
        "query_p99_us": (statistics.median(window_p99) / 1e3, "us"),
        "query_per_s": (len(latencies) / online_s, "1/s"),
        "batch_s": (statistics.median(batch_times), "s"),
    }
    return {
        "metrics": metrics,
        "online": online,
        "batch": batch,
        "reload": reload,
        "hops_max": hops_max,
        "dsu_nodes": dsu_nodes,
        "candidates": candidates,
    }


def setup_spans(tr: Tracer, counts: dict) -> None:
    """Spans on every stage of the build, by the names engine looks up."""

    def keep(name, fn):
        return lambda result: counts.__setitem__(name, fn(result))

    def partition_counts(p):
        counts["partition.grid_cells"] = getattr(getattr(p, "labels", None), "size", 0)
        counts["partition.regions"] = getattr(p, "region_count", 0)

    tr.patch(worldio, "parse_world", "worldio.parse_world_s")
    tr.patch(engine, "build_index", "engine.build_self_s")
    tr.patch(engine, "ingest_world", "geometry.ingest_s")
    tr.patch(engine, "build_candidates", "sweep.candidates_s", keep("sweep.candidates", len))
    tr.patch(engine, "relevance_filter", "sweep.filter_s", keep("sweep.edges", len))
    tr.patch(engine, "build_partition", "partition.build_s", partition_counts)
    tr.patch(engine, "build_dual_graph", "partition.dual_s")
    tr.patch(engine, "seal_links", "partition.links_s", keep("partition.links", len))
    tr.patch(engine.FeasibilityIndex, "__post_init__", "engine.replay_s")


def trace(rundir: Path, seconds: float) -> dict:
    """Per-layer self times, counts and stage peak memory, each measured
    next to an untraced run of the same work in this process."""
    text = (rundir / "world.txt").read_text()
    counts: dict[str, float] = {}
    # The first build in a process pays for cold caches and fresh memory, so
    # the untraced time is the mean of one build before the traced one and
    # one after it.
    gc.collect()
    _, plain_before = setup(text)
    tr = Tracer()
    setup_spans(tr, counts)
    gc.collect()
    _, traced_setup = setup(text)
    tr.restore()
    setup_self = dict(tr.self_s)
    gc.collect()
    _, plain_after = setup(text)
    plain_setup = (plain_before + plain_after) / 2

    tr = Tracer(memory=("sweep.candidates_s", "partition.build_s"))
    setup_spans(tr, counts)
    gc.collect()
    index, _ = setup(text)
    tr.restore()
    peaks = dict(tr.peak_bytes)

    index_path = str(rundir / "world.idx")
    t0 = perf_counter()
    store.save_index(index, index_path)
    save_s = perf_counter() - t0

    tr = Tracer()
    tr.patch(cli, "load_index", "store.load_s")
    tr.patch(cli, "parse_queries", "worldio.parse_queries_s")
    main = tr.wrap("cli.answer_s", cli.main)
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["query", index_path, str(rundir / "batch.txt")])
    tr.restore()
    batch = "".join(CODE[w] for w in buf.getvalue().split())
    batch_self = dict(tr.self_s)

    queries = read_queries(rundir / "queries.txt")
    plain, plain_verdicts = online_pass(index, queries, seconds / 2)
    hops: list[int] = []
    tr = Tracer()
    tr.patch(engine.FeasibilityIndex, "feasible", "engine.query_self")
    tr.patch(engine.FeasibilityIndex, "placement_free", "engine.placement")
    tr.patch(partition.RegionPartition, "locate", "partition.locate")
    tr.patch(engine.FeasibilityIndex, "_straddling_node", "engine.straddle")
    tr.patch(engine.FeasibilityIndex, "threshold_timestamp", "engine.threshold")
    tr.patch(
        dsu.PersistentDsu,
        "connected_with_hops",
        "dsu.connected",
        lambda r: hops.append(r[1]) if isinstance(r, tuple) else None,
    )
    traced, traced_verdicts = online_pass(index, queries, 0, len(plain_verdicts))
    tr.restore()
    n_calls = len(queries) * len(traced_verdicts)
    per_query = {k: v / n_calls * 1e6 for k, v in tr.self_s.items()}
    hops = hops or [0]

    batch_queries = read_queries(rundir / "batch.txt")
    reload, hops_max, dsu_nodes = reload_check(store.load_index(index_path), batch_queries)

    def s(name):
        return (setup_self.get(name, 0.0), "s")

    def us(name):
        return (per_query.get(name, 0.0), "us")

    plain_us = sum(dt for _, dt in plain) / n_calls * 1e6
    traced_us = sum(dt for _, dt in traced) / n_calls * 1e6
    cands = counts.get("sweep.candidates", 0)
    metrics = {
        "worldio.parse_world_s": s("worldio.parse_world_s"),
        "worldio.parse_queries_s": (batch_self.get("worldio.parse_queries_s", 0.0), "s"),
        "geometry.ingest_s": s("geometry.ingest_s"),
        "sweep.candidates_s": s("sweep.candidates_s"),
        "sweep.candidates": (cands, "count"),
        "sweep.candidates_peak_mb": (peaks.get("sweep.candidates_s", 0) / MB, "MB"),
        "sweep.filter_s": s("sweep.filter_s"),
        "sweep.edges": (counts.get("sweep.edges", 0), "count"),
        "sweep.edges_per_candidate": (counts.get("sweep.edges", 0) / max(cands, 1), "ratio"),
        "partition.build_s": s("partition.build_s"),
        "partition.grid_cells": (counts.get("partition.grid_cells", 0), "count"),
        "partition.regions": (counts.get("partition.regions", 0), "count"),
        "partition.build_peak_mb": (peaks.get("partition.build_s", 0) / MB, "MB"),
        "partition.dual_s": s("partition.dual_s"),
        "partition.links_s": s("partition.links_s"),
        "partition.links": (counts.get("partition.links", 0), "count"),
        "engine.replay_s": s("engine.replay_s"),
        "engine.build_self_s": s("engine.build_self_s"),
        "store.save_s": (save_s, "s"),
        "store.load_s": (batch_self.get("store.load_s", 0.0), "s"),
        "cli.answer_s": (batch_self.get("cli.answer_s", 0.0), "s"),
        "engine.placement_us": us("engine.placement"),
        "partition.locate_us": us("partition.locate"),
        "engine.threshold_us": us("engine.threshold"),
        "engine.straddle_us": us("engine.straddle"),
        "dsu.connected_us": us("dsu.connected"),
        "engine.query_self_us": us("engine.query_self"),
        "dsu.hops_p50": (statistics.median(hops), "count"),
        "dsu.hops_max": (max(hops), "count"),
        "engine.queries": (n_calls, "count"),
        "engine.straddle_remaps": (tr.calls["engine.straddle"], "count"),
        "engine.dsu_queries": (tr.calls["dsu.connected"], "count"),
        "trace.setup_s": (plain_setup, "s"),
        "trace.setup_traced_s": (traced_setup, "s"),
        "trace.setup_overhead_s": (traced_setup - plain_setup, "s"),
        "trace.setup_layers_s": (sum(setup_self.values()), "s"),
        "trace.query_us": (plain_us, "us"),
        "trace.query_traced_us": (traced_us, "us"),
        "trace.query_overhead_us": (traced_us - plain_us, "us"),
        "trace.query_layers_us": (sum(per_query.values()), "us"),
    }
    return {
        "metrics": metrics,
        "online": plain_verdicts + traced_verdicts,
        "batch": [batch],
        "reload": reload,
        "hops_max": hops_max,
        "dsu_nodes": dsu_nodes,
        "candidates": index.candidate_count,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rundir", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    source = Path(gapgraph.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: gapgraph imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    result = (trace if args.trace else measure)(args.rundir, args.seconds)
    (args.rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
