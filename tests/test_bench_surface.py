"""The program surface that perfbench/ looks up by name.

The benchmark wraps these module globals and class attributes in timing
spans and skips any name it cannot find, so a rename would silently zero a
per-layer metric instead of failing.  These tests fail first.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from gapgraph import cli, dsu, engine, partition
from gapgraph.engine import FeasibilityIndex, Query, Verdict
from gapgraph.store import save_index

ROOT = Path(__file__).resolve().parent.parent
ROOM = [
    ("rect", (0, 0, 10, 1)),
    ("rect", (0, 9, 10, 10)),
    ("rect", (0, 0, 1, 10)),
    ("rect", (9, 0, 10, 4)),
    ("rect", (9, 8, 10, 10)),
]
BUILD_STAGES = ("ingest_world", "build_candidates", "relevance_filter", "build_partition", "seal_links")


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


def test_build_stages_are_engine_globals(monkeypatch):
    calls = {}
    for name in ("build_index", *BUILD_STAGES):
        _counting(monkeypatch, engine, name, calls)
    _counting(monkeypatch, FeasibilityIndex, "__post_init__", calls)
    index = engine.build_index(ROOM)
    assert isinstance(index, FeasibilityIndex)
    assert calls == dict.fromkeys(("build_index", *BUILD_STAGES, "__post_init__"), 1)


def test_stage_lengths_are_row_counts(monkeypatch):
    # The tracer records len() of these stages' results as per-layer
    # counts, and the worker JSON-encodes candidate_count and dsu.n.
    results = {}
    for name in ("build_candidates", "relevance_filter", "seal_links"):
        original = getattr(engine, name)

        def keep(*args, _name=name, _original=original):
            results[_name] = _original(*args)
            return results[_name]

        monkeypatch.setattr(engine, name, keep)
    index = engine.build_index(ROOM)
    candidates, edges, links = (
        results[name] for name in ("build_candidates", "relevance_filter", "seal_links")
    )
    assert len(candidates) == candidates.shape[0] > 0 and candidates.shape[1] == 2
    assert len(edges) == edges.pairs.shape[0] == edges.capacity.shape[0] == edges.rect.shape[1] > 0
    assert len(links) == links.shape[0] > 0 and links.shape[1] == 3
    assert type(index.candidate_count) is int and index.candidate_count == len(candidates)
    assert type(index.dsu.n) is int


def test_index_attributes():
    index = engine.build_index(ROOM)
    assert isinstance(index.candidate_count, int)
    assert index.dsu.n == index.partition.region_count + len(index.edges)
    part = index.partition
    assert isinstance(part, partition.RegionPartition)
    assert isinstance(part.labels, np.ndarray) and part.labels.size > 0
    assert isinstance(part.region_count, int)
    assert 0 <= part.locate((10, 10)) == part.locate((12, 12)) < part.region_count
    q = Query((10, 10), (30, 10), 8)
    verdict, hops = index.feasible_with_stats(q)
    assert index.feasible(q) is verdict is Verdict.FEASIBLE
    assert isinstance(hops, int) and hops > 0
    assert index.placement_free((10, 10), 8)
    assert isinstance(index.threshold_timestamp(8), int)
    assert callable(FeasibilityIndex._straddling_node)


def test_query_path_goes_through_traced_names(monkeypatch):
    index = engine.build_index(ROOM)
    calls = {}
    for name in ("placement_free", "_straddling_node", "threshold_timestamp", "feasible"):
        _counting(monkeypatch, FeasibilityIndex, name, calls)
    _counting(monkeypatch, partition.RegionPartition, "locate", calls)
    _counting(monkeypatch, dsu.PersistentDsu, "connected_with_hops", calls)
    assert index.feasible(Query((10, 10), (30, 10), 8)) is Verdict.FEASIBLE
    assert calls == {
        "feasible": 1,
        "placement_free": 2,
        "locate": 2,
        "threshold_timestamp": 1,
        "connected_with_hops": 1,
    }
    ok, hops = index.dsu.connected_with_hops(0, 1, len(index.links))
    assert isinstance(ok, bool) and isinstance(hops, int)


def test_cli_query_reads_through_module_globals(monkeypatch, tmp_path, capsys):
    path = tmp_path / "room.idx"
    save_index(engine.build_index(ROOM), str(path))
    queries = tmp_path / "q.txt"
    queries.write_text("Q 5 5 15 5 4\nQ 5 5 15 5 5\n")
    calls = {}
    _counting(monkeypatch, cli, "load_index", calls)
    _counting(monkeypatch, cli, "parse_queries", calls)
    assert cli.main(["query", str(path), str(queries)]) == 0
    assert capsys.readouterr().out.split() == ["FEASIBLE", "INFEASIBLE"]
    assert calls == {"load_index": 1, "parse_queries": 1}


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
