"""Command-line interface.

Commands: build an index from a world file, run query batches, generate
worlds, cross-check the engine against the brute-force planner, and render
SVG snapshots.

Exit codes: 0 = ran, 1 = input or usage error, 2 = verification mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys

from .engine import FeasibilityIndex, Query, build_index
from .geometry import RawShape, ingest_world
from .oracle import oracle_feasible
from .render import render_svg
from .store import load_index, save_index
from .worldgen import gen_world
from .worldio import format_world, parse_queries, parse_world


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, parse):
    """parse(path); an unreadable or malformed file exits 1 with a message."""
    try:
        return parse(path)
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    except ValueError as exc:
        raise SystemExit(f"error: {path}: {exc}")


def _load_world(path: str) -> list[RawShape]:
    return _load(path, lambda p: parse_world(_read(p)))


def _load_queries(path: str) -> list[Query]:
    return _load(path, lambda p: parse_queries(_read(p)))


def _write(path: str, text: str) -> None:
    """Write text to path; an unwritable path exits 1 with a message."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"error: {exc}")


def _build(shapes: list[RawShape]) -> FeasibilityIndex:
    try:
        return build_index(shapes)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def inject_fault(index: FeasibilityIndex) -> FeasibilityIndex:
    """Give `index` a deliberate off-by-one (one external unit) in its
    threshold search, so `verify --inject-fault` shows a mismatch report."""
    exact = index.threshold_timestamp
    index.threshold_timestamp = lambda d: exact(d + 2)
    return index


def cmd_build(args: argparse.Namespace) -> int:
    index = _build(_load_world(args.world))
    try:
        save_index(index, args.out)
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"obstacles {len(index.obstacles)}")
    print(f"candidates {index.candidate_count}")
    print(f"edges {len(index.edges)}")
    print(f"regions {index.partition.region_count}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    index = _load(args.index, load_index)
    for q in _load_queries(args.queries):
        print(index.feasible(q).value)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        text = gen_world(args.kind, args.n, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _random_queries(
    rng: random.Random, shapes: list[RawShape], k: int
) -> list[Query]:
    xs = [v for kind, data in shapes for v in ([data[0], data[2]] if kind == "rect" else [p[0] for p in data])]
    ys = [v for kind, data in shapes for v in ([data[1], data[3]] if kind == "rect" else [p[1] for p in data])]
    lo_x, hi_x = (min(xs) - 3, max(xs) + 3) if xs else (-8, 8)
    lo_y, hi_y = (min(ys) - 3, max(ys) + 3) if ys else (-8, 8)
    out = []
    for _ in range(k):
        s = (rng.randint(2 * lo_x, 2 * hi_x), rng.randint(2 * lo_y, 2 * hi_y))
        t = (rng.randint(2 * lo_x, 2 * hi_x), rng.randint(2 * lo_y, 2 * hi_y))
        out.append(Query(s, t, 2 * rng.randint(1, 6)))
    return out


def _minimize(shapes, query, check):
    """Greedily drop obstacles while the engine/oracle disagreement persists."""
    current = list(shapes)
    changed = True
    while changed:
        changed = False
        for k in range(len(current)):
            trial = current[:k] + current[k + 1 :]
            if check(trial, query):
                current = trial
                changed = True
                break
    return current


def cmd_verify(args: argparse.Namespace) -> int:
    if args.random < 1:
        raise SystemExit(f"error: --random must be at least 1, got {args.random}")
    shapes = _load_world(args.world)
    rng = random.Random(args.seed)
    if args.queries:
        queries = _load_queries(args.queries)
    else:
        queries = _random_queries(rng, shapes, args.random)

    def build(shape_subset):
        idx = _build(shape_subset)
        return inject_fault(idx) if args.inject_fault else idx

    def disagrees(shape_subset, query):
        try:
            obs = ingest_world(shape_subset)
        except ValueError:
            return False
        idx = build(shape_subset)
        return idx.feasible(query) != oracle_feasible(obs, query.s, query.t, query.d)

    index = build(shapes)
    obstacles = index.obstacles
    agree = 0
    first_bad = None
    for q in queries:
        engine_v = index.feasible(q)
        oracle_v = oracle_feasible(obstacles, q.s, q.t, q.d)
        if engine_v == oracle_v:
            agree += 1
        elif first_bad is None:
            first_bad = (q, engine_v, oracle_v)
    print(f"{agree}/{len(queries)} agree")
    if first_bad is None:
        return 0
    q, engine_v, oracle_v = first_bad
    minimal = _minimize(shapes, q, disagrees)
    _write(
        args.dump,
        f"# engine={engine_v.value} oracle={oracle_v.value}\n"
        f"# query halfunits: s={q.s} t={q.t} d={q.d}\n" + format_world(minimal),
    )
    print(f"mismatch: engine={engine_v.value} oracle={oracle_v.value}", file=sys.stderr)
    print(f"minimized reproduction written to {args.dump}", file=sys.stderr)
    return 2


def cmd_render(args: argparse.Namespace) -> int:
    index = _load(args.index, load_index)
    svg = render_svg(
        index,
        show_regions=not args.no_regions,
        show_edges=not args.no_edges,
        show_pathways=args.show_pathways,
    )
    _write(args.out, svg)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapgraph",
        description="square-robot feasibility queries among rectangular obstacles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="preprocess a world file into an index")
    p.add_argument("world")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer a query file against an index")
    p.add_argument("index")
    p.add_argument("queries")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("gen", help="generate a world file")
    p.add_argument("--kind", choices=("uniform", "cluster", "maze"), default="uniform")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="cross-check engine verdicts against the oracle")
    p.add_argument("world")
    p.add_argument("--queries")
    p.add_argument("--random", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", default="gapgraph-repro.txt")
    p.add_argument("--inject-fault", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render an index to SVG")
    p.add_argument("index")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--show-pathways", action="store_true")
    p.add_argument("--no-regions", action="store_true")
    p.add_argument("--no-edges", action="store_true")
    p.set_defaults(func=cmd_render)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # a usage error; exit 2 here means a mismatch
            return 1
        raise
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
