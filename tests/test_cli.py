import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gapgraph.cli import main
from gapgraph.engine import Query
from gapgraph.store import load_index
from gapgraph.worldgen import gen_world, world_shapes
from gapgraph.worldio import (
    format_queries,
    format_world,
    parse_queries,
    parse_world,
)

from conftest import rect_list

ROOM_TEXT = """\
# room with a width-4 gap in the right wall
R 0 0 10 1
R 0 9 10 10
R 0 0 1 10
R 9 0 10 4
R 9 8 10 10
"""

#: The v6 index of the empty world (one region, no edges, a 5x5 cell grid).
EMPTY_INDEX = """\
gapgraph-index 6
candidates 0
obstacles 0
edges 0
"""

#: The labels and region count that v5 wrote after the edges.
V5_LABELS = """\
labels {labels}
regions {regions}
"""

#: The empty world in the v2 and v3 layouts, which held grid coordinates.
OLD_EMPTY_INDEX = """\
gapgraph-index {version}
candidates 0
obstacles 0
edges 0
gridx -2 0 2
gridy -2 0 2
labels 25 0
regions 1
links 0
"""

#: A v6 index of the boxes [0,1]x[0,1] and [2,3]x[0,1], whose one gap edge
#: is given as its obstacle pair.
GAP_INDEX = """\
gapgraph-index 6
candidates 1
obstacles 2
0 0 2 2
4 0 6 2
edges 1
{edge}
"""

#: GAP_INDEX's cell labels as v5 stored them (seal node 1 in the gap).
GAP_LABELS = "16 0 3 -1 4 0 3 -1 4 0 3 -1 4 0 3 1 4 0 3 -1 4 0 3 -1 4 0 3 -1 16 0"

#: A v6 index of the touching boxes [0,1]x[0,1] and [1,2]x[0,1] that lists
#: their pair as an edge.
TOUCHING_INDEX = """\
gapgraph-index 6
candidates 1
obstacles 2
0 0 2 2
2 0 4 2
edges 1
0 1
"""

#: The v6 index of `R 0 0 2 2` (a 7x7 cell grid).
BOX_INDEX = """\
gapgraph-index 6
candidates 0
obstacles 1
0 0 4 4
edges 0
"""

#: A v6 index of a room sealed by four walls (R 0 0 10 1, R 0 9 10 10,
#: R 0 0 1 10, R 9 0 10 10): region 0 outside, region 1 the one cell inside.
SEALED_INDEX = """\
gapgraph-index 6
candidates 2
obstacles 4
0 0 20 2
0 18 20 20
0 0 2 20
18 0 20 20
edges 0
"""

#: SEALED_INDEX's cell labels as v5 stored them, with the inside cell's.
SEALED_LABELS = "24 0 7 -1 4 0 7 -1 4 0 7 -1 4 0 3 -1 {inside} 3 -1 4 0 7 -1 4 0 7 -1 4 0 7 -1 24 0"


class TestWorldIO:
    def test_round_trip(self):
        shapes = parse_world(ROOM_TEXT)
        assert len(shapes) == 5
        assert parse_world(format_world(shapes)) == shapes

    def test_polygon_record(self):
        shapes = parse_world("P 6 0 0 2 0 2 1 1 1 1 2 0 2\n")
        assert shapes == [("poly", [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_world("R 0 0 1 1\nR 0 0 1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_world("X 1 2 3 4\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_queries("# hi\nQ 0 0 1 1 1\nQ 0 0 1 1 0\n")

    def test_query_doubling(self):
        (q,) = parse_queries("Q 1 2 3 4 5\n")
        assert q == Query((2, 4), (6, 8), 10)
        assert parse_queries(format_queries([(1, 2, 3, 4, 5)])) == [q]


class TestGenerators:
    def test_deterministic_per_seed(self):
        assert gen_world("uniform", 80, 7) == gen_world("uniform", 80, 7)
        assert gen_world("maze", 80, 7) == gen_world("maze", 80, 7)
        assert gen_world("uniform", 80, 7) != gen_world("uniform", 80, 8)

    def test_uniform_counts(self):
        shapes = world_shapes("uniform", 100, 3)
        assert len(shapes) == 100
        assert all(k == "rect" and r[0] < r[2] and r[1] < r[3] for k, r in shapes)

    def test_maze_has_touching_pair(self):
        from gapgraph.geometry import gaps, ingest_world

        obs = rect_list(ingest_world(world_shapes("maze", 50, 1)))
        touching = any(
            max(gaps(a, b)) == 0
            for i, a in enumerate(obs)
            for b in obs[i + 1 :]
        )
        assert touching

    @pytest.mark.parametrize("n, seed", [(200, 11), (150, 3)])  # the second has top-ups
    def test_maze_side_1_robot_reaches_every_chamber(self, n, seed):
        # A later wall across an earlier door, or a top-up block in one,
        # would cut a chamber off.
        from gapgraph.engine import Verdict
        from gapgraph.geometry import ingest_world, placement_free
        from gapgraph.oracle import oracle_feasible

        shapes = world_shapes("maze", n, seed)
        obs = ingest_world(shapes)
        side = max(r[2] for _, r in shapes) - 1  # the outer walls enclose [0, side]^2
        rng = random.Random(13)
        # centres of unit cells, in half-units
        cells = [
            (2 * rng.randrange(side) + 1, 2 * rng.randrange(side) + 1) for _ in range(400)
        ]
        free = [p for p in cells if placement_free(p, 2, obs)]
        assert len(free) >= 100
        hub = free[0]
        for p in free[1:]:
            assert oracle_feasible(obs, hub, p, 2) is Verdict.FEASIBLE, p

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            world_shapes("swirl", 5, 0)


@pytest.fixture
def room(tmp_path):
    world = tmp_path / "room.txt"
    world.write_text(ROOM_TEXT)
    return world


class TestCli:
    def test_build_reports_counts(self, room, tmp_path, capsys):
        out = tmp_path / "room.idx"
        assert main(["build", str(room), "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "obstacles 5" in printed
        assert "regions 2" in printed

    def test_build_empty_world(self, tmp_path, capsys):
        world = tmp_path / "empty.txt"
        world.write_text("# nothing\n")
        assert main(["build", str(world), "-o", str(tmp_path / "e.idx")]) == 0
        assert "obstacles 0" in capsys.readouterr().out

    def test_build_parse_error_exits_1(self, tmp_path, capsys):
        world = tmp_path / "bad.txt"
        world.write_text("R 1 2 3\n")
        assert main(["build", str(world), "-o", str(tmp_path / "x.idx")]) == 1

    def test_query_verdicts_in_order(self, room, tmp_path, capsys):
        idx = tmp_path / "room.idx"
        main(["build", str(room), "-o", str(idx)])
        capsys.readouterr()
        queries = tmp_path / "q.txt"
        queries.write_text(
            "Q 5 5 15 5 4\nQ 5 5 15 5 5\nQ 0 0 15 5 1\nQ 5 5 5 5 1\n"
        )
        assert main(["query", str(idx), str(queries)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["FEASIBLE", "INFEASIBLE", "INVALID_START", "FEASIBLE"]

    def test_query_prints_each_scalar_verdict_on_its_own_line(self, tmp_path, capsys):
        # The bytes that print(index.feasible(q).value) per query gave; an
        # empty query file prints nothing.
        world = tmp_path / "maze.txt"
        world.write_text(gen_world("maze", 60, 5))
        idx = tmp_path / "maze.idx"
        assert main(["build", str(world), "-o", str(idx)]) == 0
        rng = random.Random(57)
        text = format_queries(
            [(*(rng.randint(-5, 45) for _ in range(4)), rng.randint(1, 4)) for _ in range(300)]
        )
        queries = tmp_path / "q.txt"
        queries.write_text(text)
        index = load_index(str(idx))
        want = "".join(f"{index.feasible(q).value}\n" for q in parse_queries(text))
        assert len(set(want.split())) == 4  # every kind of verdict
        capsys.readouterr()
        assert main(["query", str(idx), str(queries)]) == 0
        assert capsys.readouterr().out == want
        queries.write_text("# gapgraph queries v1\n")
        assert main(["query", str(idx), str(queries)]) == 0
        assert capsys.readouterr().out == ""

    def test_gen_writes_file(self, tmp_path):
        out = tmp_path / "w.txt"
        assert main(["gen", "--kind", "maze", "-n", "40", "--seed", "2", "-o", str(out)]) == 0
        assert len(parse_world(out.read_text())) == 40

    def test_verify_agreement(self, room, capsys):
        assert main(["verify", str(room), "--random", "60", "--seed", "4"]) == 0
        assert "60/60 agree" in capsys.readouterr().out

    def test_verify_empty_world(self, tmp_path, capsys):
        world = tmp_path / "empty.txt"
        world.write_text("")
        assert main(["verify", str(world), "--random", "10"]) == 0
        assert "10/10 agree" in capsys.readouterr().out

    def test_verify_fault_injection_dumps_repro(self, room, tmp_path, capsys):
        dump = tmp_path / "repro.txt"
        code = main(
            [
                "verify",
                str(room),
                "--random",
                "80",
                "--seed",
                "4",
                "--inject-fault",
                "--dump",
                str(dump),
            ]
        )
        assert code == 2
        assert dump.exists()
        body = dump.read_text()
        assert "engine=" in body and "R " in body

    @pytest.mark.parametrize("argv", [["gen", "-n", "abc"], ["verify"]])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--random" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_verify_random_below_1_exits_1(self, room, count, capsys):
        assert main(["verify", str(room), "--random", count]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "agree" not in captured.out

    @pytest.mark.parametrize("value, code", [(2**62, 1), (2**60, 0)])
    def test_build_coordinate_domain(self, value, code, tmp_path, capsys):
        world = tmp_path / "far.txt"
        world.write_text(f"R {value - 1} 0 {value} 1\nR {-value} -1 {1 - value} 0\n")
        assert main(["build", str(world), "-o", str(tmp_path / "far.idx")]) == code
        if code:
            assert capsys.readouterr().err.startswith("error: ")

    def test_query_coordinate_domain(self, tmp_path, capsys):
        world = tmp_path / "far.txt"
        world.write_text(f"R 0 0 {2**60} 1\n")
        idx = tmp_path / "far.idx"
        assert main(["build", str(world), "-o", str(idx)]) == 0
        queries = tmp_path / "q.txt"
        edge = 2**60
        queries.write_text(
            f"Q {-edge} {-edge} {edge} {edge} {edge}\n"
            f"Q {edge // 2} 0 {edge} {edge} {edge}\n"
            "Q 0 9 5 9 1\n"
        )
        capsys.readouterr()
        assert main(["query", str(idx), str(queries)]) == 0
        verdicts = capsys.readouterr().out.split()
        assert verdicts == ["FEASIBLE", "INVALID_START", "FEASIBLE"]
        queries.write_text(f"Q 0 0 {2 * edge} 0 1\n")
        assert main(["query", str(idx), str(queries)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_query_file_exits_1(self, room, tmp_path, capsys):
        idx = tmp_path / "room.idx"
        main(["build", str(room), "-o", str(idx)])
        capsys.readouterr()
        assert main(["query", str(idx), str(tmp_path / "none.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_rejected_world_exits_1(self, tmp_path, capsys):
        world = tmp_path / "flat.txt"
        world.write_text("R 0 0 0 5\n")
        assert main(["verify", str(world), "--random", "5"]) == 1
        assert capsys.readouterr().err == "error: input 0: degenerate extent\n"

    @pytest.mark.parametrize("command", ["query", "render"])
    @pytest.mark.parametrize(
        "content",
        [
            None,
            ROOM_TEXT,
            "gapgraph-index 1\nfault 0\ncandidates 0\n",
            OLD_EMPTY_INDEX.format(version=2),
            OLD_EMPTY_INDEX.format(version=3),
            "gapgraph-index 2\ncandidates 0\nobstacles 3\n0 0 0 2 2\n",
            "gapgraph-index 4\ncandidates 0\nobstacles 3\n0 0 2 2\n",
            "gapgraph-index 5\ncandidates 0\nobstacles 3\n0 0 2 2\n",
            "gapgraph-index 6\ncandidates 0\nobstacles 3\n0 0 2 2\n",
            # GAP_INDEX as v4 wrote it, with its labels and links sections
            GAP_INDEX.format(edge="0 1").replace("index 6", "index 4")
            + V5_LABELS.format(labels=GAP_LABELS, regions=1)
            + "links 1\n0 1 2\n",
            # GAP_INDEX as v5 wrote it, with its labels section
            GAP_INDEX.format(edge="0 1").replace("index 6", "index 5")
            + V5_LABELS.format(labels=GAP_LABELS, regions=1),
            # v6 stores no labels: a labels section after the edges is a
            # trailing line, so none of these forged labels is read
            EMPTY_INDEX + "labels 25 0\n",
            # the centre cell names node 1, a seal of an edge that is not there
            EMPTY_INDEX + V5_LABELS.format(labels="12 0 1 1 12 0", regions=1),
            EMPTY_INDEX + V5_LABELS.format(labels="25 4294967296", regions=1),
            EMPTY_INDEX + V5_LABELS.format(labels=f"{2**40} 0", regions=1),
            # two regions in one label run: region 1 owns no cell
            EMPTY_INDEX + V5_LABELS.format(labels="25 0", regions=2),
            # the room's inside labelled as the outside: a start inside
            # would reach the outside
            SEALED_INDEX + V5_LABELS.format(labels=SEALED_LABELS.format(inside="1 0"), regions=2),
            # the counts sum to 2**64 + 25, which int64 would wrap to 25
            EMPTY_INDEX + V5_LABELS.format(labels=f"{2**62} 0 " * 4 + "25 0", regions=1),
            # the box's cells labelled free: a start inside it would be valid
            BOX_INDEX + V5_LABELS.format(labels="49 0", regions=1),
            # a wall on the empty world's centre cell
            EMPTY_INDEX + V5_LABELS.format(labels="12 0 1 -1 12 0", regions=1),
            GAP_INDEX.format(edge="0 2"),  # obstacle 2 does not exist
            TOUCHING_INDEX,
            # beyond the ingest bound of 2**61 half-units, where int64 wraps
            GAP_INDEX.format(edge="0 1").replace("4 0 6 2", f"4 0 {2**62} 2"),
            GAP_INDEX.format(edge="0 1").replace("0 0 2 2", f"{-2**62} 0 2 2"),
            GAP_INDEX.format(edge="0 1").replace("4 0 6 2", "4 0 6 2 #"),
            GAP_INDEX.format(edge="0 1").replace("4 0 6 2", "4 0 4 2"),
            EMPTY_INDEX.replace("obstacles 0", "obstacles -1"),
            EMPTY_INDEX.replace("candidates", "whatever"),
            EMPTY_INDEX + "garbage\n",
        ],
        ids=[
            "missing",
            "not-an-index",
            "v1-index",
            "v2-index",
            "v3-index",
            "truncated-v2",
            "truncated-v4",
            "truncated-v5",
            "truncated-v6",
            "v4-index",
            "v5-index",
            "labels-section",
            "label-out-of-range",
            "label-overflow",
            "label-run-overflow",
            "regions-beyond-runs",
            "region-without-cell",
            "label-run-wrap",
            "walls-unlabelled",
            "wall-on-free-cell",
            "edge-out-of-range",
            "edge-no-passage",
            "coordinate-beyond-bound",
            "negative-coordinate-beyond-bound",
            "coordinate-comment",
            "degenerate-obstacle",
            "negative-count",
            "misnamed-sections",
            "trailing-line",
        ],
    )
    def test_unreadable_index_exits_1(self, command, content, tmp_path, capsys):
        idx = tmp_path / "x.idx"
        if content is not None:
            idx.write_text(content)
        queries = tmp_path / "q.txt"
        queries.write_text("Q 0 0 1 1 1\n")
        if command == "query":
            args = ["query", str(idx), str(queries)]
        else:
            args = ["render", str(idx), "-o", str(tmp_path / "x.svg")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(idx) in err

    @pytest.mark.parametrize(
        "links",
        [
            ["0 2 100", "1 2 100"],  # the gap admits 8 half-units, not 100
            ["0 2 8", "0 1 8"],  # regions never link to each other
            ["2 0 8", "1 2 8"],
            ["0 2 8", "1 3 8"],  # there is no node 3
        ],
        ids=["capacity", "region-to-region", "out-of-order", "out-of-range"],
    )
    def test_edited_room_links_exit_1(self, links, room, tmp_path, capsys):
        # A v6 file holds no links: the index derives the room's two, each
        # region to the gap's seal, node 2, at capacity 8, so this side-5
        # query is INFEASIBLE.  A links section written after the edges
        # (as v4 had one, here edited) is rejected, never replayed.
        idx = tmp_path / "room.idx"
        assert main(["build", str(room), "-o", str(idx)]) == 0
        queries = tmp_path / "q.txt"
        queries.write_text("Q 5 5 15 5 5\n")
        capsys.readouterr()
        assert main(["query", str(idx), str(queries)]) == 0
        assert capsys.readouterr().out == "INFEASIBLE\n"
        text = idx.read_text()
        assert text.endswith("edges 1\n3 4\n") and "links" not in text
        idx.write_text(text + "links 2\n" + "\n".join(links) + "\n")
        assert main(["query", str(idx), str(queries)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trailing lines" in err

    @pytest.mark.parametrize(
        "content, labels",
        [
            (EMPTY_INDEX, "25 0"),
            (GAP_INDEX.format(edge="0 1"), GAP_LABELS),
            (BOX_INDEX, "16 0 3 -1 4 0 3 -1 4 0 3 -1 16 0"),
            (SEALED_INDEX, SEALED_LABELS.format(inside="1 1")),
        ],
        ids=["empty", "gap", "box", "sealed"],
    )
    def test_index_fixtures_load(self, content, labels, tmp_path, capsys):
        # The files that test_unreadable_index_exits_1 edits load unedited,
        # and rebuild the cell labels that v5 stored for them.
        idx = tmp_path / "x.idx"
        idx.write_text(content)
        counts, label = np.array(labels.split(), dtype=np.int64).reshape(-1, 2).T
        assert np.array_equal(load_index(str(idx)).partition.labels.ravel(), np.repeat(label, counts))
        queries = tmp_path / "q.txt"
        queries.write_text("Q -3 -3 9 -3 1\n")
        assert main(["query", str(idx), str(queries)]) == 0
        assert capsys.readouterr().out == "FEASIBLE\n"

    @pytest.mark.parametrize("command", ["build", "gen", "render", "verify"])
    def test_output_in_missing_directory_exits_1(self, command, room, tmp_path, capsys):
        idx = tmp_path / "room.idx"
        assert main(["build", str(room), "-o", str(idx)]) == 0
        out = tmp_path / "missing" / "out"
        args = {
            "build": ["build", str(room), "-o", str(out)],
            "gen": ["gen", "-n", "5", "-o", str(out)],
            "render": ["render", str(idx), "-o", str(out)],
            "verify": [
                "verify", str(room), "--random", "80", "--seed", "4",
                "--inject-fault", "--dump", str(out),
            ],
        }[command]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert not out.parent.exists()

    def test_render_room(self, room, tmp_path):
        idx = tmp_path / "room.idx"
        main(["build", str(room), "-o", str(idx)])
        svg = tmp_path / "room.svg"
        assert main(["render", str(idx), "-o", str(svg), "--show-pathways"]) == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        fills = {
            el.get("fill")
            for el in root.iter()
            if el.tag.endswith("rect") and el.get("fill", "").startswith("#")
        }
        assert len(fills) >= 3  # two region colors plus obstacle gray

    def test_render_empty_world(self, tmp_path):
        world = tmp_path / "empty.txt"
        world.write_text("")
        idx = tmp_path / "empty.idx"
        main(["build", str(world), "-o", str(idx)])
        svg = tmp_path / "empty.svg"
        assert main(["render", str(idx), "-o", str(svg)]) == 0
        ET.fromstring(svg.read_text())

    def test_render_deterministic(self, tmp_path):
        world = tmp_path / "w.txt"
        world.write_text(gen_world("maze", 60, 9))
        idx = tmp_path / "w.idx"
        main(["build", str(world), "-o", str(idx)])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", str(idx), "-o", str(a)])
        main(["render", str(idx), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_render_maze_snapshot(self, tmp_path):
        import hashlib
        from pathlib import Path

        from gapgraph.engine import build_index
        from gapgraph.render import render_svg
        from gapgraph.worldgen import world_shapes

        svg = render_svg(build_index(world_shapes("maze", 200, 11)))
        ET.fromstring(svg)  # well-formed, no stray markup
        golden = Path(__file__).parent / "data" / "maze200.svg.sha256"
        assert hashlib.sha256(svg.encode("ascii")).hexdigest() == golden.read_text().strip()

    def test_build_maze_500_candidate_bound(self, tmp_path, capsys):
        world = tmp_path / "m500.txt"
        world.write_text(gen_world("maze", 500, 12))
        assert main(["build", str(world), "-o", str(tmp_path / "m500.idx")]) == 0
        printed = capsys.readouterr().out
        candidates = int(printed.split("candidates ")[1].split()[0])
        assert candidates <= 4000
