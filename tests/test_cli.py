"""Command surface: output shapes, JSON round-trips, exit code families."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import krlab
from krlab import cli, qamod
from krlab.braid import parse
from krlab.cube import ChainComplexOfMF, build_complex
from krlab.poly import BudgetError, InvariantError
from krlab.qamod import GradedQaModule, SliceModule, Tail, two_stage_homology
from krlab.skein import evaluate, unlink_value


@pytest.fixture()
def runner():
    return CliRunner()


def module_from_json(doc: dict) -> GradedQaModule:
    """The module a krlab/1 document was written from."""
    if doc.get("schema") != "krlab/1":
        raise ValueError("unknown document schema")
    slices = {}
    for s in doc["slices"]:
        slices[(s["eps"], s["i"], s["x"])] = SliceModule(
            tuple(s["free"]), tuple((l, t) for l, t in s["torsion"])
        )
    tails = tuple(
        Tail(t["eps"], t["i"], t["start"],
             tuple((l, s, tuple(c)) for l, s, c in t["families"]))
        for t in doc["tail"]
    )
    return GradedQaModule(doc["n"], tuple(doc["window"]), slices, tails)


def run(runner, *args):
    return runner.invoke(cli.main, list(args))


def assert_one_line_failure(res, code):
    """Exit with the given code and one line on stderr, not a traceback."""
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)
    assert len(res.stderr.splitlines()) == 1


class TestHomologyCommand:
    def test_unknot_table_and_json(self, runner):
        res = run(runner, "homology", "--braid", "", "--strands", "1",
                  "--n", "2", "--xwindow", "10")
        assert res.exit_code == 0
        assert "(eps=1, i=0, x=-1): Q[a]{-1}" in res.output
        assert "tail (eps=1, i=0): Q[a]/(a^1){-1} every 2 from x=3" in res.output
        doc = json.loads(res.output.splitlines()[-1])
        assert doc["schema"] == "krlab/1"
        expected = two_stage_homology(build_complex(parse("", 1), 2), x_window=10)
        assert module_from_json(doc) == expected

    def test_json_round_trip(self, runner):
        res = run(runner, "homology", "--braid", "1 1", "--strands", "2",
                  "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        expected = two_stage_homology(build_complex(parse("1 1", 2), 1), x_window=20)
        assert module_from_json(doc) == expected
        keys = [(s["eps"], s["i"], s["x"]) for s in doc["slices"]]
        assert keys == sorted(keys)

    def test_comments_in_the_braid_text(self, runner):
        plain = run(runner, "homology", "--braid", "1 -1", "--strands", "2",
                    "--format", "json")
        commented = run(runner, "homology", "--braid", "1 -1 # cancels",
                        "--strands", "2", "--format", "json")
        assert commented.exit_code == 0
        assert commented.output == plain.output

    def test_empty_window_says_so(self, runner):
        res = run(runner, "homology", "--braid", "-1", "--strands", "2",
                  "--n", "2", "--xwindow", "2")
        assert res.exit_code == 0
        table, doc = res.output.splitlines()
        assert table == "0: the window x = -4..-2 holds no homology"
        assert json.loads(doc) == {"schema": "krlab/1", "n": 2, "window": [-4, -2],
                                   "slices": [], "tail": []}

    def test_expansion_over_the_cap_exits_two(self, runner, monkeypatch):
        C = build_complex(parse("1 1", 2), 1)
        size = qamod.expansion_size(C, 20 + 1 + 1)
        monkeypatch.setattr(qamod, "EXPANSION_BUDGET", size * qamod.VECTOR_BYTES - 1)
        res = run(runner, "homology", "--braid", "1 1")
        assert_one_line_failure(res, 2)
        assert f"width 20 needs an expansion of {size} basis vectors" in res.stderr

    def test_a_huge_window_is_refused_at_once(self):
        # the refusal counts the expansion in closed form, whatever the width
        src = str(Path(krlab.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-m", "krlab.cli", "homology", "--braid", "1",
             "--xwindow", str(10**9)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
        )
        assert res.returncode == 2
        [line] = res.stderr.splitlines()
        assert line.startswith("x-window width 1000000000 needs an expansion of ")
        assert line.endswith(f" MiB, over the budget of {qamod.EXPANSION_BUDGET >> 20} MiB")

    def test_out_of_memory_exits_five(self):
        resource = pytest.importorskip("resource")
        limit = 128 * 2**20

        def lower_limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(krlab.__file__).resolve().parents[1])
        # width 100 stays under EXPANSION_BUDGET but needs more than 128 MB
        res = subprocess.run(
            [sys.executable, "-m", "krlab.cli", "homology", "--braid", "1 1", "--xwindow", "100"],
            capture_output=True, text=True, preexec_fn=lower_limit,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert res.returncode == 5
        assert res.stderr.splitlines() == [
            "out of memory: the computation needs more than this process may use"
        ]

    def test_window_refusal_is_a_parse_error(self, runner):
        res = run(runner, "homology", "--braid", "", "--strands", "1",
                  "--xwindow", "-3")
        assert res.exit_code == 1


class TestSkeinCommand:
    def test_negative_unknot_series(self, runner):
        res = run(runner, "skein", "--braid", "-1", "--strands", "2",
                  "--alpha-max", "4", "--xi-max", "4")
        assert res.exit_code == 0
        assert "tau=+1:" in res.output and "tau=-1:" in res.output
        assert "alpha^-2 xi^0: -1 + 0 tau" in res.output

    def test_json_shape(self, runner):
        res = run(runner, "skein", "--braid", "", "--strands", "2",
                  "--format", "json")
        doc = json.loads(res.output)
        assert doc["schema"] == "krlab/1"
        assert doc["value"]["tau=+1"]
        assert all(len(row) == 4 for row in doc["series"])

    def test_budget_exhaustion_exits_two(self, runner, monkeypatch):
        def explode(word, n):
            raise BudgetError("irreducible positive word within budget")

        monkeypatch.setattr(cli, "evaluate", explode)
        res = run(runner, "skein", "--braid", "1", "--strands", "2")
        assert res.exit_code == 2


class TestBothCommand:
    def test_match_verdict(self, runner):
        res = run(runner, "both", "--braid", "-1", "--strands", "2")
        assert res.exit_code == 0
        assert "cross-check: MATCH" in res.output

    def test_json_carries_the_verdict(self, runner):
        res = run(runner, "both", "--braid", "", "--strands", "1",
                  "--format", "json")
        doc = json.loads(res.output)
        assert doc["cross_check"] == "MATCH"
        assert doc["skein"]["schema"] == "krlab/1"

    def test_default_window_is_the_least_confirmed_width(self, runner):
        res = run(runner, "both", "--braid", "1 1", "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["window"] == [0, 8]
        assert doc["cross_check"] == "MATCH"

    def test_explicit_window_keeps_its_meaning(self, runner):
        res = run(runner, "both", "--braid", "", "--strands", "1",
                  "--xwindow", "20", "--format", "json")
        assert res.exit_code == 0
        word = parse("", 1)
        expected = cli.module_json(two_stage_homology(build_complex(word, 1), x_window=20))
        expected["skein"] = cli._skein_json(evaluate(word, 1), 1, 12, 12)
        expected["cross_check"] = "MATCH"
        assert json.loads(res.output) == expected
        assert expected["window"] == [0, 20]

    def test_empty_window_is_refused_in_one_line(self, runner):
        res = run(runner, "both", "--braid", "-1", "--strands", "2",
                  "--n", "2", "--xwindow", "2")
        assert_one_line_failure(res, 1)
        assert "widen the window" in res.stderr

    def test_window_search_exhaustion_exits_two(self, runner, monkeypatch):
        monkeypatch.setattr(qamod, "AUTO_WIDTH_STEPS", 2)  # width 4 at n = 1
        res = run(runner, "both", "--braid", "1 1")
        assert_one_line_failure(res, 2)
        assert "x-window search exhausted" in res.stderr

    def test_search_stops_at_the_first_width_over_the_cap(self, runner, monkeypatch):
        C = build_complex(parse("1 1", 2), 1)
        size = qamod.expansion_size(C, 4 + 1 + 1)
        monkeypatch.setattr(qamod, "EXPANSION_BUDGET", size * qamod.VECTOR_BYTES - 1)
        res = run(runner, "both", "--braid", "1 1")
        assert_one_line_failure(res, 2)
        assert f"width 4 needs an expansion of {size} basis vectors" in res.stderr

    def test_mismatch_exits_three(self, runner, monkeypatch):
        monkeypatch.setattr(
            cli, "evaluate", lambda word, n: unlink_value(2, n)
        )
        res = run(runner, "both", "--braid", "", "--strands", "1")
        assert res.exit_code == 3
        assert "MISMATCH" in res.output


class TestGdimCommand:
    def test_builtin_circle(self, runner):
        res = run(runner, "gdim", "--graph", "circle", "--n", "2")
        assert res.exit_code == 0
        assert res.output.strip() == "tau*alpha^-1*xi^-1 + 1"

    def test_graph_file(self, runner, tmp_path):
        path = tmp_path / "circle.graph"
        path.write_text("v V\ne c 1 V V  # a loop\nm c x\n")
        res = run(runner, "gdim", "--graph", str(path), "--n", "2",
                  "--format", "json")
        doc = json.loads(res.output)
        assert doc["terms"] == [[0, 0, 0, 1], [1, -1, -1, 1]]

    def test_unknown_graph_exits_one(self, runner):
        res = run(runner, "gdim", "--graph", "no-such-graph")
        assert res.exit_code == 1

    def test_negative_window_exits_one(self, runner):
        res = run(runner, "gdim", "--graph", "circle", "--xwindow", "-1")
        assert_one_line_failure(res, 1)
        assert "must be non-negative" in res.stderr

    def test_a_huge_window_ends(self):
        # a closed graph's slices are empty above its generators' x-degrees
        src = str(Path(krlab.__file__).resolve().parents[1])

        def terms(window):
            res = subprocess.run(
                [sys.executable, "-m", "krlab.cli", "gdim", "--graph", "circle",
                 "--xwindow", str(window), "--format", "json"],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
            )
            assert res.returncode == 0, res.stderr
            return json.loads(res.stdout)["terms"]

        assert terms(10**8) == terms(20)

    def test_an_open_graph_refuses_a_huge_window(self):
        # theta-split keeps one mark alive, so every slice up to the
        # truncation is nonempty; the slice basis is counted before it is built
        src = str(Path(krlab.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-m", "krlab.cli", "gdim", "--graph", "theta-split",
             "--xwindow", "100000"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
        )
        assert res.returncode == 2 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "slice basis elements" in res.stderr


class TestParseErrors:
    def test_malformed_braid(self, runner):
        res = run(runner, "homology", "--braid", "x y z")
        assert res.exit_code == 1

    def test_n_below_one(self, runner):
        res = run(runner, "homology", "--braid", "1", "--n", "0")
        assert res.exit_code == 1

    def test_strand_count_too_small(self, runner):
        res = run(runner, "skein", "--braid", "2", "--strands", "2")
        assert res.exit_code == 1

    def test_graph_path_is_a_directory(self, runner, tmp_path):
        res = run(runner, "gdim", "--graph", str(tmp_path))
        assert_one_line_failure(res, 1)
        assert "cannot read graph file" in res.stderr


class TestSizeRefusals:
    CUBE = "the resolution cube needs {} Koszul generators, over the cap of 32768"
    N = "n = 100000 is over the cap of 100"

    @pytest.mark.parametrize("args, message", [
        (["homology", "--braid", "16", "--xwindow", "2"], CUBE.format("2^18")),
        (["homology", "--braid", "1 2 1 2 1 2 1 2 1 2 1 2", "--xwindow", "2"],
         CUBE.format("2^25")),
        (["homology", "--braid", "1 1", "--n", "64", "--xwindow", "2"],
         "the resolution cube needs 2^5 Koszul generators, over the cap of 8"),
        (["homology", "--braid", "1", "--n", "100000"], N),
        (["skein", "--braid", "1", "--n", "100000"], N),
        (["both", "--braid", "1", "--n", "100000"], N),
        (["gdim", "--graph", "circle", "--n", "100000"], N),
        (["verify", "--n", "100000"], N),
        # 2^100000001 in decimal passes Python's limit on int-to-str digits
        (["homology", "--braid", "1", "--strands", "100000000"], CUBE.format("2^100000001")),
        (["both", "--braid", "1", "--strands", "100000000"], CUBE.format("2^100000001")),
        (["skein", "--braid", "", "--strands", "101"], "101 strands is over the skein cap of 100"),
    ], ids=["cube-s16", "cube-12-letters", "cube-n64", "n-homology", "n-skein", "n-both",
            "n-gdim", "n-verify", "cube-huge-homology", "cube-huge-both", "skein-strands"])
    def test_refused_at_once_in_one_line(self, runner, args, message):
        start = time.perf_counter()
        res = run(runner, *args)
        assert time.perf_counter() - start < 1
        assert_one_line_failure(res, 2)
        assert res.stderr == message + "\n"
        assert "Traceback" not in res.output

    def test_n_at_the_cap_is_admitted(self, runner):
        assert run(runner, "skein", "--braid", "1", "--n", str(cli.MAX_N)).exit_code == 0

    def test_window_search_grows_with_n(self, runner):
        # width 40 was the cap at every n, and n = 7 needs more
        res = run(runner, "both", "--braid", "1 1", "--n", "7", "--format", "json")
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["cross_check"] == "MATCH"


class TestInvariantFailure:
    def test_broken_invariant_exits_four(self, runner, monkeypatch):
        def broken(self):
            raise InvariantError("d_chi^2 != 0 out of degree 0")

        monkeypatch.setattr(ChainComplexOfMF, "verify", broken)
        res = run(runner, "homology", "--braid", "1", "--strands", "2")
        assert_one_line_failure(res, 4)
        assert "d_chi^2 != 0" in res.stderr


class TestVerifyCommand:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_checks_pass(self, runner, n):
        res = run(runner, "verify", "--n", str(n))
        assert res.exit_code == 0
        lines = [l for l in res.output.splitlines() if l]
        assert len(lines) == 6
        assert all(l.startswith("ok") for l in lines)

    def test_narrow_window_is_refused_in_one_line(self, runner):
        res = run(runner, "verify", "--xwindow", "2")
        assert_one_line_failure(res, 1)
        assert "widen the window" in res.stderr

    def test_narrow_window_is_refused_before_any_check_fails(self, runner):
        res = run(runner, "verify", "--xwindow", "4")
        assert_one_line_failure(res, 1)
        assert "widen the window" in res.stderr
        assert "FAIL" not in res.stdout


class TestFailureFamilies:
    """Each failure family ends in one stderr line and its own exit code,
    whichever command it comes out of."""

    FAMILIES = [
        (lambda: ValueError("x"), 1, "x"),
        (lambda: BudgetError("x"), 2, "x"),
        (lambda: InvariantError("x"), 4, "internal invariant violated: x"),
        (MemoryError, 5, "out of memory: the computation needs more than this process may use"),
    ]
    ENTRIES = [
        ("evaluate", ["skein", "--braid", "1"]),
        ("build_complex", ["homology", "--braid", "1"]),
        ("build_complex", ["both", "--braid", "1"]),
        ("build_complex", ["verify"]),
        ("graph_gdim", ["gdim", "--graph", "circle"]),
    ]

    @pytest.mark.parametrize("make, code, line", FAMILIES, ids=["value", "budget", "invariant", "memory"])
    @pytest.mark.parametrize("entry, args", ENTRIES, ids=["skein", "homology", "both", "verify", "gdim"])
    def test_one_line_and_the_family_code(self, runner, monkeypatch, make, code, line, entry, args):
        def explode(*_args, **_kwargs):
            raise make()

        monkeypatch.setattr(cli, entry, explode)
        res = run(runner, *args)
        assert_one_line_failure(res, code)
        assert res.stderr == line + "\n"

    @staticmethod
    def failure_writers(source):
        """Line numbers, outside _Main.invoke, of each sys.exit call whose
        argument is not the literal 3 and of each echo with err=True."""
        tree = ast.parse(source)
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "_Main":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "invoke":
                        exempt |= {id(sub) for sub in ast.walk(item)}
        found = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "exit":
                verdict = (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == 3
                )
                if not verdict:
                    found.append(node.lineno)
            elif name == "echo" and any(
                kw.arg == "err" and not (isinstance(kw.value, ast.Constant) and not kw.value.value)
                for kw in node.keywords
            ):
                found.append(node.lineno)
        return found

    def test_invoke_is_the_one_writer_of_failures(self):
        assert self.failure_writers(Path(cli.__file__).read_text()) == []

    def test_failure_writer_scan_flags(self):
        source = (
            "import sys, click\n"
            "class _Main(click.Group):\n"
            "    def invoke(self, ctx):\n"
            "        click.echo('x', err=True)\n"
            "        sys.exit(2)\n"
            "def verdict():\n"
            "    click.echo('MISMATCH')\n"
            "    click.echo('quiet', err=False)\n"
            "    sys.exit(3)\n"
            "def fail():\n"
            "    click.echo('x', err=True)\n"
            "    sys.exit(1)\n"
            "def other():\n"
            "    exit(code)\n"
            "    sys.exit()\n"
        )
        assert self.failure_writers(source) == [11, 12, 14, 15]
