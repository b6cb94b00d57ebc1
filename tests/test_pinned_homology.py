"""Output pinned byte for byte.

The sha256 of each `homology --strands 3 --xwindow 10 --format json` stdout
on the short 3-strand words is committed in pins/homology_short_words.json,
which also pins `1 1` at n = 16 and `1 1 1` at n = 8, where the exponents of
the cube's products are largest, and that of each
`both --strands 3 --format json` stdout, whose window search grows one
expansion, in pins/both_short_words.json, which also pins `both` on two
4-crossing knots at n = 1.  The graded dimension of every builtin graph,
`gdim --graph G --n n --format json` at n = 1 and 2, which rests on the
exact ranks of its slices, is pinned in pins/gdim_builtin_graphs.json, and
the skein value of the unlinks `skein --braid '' --strands m --format json`
at m = 10 and 25, whose stripping divides out many atoms, in
pins/skein_values.json.  That file also pins `skein --braid '1 2 1'` on 6 and
8 strands, whose square searches run out of budget: which words such a
search returns depends on the order in which it meets them, so these pins
hold `markov_search`'s discovery order as well as its answers.  Regenerate
one with

    PYTHONPATH=src python tests/test_pinned_homology.py homology > tests/pins/homology_short_words.json
    PYTHONPATH=src python tests/test_pinned_homology.py both > tests/pins/both_short_words.json
    PYTHONPATH=src python tests/test_pinned_homology.py gdim > tests/pins/gdim_builtin_graphs.json
    PYTHONPATH=src python tests/test_pinned_homology.py skein > tests/pins/skein_values.json

only when a change to the answers is intended.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from krlab import cli
from krlab.moy import BUILTIN_GRAPHS
from test_cube import reduced_words

PINS = Path(__file__).resolve().parent / "pins"
PIN_FILES = {
    "homology": "homology_short_words.json",
    "both": "both_short_words.json",
    "gdim": "gdim_builtin_graphs.json",
    "skein": "skein_values.json",
}


def argv(command: str, subject, n: int) -> list[str]:
    """The pinned command line: subject is a braid word on 3 strands for
    homology and both, a builtin graph for gdim, and a (braid word, strand
    count) pair for skein."""
    if command == "gdim":
        args = ["--graph", subject]
    elif command == "skein":
        word, strands = subject
        args = ["--braid", word, "--strands", str(strands)]
    else:
        args = ["--braid", subject, "--strands", "3"]
        if command == "homology":
            args += ["--xwindow", "10"]
    return [command, *args, "--n", str(n), "--format", "json"]


def key(command: str, subject, n: int) -> str:
    if command == "gdim":
        return f"{subject} n={n}"
    if command == "skein":
        word, strands = subject
        return f"[{word}] strands={strands} n={n}" if word else f"strands={strands} n={n}"
    return f"[{subject}] n={n}"


def digest(command: str, subject, n: int) -> str:
    res = CliRunner().invoke(cli.main, argv(command, subject, n))
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.stdout.encode()).hexdigest()


def pinned(command: str, subject, n: int) -> str:
    return json.loads((PINS / PIN_FILES[command]).read_text())[key(command, subject, n)]


# the 17 freely reduced words of length <= 2 on 3 strands
CASES = [(word, n) for n in (1, 2) for word in reduced_words(3, 2)]
# the cases of each pinned command: `homology` adds two words at high n, and
# `both` two 4-crossing words, the figure-eight and the negative trefoil
# (sigma_1 sigma_2)^-2
PINNED = {
    "homology": CASES + [("1 1", 16), ("1 1 1", 8)],
    "both": CASES + [("1 -2 1 -2", 1), ("-1 -2 -1 -2", 1)],
    "gdim": [(graph, n) for n in (1, 2) for graph in BUILTIN_GRAPHS],
    "skein": [(("", 10), 1), (("", 25), 1), (("1 2 1", 6), 1), (("1 2 1", 8), 1)],
}


def ids(cases):
    return [f"[{w}]-n{n}" for w, n in cases]


@pytest.mark.parametrize("word,n", PINNED["homology"], ids=ids(PINNED["homology"]))
def test_homology_output_is_pinned(word, n):
    assert digest("homology", word, n) == pinned("homology", word, n)


@pytest.mark.parametrize("word,n", PINNED["both"], ids=ids(PINNED["both"]))
def test_both_output_is_pinned(word, n):
    assert digest("both", word, n) == pinned("both", word, n)


@pytest.mark.parametrize("graph,n", PINNED["gdim"],
                         ids=[f"{g}-n{n}" for g, n in PINNED["gdim"]])
def test_gdim_output_is_pinned(graph, n):
    assert digest("gdim", graph, n) == pinned("gdim", graph, n)


@pytest.mark.parametrize("subject,n", PINNED["skein"],
                         ids=[f"[{w}]-strands{m}-n{n}" if w else f"strands{m}-n{n}"
                              for (w, m), n in PINNED["skein"]])
def test_skein_output_is_pinned(subject, n):
    assert digest("skein", subject, n) == pinned("skein", subject, n)


# stdout sha256 of `both --braid "1 -2 1 -2" --n 2 --format json`, the
# figure-eight at n = 2, which takes seconds; the sl(2) oracle sees only its
# free part
FIGURE_EIGHT_N2 = "e2dc85cb22432370ab37d28bda10461e5a2895e255fb5c3d650bf070c387125a"


@pytest.mark.slow
def test_the_figure_eight_at_n_2_is_pinned():
    argv = ["both", "--braid", "1 -2 1 -2", "--n", "2", "--format", "json"]
    res = CliRunner().invoke(cli.main, argv)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == FIGURE_EIGHT_N2


if __name__ == "__main__":
    command = sys.argv[1]
    print(json.dumps({key(command, s, n): digest(command, s, n) for s, n in PINNED[command]},
                     indent=1))
