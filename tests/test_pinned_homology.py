"""Output pinned byte for byte on the short 3-strand words.

The sha256 of each `homology --strands 3 --xwindow 10 --format json` stdout
is committed in pins/homology_short_words.json, which also pins `1 1` at
n = 16 and `1 1 1` at n = 8, where the exponents of the cube's products are
largest, and that of each
`both --strands 3 --format json` stdout, whose window search grows one
expansion, in pins/both_short_words.json, which also pins `both` on two
4-crossing knots at n = 1; regenerate one with

    PYTHONPATH=src python tests/test_pinned_homology.py homology > tests/pins/homology_short_words.json
    PYTHONPATH=src python tests/test_pinned_homology.py both > tests/pins/both_short_words.json

only when a change to the answers is intended.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from krlab import cli
from test_cube import reduced_words

PINS = Path(__file__).resolve().parent / "pins"
# the options of each pinned command beyond the word, the strands and n
OPTIONS = {"homology": ["--xwindow", "10"], "both": []}


def digest(command: str, word: str, n: int) -> str:
    res = CliRunner().invoke(cli.main, [command, "--braid", word, "--strands", "3",
                                        "--n", str(n), *OPTIONS[command], "--format", "json"])
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.stdout.encode()).hexdigest()


def pinned(command: str, word: str, n: int) -> str:
    return json.loads((PINS / f"{command}_short_words.json").read_text())[f"[{word}] n={n}"]


# the 17 freely reduced words of length <= 2 on 3 strands
CASES = [(word, n) for n in (1, 2) for word in reduced_words(3, 2)]
# the cases of each pinned command: `homology` adds two words at high n, and
# `both` two 4-crossing words, the figure-eight and the negative trefoil
# (sigma_1 sigma_2)^-2
PINNED = {
    "homology": CASES + [("1 1", 16), ("1 1 1", 8)],
    "both": CASES + [("1 -2 1 -2", 1), ("-1 -2 -1 -2", 1)],
}


def ids(cases):
    return [f"[{w}]-n{n}" for w, n in cases]


@pytest.mark.parametrize("word,n", PINNED["homology"], ids=ids(PINNED["homology"]))
def test_homology_output_is_pinned(word, n):
    assert digest("homology", word, n) == pinned("homology", word, n)


@pytest.mark.parametrize("word,n", PINNED["both"], ids=ids(PINNED["both"]))
def test_both_output_is_pinned(word, n):
    assert digest("both", word, n) == pinned("both", word, n)


if __name__ == "__main__":
    print(json.dumps({f"[{w}] n={n}": digest(sys.argv[1], w, n) for w, n in PINNED[sys.argv[1]]},
                     indent=1))
