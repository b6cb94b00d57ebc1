"""Homology output pinned byte for byte on the short 3-strand words.

The sha256 of each `homology --strands 3 --xwindow 10 --format json` stdout
is committed in pins/homology_short_words.json; regenerate it with

    PYTHONPATH=src python tests/test_pinned_homology.py > tests/pins/homology_short_words.json

only when a change to the answers is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from krlab import cli
from test_cube import reduced_words

PINS = Path(__file__).resolve().parent / "pins" / "homology_short_words.json"


def digest(word: str, n: int) -> str:
    res = CliRunner().invoke(cli.main, ["homology", "--braid", word, "--strands", "3",
                                        "--n", str(n), "--xwindow", "10", "--format", "json"])
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.stdout.encode()).hexdigest()


# the 17 freely reduced words of length <= 2 on 3 strands
CASES = [(word, n) for n in (1, 2) for word in reduced_words(3, 2)]


@pytest.mark.parametrize("word,n", CASES, ids=[f"[{w}]-n{n}" for w, n in CASES])
def test_homology_output_is_pinned(word, n):
    assert digest(word, n) == json.loads(PINS.read_text())[f"[{word}] n={n}"]


if __name__ == "__main__":
    print(json.dumps({f"[{w}] n={n}": digest(w, n) for w, n in CASES}, indent=1))
