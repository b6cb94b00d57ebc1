"""The benchmark's workloads: fixed case lists, their references and checks.

Every case is one `krlab` command line.  Cases are fixed per workload; the
run seed only chooses the order in which a pass visits them.  References
live in refs/<workload>.json as {case id: expected text}.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Case:
    command: str  # "both", "homology" or "skein"
    word: str
    strands: int | None
    n: int
    xwindow: int | None = None

    @property
    def ident(self) -> str:
        parts = [self.command, f"[{self.word}]", f"n={self.n}"]
        if self.strands is not None:
            parts.append(f"strands={self.strands}")
        if self.xwindow is not None:
            parts.append(f"xwindow={self.xwindow}")
        return " ".join(parts)

    def argv(self) -> list[str]:
        args = [self.command, "--braid", self.word, "--n", str(self.n)]
        if self.strands is not None:
            args += ["--strands", str(self.strands)]
        if self.xwindow is not None:
            args += ["--xwindow", str(self.xwindow)]
        return args + ["--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    pass_s: float  # a pass's time when the benchmark was defined; sets the pass count
    case_cap_s: float  # wall-clock cap of one case, enforced in the case process
    pass_cap_s: float  # the whole pass; past it the worker is killed


def reduced_words(strands: int, max_length: int) -> list[str]:
    """All freely reduced braid words of length <= max_length, shortest first."""
    letters = [s * g for g in range(1, strands) for s in (1, -1)]
    words: list[list[int]] = [[]]
    out = [""]
    for _ in range(max_length):
        words = [w + [l] for w in words for l in letters if not w or w[-1] != -l]
        out += [" ".join(map(str, w)) for w in words]
    return out


def _both_default() -> tuple[Case, ...]:
    return (
        Case("both", "1 1", None, 1),
        Case("both", "1 1", None, 2),
        Case("both", "1 -1", 3, 1),
        Case("both", "-1 -1", 3, 1),
        Case("both", "-1 -2", 3, 1),
        Case("both", "1 1 1", None, 1),
        Case("both", "1 1 1", None, 2),
        Case("both", "2 1 2", None, 1),
    )


def _homology_narrow() -> tuple[Case, ...]:
    return (
        Case("homology", "1 1 1 1 1", None, 1, 4),
        Case("homology", "1 -2 1 -2", None, 1, 8),
        Case("homology", "-1 -2 -1 -2", None, 1, 8),
    )


def _skein_words() -> tuple[Case, ...]:
    return tuple(
        Case("skein", w, 3, n) for n in (1, 2) for w in reduced_words(3, 3)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("both-default", _both_default(), 42.0, 45.0, 80.0),
        Workload("homology-narrow", _homology_narrow(), 26.0, 45.0, 80.0),
        Workload("skein-words", _skein_words(), 13.0, 10.0, 60.0),
    )
}


def pass_order(workload: Workload, seed: int) -> list[int]:
    """Case indexes in the order one pass runs them, fixed by the seed."""
    order = list(range(len(workload.cases)))
    random.Random(seed).shuffle(order)
    return order


def load_refs(name: str) -> dict[str, str]:
    return json.loads((REFS / f"{name}.json").read_text())


def reference_text(case: Case, stdout: str) -> str:
    """The part of a case's output that is compared with its reference.

    `both` output carries the module at the default window, which a later
    window policy may change, so only its skein part is kept; the other
    commands are compared whole.
    """
    if case.command == "both":
        return json.dumps(json.loads(stdout)["skein"])
    return stdout


def check(case: Case, exit_code: int, stdout: str, refs: dict[str, str]) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    expected = refs.get(case.ident)
    if expected is None:
        return "no reference"
    if case.command == "both":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        if doc.get("cross_check") != "MATCH":
            return f"cross_check is {doc.get('cross_check')!r}"
    try:
        got = reference_text(case, stdout)
    except (ValueError, KeyError):
        return "output lacks the skein part"
    if got != expected:
        return "output differs from the reference"
    return None
