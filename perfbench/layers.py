"""Per-layer spans and counts, recorded from outside the program.

Tracer.install() replaces each layer's entry point, on the module attribute
through which it is looked up at call time, by a wrapper that records a
span; uninstall() puts the originals back.  Spans nest: a layer's self time
is its span minus the spans of layers it calls.  Counts are read from the
arguments and results at the same boundaries.  Nothing under src/ changes.
Each case process hands its raw totals out as Tracer.state(); merge() adds
the totals of a pass and report() turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from math import comb
from time import perf_counter


def smith_stage(M) -> str:
    """Stage-1 Smith calls reduce d0 slices, of a-shift 1; stage 2 has shift 0."""
    return "qamod.smith1" if M.shift == 1 else "qamod.smith2"


def mark_count(C) -> int:
    return sum(1 for v in C.table.variables if v.kind == "mark")


def reduce_basis(C, top: int) -> int:
    """Size of the basis _reduce_complex(C, top) expands: every generator of
    x-degree gx times the mark monomials of degree <= (top - gx) // 2."""
    marks = mark_count(C)
    total = 0
    for parts in C.summands.values():
        for part in parts:
            for par in (0, 1):
                for _, gx in part.mf.basis(par):
                    if top >= gx:
                        total += comb(marks + (top - gx) // 2, marks)
    return total


class CountingMemo(dict):
    """Stand-in for skein._memo that counts lookups and hits."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = super().get(key, default)
        if value is not None:
            self.hits += 1
        return value


def _observe_build(t, args, C):
    t.count["cube.summands"] += sum(len(parts) for parts in C.summands.values())
    t.count["cube.rank"] += sum(len(m.basis0) + len(m.basis1) for m in C.terms.values())
    t.count["cube.marks"] += mark_count(C)
    t.count["cube.blocks"] += len(C.blocks)


def _observe_reduce(t, args, red):
    C, top = args[0], args[1]
    t.count["qamod.reduce_basis"] += reduce_basis(C, top)
    t.count["qamod.reduce_survivors"] += sum(len(v) for v in red.slices.values())
    t.count["qamod.reduce_entries"] += sum(
        len(m) for d in (red.d0, red.d1) for m in d.values()
    )


def _observe_smith(t, args, result):
    M = args[0]
    stage = smith_stage(M)
    t.count[stage + "_entries"] += len(M.entries)
    cells = len(M.source) * len(M.target)
    t.count[stage + "_max_cells"] = max(t.count[stage + "_max_cells"], cells)


def _observe_tails(t, args, tails):
    t.count["qamod.slices"] += len(args[0])
    t.count["qamod.tails"] += len(tails)


def _observe_search(t, args, result):
    t.count["braid.markov_expansions"] += result.expansions
    t.count["braid.markov_complete"] += bool(result.complete)


# (module, attribute path, span name or a function of the call's arguments, observer)
HOOKS = [
    ("krlab.cli", "build_complex", "cube.build", _observe_build),
    ("krlab.cube", "ChainComplexOfMF.verify", "cube.verify", None),
    ("krlab.cli", "two_stage_homology", "qamod.stage2", None),
    ("krlab.qamod", "_reduce_complex", "qamod.reduce", _observe_reduce),
    ("krlab.qamod", "smith", lambda args: smith_stage(args[0]), _observe_smith),
    ("krlab.qamod", "_detect_tails", "qamod.tails", _observe_tails),
    ("krlab.cli", "euler_characteristic", "qamod.euler", None),
    ("krlab.cli", "evaluate", "skein.evaluate", None),
    ("krlab.skein", "_evaluate", "skein.recursion", None),
    ("krlab.skein", "simplify", "braid.simplify", None),
    ("krlab.skein", "markov_search", "braid.markov_search", _observe_search),
    ("krlab.braid", "markov_search", "braid.markov_search", _observe_search),
]

# metric -> (unit, span or count that must be nonzero for the layer to count as run)
PER_LAYER = {
    "braid.simplify_self_s": ("s", "braid.simplify"),
    "braid.simplify_calls": ("count", "braid.simplify"),
    "braid.markov_search_s": ("s", "braid.markov_search"),
    "braid.markov_search_calls": ("count", "braid.markov_search"),
    "braid.markov_expansions": ("count", "braid.markov_search"),
    "braid.markov_complete_ratio": ("ratio", "braid.markov_search"),
    "cube.build_self_s": ("s", "cube.build"),
    "cube.verify_s": ("s", "cube.verify"),
    "cube.summands": ("count", "cube.build"),
    "cube.rank": ("count", "cube.build"),
    "cube.marks": ("count", "cube.build"),
    "cube.blocks": ("count", "cube.build"),
    "qamod.reduce_s": ("s", "qamod.reduce"),
    "qamod.reduce_basis": ("count", "qamod.reduce"),
    "qamod.reduce_survivors": ("count", "qamod.reduce"),
    "qamod.reduce_kept_ratio": ("ratio", "qamod.reduce"),
    "qamod.reduce_entries": ("count", "qamod.reduce"),
    "qamod.smith1_s": ("s", "qamod.smith1"),
    "qamod.smith1_calls": ("count", "qamod.smith1"),
    "qamod.smith1_entries": ("count", "qamod.smith1"),
    "qamod.smith1_max_cells": ("count", "qamod.smith1"),
    "qamod.stage2_self_s": ("s", "qamod.stage2"),
    "qamod.smith2_s": ("s", "qamod.smith2"),
    "qamod.smith2_calls": ("count", "qamod.smith2"),
    "qamod.smith2_entries": ("count", "qamod.smith2"),
    "qamod.tails_s": ("s", "qamod.tails"),
    "qamod.euler_s": ("s", "qamod.euler"),
    "qamod.slices": ("count", "qamod.tails"),
    "qamod.tails": ("count", "qamod.tails"),
    "skein.evaluate_self_s": ("s", "skein.evaluate"),
    "skein.recursion_calls": ("count", "skein.recursion"),
    "skein.memo_entries": ("count", "skein.memo_lookups"),
    "skein.memo_hit_ratio": ("ratio", "skein.memo_lookups"),
    "cli.self_s": ("s", None),
}


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.count: defaultdict[str, int] = defaultdict(int)
        self.top_s = 0.0  # time inside some outermost span
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []
        self._memo: CountingMemo | None = None

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.self_s[span] += (t1 - t0) - frame[0]
                self.calls[span] += 1
            if observe is not None:
                try:
                    observe(self, args, result)
                except Exception as exc:  # the layer's interface changed: report, keep the case
                    note = f"counts at {span}: {exc!r}"
                    if note not in self.missing:
                        self.missing.append(note)
            # observation belongs to no layer: hide it from the caller's self time
            covered = perf_counter() - t0
            if self._stack:
                self._stack[-1][0] += covered
            else:
                self.top_s += covered
            return result

        return wrapper

    def install(self) -> None:
        for module, path, name, observe in HOOKS:
            target = _resolve(module, path)
            if target is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = target
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, observe))
        skein = importlib.import_module("krlab.skein")
        if isinstance(getattr(skein, "_memo", None), dict):
            self._saved.append((skein, "_memo", skein._memo))
            self._memo = skein._memo = CountingMemo(skein._memo)
        else:
            self.missing.append("krlab.skein._memo")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def state(self) -> dict:
        """Raw totals, in the form merge() and report() take."""
        count = dict(self.count)
        if self._memo is not None:
            count["skein.memo_entries"] = len(self._memo)
            count["skein.memo_lookups"] = self._memo.lookups
            count["skein.memo_hits"] = self._memo.hits
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "count": count,
            "top_s": self.top_s,
            "missing": list(self.missing),
        }


def merge(states: list[dict]) -> dict:
    """Totals of several workers' states; maxima stay maxima."""
    out = {"self_s": defaultdict(float), "calls": defaultdict(int), "count": defaultdict(int),
           "top_s": 0.0, "missing": []}
    for st in states:
        for key in ("self_s", "calls"):
            for name, v in st[key].items():
                out[key][name] += v
        for name, v in st["count"].items():
            if name.endswith("_max_cells"):
                out["count"][name] = max(out["count"][name], v)
            else:
                out["count"][name] += v
        out["top_s"] += st["top_s"]
        out["missing"] += [m for m in st["missing"] if m not in out["missing"]]
    return out


def report(state: dict, case_wall_s: float) -> dict:
    """Per-layer metrics of a (merged) state, and which layers are absent."""
    s = defaultdict(float, state["self_s"])
    n = defaultdict(int, state["calls"])
    c = defaultdict(int, state["count"])
    ran = dict(n, **{"skein.memo_lookups": c["skein.memo_lookups"]})

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "braid.simplify_self_s": s["braid.simplify"],
        "braid.simplify_calls": n["braid.simplify"],
        "braid.markov_search_s": s["braid.markov_search"],
        "braid.markov_search_calls": n["braid.markov_search"],
        "braid.markov_expansions": c["braid.markov_expansions"],
        "braid.markov_complete_ratio": ratio(c["braid.markov_complete"], n["braid.markov_search"]),
        "cube.build_self_s": s["cube.build"],
        "cube.verify_s": s["cube.verify"],
        "cube.summands": c["cube.summands"],
        "cube.rank": c["cube.rank"],
        "cube.marks": c["cube.marks"],
        "cube.blocks": c["cube.blocks"],
        "qamod.reduce_s": s["qamod.reduce"],
        "qamod.reduce_basis": c["qamod.reduce_basis"],
        "qamod.reduce_survivors": c["qamod.reduce_survivors"],
        "qamod.reduce_kept_ratio": ratio(c["qamod.reduce_survivors"], c["qamod.reduce_basis"]),
        "qamod.reduce_entries": c["qamod.reduce_entries"],
        "qamod.smith1_s": s["qamod.smith1"],
        "qamod.smith1_calls": n["qamod.smith1"],
        "qamod.smith1_entries": c["qamod.smith1_entries"],
        "qamod.smith1_max_cells": c["qamod.smith1_max_cells"],
        "qamod.stage2_self_s": s["qamod.stage2"],
        "qamod.smith2_s": s["qamod.smith2"],
        "qamod.smith2_calls": n["qamod.smith2"],
        "qamod.smith2_entries": c["qamod.smith2_entries"],
        "qamod.tails_s": s["qamod.tails"],
        "qamod.euler_s": s["qamod.euler"],
        "qamod.slices": c["qamod.slices"],
        "qamod.tails": c["qamod.tails"],
        "skein.evaluate_self_s": s["skein.evaluate"] + s["skein.recursion"],
        "skein.recursion_calls": n["skein.recursion"],
        "skein.memo_entries": c["skein.memo_entries"],
        "skein.memo_hit_ratio": ratio(c["skein.memo_hits"], c["skein.memo_lookups"]),
        "cli.self_s": case_wall_s - state["top_s"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    absent = [name for name, (_, need) in PER_LAYER.items() if need is not None and not ran.get(need)]
    return {"metrics": metrics, "absent": absent, "missing_hooks": list(state["missing"])}
