"""Command-line surface: homology tables, skein values, graph dimensions.

Every failure ends in _Main.invoke, which prints one line on stderr and
exits with its family's code:

1. ValueError: input that does not parse, including windows the pipelines
   refuse.
2. poly.BudgetError: a size cap or search budget would be passed.  The
   raisers are an n above MAX_N, refused before any work; a resolution cube
   of more than cube.MAX_CUBE_GENERATORS // n^2 Koszul generators; a window
   whose expansion would pass qamod.EXPANSION_BUDGET bytes, counted in
   closed form before any is built; the x-window search of `both` and
   `verify` passing qamod.AUTO_WIDTH_STEPS * (n + 1); a gdim truncation
   whose slices would pass moy.MAX_SLICE_BASIS elements; a skein braid on
   more than skein.MAX_SKEIN_STRANDS strands, refused before any work; and
   the skein recursion's square search passing skein.MAX_BUDGET.
4. poly.InvariantError: a broken internal invariant.
5. MemoryError: the process ran out of memory.

Exit 3 is a verdict, not a failure: a `both` cross-check that mismatches or
a `verify` check that fails.  JSON documents carry a stable "schema":
"krlab/1" tag, slices sorted by (eps, i, x) and tails by (eps, i, start),
so output is reproducible and holds the whole module: reading it back gives
the module printed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .braid import BraidWord, parse
from .cube import build_complex
from .moy import BUILTIN_GRAPHS, builtin_graph, graph_gdim, parse_graph
from .poly import BudgetError, InvariantError
from .qamod import (
    GradedQaModule,
    SliceModule,
    Tail,
    adaptive_homology,
    euler_characteristic,
    two_stage_homology,
)
from .skein import SkeinValue, evaluate, series_expand, skein_residual, unlink_value

SERIES_CAP = 12  # default alpha and xi caps of a printed skein series
# Largest potential exponent a command accepts.  On a 2-vCPU host,
# homology --braid 1 --xwindow 2 takes 0.30 s at n = 64; with the cube cap,
# which refuses that cube above n = 64, lifted, 1.1 s at 100 and 11 s at 200,
# and the time keeps growing with n.
MAX_N = 100


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise BudgetError(f"n = {n} is over the cap of {MAX_N}")


def _braid(text: str, strands: int | None) -> BraidWord:
    cleaned = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    try:
        return parse(cleaned, strands)
    except ValueError as exc:
        raise ValueError(f"braid parse error: {exc}") from exc


def _decategorified(
    word: BraidWord, n: int, width: int | None
) -> tuple[GradedQaModule, SkeinValue]:
    """The module at the given width, or at the least confirmed width when
    width is None, with its Euler characteristic."""
    if width is None:
        return adaptive_homology(
            build_complex(word, n), two_stage_homology, euler_characteristic
        )
    mod = two_stage_homology(build_complex(word, n), x_window=width)
    return mod, euler_characteristic(mod)


def module_json(m: GradedQaModule) -> dict:
    slices = []
    for eps, i, k in sorted(m.slices):
        sl = m.slices[(eps, i, k)]
        slices.append({
            "eps": eps,
            "i": i,
            "x": k,
            "free": list(sl.free),
            "torsion": [[l, t] for l, t in sl.torsion],
        })
    tails = [
        {
            "eps": t.eps,
            "i": t.i,
            "start": t.start,
            "families": [[l, s, list(c)] for l, s, c in t.families],
        }
        for t in sorted(m.tails, key=lambda t: (t.eps, t.i, t.start))
    ]
    return {
        "schema": "krlab/1",
        "n": m.n,
        "window": list(m.window),
        "slices": slices,
        "tail": tails,
    }


def _skein_json(v: SkeinValue, n: int, alpha_max: int, xi_max: int) -> dict:
    series = [
        [a, x, str(c1), str(ct)]
        for (a, x), (c1, ct) in sorted(series_expand(v, alpha_max, xi_max).items())
    ]
    return {
        "schema": "krlab/1",
        "n": n,
        "value": {"tau=+1": v.plus.pretty(), "tau=-1": v.minus.pretty()},
        "series": series,
    }


def _print_skein(v: SkeinValue, alpha_max: int, xi_max: int) -> None:
    click.echo(v.pretty())
    click.echo(f"series through alpha^{alpha_max}, xi^{xi_max} (1, tau parts):")
    for (a, x), (c1, ct) in sorted(series_expand(v, alpha_max, xi_max).items()):
        click.echo(f"  alpha^{a} xi^{x}: {c1} + {ct} tau")


_AUTO_WINDOW_HELP = (
    "x-degree window width (default: search widths 2, 4, 6, ... for the least "
    "one whose euler characteristic is confirmed at the next width)"
)


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            code, message = 1, str(exc)
        except BudgetError as exc:
            code, message = 2, str(exc)
        except InvariantError as exc:
            code, message = 4, f"internal invariant violated: {exc}"
        except MemoryError:
            code, message = 5, "out of memory: the computation needs more than this process may use"
        click.echo(message, err=True)
        sys.exit(code)


@click.group(cls=_Main)
def main() -> None:
    """Transverse link homology and its skein-recursion shadow."""


@main.command()
@click.option("--braid", "braid_text", required=True, help="word, e.g. '1 -2 1' or 's1 s2^-1'")
@click.option("--strands", type=int, default=None, help="strand count (default: least possible)")
@click.option("--n", "n", type=int, default=1, show_default=True)
@click.option("--xwindow", type=int, default=20, show_default=True, help="x-degree window width")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def homology(braid_text, strands, n, xwindow, fmt):
    """Two-stage homology of a closed braid, as slices plus tails."""
    _check_n(n)
    word = _braid(braid_text, strands)
    mod = two_stage_homology(build_complex(word, n), x_window=xwindow)
    doc = json.dumps(module_json(mod))
    if fmt == "table":
        click.echo(mod.pretty())
        click.echo(doc)
    else:
        click.echo(doc)


@main.command()
@click.option("--braid", "braid_text", required=True)
@click.option("--strands", type=int, default=None)
@click.option("--n", "n", type=int, default=1, show_default=True)
@click.option("--alpha-max", type=int, default=SERIES_CAP, show_default=True)
@click.option("--xi-max", type=int, default=SERIES_CAP, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def skein(braid_text, strands, n, alpha_max, xi_max, fmt):
    """Skein-recursion value of a closed braid, exact plus truncated series."""
    _check_n(n)
    word = _braid(braid_text, strands)
    value = evaluate(word, n)
    if fmt == "table":
        _print_skein(value, alpha_max, xi_max)
    else:
        click.echo(json.dumps(_skein_json(value, n, alpha_max, xi_max)))


@main.command()
@click.option("--braid", "braid_text", required=True)
@click.option("--strands", type=int, default=None)
@click.option("--n", "n", type=int, default=1, show_default=True)
@click.option("--xwindow", type=int, default=None, help=_AUTO_WINDOW_HELP)
@click.option("--alpha-max", type=int, default=SERIES_CAP, show_default=True)
@click.option("--xi-max", type=int, default=SERIES_CAP, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def both(braid_text, strands, n, xwindow, alpha_max, xi_max, fmt):
    """Run both pipelines and report whether they agree."""
    _check_n(n)
    word = _braid(braid_text, strands)
    mod, chi = _decategorified(word, n, xwindow)
    value = evaluate(word, n)
    verdict = "MATCH" if chi == value else "MISMATCH"
    if fmt == "table":
        click.echo(mod.pretty())
        click.echo(json.dumps(module_json(mod)))
        _print_skein(value, alpha_max, xi_max)
        click.echo(f"cross-check: {verdict}")
    else:
        doc = module_json(mod)
        doc["skein"] = _skein_json(value, n, alpha_max, xi_max)
        doc["cross_check"] = verdict
        click.echo(json.dumps(doc))
    if verdict != "MATCH":
        sys.exit(3)


@main.command()
@click.option("--graph", "graph_spec", required=True,
              help="builtin graph name or description file")
@click.option("--n", "n", type=int, default=1, show_default=True)
@click.option("--xwindow", type=int, default=20, show_default=True, help="x-degree truncation")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def gdim(graph_spec, n, xwindow, fmt):
    """Graded dimension series of a trivalent graph's factorization."""
    _check_n(n)
    if xwindow < 0:
        raise ValueError("x-degree truncation must be non-negative")
    if graph_spec in BUILTIN_GRAPHS:
        graph = builtin_graph(graph_spec)
    else:
        path = Path(graph_spec)
        if not path.exists():
            raise ValueError(f"no builtin graph or file named {graph_spec!r}")
        try:
            graph = parse_graph(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read graph file {graph_spec!r}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ValueError(f"graph parse error: {exc}") from exc
    series = graph_gdim(graph, n, xwindow)
    if fmt == "table":
        click.echo(series.pretty())
    else:
        terms = [[e, j, k, v] for (e, j, k), v in sorted(series.terms.items())]
        click.echo(json.dumps({
            "schema": "krlab/1",
            "n": n,
            "x_truncation": series.x_truncation,
            "terms": terms,
        }))


def _verify_checks(n: int, xwindow: int | None):
    def unknot_table():
        mod, _ = _decategorified(parse("", 1), n, xwindow)
        lo, hi = mod.window
        expect = {(1, 0, -n + 1 + 2 * l): SliceModule((-1,), ()) for l in range(n)}
        k = n + 1
        while k <= hi:
            expect[(1, 0, k)] = SliceModule((), ((1, -1),))
            k += 2
        ok = mod.slices == expect and mod.tails == (Tail(1, 0, n + 1, ((1, -1, (1,)),)),)
        return ok, "unknot decomposition differs from the closed form"

    def circle_gdim():
        series = graph_gdim(builtin_graph("circle"), n, 8)
        ok = series.terms == {(0, 0, 0): 1, (1, -1, 1 - n): 1}
        return ok, "circle graded dimension differs from 1 + tau alpha^-1 xi^(1-n)"

    def edge_splitting():
        wide = graph_gdim(builtin_graph("wide-edge"), n, 12)
        split = graph_gdim(builtin_graph("theta-split"), n, 12)
        ok = split.same_series(wide.shifted(0, 0, 1) + wide.shifted(0, 0, -1))
        return ok, "splitting a wide edge is not multiplication by xi + xi^-1"

    def unlink_values():
        for m in (1, 2):
            if evaluate(parse("", m), n) != unlink_value(m, n):
                return False, f"the {m}-component unlink misses its closed form"
        return True, ""

    def residuals():
        for text, strands, pos in [("1 1", 2, 1), ("1 -2", 3, 2), ("2 1 2", 3, 3)]:
            if not skein_residual(parse(text, strands), pos, n).is_zero:
                return False, f"skein relation leaves a residual on {text!r}"
        return True, ""

    def euler_cross_check():
        for text, strands in [("", 1), ("1", 2), ("-1", 2)]:
            _, chi = _decategorified(parse(text, strands), n, xwindow)
            if chi != evaluate(parse(text, strands), n):
                return False, f"euler characteristic disagrees with the skein value on {text!r}"
        return True, ""

    return [
        ("unknot homology table", unknot_table),
        ("circle graded dimension", circle_gdim),
        ("edge splitting", edge_splitting),
        ("unlink skein values", unlink_values),
        ("skein residuals", residuals),
        ("euler cross-check", euler_cross_check),
    ]


@main.command()
@click.option("--n", "n", type=int, default=1, show_default=True)
@click.option("--xwindow", type=int, default=None, help=_AUTO_WINDOW_HELP)
def verify(n, xwindow):
    """Run the built-in consistency sweep and report one line per check."""
    _check_n(n)
    failures = 0
    for name, check in _verify_checks(n, xwindow):
        ok, detail = check()
        if ok:
            click.echo(f"ok   {name}")
        else:
            failures += 1
            click.echo(f"FAIL {name}: {detail}")
    if failures:
        sys.exit(3)


if __name__ == "__main__":
    main()
