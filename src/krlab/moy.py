"""Colored trivalent graphs and their Koszul matrix factorizations.

A graph carries oriented edges colored 1 to 3, with color flow conserved at
every internal vertex, and at least one marked point per edge.  A mark of
color c contributes c ring generators: the mark name itself for c = 1, and
elementary symmetric generators name.e1 .. name.ec otherwise.

Each internal vertex (including the formal 2-valent ones sitting between
consecutive marks on a single edge) yields Koszul rows (a U_j, X_j - Y_j)
where X_j, Y_j are the j-th elementary symmetric functions of the outgoing
and incoming alphabets and U_j is the symmetric difference quotient of the
(N+1)-st power sum.  The vertex also records an x-degree shift
-sum_{s<t} i_s i_t over the colors of its outgoing edges.

The factorization of the whole graph is the tensor product of the vertex
pieces over the shared marks, then reduced: internal marks are excluded
through linear rows.  Its graded dimension (gdim) kills a and the chosen
variables and takes the homology slice by slice over Q, each slice's ranks
the pivot counts of qamod.smith on a SliceMatrix of a-degree 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from operator import add
from typing import Iterable, Sequence

from .mf import (
    KoszulSpec,
    MatrixFactorization,
    _difference_quotient,
    cast,
    exclude_all,
    koszul,
)
from .poly import (
    KIND_A,
    KIND_MARK,
    KIND_SYM,
    BigradedPoly,
    BudgetError,
    Coefficient,
    InvariantError,
    VariableTable,
    monomials,
    power_sum_in_elementary,
    substitute,
)
from .qamod import SliceMatrix, smith

BOUNDARY = "_"
_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


@dataclass(frozen=True)
class MoyGraph:
    """vertices: (id, in-edge ids, out-edge ids); edges: (id, color, from, to);
    marks: (edge-id, alphabet name), listed in order along each edge."""

    vertices: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    edges: tuple[tuple[str, int, str, str], ...]
    marks: tuple[tuple[str, str], ...]

    def edge(self, eid: str) -> tuple[str, int, str, str]:
        for e in self.edges:
            if e[0] == eid:
                return e
        raise KeyError(eid)

    def edge_marks(self, eid: str) -> list[str]:
        return [alph for mid, alph in self.marks if mid == eid]

    def is_closed(self) -> bool:
        return all(frm != BOUNDARY and to != BOUNDARY for _, _, frm, to in self.edges)

    def validate(self) -> None:
        ids = [v[0] for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex id")
        eids = [e[0] for e in self.edges]
        if len(set(eids)) != len(eids):
            raise ValueError("duplicate edge id")
        by_vertex_in: dict[str, list[str]] = {i: [] for i in ids}
        by_vertex_out: dict[str, list[str]] = {i: [] for i in ids}
        for eid, color, frm, to in self.edges:
            if color not in (1, 2, 3):
                raise ValueError(f"edge {eid}: color {color} not in 1..3")
            if frm != BOUNDARY:
                if frm not in by_vertex_out:
                    raise ValueError(f"edge {eid}: unknown vertex {frm}")
                by_vertex_out[frm].append(eid)
            if to != BOUNDARY:
                if to not in by_vertex_in:
                    raise ValueError(f"edge {eid}: unknown vertex {to}")
                by_vertex_in[to].append(eid)
        for vid, ins, outs in self.vertices:
            if sorted(ins) != sorted(by_vertex_in[vid]) or sorted(outs) != sorted(by_vertex_out[vid]):
                raise ValueError(f"vertex {vid}: incident edge lists inconsistent")
            flow_in = sum(self.edge(e)[1] for e in ins)
            flow_out = sum(self.edge(e)[1] for e in outs)
            if flow_in != flow_out:
                raise ValueError(f"vertex {vid}: color flow {flow_in} != {flow_out}")
            if len(ins) + len(outs) < 2:
                raise ValueError(f"vertex {vid}: valence < 2 (use '{BOUNDARY}' for end points)")
        seen_alphabets = set()
        for mid, alph in self.marks:
            if mid not in set(eids):
                raise ValueError(f"mark on unknown edge {mid}")
            if not _NAME.match(alph) or alph == "a":
                raise ValueError(f"bad alphabet name {alph!r}")
            if alph in seen_alphabets:
                raise ValueError(f"alphabet {alph} used twice")
            seen_alphabets.add(alph)
        for eid in eids:
            if not self.edge_marks(eid):
                raise ValueError(f"edge {eid} has no mark")

    # ring structure -------------------------------------------------------

    def table(self) -> VariableTable:
        entries: list = [("a", KIND_A)]
        for mid, alph in self.marks:
            color = self.edge(mid)[1]
            entries.extend(_mark_entries(alph, color))
        return VariableTable.build(entries)

    def boundary(self) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
        """(exits, entrances) as (alphabet, color) pairs."""
        exits, entrances = [], []
        for eid, color, frm, to in self.edges:
            ms = self.edge_marks(eid)
            if frm == BOUNDARY:
                entrances.append((ms[0], color))
            if to == BOUNDARY:
                exits.append((ms[-1], color))
        return exits, entrances

    def boundary_variable_names(self) -> list[str]:
        exits, entrances = self.boundary()
        out: list[str] = []
        for alph, color in exits + entrances:
            out.extend(mark_variables(alph, color))
        return out

    def internal_variable_names(self) -> list[str]:
        boundary = set(self.boundary_variable_names())
        out = []
        for mid, alph in self.marks:
            for nm in mark_variables(alph, self.edge(mid)[1]):
                if nm not in boundary:
                    out.append(nm)
        return out

    def pieces(self) -> list["MoyVertex"]:
        """Internal vertices plus the formal 2-valent ones between marks."""
        out: list[MoyVertex] = []
        for vid, ins, outs in self.vertices:
            in_alph = tuple((self.edge_marks(e)[-1], self.edge(e)[1]) for e in ins)
            out_alph = tuple((self.edge_marks(e)[0], self.edge(e)[1]) for e in outs)
            out.append(MoyVertex(vid, in_alph, out_alph))
        for eid, color, _, _ in self.edges:
            ms = self.edge_marks(eid)
            for i in range(len(ms) - 1):
                out.append(
                    MoyVertex(f"{eid}.{i}", ((ms[i], color),), ((ms[i + 1], color),))
                )
        return out


def _mark_entries(alph: str, color: int):
    if color == 1:
        return [(alph, KIND_MARK)]
    return [(f"{alph}.e{k}", KIND_SYM, k) for k in range(1, color + 1)]


def mark_variables(alph: str, color: int) -> list[str]:
    if color == 1:
        return [alph]
    return [f"{alph}.e{k}" for k in range(1, color + 1)]


@dataclass(frozen=True)
class MoyVertex:
    id: str
    in_alphabets: tuple[tuple[str, int], ...]
    out_alphabets: tuple[tuple[str, int], ...]


def build_graph(
    edges: list[tuple[str, int, str, str]], marks: list[tuple[str, str]]
) -> MoyGraph:
    """Derive the vertex list from edge endpoints and validate."""
    ids: list[str] = []
    for _, _, frm, to in edges:
        for end in (frm, to):
            if end != BOUNDARY and end not in ids:
                ids.append(end)
    vertices = []
    for vid in ids:
        ins = tuple(e[0] for e in edges if e[3] == vid)
        outs = tuple(e[0] for e in edges if e[2] == vid)
        vertices.append((vid, ins, outs))
    g = MoyGraph(tuple(vertices), tuple(edges), tuple(marks))
    g.validate()
    return g


def parse_graph(text: str) -> MoyGraph:
    """Line-oriented description:  v <id> | e <id> <color> <from> <to> |
    m <edge-id> <alphabet>;  '#' starts a comment; '_' is a boundary end."""
    declared: list[str] = []
    edges: list[tuple[str, int, str, str]] = []
    marks: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "v" and len(parts) == 2:
                declared.append(parts[1])
            elif kind == "e" and len(parts) == 5:
                edges.append((parts[1], int(parts[2]), parts[3], parts[4]))
            elif kind == "m" and len(parts) == 3:
                marks.append((parts[1], parts[2]))
            else:
                raise ValueError(f"unrecognized line {lineno}: {raw.strip()!r}")
        except ValueError as exc:
            raise ValueError(f"graph syntax error at line {lineno}: {exc}") from None
    g = build_graph(edges, marks)
    derived = {v[0] for v in g.vertices}
    for vid in declared:
        if vid not in derived:
            raise ValueError(f"declared vertex {vid} has no incident edge")
    return g


# ---------------------------------------------------------------------------
# Vertex factorizations


def alphabet_generators(table: VariableTable, alph: str, color: int) -> list[BigradedPoly]:
    return [BigradedPoly.variable(table, nm) for nm in mark_variables(alph, color)]


def _elem_union(table: VariableTable, gen_lists: list[list[BigradedPoly]], j: int) -> BigradedPoly:
    """j-th elementary symmetric function of a disjoint union of alphabets,
    by convolution of the per-alphabet generator lists."""
    acc = [BigradedPoly.one(table)]
    for gens in gen_lists:
        width = len(acc) + len(gens)
        nxt = [BigradedPoly.zero(table) for _ in range(width)]
        for i, p in enumerate(acc):
            nxt[i] = nxt[i] + p
            for k, g in enumerate(gens, start=1):
                nxt[i + k] = nxt[i + k] + p * g
        acc = nxt
    return acc[j] if j < len(acc) else BigradedPoly.zero(table)


def vertex_shift(v: MoyVertex) -> tuple[int, int]:
    colors = [c for _, c in v.out_alphabets]
    total = 0
    for s in range(len(colors)):
        for t in range(s + 1, len(colors)):
            total += colors[s] * colors[t]
    return (0, -total)


def vertex_factorization(v: MoyVertex, n: int, table: VariableTable) -> KoszulSpec:
    """Rows (a U_j, X_j - Y_j) for j = 1..m, m the total color through v."""
    m_out = sum(c for _, c in v.out_alphabets)
    m_in = sum(c for _, c in v.in_alphabets)
    if m_out != m_in:
        raise ValueError(f"vertex {v.id}: color flow violated")
    m = m_out
    if m == 0 or m > 3:
        raise ValueError(f"vertex {v.id}: total color {m} unsupported")
    x_lists = [alphabet_generators(table, alph, c) for alph, c in v.out_alphabets]
    y_lists = [alphabet_generators(table, alph, c) for alph, c in v.in_alphabets]
    xs = [_elem_union(table, x_lists, j) for j in range(1, m + 1)]
    ys = [_elem_union(table, y_lists, j) for j in range(1, m + 1)]
    a = BigradedPoly.variable(table, "a")
    rows = []
    for j in range(1, m + 1):
        u = _difference_quotient(table, xs, ys, j, n)
        rows.append((a * u, xs[j - 1] - ys[j - 1]))
    spec = KoszulSpec(table, n, tuple(rows))
    want = a * (power_sum_in_elementary(xs, n + 1) - power_sum_in_elementary(ys, n + 1))
    if spec.potential() != want:
        raise InvariantError("vertex potential mismatch")
    return spec


# ---------------------------------------------------------------------------
# Graded dimension


@dataclass
class GdimSeries:
    """Coefficients of the graded dimension series, exact up to x_truncation.

    terms maps (epsilon, a-degree, x-degree) to a nonnegative dimension;
    the series variable convention is tau^eps alpha^j xi^k.
    """

    terms: dict[tuple[int, int, int], int]
    x_truncation: int

    def shifted(self, de: int, dj: int, dk: int) -> "GdimSeries":
        return GdimSeries(
            {((e + de) % 2, j + dj, k + dk): v for (e, j, k), v in self.terms.items()},
            self.x_truncation + dk,
        )

    def __add__(self, other: "GdimSeries") -> "GdimSeries":
        bound = min(self.x_truncation, other.x_truncation)
        out: dict[tuple[int, int, int], int] = {}
        for src in (self.terms, other.terms):
            for key, v in src.items():
                if key[2] <= bound:
                    out[key] = out.get(key, 0) + v
        return GdimSeries({k: v for k, v in out.items() if v}, bound)

    def same_series(self, other: "GdimSeries") -> bool:
        bound = min(self.x_truncation, other.x_truncation)
        a = {k: v for k, v in self.terms.items() if k[2] <= bound}
        b = {k: v for k, v in other.terms.items() if k[2] <= bound}
        return a == b

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (e, j, k), v in sorted(self.terms.items(), key=lambda t: (t[0][2], t[0][1], t[0][0])):
            factors = [] if v == 1 else [str(v)]
            if e:
                factors.append("tau")
            if j:
                factors.append(f"alpha^{j}" if j != 1 else "alpha")
            if k:
                factors.append(f"xi^{k}" if k != 1 else "xi")
            bits.append("*".join(factors) if factors else "1")
        return " + ".join(bits)


# Slice basis elements gdim may enumerate, counted before any is built.  An
# element costs about 10 us and 0.7 KB (theta-split at x-degree 50,000: 200,008
# elements, 1.9 s, 155 MB peak), so the cap holds gdim near 2 s.
MAX_SLICE_BASIS = 200_000


def _count_up_to(weights: Sequence[int], total: int, cap: int) -> int:
    """How many exponent tuples have weighted degree <= total, or cap + 1 if
    more.  Each step of the loop counts at least one tuple, so the cost is
    bounded by cap whatever the total."""
    if total < 0:
        return 0
    if not weights:
        return 1
    head, rest = weights[0], weights[1:]
    if not rest:
        return min(total // head + 1, cap + 1)
    count = 0
    for k in range(total // head + 1):
        count += _count_up_to(rest, total - k * head, cap - count)
        if count > cap:
            break
    return count


def gdim(
    M: MatrixFactorization,
    x_truncation: int,
    kill: Iterable[str] | None = None,
) -> GdimSeries:
    """Graded dimension of homology after killing the designated variables.

    By default every variable (a and all marks) is killed, which matches a
    fully reduced closed diagram; passing a smaller kill set keeps the other
    variables alive and the homology is taken over them, slice by slice.
    The variable a must always be killed so that each slice is finite
    dimensional.  A truncation whose slices hold more than MAX_SLICE_BASIS
    elements in all raises BudgetError before any is enumerated.
    """
    names = M.table.names()
    kill_set = set(names) if kill is None else set(kill)
    unknown = kill_set - set(names)
    if unknown:
        raise ValueError(f"kill variables not in ring: {sorted(unknown)}")
    if "a" in names and "a" not in kill_set:
        raise ValueError("gdim requires killing a (slices are infinite otherwise)")
    surv = [i for i, nm in enumerate(names) if nm not in kill_set]
    weights = [M.table.variables[i].bidegree[1] for i in surv]
    zero_sub = {v: BigradedPoly.zero(M.table) for v in kill_set}
    # the images of each generator under the killed differential, as
    # (target generator, survivor exponents, coefficient)
    images: list[dict[int, list]] = [{}, {}]
    for par, d in enumerate((M.d0, M.d1)):
        for (ti, si), p in d.items():
            for e, c in substitute(p, zero_sub, M.table).terms.items():
                images[par].setdefault(si, []).append((ti, tuple(e[i] for i in surv), c))

    bases = (M.basis0, M.basis1)

    @cache
    def slice_basis(par: int, j: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
        return [
            (g, mono)
            for g, (ga, gx) in enumerate(bases[par])
            if ga == j and gx <= k
            for mono in monomials(weights, k - gx)
        ]

    def slice_rank(par: int, src, tgt) -> int:
        """Rank over Q of the killed differential from slice src to slice
        tgt, the pivot count of its Smith reduction at a-degree 0."""
        tgt_pos = {key: pos for pos, key in enumerate(tgt)}
        entries: dict[tuple[int, int], Coefficient] = {}
        for col, (g, mono) in enumerate(src):
            for ti, e, c in images[par].get(g, ()):
                row = tgt_pos.get((ti, tuple(map(add, mono, e))))
                if row is None:
                    raise InvariantError("image outside enumerated slice")
                entries[(row, col)] = entries.get((row, col), 0) + c
        return len(smith(SliceMatrix((0,) * len(src), (0,) * len(tgt), 0, entries)).pivots)

    a_values = sorted({a for a, _ in bases[0]} | {a for a, _ in bases[1]})
    x_min = min((x for _, x in bases[0] + bases[1]), default=0)
    x_top = x_truncation
    if not surv:
        # with no variable left, a slice holds only generators of x-degree k
        x_top = min(x_top, max((x for _, x in bases[0] + bases[1]), default=x_min))
    size = 0
    for _, gx in bases[0] + bases[1]:
        size += _count_up_to(weights, x_top + M.n + 1 - gx, MAX_SLICE_BASIS - size)
        if size > MAX_SLICE_BASIS:
            raise BudgetError(
                f"graded dimension to x-degree {x_truncation} needs more than "
                f"{MAX_SLICE_BASIS} slice basis elements, the cap"
            )
    terms: dict[tuple[int, int, int], int] = {}
    for par in (0, 1):
        for j in a_values:
            for k in range(x_min, x_top + 1):
                src = slice_basis(par, j, k)
                if not src:
                    continue
                out_tgt = slice_basis((par + 1) % 2, j + 1, k + M.n + 1)
                in_src = slice_basis((par + 1) % 2, j - 1, k - M.n - 1)
                rank_out = slice_rank(par, src, out_tgt)
                rank_in = slice_rank((par + 1) % 2, in_src, src) if in_src else 0
                dim = len(src) - rank_out - rank_in
                if dim < 0:
                    raise InvariantError("negative slice dimension")
                if dim:
                    terms[(par, j, k)] = dim
    return GdimSeries(terms, x_truncation)


# ---------------------------------------------------------------------------
# Whole-graph factorizations


def graph_potential(graph: MoyGraph, n: int, table: VariableTable) -> BigradedPoly:
    a = BigradedPoly.variable(table, "a")
    exits, entrances = graph.boundary()
    w = BigradedPoly.zero(table)
    for alph, color in exits:
        gens = alphabet_generators(table, alph, color)
        w = w + a * power_sum_in_elementary(gens, n + 1)
    for alph, color in entrances:
        gens = alphabet_generators(table, alph, color)
        w = w - a * power_sum_in_elementary(gens, n + 1)
    return w


def reduced_graph_spec(graph: MoyGraph, n: int) -> tuple[KoszulSpec, tuple[int, int]]:
    """Concatenated vertex rows with internal marks excluded where linear."""
    graph.validate()
    table = graph.table()
    rows: list = []
    sa = sx = 0
    for v in graph.pieces():
        spec = vertex_factorization(v, n, table)
        rows.extend(spec.rows)
        da, dx = vertex_shift(v)
        sa += da
        sx += dx
    spec = KoszulSpec(table, n, tuple(rows))
    spec, _ = exclude_all(spec, graph.internal_variable_names())
    return spec, (sa, sx)


def graph_factorization(graph: MoyGraph, n: int) -> MatrixFactorization:
    """Koszul factorization of the reduced spec, shifted by the vertex shifts.

    Nothing is split off: no entry is a nonzero constant.  Each row is
    (a U_j, X_j - Y_j), so a left entry has a-degree 2 and a right entry
    x-degree 2j >= 2, and exclusion substitutes images of the excluded
    variable's own bidegree, which keeps both degrees.
    """
    spec, (sa, sx) = reduced_graph_spec(graph, n)
    M = koszul(spec).shifted(sa, sx)
    want = cast(graph_potential(graph, n, graph.table()), spec.table)
    if M.potential != want:
        raise InvariantError("boundary potential mismatch")
    return M


def graph_gdim(graph: MoyGraph, n: int, x_truncation: int) -> GdimSeries:
    """Graded dimension over the boundary ring (over everything if closed)."""
    M = graph_factorization(graph, n)
    if graph.is_closed():
        return gdim(M, x_truncation)
    kill = ["a"] + [v for v in graph.boundary_variable_names() if v in M.table]
    return gdim(M, x_truncation, kill=kill)


def with_extra_mark(graph: MoyGraph, edge_id: str, alph: str) -> MoyGraph:
    """Insert one more marked point at the far end of an edge's mark list."""
    graph.edge(edge_id)
    marks = []
    inserted = False
    for mid, name in graph.marks:
        marks.append((mid, name))
        if mid == edge_id and not inserted:
            inserted = True
            marks.append((edge_id, alph))
    g = MoyGraph(graph.vertices, graph.edges, tuple(marks))
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Named graphs


def builtin_graph(name: str) -> MoyGraph:
    if name not in BUILTIN_GRAPHS:
        known = ", ".join(sorted(BUILTIN_GRAPHS))
        raise ValueError(f"unknown builtin graph {name!r} (known: {known})")
    return BUILTIN_GRAPHS[name]()


def _circle() -> MoyGraph:
    return build_graph([("c", 1, "V", "V")], [("c", "x")])


def _wide_edge() -> MoyGraph:
    # plain 2-colored edge, entrance Y at the bottom, exit X at the top
    return build_graph([("e", 2, BOUNDARY, BOUNDARY)], [("e", "Y"), ("e", "X")])


def _theta_split() -> MoyGraph:
    # 2-edge splits into two 1-edges (marks x5, x6) and merges back
    edges = [
        ("b", 2, BOUNDARY, "S"),
        ("l", 1, "S", "M"),
        ("r", 1, "S", "M"),
        ("t", 2, "M", BOUNDARY),
    ]
    marks = [("b", "Y"), ("l", "x5"), ("r", "x6"), ("t", "X")]
    return build_graph(edges, marks)


def _r3_gamma() -> MoyGraph:
    # ladder: 2-colored left strand, 1-colored right strand, two rungs
    edges = [
        ("lb", 2, BOUNDARY, "A"),
        ("lm", 1, "A", "D"),
        ("g1", 1, "A", "B"),
        ("rb", 1, BOUNDARY, "B"),
        ("rm", 2, "B", "C"),
        ("rt", 1, "C", BOUNDARY),
        ("g2", 1, "C", "D"),
        ("lt", 2, "D", BOUNDARY),
    ]
    marks = [
        ("lb", "Y"),
        ("lm", "x7"),
        ("g1", "x9"),
        ("rb", "x6"),
        ("rm", "W"),
        ("rt", "x3"),
        ("g2", "x8"),
        ("lt", "X"),
    ]
    return build_graph(edges, marks)


def _r3_gamma0() -> MoyGraph:
    edges = [("l", 2, BOUNDARY, BOUNDARY), ("r", 1, BOUNDARY, BOUNDARY)]
    marks = [("l", "Y"), ("l", "X"), ("r", "x6"), ("r", "x3")]
    return build_graph(edges, marks)


def _r3_gamma1() -> MoyGraph:
    edges = [
        ("bl", 2, BOUNDARY, "M"),
        ("br", 1, BOUNDARY, "M"),
        ("mid", 3, "M", "S"),
        ("tl", 2, "S", BOUNDARY),
        ("tr", 1, "S", BOUNDARY),
    ]
    marks = [("bl", "Y"), ("br", "x6"), ("mid", "V"), ("tl", "X"), ("tr", "x3")]
    return build_graph(edges, marks)


def _crossing_gamma0() -> MoyGraph:
    edges = [("l", 1, BOUNDARY, BOUNDARY), ("r", 1, BOUNDARY, BOUNDARY)]
    marks = [("l", "y2"), ("l", "x1"), ("r", "x2"), ("r", "y1")]
    return build_graph(edges, marks)


def _crossing_gamma1() -> MoyGraph:
    edges = [
        ("bl", 1, BOUNDARY, "m"),
        ("br", 1, BOUNDARY, "m"),
        ("mid", 2, "m", "s"),
        ("tl", 1, "s", BOUNDARY),
        ("tr", 1, "s", BOUNDARY),
    ]
    marks = [("bl", "y2"), ("br", "x2"), ("mid", "W"), ("tl", "x1"), ("tr", "y1")]
    return build_graph(edges, marks)


BUILTIN_GRAPHS = {
    "circle": _circle,
    "wide-edge": _wide_edge,
    "theta-split": _theta_split,
    "r3-gamma": _r3_gamma,
    "r3-gamma0": _r3_gamma0,
    "r3-gamma1": _r3_gamma1,
    "crossing-gamma0": _crossing_gamma0,
    "crossing-gamma1": _crossing_gamma1,
}
