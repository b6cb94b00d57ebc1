"""Resolution cubes: chain complexes of matrix factorizations for closed braids.

Each crossing of a braid word resolves in two ways.  The oriented resolution
keeps the two strands parallel; the wide resolution merges them through a
2-colored edge.  Writing s = x2 - x1 for the corner marks x1 (top left exit),
y1 (top right exit), y2 (bottom left entrance), x2 (bottom right entrance),
both resolutions are two-row Koszul factorizations sharing their first row:

    F  = (a (U1 + x1 U2),  x1 + y1 - x2 - y2)
    G0 = (a s U2,          x1 - y2)                    oriented
    G1 = (a U2,            s (x1 - y2))    with {0,-1}  wide

U1, U2 are difference quotients of the two-variable power sum p_{2,N+1} in
the elementary symmetric functions of the top and bottom alphabets.  The
crossing maps chi are diagonal on the Koszul subset basis: the factor s jumps
between the left and the right entry of the G row, so the diagonal entry is s
exactly on the masks containing the G row (for chi^1) or avoiding it (for
chi^0).  Both composites equal s Id on the nose.

A positive crossing contributes Gamma1<1>{1,N} -> Gamma0<1>{1,N-1} in
homological degrees -1, 0; a negative one Gamma0<1>{-1,-N+1} ->
Gamma1<1>{-1,-N} in degrees 0, 1.  The closure of the braid word is marked
with one variable per arc, the tensor cube is assembled with sign
(-1)^(number of earlier crossings already resolved), and marks are excluded
through the state-independent rows so that the same substitution applies in
every cube vertex.  ChainComplexOfMF.excluded then excludes each vertex's
own marks, through its oriented resolutions' rows as well, and carries chi
over to the smaller factorizations as pi_tgt chi iota_src.  Both compose an
exclusion chain's substitution with mf.exclusion_substitution.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .braid import BraidWord
from .mf import (
    ChainVector,
    KoszulSpec,
    Matrix,
    MatrixFactorization,
    Reduction,
    _difference_quotient,
    _vec_add,
    check_entry_degrees,
    compose_sum,
    exclude_all,
    exclusion_reduction,
    exclusion_substitution,
    find_constant_entry,
    koszul,
    koszul_masks,
)
from .poly import (
    KIND_A,
    KIND_MARK,
    BigradedPoly,
    BudgetError,
    InvariantError,
    VariableTable,
    substitute,
)

MatPair = tuple[Matrix, Matrix]  # parity-preserving map, one matrix per parity


# ---------------------------------------------------------------------------
# Local crossing models


def _crossing_rows(table: VariableTable, n: int, names):
    """Shared row, both resolution rows and the jumping factor s = x2 - x1."""
    x1, y1, y2, x2 = (BigradedPoly.variable(table, nm) for nm in names)
    a = BigradedPoly.variable(table, "a")
    xs = [x1 + y1, x1 * y1]  # elementary symmetric in the exits
    ys = [x2 + y2, x2 * y2]  # ... and in the entrances
    u1 = _difference_quotient(table, xs, ys, 1, n)
    u2 = _difference_quotient(table, xs, ys, 2, n)
    s = x2 - x1
    f_row = (a * (u1 + x1 * u2), xs[0] - ys[0])
    g0_row = (a * s * u2, x1 - y2)
    g1_row = (a * u2, s * (x1 - y2))
    return f_row, g0_row, g1_row, s


def check_even_morphism(
    src: MatrixFactorization,
    tgt: MatrixFactorization,
    mats: MatPair,
    da: int,
    dx: int,
) -> None:
    """Assert mats is a parity-preserving chain map of degree (0, da, dx)."""
    check_entry_degrees([(mats[par], src.basis(par), tgt.basis(par)) for par in (0, 1)], da, dx)
    # tgt.d . mats == mats' . src.d exactly when their difference sums to
    # no entry, since compose_sum is exact and drops the zero entries
    for par in (0, 1):
        if compose_sum([
            (1, tgt.differential(par), mats[par]),
            (-1, mats[(par + 1) % 2], src.differential(par)),
        ]):
            raise InvariantError("morphism does not commute with the differentials")


def chi_diagonal(
    masks_by_parity, flip: int, gbit: int, s: BigradedPoly, s_bit: int, sign: int
) -> MatPair:
    """Diagonal chi map on a Koszul subset basis, one matrix per parity.

    The entry of a mask is s when its G-row bit gbit equals s_bit and 1
    otherwise (s_bit = 1 for chi^1, 0 for chi^0); an odd flip swaps which
    mask list underlies basis(par), and every entry is multiplied by sign.
    """
    one = BigradedPoly.one(s.table)
    if sign < 0:
        s, one = -s, -one
    mats: MatPair = ({}, {})
    for par in (0, 1):
        for idx, mask in enumerate(masks_by_parity[(par + flip) % 2]):
            entry = s if (mask >> gbit & 1) == s_bit else one
            if not entry.is_zero():
                mats[par][(idx, idx)] = entry
    return mats


# ---------------------------------------------------------------------------
# Closure marking

# A node (gap, position) is the point of the closed diagram at the given
# strand position in the gap above crossing number gap (cyclically).  An arc
# is a maximal run of nodes not interrupted by a crossing; arc k carries the
# one mark x<k>, numbered in the order the arcs' first nodes appear.


def _closure_arcs(word: BraidWord) -> tuple[list[bool], dict[tuple[int, int], int]]:
    """Whether each arc is a free circle, and the arc of each node."""
    m = word.strands
    gaps = max(len(word.letters), 1)
    # node (g, p) continues the arc of (g - 1, p) unless crossing g cuts p, so
    # an arc is the run of gaps from one cut at p to the next (cyclically)
    cuts: dict[int, list[int]] = {p: [] for p in range(1, m + 1)}
    for t, (i, _) in enumerate(word.letters):
        cuts[i].append(t)
        cuts[i + 1].append(t)

    circles: list[bool] = []
    node_arc: dict[tuple[int, int], int] = {}
    seen: dict[tuple[int, int | None], int] = {}
    for g in range(gaps):
        for p in range(1, m + 1):
            at = cuts[p]
            # the position and the cut the arc starts at; None for a free circle
            key = (p, at[bisect_right(at, g) - 1] if at else None)
            if key not in seen:
                seen[key] = len(circles)
                circles.append(not at)
            node_arc[(g, p)] = seen[key]
    return circles, node_arc


# ---------------------------------------------------------------------------
# The chain complex


@dataclass
class Summand:
    """One cube vertex inside a term: its state, its factorization, and the
    Koszul spec and shift (a-degree, x-degree, parity flip) it is built from."""

    state: tuple[int, ...] | None
    mf: MatrixFactorization
    spec: KoszulSpec
    shift: tuple[int, int, int]


class ExcludedVertex(NamedTuple):
    """A cube vertex with its own marks excluded.

    mf is the Koszul factorization of the excluded spec, shifted as the raw
    vertex is; sub sends each excluded mark to its image over mf.table, the
    composite of the steps (mf.exclusion_substitution); reductions hold the
    steps' chain maps in order.
    """

    mf: MatrixFactorization
    sub: dict[str, BigradedPoly]
    reductions: list[Reduction]


class ExcludedCube(NamedTuple):
    """The vertices of a cube with their own marks excluded, in the layout of
    its summands, and the blocks of d_chi carried over to them: the block of
    (i, t, s) is pi_t chi iota_s, over the target vertex's ring."""

    vertices: dict[int, list[ExcludedVertex]]
    blocks: dict[tuple[int, int, int], MatPair]


class ChainComplexOfMF:
    """Finite complex of matrix factorizations with an even differential d_chi.

    summands maps homological degree to its cube vertices; blocks maps
    (i, target index, source index) to the (mat0, mat1) pair of d_chi from a
    vertex of degree i to one of degree i+1, with indices local to the
    summand lists.  Each vertex factorization already carries its own checks
    of d^2 = w and of its entry degrees, made where it was built; verify()
    checks what joins the vertices: zero potential at every vertex, each
    block an even morphism of degree 0, and d_chi^2 = 0.  terms holds each
    degree's vertices as one block-diagonal factorization, assembled without
    a further check on first use.  Nothing in the package reads terms, but
    the benchmark observer in perfbench/layers.py counts cube.rank from it,
    so it stays until that observer reads summands instead.  excluded is the
    same cube on each vertex's own smaller ring, built on first use.
    """

    def __init__(self, table, n, summands, blocks):
        self.table = table
        self.n = n
        self.summands: dict[int, list[Summand]] = {
            i: list(parts) for i, parts in sorted(summands.items()) if parts
        }
        self.blocks: dict[tuple[int, int, int], MatPair] = dict(blocks)
        self.verify()

    @cached_property
    def terms(self) -> dict[int, MatrixFactorization]:
        return {i: self._direct_sum(parts) for i, parts in self.summands.items()}

    def _direct_sum(self, parts: list[Summand]) -> MatrixFactorization:
        basis0: list[tuple[int, int]] = []
        basis1: list[tuple[int, int]] = []
        d0: Matrix = {}
        d1: Matrix = {}
        for part in parts:
            mf = part.mf
            off0, off1 = len(basis0), len(basis1)
            for (ti, si), p in mf.d0.items():
                d0[(ti + off1, si + off0)] = p
            for (ti, si), p in mf.d1.items():
                d1[(ti + off0, si + off1)] = p
            basis0.extend(mf.basis0)
            basis1.extend(mf.basis1)
        return MatrixFactorization(
            self.table, self.n, parts[0].mf.potential, basis0, basis1, d0, d1, check=False
        )

    def verify(self) -> None:
        """Assert the identities that join the vertex factorizations."""
        for i, parts in self.summands.items():
            for part in parts:
                if not part.mf.potential.is_zero():
                    raise InvariantError(f"term {i} has nonzero potential")
        out_of: dict[tuple[int, int], list[tuple[int, MatPair]]] = {}
        for (i, ti, si), mats in self.blocks.items():
            src, tgt = self.summands[i][si].mf, self.summands[i + 1][ti].mf
            check_even_morphism(src, tgt, mats, 0, 0)
            out_of.setdefault((i, si), []).append((ti, mats))
        for (i, si), firsts in out_of.items():
            for par in (0, 1):
                # d_chi^2 from vertex si, one sum of paths per target vertex
                into: dict[int, list[tuple[int, Matrix, Matrix]]] = {}
                for mid, first in firsts:
                    for ti, second in out_of.get((i + 1, mid), ()):
                        into.setdefault(ti, []).append((1, second[par], first[par]))
                if any(compose_sum(paths) for paths in into.values()):
                    raise InvariantError(f"d_chi^2 != 0 out of degree {i}")

    @cached_property
    def excluded(self) -> ExcludedCube:
        """Every vertex with its own marks excluded (Khovanov-Rozansky's
        exclusion lemma), and d_chi transported to the excluded vertices.

        A vertex excludes through every row whose right entry is unit-linear
        in a mark: beyond the state-independent rows, which the build already
        used, the row x1 - y2 of each oriented resolution.  pi and iota are
        homotopy equivalences of each vertex, so the transported d_chi'
        induces the same map on the homology of the vertex differential;
        d_chi'^2 = pi chi (iota pi - 1) chi iota is not zero, but it is a
        vertex differential's boundary there.  mf.exclusion_substitution
        composes each vertex's chain of exclusions into one substitution.
        """
        marks = [v.name for v in self.table.variables if v.kind == KIND_MARK]
        vertices: dict[int, list[ExcludedVertex]] = {}
        for i, parts in self.summands.items():
            for part in parts:
                spec, steps = exclude_all(part.spec, marks)
                mf = koszul(spec).shifted(*part.shift)
                reductions = [exclusion_reduction(step) for step in steps]
                vertices.setdefault(i, []).append(
                    ExcludedVertex(mf, exclusion_substitution(steps), reductions)
                )
        lifts: dict[tuple[int, int], tuple[list[ChainVector], list[ChainVector]]] = {}
        blocks = {}
        for (i, ti, si), mats in self.blocks.items():
            flip = self.summands[i][si].shift[2]
            if (i, si) not in lifts:
                lifts[(i, si)] = _lift_columns(vertices[i][si], flip)
            blocks[(i, ti, si)] = _transport_block(mats, lifts[(i, si)], vertices[i + 1][ti], flip)
        return ExcludedCube(vertices, blocks)


def _lift_columns(src: ExcludedVertex, flip: int) -> tuple[list[ChainVector], list[ChainVector]]:
    """iota_src of each basis vector of src.mf, per parity, through the
    vertex's chain of exclusions; an odd flip swaps the Koszul parity of
    basis(par).  A vertex's columns are lifted once for all its blocks."""
    one = BigradedPoly.one(src.mf.table)
    lifts: tuple[list[ChainVector], list[ChainVector]] = ([], [])
    for par in (0, 1):
        kpar = (par + flip) % 2
        for j in range(len(src.mf.basis(par))):
            vec: ChainVector = {(kpar, j): one}
            for red in reversed(src.reductions):
                vec = red.iota(vec)
            lifts[par].append(vec)
    return lifts


def _transport_block(
    mats: MatPair,
    lifts: tuple[list[ChainVector], list[ChainVector]],
    tgt: ExcludedVertex,
    flip: int,
) -> MatPair:
    """pi_tgt . mats . iota_src through the two vertices' chains of
    exclusions, given the source's lifted columns (_lift_columns)."""
    # each parity's entries by source column, in their order in mats
    by_source: tuple[dict[int, list], dict[int, list]] = ({}, {})
    for par in (0, 1):
        for (ti, si), p in mats[par].items():
            by_source[par].setdefault(si, []).append((ti, p))
    out: MatPair = ({}, {})
    for par in (0, 1):
        kpar = (par + flip) % 2
        for j, lifted in enumerate(lifts[par]):
            vec: ChainVector = {}
            for (kp, idx), coeff in lifted.items():
                for ti, p in by_source[(kp + flip) % 2].get(idx, ()):
                    _vec_add(vec, (kp, ti), p * coeff)
            for red in tgt.reductions:
                vec = red.pi(vec)
            for (kpar2, ti), p in vec.items():
                if kpar2 != kpar:
                    raise InvariantError("a transported block changes the parity")
                out[par][(ti, j)] = p
    return out


# ---------------------------------------------------------------------------
# Building the cube of a closed braid


# Koszul generators a resolution cube may hold over all its vertices at n = 1;
# the cap at n is MAX_CUBE_GENERATORS // n^2, checked before any row is built,
# since the entries' polynomials grow with n.  Builds on a 2-vCPU host at
# n = 1: 2^14 (s_12 on 13 strands) 0.9 s and 62 MB; 2^15 (s_13) 2.0 s and
# 115 MB, and 1 1 1 1 1 1 1 3.2 s and 94 MB; 2^16 (s_14) 4.5 s and 220 MB.
# At the cap for n > 1: 1 1 at n = 32 0.8 s, 1 1 1 at n = 16 0.3 s,
# 1 -2 1 -2 at n = 8 0.2 s, 1 1 1 1 1 at n = 4 0.2 s; past it 1 1 at n = 48
# takes 4.0 s and 1 1 1 at n = 24 1.3 s.  The homology after a build past
# the cap was not measured, so the cap stays where it was set.
MAX_CUBE_GENERATORS = 1 << 15


def build_complex(word: BraidWord, n: int) -> ChainComplexOfMF:
    """Chain complex of the closure of a braid word, reduced uniformly.

    Each arc of the closure carries one mark.  Marks are then excluded
    through the state-independent rows only, so every cube vertex stays a
    Koszul factorization over the same retained ring Q[a, surviving marks]
    and d_chi remains strictly well defined; ChainComplexOfMF.excluded
    drops each vertex's own marks afterwards.
    """
    if not isinstance(word, BraidWord):
        raise TypeError("build_complex expects a closed braid word")
    if n < 1:
        raise ValueError("n must be a positive integer")
    c = len(word.letters)
    # the uniform exclusion keeps one shared row per connected piece of the
    # closure: the right entries of a piece's rows are the rows of a graph's
    # incidence matrix, of rank one less than their number.  The pieces are the
    # strands less the distinct generators, so 2^c vertices of 2^(c + pieces)
    # generators each, 2^bits in all, a count checked against the exclusion
    # below.  2^bits > cap exactly when bits reaches cap's bit length, so the
    # count is never built; the message writes it as a power, since in decimal
    # a huge strand count passes Python's limit on int-to-str digits.
    pieces = word.strands - len({i for i, _ in word.letters})
    bits = 2 * c + pieces
    cap = MAX_CUBE_GENERATORS // (n * n)
    if bits >= cap.bit_length():
        raise BudgetError(
            f"the resolution cube needs 2^{bits} Koszul generators, over the cap of {cap}"
        )
    gaps = max(c, 1)
    circles, node_arc = _closure_arcs(word)
    names = [f"x{k}" for k in range(len(circles))]
    table = VariableTable.build([("a", KIND_A)] + [(nm, KIND_MARK) for nm in names])

    # state-independent rows: every crossing's F row, then the row of each
    # free circle's mark, which is its own 2-valent vertex
    shared: list[tuple[BigradedPoly, BigradedPoly]] = []
    crossings = []
    for t, (i, sign) in enumerate(word.letters):
        below = (t - 1) % gaps
        corner_names = tuple(
            names[node_arc[node]] for node in ((t, i), (t, i + 1), (below, i), (below, i + 1))
        )
        f_row, g0_row, g1_row, s = _crossing_rows(table, n, corner_names)
        shared.append(f_row)
        if sign > 0:
            # wide resolution at homological degree -1, oriented at 0
            by_state = [g1_row, g0_row]
            dx_by_state = (n - 1, n - 1)
        else:
            # oriented resolution at homological degree 0, wide at 1
            by_state = [g0_row, g1_row]
            dx_by_state = (-n + 1, -n - 1)
        crossings.append({"sign": sign, "g": by_state, "s": s, "dx": dx_by_state})
    a, zero = BigradedPoly.variable(table, "a"), BigradedPoly.zero(table)
    for nm, circle in zip(names, circles):
        if circle:
            shared.append(((n + 1) * a * BigradedPoly.variable(table, nm) ** n, zero))

    # uniform mark exclusion: only the state-independent rows are eligible,
    # so the same substitution applies in all 2^c vertices
    mark_names = [v.name for v in table.variables if v.kind == KIND_MARK]
    shared_spec, steps = exclude_all(KoszulSpec(table, n, tuple(shared)), mark_names)
    table, sub = shared_spec.table, exclusion_substitution(steps)
    for cr in crossings:
        cr["g"] = [(substitute(l, sub, table), substitute(r, sub, table)) for l, r in cr["g"]]
        cr["s"] = substitute(cr["s"], sub, table)
    shared = list(shared_spec.rows)

    writhe = sum(sign for _, sign in word.letters)
    bases = [-1 if cr["sign"] > 0 else 0 for cr in crossings]
    nrows = len(shared) + c
    if nrows != c + pieces:
        raise InvariantError(f"{len(shared)} shared rows left for {pieces} pieces")
    masks_by_parity = koszul_masks(nrows)

    summands: dict[int, list[Summand]] = {}
    positions: dict[tuple[int, ...], tuple[int, int]] = {}
    # product yields the states in lexicographic order, so each degree's
    # list is built in state order and a part's position is its index now
    for state in itertools.product((0, 1), repeat=c):
        rows = list(shared) + [cr["g"][b] for cr, b in zip(crossings, state)]
        dx = sum(cr["dx"][b] for cr, b in zip(crossings, state))
        spec = KoszulSpec(table, n, tuple(rows))
        shift = (writhe, dx, c)
        mf = koszul(spec).shifted(*shift)
        # nothing contractible: a left entry has a-degree 2 and a right entry
        # x-degree >= 2, and exclusion substitutes images of the excluded
        # mark's own bidegree (see moy.graph_factorization)
        if find_constant_entry(mf) is not None:
            raise InvariantError("contractible summand in a cube vertex")
        deg = sum(base + b for base, b in zip(bases, state))
        parts = summands.setdefault(deg, [])
        positions[state] = (deg, len(parts))
        parts.append(Summand(state, mf, spec, shift))

    blocks: dict[tuple[int, int, int], MatPair] = {}
    for state in itertools.product((0, 1), repeat=c):
        for t in range(c):
            if state[t]:
                continue
            target = tuple(b if k != t else 1 for k, b in enumerate(state))
            # s sits on the G-set masks for chi^1 (wide to oriented, positive
            # crossings) and on the G-unset masks for chi^0; the c parity
            # flips swap the mask lists
            i, si = positions[state]
            _, ti = positions[target]
            blocks[(i, ti, si)] = chi_diagonal(
                masks_by_parity,
                c,
                len(shared) + t,
                crossings[t]["s"],
                1 if crossings[t]["sign"] > 0 else 0,
                -1 if sum(state[:t]) % 2 else 1,
            )
    return ChainComplexOfMF(table, n, summands, blocks)
