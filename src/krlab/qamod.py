"""Graded Q[a] linear algebra and the two-stage homology of braid complexes.

The homology of a closed-braid complex is taken in two passes: first the
matrix-factorization differential, then the induced even differential between
the resulting graded Q[a]-modules.  Everything here happens one slice at a
time: fixing the Z2-degree, the homological degree and the x-degree leaves a
finitely generated graded Q[a]-module, and homogeneity forces every matrix
entry to be a single monomial c a^e.  Smith reduction with the least
a-exponent as pivot therefore never leaves the monomial world, and kernels,
images and subquotients come out as explicit graded pieces.

The complex itself is infinite in the x-direction (marks act freely), so
computations run inside an x-degree window.  The window is widened internally
by the x-jump of the matrix-factorization differential, which makes every
reported slice exact: truncating above the widened top is a quotient complex
(no differential lowers the x-degree), and the discarded part never couples
back into the reported slices.  An eventually constant period-2 torsion
pattern near the top of the window is detected and reported as a tail, which
the decategorification sums in closed form.

Before any Smith reduction, the complex is shrunk by eliminating the
differential entries that are nonzero rationals (a-exponent zero) within a
fixed homological degree.  Such an elimination is a homotopy equivalence
compatible with the homological filtration, so the two-stage homology is
unchanged, and it also produces the corrected degree-one component used in
the second stage.  Correction terms of homological jump two and higher are
discarded: they never enter the two-stage answer.  The jump-one component
squares to zero only up to boundaries of the jump-zero component, which is
exactly the slack the second-stage subquotient construction absorbs.  A
zig-zag through a pivot adds the jumps of its two ends, so an entry of jump
two or more only ever produces more of them; they are never created.

The expansion grows with the window instead of being rebuilt.  An entry
of homological jump j raises the x-degree by exactly (1 - j)(n + 1): a
factorization term by n + 1, a chi term by 0, and a zig-zag by the sum of
its ends less its pivot.  Raising the top from T to T' adds the basis
elements above T and the entries into them; nothing new enters at or below
T.  Gaussian elimination only corrects rows into its target, so an
elimination made below T would need replaying onto the new entries only if
its source had one, that is, sat at x >= T - n; a unit entry of an
expansion at top T leaves x <= T - n - 1, so there is nothing to log or
replay.  The new entries from old sources are the raw ones of the
surviving sources (an eliminated old source was a pivot target, whose
outgoing entries the elimination dropped), and the unit entries then
present are eliminated as before, each into an element above T.
After a reduction at top hi + n + 1 the slices at x <= hi are final: no
later growth removes an element at x <= hi or changes an entry between two
of them.  The stage-one and stage-two results at x <= hi - n - 1 read only
such elements and entries, so they are final too and are kept.

The expanded complex is a direct sum of subcomplexes, one for each class
(k mod (n + 1), (eps + k div (n + 1)) mod 2) of the slices (eps, i, k), and
each class is expanded and reduced on its own.  A factorization term raises
k by n + 1 and flips eps, which keeps both parts of the class; a chi term
keeps eps and k.  So every stage stays within one class: the raw terms (the
x-slope check forces this), the zig-zags, which compose entries, d0 into
(eps + 1, i, k + n + 1), d1 into (eps, i + 1, k), stage one's incoming image
from (eps + 1, i, k - n - 1), and phi and stage two, which read
(eps, i +- 1, k).  The elements of one generator at mark degree d lie in one
class, and those at d and d + n + 1 in the same one, so a generator meets a
class at one residue of d mod n + 1, if at all.
"""

from __future__ import annotations

import gc
import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .cube import ChainComplexOfMF
from .mf import kernel, rank
from .poly import KIND_A, KIND_MARK, ExpansionBudgetError, InvariantError, exact, monomials
from .skein import ATOM_ALPHA, Laurent, SkeinValue, atom_xi1

Mono = tuple[Fraction, int]  # coefficient, a-exponent
Vec = dict[int, Mono]
MonoMat = dict[int, dict[int, Mono]]  # column -> row -> monomial


# ---------------------------------------------------------------------------
# Monomial vectors and matrices

def _vec_accumulate(vec: Vec, idx: int, coeff: Fraction, exp: int) -> None:
    cur = vec.get(idx)
    if cur is None:
        vec[idx] = (coeff, exp)
        return
    c0, e0 = cur
    if e0 != exp:
        raise InvariantError("inhomogeneous accumulation")
    s = c0 + coeff
    if s:
        vec[idx] = (s, exp)
    else:
        del vec[idx]


def _cols_apply(cols_mat: MonoMat, vec: Vec) -> Vec:
    """Apply a column-major matrix (col -> row -> monomial) to a vector."""
    out: Vec = {}
    for c, (cv, ce) in vec.items():
        col = cols_mat.get(c)
        if not col:
            continue
        for r, (mc, me) in col.items():
            term = cv if mc == 1 else (-cv if mc == -1 else mc * cv)
            _vec_accumulate(out, r, term, me + ce)
    return out


# ---------------------------------------------------------------------------
# Slice matrices and graded Smith reduction


@dataclass(frozen=True)
class SliceMatrix:
    """Homogeneous Q[a]-linear map between graded free modules.

    source and target list the a-degrees of the generators, shift is the
    a-degree of the map.  Homogeneity forces every entry to be one monomial
    c a^e with 2e = shift + source[col] - target[row], so entries are stored
    as (coefficient, exponent) pairs keyed by (row, col).
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    shift: int
    entries: dict

    def __post_init__(self) -> None:
        clean = {}
        for (r, c), (coeff, exp) in self.entries.items():
            coeff = exact(coeff)
            if not coeff:
                continue
            if not (0 <= r < len(self.target)) or not (0 <= c < len(self.source)):
                raise ValueError(f"entry {(r, c)} outside the matrix")
            if exp < 0:
                raise ValueError(f"negative a-exponent at {(r, c)}")
            if 2 * exp != self.shift + self.source[c] - self.target[r]:
                raise ValueError(f"entry at {(r, c)} breaks the grading")
            clean[(r, c)] = (coeff, exp)
        object.__setattr__(self, "entries", clean)

    def columns(self) -> list[tuple[Vec, int]]:
        """Each column as a vector over the target, with its source a-degree."""
        cols: list[Vec] = [{} for _ in self.source]
        for (r, c), mono in self.entries.items():
            cols[c][r] = mono
        return list(zip(cols, self.source))


def _hstack(a: SliceMatrix, b: SliceMatrix) -> SliceMatrix:
    if a.target != b.target or a.shift != b.shift:
        raise ValueError("hstack needs matching targets and shifts")
    entries = dict(a.entries)
    off = len(a.source)
    for (r, c), mono in b.entries.items():
        entries[(r, c + off)] = mono
    return SliceMatrix(a.source + b.source, a.target, a.shift, entries)


@dataclass
class SmithResult:
    """Diagonalization M . col_t = row_t_inv . D by graded row/column operations.

    pivots lists (row, col, exponent) in selection order; exponents are
    non-decreasing, giving the divisibility chain a^{d1} | a^{d2} | ...
    The two transforms are invertible with monomial entries and stored
    column-major (col -> row -> monomial): at each pivot (r0, c0, e),
    M . col_t[:, c0] = a^e row_t_inv[:, r0], and M . col_t[:, c] = 0 at every
    other column c.  So the non-pivot columns of col_t are the kernel basis
    and the pivot columns of row_t_inv, the only ones it holds, scaled by a^e
    are the image basis.  The coordinates rely on two support facts:

    - column operations only add multiples of the pivot column, so kernel
      column c of col_t is 1 at c and otherwise lives on pivot columns;
    - the row_t_inv column at pivot r0 is final once r0 is pivoted, and it
      lives on r0 and on the rows not yet pivoted then.
    """

    matrix: SliceMatrix
    pivots: list[tuple[int, int, int]]
    row_t_inv: MonoMat
    col_t: MonoMat
    _ker_pos: dict | None = None

    def diagonal(self) -> list[int]:
        return [e for _, _, e in self.pivots]

    def _kernel_positions(self) -> dict[int, int]:
        if self._ker_pos is None:
            pivot_cols = {c for _, c, _ in self.pivots}
            cols = [c for c in range(len(self.matrix.source)) if c not in pivot_cols]
            self._ker_pos = {c: i for i, c in enumerate(cols)}
        return self._ker_pos

    def kernel_basis(self) -> list[tuple[Vec, int]]:
        """Free basis of ker M: (vector over the source, its a-degree)."""
        col_t, source = self.col_t, self.matrix.source
        return [(dict(col_t[c]), source[c]) for c in self._kernel_positions()]

    def image_basis(self) -> list[tuple[Vec, int]]:
        """Free basis of im M: (vector over the target, its a-degree)."""
        out = []
        for r0, _, e in self.pivots:
            col = self.row_t_inv[r0]
            vec = {r: (coeff, exp + e) for r, (coeff, exp) in col.items()}
            out.append((vec, self.matrix.target[r0] + 2 * e))
        return out

    def kernel_coords(self, vec: Vec) -> Vec:
        """Coordinates of a kernel element in the kernel basis: its entries at
        the non-pivot columns, checked by a zero residual."""
        pos = self._kernel_positions()
        rest = dict(vec)
        out: Vec = {}
        for c, (vc, ve) in vec.items():
            t = pos.get(c)
            if t is None:
                continue
            out[t] = (vc, ve)
            for r, (gc, ge) in self.col_t[c].items():
                _vec_accumulate(rest, r, -gc * vc, ge + ve)
        if rest:
            raise InvariantError("vector is not in the kernel")
        return out

    def image_coords(self, vec: Vec) -> Vec:
        """Coordinates of an image element in the image basis, by forward
        substitution in pivot order, checked by a zero residual."""
        rest = dict(vec)
        out: Vec = {}
        for t, (r0, _, e) in enumerate(self.pivots):
            got = rest.pop(r0, None)
            if got is None:
                continue
            col = self.row_t_inv[r0]
            pc = col[r0][0]
            coeff, exp = got
            if exp < e:
                raise InvariantError("vector is not in the image")
            if pc != 1:
                coeff = exact(Fraction(coeff) / pc)
            out[t] = (coeff, exp - e)
            for r, (gc, ge) in col.items():
                if r != r0:
                    _vec_accumulate(rest, r, -gc * coeff, ge + exp)
        if rest:
            raise InvariantError("vector is not in the image")
        return out


def smith(M: SliceMatrix) -> SmithResult:
    """Graded Smith reduction with the least a-exponent as pivot.

    Entries live in row- and column-indexed form so each operation touches
    only actual nonzeros, and pivot candidates sit in a heap keyed by
    (exponent, row, col); a cell's exponent never changes, so stale heap
    entries are discarded by a presence check.  The pivot is cleared from
    its column by row operations and from its row by column operations;
    every multiplier is a monomial of non-negative exponent, so one pass
    per pivot suffices and the recorded diagonal exponents come out
    non-decreasing.

    Only col_t and row_t_inv are tracked (see SmithResult).  Column
    operations only add multiples of the pivot column to other columns, and
    col_t takes each step, so kernel column c of col_t is 1 at c and
    otherwise lives on pivot columns.  Row operations add multiples of row
    r0 to the rows not yet pivoted, whose row_t_inv columns stay identity
    columns; so the row_t_inv column at r0 is the pivot column over a^e,
    read before they run: it lives on r0 and on the rows not yet pivoted,
    and it is final once r0 is pivoted.
    """
    by_row: dict[int, dict[int, Mono]] = {}
    by_col: dict[int, dict[int, Mono]] = {}
    heap: list[tuple[int, int, int]] = []
    for (r, c), mono in M.entries.items():
        by_row.setdefault(r, {})[c] = mono
        by_col.setdefault(c, {})[r] = mono
        heap.append((mono[1], r, c))
    heapq.heapify(heap)
    one = (1, 0)
    row_t_inv: MonoMat = {}
    col_t: MonoMat = {i: {i: one} for i in range(len(M.source))}
    pivots: list[tuple[int, int, int]] = []

    def set_cell(r: int, c: int, coeff: Fraction, exp: int) -> None:
        row = by_row.setdefault(r, {})
        cur = row.get(c)
        if cur is None:
            mono = (coeff, exp)
            row[c] = mono
            by_col.setdefault(c, {})[r] = mono
            heapq.heappush(heap, (exp, r, c))
            return
        if cur[1] != exp:
            raise InvariantError("graded collision in smith")
        s = cur[0] + coeff
        if s:
            mono = (s, exp)
            row[c] = mono
            by_col[c][r] = mono
        else:
            del row[c]
            del by_col[c][r]

    while heap:
        pe, r0, c0 = heapq.heappop(heap)
        got = by_row.get(r0, {}).get(c0)
        if got is None:
            continue
        row_t_inv[r0] = {r: (dc, de - pe) for r, (dc, de) in by_col[c0].items()}
        pc = got[0]
        if pc != 1:
            u = -1 if pc == -1 else Fraction(1) / pc
            row = by_row[r0] = {c: (cc * u, ce) for c, (cc, ce) in by_row[r0].items()}
            for c, mono in row.items():
                by_col[c][r0] = mono
        # clear the pivot column by row operations
        pivot_row = by_row[r0]
        for r in [r for r in by_col[c0] if r != r0]:
            dc, de = by_row[r][c0]
            mc, me = -dc, de - pe
            for c, (gc, ge) in pivot_row.items():
                set_cell(r, c, gc if mc == 1 else (-gc if mc == -1 else mc * gc), me + ge)
        # the column is now clear; clear the pivot row by column operations
        pivot_col, kernel_step = by_col[c0], col_t[c0]
        for c in [c for c in pivot_row if c != c0]:
            dc, de = pivot_row[c]
            mc, me = -dc, de - pe
            for r, (gc, ge) in pivot_col.items():
                set_cell(r, c, gc if mc == 1 else (-gc if mc == -1 else mc * gc), me + ge)
            acc = col_t[c]
            for r, (gc, ge) in kernel_step.items():
                _vec_accumulate(acc, r, gc if mc == 1 else (-gc if mc == -1 else mc * gc), me + ge)
        row = by_row.pop(r0)
        del row[c0]
        col = by_col.pop(c0)
        del col[r0]
        if row or col:
            raise InvariantError("pivot row or column not cleared")
        pivots.append((r0, c0, pe))
    return SmithResult(M, pivots, row_t_inv, col_t)


# ---------------------------------------------------------------------------
# The decomposed module


@dataclass(frozen=True)
class SliceModule:
    """Content of one (eps, i, x-degree) slice: free shifts and torsion pairs.

    free lists the a-degrees of the free generators Q[a]{s}; torsion lists
    (l, t) pairs meaning Q[a]/(a^l){t}. Both are sorted tuples, the
    multiset order being the only canonical part of the decomposition.
    """

    free: tuple[int, ...]
    torsion: tuple[tuple[int, int], ...]

    def q_dimension(self, j: int) -> int:
        """Dimension over Q of the a-degree-j piece."""
        dim = sum(1 for s in self.free if s <= j and (j - s) % 2 == 0)
        dim += sum(
            1 for l, t in self.torsion if t <= j < t + 2 * l and (j - t) % 2 == 0
        )
        return dim


@dataclass(frozen=True)
class Tail:
    """Eventually polynomial period-2 torsion pattern reaching the window top.

    families lists triples (l, t, coeffs): from x-degree start, stepping by
    two, the multiplicity of Q[a]/(a^l){t} at step d is sum_j coeffs[j] C(d, j).
    A single circle tower has constant coefficients (m,); every further
    circle raises the polynomial degree of the multiplicity by one.
    """

    eps: int
    i: int
    start: int
    families: tuple[tuple[int, int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class GradedQaModule:
    """Two-stage homology inside an x-degree window.

    slices maps (eps, i, k) to the slice decomposition; tails flag the
    detected eventually constant torsion patterns (a reporting convention:
    the window plus its tails is what the decategorification sums exactly).
    """

    n: int
    window: tuple[int, int]
    slices: dict
    tails: tuple[Tail, ...]

    def q_dimension(self, eps: int, i: int, j: int, k: int) -> int:
        got = self.slices.get((eps, i, k))
        return got.q_dimension(j) if got is not None else 0

    def pretty(self) -> str:
        if not self.slices:
            lo, hi = self.window
            return f"0: the window x = {lo}..{hi} holds no homology"
        lines = []
        for (eps, i, k) in sorted(self.slices):
            sm = self.slices[(eps, i, k)]
            bits = [f"Q[a]{{{s}}}" for s in sm.free]
            bits += [f"Q[a]/(a^{l}){{{t}}}" for l, t in sm.torsion]
            lines.append(f"(eps={eps}, i={i}, x={k}): " + " + ".join(bits))
        for tail in self.tails:
            bits = []
            for l, t, coeffs in tail.families:
                if coeffs == (1,):
                    bits.append(f"Q[a]/(a^{l}){{{t}}}")
                else:
                    bits.append(
                        f"Q[a]/(a^{l}){{{t}}} (multiplicity differences {coeffs})"
                    )
            lines.append(
                f"tail (eps={tail.eps}, i={tail.i}): "
                + " + ".join(bits)
                + f" every 2 from x={tail.start}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Reducing the complex to slice data

_TAIL_REPEATS = 3


@dataclass
class _Reduced:
    n: int
    slices: dict  # (eps, i, k) -> list of generator a-degrees
    d0: dict  # (eps, i, k) -> {(row, col): Mono} into (eps+1, i, k+n+1)
    d1: dict  # (eps, i, k) -> {(row, col): Mono} into (eps, i+1, k)


# The expansion takes about 2.6 KB per basis vector (1 1 1 1 1 at width 6:
# 186,510 vectors, 459 MB), so the cap stays near 650 MB.
MAX_EXPANSION = 250_000
_RESERVE = 1 << 24  # bytes of address space held back for unwinding from a MemoryError


def _generators(C: ChainComplexOfMF):
    """(eps, i, a-degree, x-degree) of every generator of C, in expansion order."""
    for i, parts in C.summands.items():
        for part in parts:
            for par in (0, 1):
                for ga, gx in part.mf.basis(par):
                    yield par, i, ga, gx


def _class_of(n: int, eps: int, k: int) -> tuple[int, int]:
    """The independent class of the slices (eps, i, k) (see the module docstring)."""
    q, r = divmod(k, n + 1)
    return r, (eps + q) % 2


def _class_starts(n: int, eps: int, gx: int) -> dict[tuple[int, int], int]:
    """For each class a generator of Z2-degree eps and x-degree gx meets, the
    least mark degree of its elements there; the others lie every n + 1 above."""
    return {_class_of(n, eps, gx + 2 * d): d for d in range(n + 1)}


def expansion_size(C: ChainComplexOfMF, top: int, cls: tuple[int, int] | None = None) -> int:
    """Basis vectors of the expansion of C up to x-degree top, in one class or,
    by default, in all: each generator of x-degree gx times its mark monomials
    of degree d <= D = (top - gx) // 2 whose elements lie in the class.  In
    all classes these number comb(D + marks, marks), at a cost independent of
    the width."""
    marks = sum(1 for v in C.table.variables if v.kind == KIND_MARK)
    if cls is None:
        return sum(comb((top - gx) // 2 + marks, marks) for *_, gx in _generators(C) if gx <= top)
    n = C.n
    return sum(
        comb(d + marks - 1, d) if marks else int(d == 0)
        for eps, _, _, gx in _generators(C)
        for c, start in _class_starts(n, eps, gx).items()
        if c == cls
        for d in range(start, (top - gx) // 2 + 1, n + 1)
    )


class _Expansion:
    """The expansion of C on its slice basis, held as one _ClassExpansion per
    independent class that has generators, each grown in place.

    It holds what the classes share: the generators, the raw differential
    terms, the mark monomials and the reserve of address space that lets a
    MemoryError unwind.  part(cls) creates a class on first use and keeps it;
    two_stage_homology without an expansion builds each class afresh instead
    and frees it before the next.
    """

    def __init__(self, C: ChainComplexOfMF, kill_a: bool = False) -> None:
        table = C.table
        for v in table.variables:
            if v.kind not in (KIND_A, KIND_MARK):
                raise ValueError("complex ring must be Q[a, marks]")
        a_pos = table.index("a")
        mark_pos = [i for i, v in enumerate(table.variables) if v.kind == KIND_MARK]
        self.C = C
        self.n = n = C.n
        self.nmarks = len(mark_pos)
        # generators: (eps, i, a-degree, x-degree), and the first of each summand
        self.gens: list[tuple[int, int, int, int]] = []
        first: dict[tuple[int, int, int], int] = {}
        for i, parts in C.summands.items():
            for sidx, part in enumerate(parts):
                for par in (0, 1):
                    first[(i, sidx, par)] = len(self.gens)
                    for ga, gx in part.mf.basis(par):
                        self.gens.append((par, i, ga, gx))
        self.x_min = min((gx for *_, gx in self.gens), default=0)
        self.starts = [_class_starts(n, eps, gx) for eps, _, _, gx in self.gens]
        self.classes = sorted({cls for starts in self.starts for cls in starts})
        # differential terms: (source gen, target gen, coefficient, a-exponent,
        # mark exponents, x-jump)
        self.terms: list[tuple[int, int, object, int, tuple[int, ...], int]] = []

        def add_matrix(src, tgt, mat) -> None:
            for (ti, si), poly in mat.items():
                gs, gt = first[src] + si, first[tgt] + ti
                for e, coeff in poly.terms.items():
                    ae = e[a_pos]
                    if kill_a and ae:
                        continue
                    mt = tuple(e[p] for p in mark_pos)
                    jump = self.gens[gt][3] + 2 * sum(mt) - self.gens[gs][3]
                    if jump != (0 if tgt[0] > src[0] else n + 1):
                        raise InvariantError("differential term off the x-slope")
                    self.terms.append((gs, gt, coeff, ae, mt, jump))

        for i, parts in C.summands.items():
            for sidx, part in enumerate(parts):
                for par in (0, 1):
                    add_matrix((i, sidx, par), (i, sidx, 1 - par), part.mf.differential(par))
        for (i, tis, sis), mats in C.blocks.items():
            for par in (0, 1):
                add_matrix((i, sis, par), (i + 1, tis, par), mats[par])
        self.parts: dict[tuple[int, int], _ClassExpansion] = {}
        self._monos: dict[int, list[tuple[int, ...]]] = {}
        self.admitted: int | None = None  # the widest top found under the cap
        self._reserve = bytes(_RESERVE)  # calloc'd: its pages are never touched

    def monos(self, degree: int) -> list[tuple[int, ...]]:
        got = self._monos.get(degree)
        if got is None:
            got = self._monos[degree] = monomials((1,) * self.nmarks, degree)
        return got

    def part(self, cls: tuple[int, int]) -> _ClassExpansion:
        got = self.parts.get(cls)
        if got is None:
            got = self.parts[cls] = _ClassExpansion(self, cls)
        return got

    def admit(self, top: int) -> None:
        """Refuse a top whose expansion, all classes together, passes MAX_EXPANSION."""
        if self.admitted is not None and top <= self.admitted:
            return
        size = expansion_size(self.C, top)
        if size > MAX_EXPANSION:
            raise ExpansionBudgetError(
                f"x-window width {top - self.n - 1 - self.x_min} needs an expansion "
                f"of {size} basis vectors, over the cap of {MAX_EXPANSION}"
            )
        self.admitted = top


class _ClassExpansion:
    """One class of the expansion up to x-degree top, with its unit entries
    eliminated, grown in place by raising the top.

    Basis elements are (generator, mark monomial) pairs, numbered in the
    order they are created.  Growing from top T to T' creates the elements
    at x in (T, T'] and the entries into them, from new sources and from
    surviving old ones, and eliminates the unit entries then present as a
    fresh expansion would.  Nothing from the earlier eliminations needs
    replaying onto the new entries (see the module docstring).  stage1, phis
    and modules hold the two-stage results of the keys at x <= final, which
    no growth changes (see two_stage_homology).  After a MemoryError every
    class of the expansion is emptied and must not be used again.
    """

    def __init__(self, knot: _Expansion, cls: tuple[int, int]) -> None:
        self.knot = knot
        self.cls = cls
        self.top: int | None = None
        # per generator, the least mark degree of its elements in this class
        self.starts = [starts.get(cls) for starts in knot.starts]
        self.index: list[dict[tuple[int, ...], int]] = [{} for _ in knot.gens]
        self.info_eps: list[int] = []
        self.info_i: list[int] = []
        self.info_k: list[int] = []
        self.info_ja: list[int] = []
        self.out: list[dict[int, Mono] | None] = []  # None once eliminated
        self.rows: list[set[int] | None] = []
        self.alive: list[bool] = []
        self.final = knot.x_min - 1
        self.stage1: dict = {}
        self.phis: dict = {}
        self.modules: dict = {}

    def grow(self, top: int) -> None:
        old = self.top
        if old is not None and top <= old:
            if top < old:
                raise ValueError(
                    f"the expansion already reaches x-degree {old}; "
                    f"it cannot be narrowed to {top}"
                )
            return
        knot = self.knot
        knot.admit(top)
        heap: list[tuple[int, int, int]] = []
        try:
            self._extend(old, top, expansion_size(knot.C, top, self.cls), heap)
        except MemoryError:
            # unwinding needs memory too: free the reserve, which takes no
            # allocation, then every class of the expansion
            knot._reserve = None
            heap.clear()
            for holder in [self, *knot.parts.values(), knot]:
                for value in vars(holder).values():
                    if isinstance(value, (list, dict)):
                        value.clear()
            raise
        self.top = top

    def _extend(self, old: int | None, top: int, size: int, heap: list) -> None:
        knot = self.knot
        step = knot.n + 1
        gens, monos = knot.gens, knot.monos
        info_eps, info_i, info_k, info_ja = self.info_eps, self.info_i, self.info_k, self.info_ja
        out, rows, alive, index, starts = self.out, self.rows, self.alive, self.index, self.starts
        first = len(info_i)
        for ids, start, (eps, i, ga, gx) in zip(index, starts, gens):
            if start is None:
                continue
            d_lo = 0 if old is None else max(0, (old - gx) // 2 + 1)
            for d in range(d_lo + (start - d_lo) % step, (top - gx) // 2 + 1, step):
                k = gx + 2 * d
                for m in monos(d):
                    ids[m] = len(info_i)
                    info_eps.append(eps)
                    info_i.append(i)
                    info_k.append(k)
                    info_ja.append(ga)
        if len(info_i) != size:
            raise InvariantError("expansion size differs from its closed form")
        out.extend({} for _ in range(size - first))
        rows.extend(set() for _ in range(size - first))
        alive.extend([True] * (size - first))

        # entries into the new elements, from the sources in this class (their
        # targets are in it too); an eliminated old source was a pivot target,
        # whose outgoing entries the elimination dropped.  One source element
        # meets one target through one mark monomial of one term, so a second
        # entry there differs in its a-exponent.
        units: list[tuple[int, int]] = []
        for gs, gt, coeff, ae, mt, jump in knot.terms:
            start = starts[gs]
            if start is None:
                continue
            gx = gens[gs][3]
            d_lo = 0 if old is None else max(0, (old - gx - jump) // 2 + 1)
            src, tgt = index[gs], index[gt]
            shifted = any(mt)
            mono = (coeff, ae)
            unit = not ae and gens[gs][1] == gens[gt][1]
            for d in range(d_lo + (start - d_lo) % step, (top - gx - jump) // 2 + 1, step):
                for m in monos(d):
                    sid = src[m]
                    if alive[sid]:
                        tid = tgt[tuple(map(add, m, mt))] if shifted else tgt[m]
                        row = out[sid]
                        if tid in row:
                            raise InvariantError("graded collision in reduction")
                        row[tid] = mono
                        rows[tid].add(sid)
                        if unit:
                            units.append((sid, tid))
        # the unit entries, each with its Markowitz cost
        heap.extend(((len(out[s]) - 1) * (len(rows[t]) - 1), s, t) for s, t in units)
        heapq.heapify(heap)
        del units

        while heap:
            cost, s0, t0 = heapq.heappop(heap)
            if not alive[s0] or not alive[t0]:
                continue
            mono = out[s0].get(t0)
            if mono is None or mono[1] != 0:
                continue
            now = (len(out[s0]) - 1) * (len(rows[t0]) - 1)
            if now > cost and heap:
                heapq.heappush(heap, (now, s0, t0))
                continue
            if t0 < first:
                raise InvariantError("growth eliminates an element at or below the old top")
            pivot = mono[0]
            # the zig-zag s -> t0 <- s0 -> t adds the jumps of its two ends;
            # a jump of 2 or more never feeds the two-stage answer
            i0 = info_i[s0]
            flat = [(t, g) for t, g in out[s0].items() if t != t0 and info_i[t] == i0]
            both = flat + [(t, g) for t, g in out[s0].items() if info_i[t] != i0]
            for s in [s for s in rows[t0] if s != s0]:
                row = out[s]
                dc, de = row[t0]
                if pivot == 1:
                    factor = -dc
                elif pivot == -1:
                    factor = dc
                else:
                    factor = exact(-Fraction(dc) / pivot)
                same = info_i[s] == i0
                for t, (gc, ge) in (both if same else flat):
                    coeff = gc if factor == 1 else (-gc if factor == -1 else factor * gc)
                    exp = de + ge
                    cur = row.get(t)
                    if cur is None:
                        row[t] = (coeff, exp)
                        sources = rows[t]
                        sources.add(s)
                        if not exp and same and info_i[t] == i0:
                            heapq.heappush(heap, ((len(row) - 1) * (len(sources) - 1), s, t))
                    elif cur[1] != exp:
                        raise InvariantError("graded collision in reduction")
                    else:
                        c = cur[0] + coeff
                        if c:
                            row[t] = (c, exp)
                        else:
                            del row[t]
                            rows[t].discard(s)
            for s in rows[t0]:
                out[s].pop(t0, None)
            for t in out[s0]:
                rows[t].discard(s0)
            for t in out[t0]:
                rows[t].discard(t0)
            for u in rows[s0]:
                out[u].pop(s0, None)
            # the pair leaves the complex, and its containers with it
            out[s0] = out[t0] = rows[s0] = rows[t0] = None
            alive[s0] = alive[t0] = False

    def reduced(self) -> _Reduced:
        """The surviving slice bases above x = final, whose two-stage results
        are not kept yet, and the two components out of them."""
        n, final = self.knot.n, self.final
        info_eps, info_i, info_k, info_ja = self.info_eps, self.info_i, self.info_k, self.info_ja
        alive, out = self.alive, self.out
        members: dict[tuple[int, int, int], list[int]] = {}
        for ident in range(len(alive)):
            if alive[ident] and info_k[ident] > final:
                key = (info_eps[ident], info_i[ident], info_k[ident])
                members.setdefault(key, []).append(ident)
        position: dict[int, tuple[tuple[int, int, int], int]] = {}
        labels: dict[tuple[int, int, int], list[int]] = {}
        for key, ids in members.items():
            ids.sort(key=lambda ident: (info_ja[ident], ident))
            labels[key] = [info_ja[ident] for ident in ids]
            for pos, ident in enumerate(ids):
                position[ident] = (key, pos)

        d0: dict = {}
        d1: dict = {}
        for ident, (key, pos) in position.items():
            eps, i, k = key
            for t, mono in out[ident].items():
                tkey, tpos = position[t]
                di = tkey[1] - i
                if di == 0:
                    if mono[1] == 0:
                        raise InvariantError("unit entry survived the reduction")
                    if tkey != ((eps + 1) % 2, i, k + n + 1):
                        raise InvariantError("slice slope broken")
                    d0.setdefault(key, {})[(tpos, pos)] = mono
                elif di == 1:
                    if tkey != (eps, i + 1, k):
                        raise InvariantError("slice slope broken")
                    d1.setdefault(key, {})[(tpos, pos)] = mono
                elif di < 0:
                    raise InvariantError("backwards correction")
                else:
                    raise InvariantError("correction of homological jump two or more")
        return _Reduced(n, labels, d0, d1)


def _reduce_complex(C: ChainComplexOfMF, top: int, expansion: _ClassExpansion) -> _Reduced:
    """Grow one class of the expansion of C on its slice basis to x-degree top,
    eliminating the unit entries, and return its reduced slices.

    Entries that are nonzero rationals within one homological degree are
    Gaussian-eliminated; the result keeps the degree-preserving component
    (entries divisible by a) and the corrected degree-one component.
    """
    if expansion.knot.C is not C:
        raise ValueError("the expansion belongs to another complex")
    expansion.grow(top)
    return expansion.reduced()


def _by_class(C: ChainComplexOfMF, top: int, fn, expansion=None, kill_a=False) -> dict:
    """The union of fn(part, reduced) over the classes of the expansion of C
    to x-degree top, reduced one at a time.

    The classes of a given expansion are grown in place and kept.  Without
    one, each class is expanded afresh and freed before the next is built,
    so no two are ever held at once.  The cyclic garbage collector is paused
    throughout and its state restored after: the expansion holds no cycles,
    and its collections would only walk it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        knot = _Expansion(C, kill_a) if expansion is None else expansion
        out: dict = {}
        for cls in knot.classes:
            part = _ClassExpansion(knot, cls) if expansion is None else knot.part(cls)
            out.update(fn(part, _reduce_complex(C, top, part)))
            del part  # a fresh class goes before the next one is built
        return out
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# Two-stage homology


@dataclass
class _Stage1:
    """Kernel basis and image presentation of one slice of the first stage."""

    labels: tuple[int, ...]  # a-degrees of the kernel basis
    vecs: list[Vec]  # kernel basis over the slice basis
    out_smith: SmithResult
    presentation: SliceMatrix  # columns: incoming image in kernel coordinates


def _resolve_window(C: ChainComplexOfMF, x_window, n: int) -> tuple[int, int, int]:
    x_min = min((gx for *_, gx in _generators(C)), default=0)
    if x_window is None:
        return x_min, x_min + 20, x_min
    if isinstance(x_window, int):
        if x_window < 0:
            raise ValueError("window width must be non-negative")
        return x_min, x_min + x_window, x_min
    lo, hi = int(x_window[0]), int(x_window[1])
    if lo > hi:
        raise ValueError("empty x-degree window")
    if lo > x_min:
        raise ValueError(
            "window too small to be self-consistent: generators start at "
            f"x-degree {x_min}, below the window bottom {lo}"
        )
    return lo, hi, x_min


_TAIL_MAX_DEGREE = 6


def _poly_fit(seq: list[int], max_deg: int) -> tuple[int, ...] | None:
    """Newton forward-difference coefficients if seq is polynomial in its index.

    Success requires the vanishing difference level to hold on at least two
    entries, so an accepted fit reproduces the whole sequence and has margin.
    """
    coeffs: list[int] = []
    cur = list(seq)
    for _ in range(max_deg + 1):
        if len(cur) < 3:
            return None
        coeffs.append(cur[0])
        nxt = [b - a for a, b in zip(cur, cur[1:])]
        if all(v == 0 for v in nxt):
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            return tuple(coeffs)
        cur = nxt
    return None


def _detect_tails(slices: dict, window: tuple[int, int]) -> tuple[Tail, ...]:
    lo, hi = window
    empty = SliceModule((), ())
    tails = []
    for eps, i in sorted({(e, ii) for e, ii, _ in slices}):
        for par in (0, 1):
            top = hi if hi % 2 == par % 2 else hi - 1
            base = lo if lo % 2 == par % 2 else lo + 1
            ks = list(range(base, top + 1, 2))
            if len(ks) < _TAIL_REPEATS:
                continue
            mods = [slices.get((eps, i, k), empty) for k in ks]
            if all(m is empty for m in mods):
                continue
            tor_keys = sorted({(l, t) for m in mods for l, t in m.torsion})
            for s_idx in range(len(ks) - _TAIL_REPEATS + 1):
                if any(m.free for m in mods[s_idx:]):
                    continue
                fams = []
                ok = True
                for l, t in tor_keys:
                    seq = [
                        sum(1 for pair in m.torsion if pair == (l, t))
                        for m in mods[s_idx:]
                    ]
                    fit = _poly_fit(seq, _TAIL_MAX_DEGREE)
                    if fit is None:
                        ok = False
                        break
                    if fit:
                        fams.append((l, t, fit))
                if ok and fams:
                    tails.append(Tail(eps, i, ks[s_idx], tuple(fams)))
                    break
    return tuple(tails)


def two_stage_homology(
    C: ChainComplexOfMF, x_window=None, expansion: _Expansion | None = None
) -> GradedQaModule:
    """Homology of the matrix-factorization differential, then of the induced
    even differential, decomposed into free and torsion Q[a]-summands.

    The window defaults to [x_min, x_min + 20] where x_min is the least
    generator x-degree; an integer window is a width anchored at x_min, and
    an explicit (lo, hi) whose bottom lies above x_min is rejected as
    inconsistent rather than silently truncated.  The search for the least
    width that decategorifies is adaptive_homology, below.

    Each class of the expansion of C is taken to the top hi + n + 1 and
    through both stages on its own, and the slices of all classes are merged
    before the tails are detected.  Without an expansion every class is
    built afresh and freed before the next; a given expansion's classes are
    grown instead, and a narrower top than they already have is refused.
    Results of keys at x <= hi - n - 1 are final: their slice, the first-
    stage map out of it and the slice it maps into all lie at x <= hi,
    where no growth removes an element or changes an entry.  They are kept
    on the class, and a wider computation on it reuses them.
    """
    if not isinstance(C, ChainComplexOfMF):
        raise TypeError("two_stage_homology expects a complex of factorizations")
    n = C.n
    lo, hi, _ = _resolve_window(C, x_window, n)
    slices = _by_class(C, hi + n + 1, lambda part, red: _class_homology(part, red, hi), expansion)
    slices = {key: slices[key] for key in sorted(slices)}
    window = (lo, hi)
    return GradedQaModule(n, window, slices, _detect_tails(slices, window))


def _class_homology(part: _ClassExpansion, red: _Reduced, hi: int) -> dict:
    """The nonzero two-stage slices of one reduced class at x <= hi; the results
    of keys at x <= hi - n - 1 are kept on the class."""
    n = red.n
    stage1: dict[tuple[int, int, int], _Stage1] = part.stage1
    phis: dict[tuple[int, int, int], SliceMatrix] = part.phis
    modules: dict[tuple[int, int, int], SliceModule | None] = part.modules

    for key in sorted(red.slices, key=lambda key: (key[2], key[0], key[1])):
        eps, i, k = key
        if k > hi or key in stage1:
            continue
        src = tuple(red.slices[key])
        tgt = tuple(red.slices.get(((eps + 1) % 2, i, k + n + 1), ()))
        sm = smith(SliceMatrix(src, tgt, 1, red.d0.get(key, {})))
        kb = sm.kernel_basis()
        kb_labels = tuple(lab for _, lab in kb)
        kb_vecs = [vec for vec, _ in kb]
        incoming = stage1.get(((eps + 1) % 2, i, k - n - 1))
        cells = {}
        img_labels = []
        if incoming is not None:
            for vec, lab in incoming.out_smith.image_basis():
                coords = sm.kernel_coords(vec)
                col = len(img_labels)
                img_labels.append(lab)
                for r, mono in coords.items():
                    cells[(r, col)] = mono
        pres = SliceMatrix(tuple(img_labels), kb_labels, 0, cells)
        stage1[key] = _Stage1(kb_labels, kb_vecs, sm, pres)

    def phi(key) -> SliceMatrix:
        """Induced map of kernel bases one homological degree up."""
        eps, i, k = key
        st = stage1[key]
        tgt = stage1.get((eps, i + 1, k))
        tgt_labels = tgt.labels if tgt is not None else ()
        cells = {}
        d1cols: MonoMat = {}
        for (r, c), mono in red.d1.get(key, {}).items():
            d1cols.setdefault(c, {})[r] = mono
        for c, vec in enumerate(st.vecs):
            w = _cols_apply(d1cols, vec)
            if not w:
                continue
            if tgt is None:
                raise InvariantError("induced map into an empty slice")
            for r, mono in tgt.out_smith.kernel_coords(w).items():
                cells[(r, c)] = mono
        return SliceMatrix(st.labels, tgt_labels, 0, cells)

    for key in stage1:
        if key not in phis:
            phis[key] = phi(key)

    for key in sorted(stage1):
        if key not in modules:
            modules[key] = _stage2(key, stage1, phis)

    out = {key: sm for key, sm in modules.items() if sm is not None}
    part.final = hi - n - 1
    for done in (stage1, phis, modules):
        for key in [key for key in done if key[2] > part.final]:
            del done[key]
    return out


def _stage2(key, stage1: dict, phis: dict) -> SliceModule | None:
    """The second-stage subquotient at one key, or None when it is zero."""
    eps, i, k = key
    st = stage1[key]
    if not st.labels:
        return None
    step = phis[key]
    nxt = stage1.get((eps, i + 1, k))
    aug = _hstack(step, nxt.presentation) if nxt is not None else step
    # free generators of {x : phi(x) lies in the incoming image}
    gcells = {}
    glabels = []
    nkb = len(st.labels)
    for vec, lab in smith(aug).kernel_basis():
        g = len(glabels)
        glabels.append(lab)
        for idx, mono in vec.items():
            if idx < nkb:
                gcells[(idx, g)] = mono
    gs = smith(SliceMatrix(tuple(glabels), st.labels, 0, gcells))
    zbasis = gs.image_basis()
    if not zbasis:
        return None
    # relations: the incoming induced map and the first-stage image
    rel_cols: list[tuple[Vec, int]] = []
    prev = phis.get((eps, i - 1, k))
    if prev is not None and prev.target == st.labels:
        rel_cols += prev.columns()
    rel_cols += st.presentation.columns()
    rcells = {}
    rlabels = []
    for vec, lab in rel_cols:
        col = len(rlabels)
        rlabels.append(lab)
        for t, mono in gs.image_coords(vec).items():
            rcells[(t, col)] = mono
    zlabels = tuple(lab for _, lab in zbasis)
    rs = smith(SliceMatrix(tuple(rlabels), zlabels, 0, rcells))
    torsion = sorted((e, zlabels[r]) for r, _, e in rs.pivots if e >= 1)
    pivot_rows = {r for r, _, _ in rs.pivots}
    free = sorted(lab for r, lab in enumerate(zlabels) if r not in pivot_rows)
    if free or torsion:
        return SliceModule(tuple(free), tuple(torsion))
    return None


# ---------------------------------------------------------------------------
# Specialization and decategorification


def specialize(M: GradedQaModule, at: str) -> dict:
    """Per-slice generator counts after setting a to 1 or to 0.

    At a = 1 torsion dies and each free summand contributes one dimension;
    at a = 0 every summand contributes its generator.
    """
    if at not in ("a=1", "a=0"):
        raise ValueError(f"unknown specialization {at!r}")
    out = {}
    for key, sm in M.slices.items():
        count = len(sm.free)
        if at == "a=0":
            count += len(sm.torsion)
        if count:
            out[key] = count
    return out


def euler_characteristic(M: GradedQaModule) -> SkeinValue:
    """Alternating sum of graded dimensions, as an exact rational function.

    Free summands contribute a geometric series in the a-variable, torsion a
    finite one; the slices covered by a detected tail are replaced by the
    closed form of the period-2 geometric sum.  Raises if content reaches
    the top of the window without a detected tail, or if the window holds no
    content at all, since then no exact series can be reported.
    """
    n = M.n
    lo, hi = M.window
    if not M.slices:
        raise ValueError(
            "window holds no homology; widen the window to decategorify exactly"
        )
    covered = {(t.eps, t.i, t.start % 2): t.start for t in M.tails}
    classes = {(e, i) for e, i, _ in M.slices}
    for eps, i in classes:
        for par in (0, 1):
            if (eps, i, par) in covered:
                continue
            top = hi if hi % 2 == par % 2 else hi - 1
            margin = [k for k in (top, top - 2, top - 4) if k >= lo]
            if any((eps, i, k) in M.slices for k in margin):
                raise ValueError(
                    "window content reaches the top without a detected tail; "
                    "widen the window to decategorify exactly"
                )
    total = SkeinValue.zero(n)
    geometric = SkeinValue.tau_free(n, Laurent.one(), Counter({ATOM_ALPHA: 1}))
    for (eps, i, k), sm in sorted(M.slices.items()):
        start = covered.get((eps, i, k % 2))
        if start is not None and k >= start:
            continue
        sign = 1 if i % 2 == 0 else -1
        for s in sm.free:
            term = SkeinValue.from_monomial(n, sign, s, k) * geometric
            total = total + (term.times_tau() if eps else term)
        if sm.torsion:
            num = Laurent.zero()
            for l, t in sm.torsion:
                for e in range(l):
                    num = num + Laurent.monomial(sign, t + 2 * e, k)
            term = SkeinValue.tau_free(n, num)
            total = total + (term.times_tau() if eps else term)
    for tail in M.tails:
        sign = 1 if tail.i % 2 == 0 else -1
        for l, t, coeffs in tail.families:
            for j, cj in enumerate(coeffs):
                if not cj:
                    continue
                num = Laurent.zero()
                for e in range(l):
                    num = num + Laurent.monomial(
                        sign * cj, t + 2 * e, tail.start + j - 1
                    )
                term = SkeinValue.tau_free(n, num, Counter({atom_xi1(): j + 1}))
                total = total + (term.times_tau() if tail.eps else term)
    return total.stripped()


# ---------------------------------------------------------------------------
# The least window that decategorifies

AUTO_MAX_WIDTH = 40


class WindowBudgetError(RuntimeError):
    """No x-window width up to AUTO_MAX_WIDTH decategorifies with confirmation."""


def adaptive_homology(
    C: ChainComplexOfMF,
    homology=two_stage_homology,
    euler=euler_characteristic,
) -> tuple[GradedQaModule, SkeinValue]:
    """Two-stage homology at the least even width that decategorifies, and its
    Euler characteristic.

    Width w is accepted when euler accepts the modules at w and at w + 2 with
    equal values, their tails are equal, and the slices of the wider module
    up to the narrower top are those of the narrower one.  The confirmation
    guards against a window that decategorifies to the wrong value: one with
    no content, or one whose tail fit holds only by coincidence.  Widths run
    2, 4, 6, ...; past AUTO_MAX_WIDTH the search raises WindowBudgetError,
    and a width whose expansion passes MAX_EXPANSION ends it with
    ExpansionBudgetError.  homology and euler are the two functions it
    calls, so a caller may pass in its own references to them.

    Every width is computed on one expansion of C, as homology(C, w,
    expansion), which grows each of its classes from the last top to the
    next and keeps them all: after a reduction at top hi + n + 1 the slices
    at x <= hi are final, and the stage results at x <= hi - n - 1 are kept,
    so each width adds only the elements above the last top and the keys
    near the new one.
    """
    expansion = _Expansion(C)
    prev = None
    for width in range(2, AUTO_MAX_WIDTH + 1, 2):
        mod = homology(C, width, expansion)
        try:
            value = euler(mod)
        except ValueError:
            prev = None
            continue
        if prev is not None and _confirms(*prev, mod, value):
            return prev
        prev = (mod, value)
    raise WindowBudgetError(
        f"x-window search exhausted: no width up to {AUTO_MAX_WIDTH} has an "
        "euler characteristic confirmed at the next width"
    )


def _confirms(
    narrow: GradedQaModule, value: SkeinValue, wide: GradedQaModule, wide_value: SkeinValue
) -> bool:
    top = narrow.window[1]
    return (
        value == wide_value
        and narrow.tails == wide.tails
        and {key: sm for key, sm in wide.slices.items() if key[2] <= top} == narrow.slices
    )


# ---------------------------------------------------------------------------
# Homology with the a-action killed


def mod_a_homology(C: ChainComplexOfMF, x_window=None) -> dict:
    """Two-stage homology of the complex with a set to zero.

    Killing a makes every slice a finite Q-vector space graded additionally
    by the generator a-degree, and the first-stage differential reduces to
    zero after the unit eliminations, so only the ranks of the induced even
    differential remain.  Returns (eps, i, j, k) -> dimension.
    """
    if not isinstance(C, ChainComplexOfMF):
        raise TypeError("mod_a_homology expects a complex of factorizations")
    n = C.n
    lo, hi, _ = _resolve_window(C, x_window, n)
    return _by_class(
        C, hi + n + 1, lambda _, red: _mod_a_dimensions(red, lo, hi), kill_a=True
    )


def _mod_a_dimensions(red: _Reduced, lo: int, hi: int) -> dict:
    """mod_a_homology of one reduced class of the complex with a killed."""
    for key, cells in red.d0.items():
        if cells:
            raise InvariantError("first-stage differential survives modulo a")

    # count each slice's generators by a-degree
    bases: dict[tuple[int, int, int, int], int] = {}
    for (eps, i, k), labels in red.slices.items():
        for ja, count in Counter(labels).items():
            bases[(eps, i, ja, k)] = count

    ranks: dict[tuple[int, int, int, int], int] = {}
    for key, cells in red.d1.items():
        eps, i, k = key
        labels = red.slices[key]
        by_j: dict[int, dict[int, dict[int, Fraction]]] = {}
        tgt_labels = red.slices[(eps, i + 1, k)]
        tgt_index: dict[int, dict[int, int]] = {}
        for pos, ja in enumerate(tgt_labels):
            sub = tgt_index.setdefault(ja, {})
            sub[pos] = len(sub)
        src_index: dict[int, dict[int, int]] = {}
        for pos, ja in enumerate(labels):
            sub = src_index.setdefault(ja, {})
            sub[pos] = len(sub)
        for (r, c), (coeff, exp) in cells.items():
            if exp:
                raise InvariantError("a-power survives modulo a")
            ja = labels[c]
            if tgt_labels[r] != ja:
                raise InvariantError("a-degree drift modulo a")
            by_j.setdefault(ja, {}).setdefault(c, {})[tgt_index[ja][r]] = coeff
        for ja, cols in by_j.items():
            mat = [cols.get(c, {}) for c in sorted(cols)]
            ranks[(eps, i, ja, k)] = rank(mat)

    out: dict[tuple[int, int, int, int], int] = {}
    for (eps, i, ja, k), count in bases.items():
        if not (lo <= k <= hi):
            continue
        dim = count - ranks.get((eps, i, ja, k), 0) - ranks.get((eps, i - 1, ja, k), 0)
        if dim < 0:
            raise InvariantError("negative slice dimension")
        if dim:
            out[(eps, i, ja, k)] = dim
    return out


def a_one_dimensions(C: ChainComplexOfMF, x_window=None) -> dict:
    """Per-slice dimensions of the two-stage homology with a set to one.

    Setting a to one keeps the (eps, i, x) slicing (a has x-degree zero) but
    forgets the module structure, so each slice reduces to plain rank
    arithmetic over Q: the kernel of the outgoing first-stage differential
    modulo the incoming image, then the map the degree-one differential
    induces on those subquotients.  Free-summand counts of the graded answer
    must match these dimensions, since torsion dies at a = 1.
    """
    if not isinstance(C, ChainComplexOfMF):
        raise TypeError("a_one_dimensions expects a complex of factorizations")
    n = C.n
    lo, hi, _ = _resolve_window(C, x_window, n)
    return _by_class(C, hi + n + 1, lambda _, red: _a_one_dimensions(red, lo, hi))


def _a_one_dimensions(red: _Reduced, lo: int, hi: int) -> dict:
    """a_one_dimensions of one reduced class."""
    n = red.n

    def out_cols(key) -> list[dict[int, Fraction]]:
        cols: list[dict[int, Fraction]] = [{} for _ in red.slices[key]]
        for (r, c), (coeff, _exp) in red.d0.get(key, {}).items():
            cols[c][r] = coeff
        return cols

    def image_cols(key) -> list[dict[int, Fraction]]:
        eps, i, k = key
        cells = red.d0.get(((eps + 1) % 2, i, k - n - 1), {})
        cols: dict[int, dict[int, Fraction]] = {}
        for (r, c), (coeff, _exp) in cells.items():
            cols.setdefault(c, {})[r] = coeff
        return list(cols.values())

    def push(key, combos) -> list[dict[int, Fraction]]:
        """Images of kernel combinations under the degree-one differential."""
        d1cols: dict[int, dict[int, Fraction]] = {}
        for (r, c), (coeff, _exp) in red.d1.get(key, {}).items():
            d1cols.setdefault(c, {})[r] = coeff
        out = []
        for combo in combos:
            w: dict[int, Fraction] = {}
            for c, v in combo.items():
                for r, mc in d1cols.get(c, {}).items():
                    s = w.get(r, 0) + mc * v
                    if s:
                        w[r] = s
                    else:
                        w.pop(r, None)
            if w:
                out.append(w)
        return out

    kernels = {}
    images = {}
    for key in red.slices:
        if key[2] > hi:
            continue
        kernels[key] = kernel(out_cols(key))
        images[key] = image_cols(key)
    rank_ib = {key: rank(ib) for key, ib in images.items()}

    phibar = {}
    for key, kb in kernels.items():
        eps, i, k = key
        nxt = (eps, i + 1, k)
        moved = push(key, kb)
        if moved:
            phibar[key] = rank(moved + images.get(nxt, [])) - rank_ib.get(nxt, 0)

    out: dict[tuple[int, int, int], int] = {}
    for key, kb in kernels.items():
        eps, i, k = key
        if not (lo <= k <= hi):
            continue
        h1 = len(kb) - rank_ib.get(key, 0)
        dim = h1 - phibar.get(key, 0) - phibar.get((eps, i - 1, k), 0)
        if dim < 0:
            raise InvariantError("negative slice dimension")
        if dim:
            out[key] = dim
    return out
