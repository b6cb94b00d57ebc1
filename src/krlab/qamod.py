"""Graded Q[a] linear algebra and the two-stage homology of braid complexes.

The homology of a closed-braid complex is taken in two passes: first the
matrix-factorization differential, then the induced even differential between
the resulting graded Q[a]-modules.  Everything here happens one slice at a
time: fixing the Z2-degree, the homological degree and the x-degree leaves a
finitely generated graded Q[a]-module, and homogeneity forces every matrix
entry to be a single monomial c a^e.  Smith reduction with the least
a-exponent as pivot therefore never leaves the monomial world, and kernels,
images and subquotients come out as explicit graded pieces.  smith is the
package's one matrix elimination: a rational matrix is a SliceMatrix of
a-degree 0, and the a = 0 and a = 1 oracles here and moy.gdim take their
ranks and kernels from it too.

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

Every graded cell of the package holds only its coefficient, and reads
its a-exponent from the labels: a graded vector is a (vec, label) pair
whose entry at an index of a-degree d has exponent (label - d) / 2, a
SliceMatrix entry at (r, c) has 2e = shift + source[c] - target[r], and
an entry of the expansion between elements of a-degrees ja_s and ja_t has
2e = same + ja_s - ja_t, same being 1 if they share a homological degree,
else 0.  _Expansion checks this per raw entry, the one place an exponent
arrives from outside the labels.  Through a unit s0 -> t0 (same 1, e 0:
ja_t0 = ja_s0 + 1) a zig-zag gives s -> t the exponent e(s, t0) + e(s0, t),
twice which is same(s, t0) + same(s0, t) - 1 + ja_s - ja_t, and the first
three terms make same(s, t) but on the dropped ones of jump two.  So
every cell keeps the rule.

The expansion is built on the cube's vertices with their own marks
excluded (ChainComplexOfMF.excluded): beyond the marks the whole cube
drops through its state-independent rows, each vertex drops one more
through each of its oriented resolutions' rows x1 - y2 that still has a
mark to drop.  A generator's basis elements are its monomials in its own
vertex's marks.  Every entry of the expansion has one form: a polynomial
e from a source generator g to a target generator, over the target
vertex's ring and of one a-exponent, which sends (g, m) to sub_t(m) e,
where sub_t writes each mark of the source ring in the target's ring (the
ones the target excluded become their linear images); several monomials
of one product can meet one target, and their contributions are summed.
An entry of a vertex differential keeps its ring, so sub_t is the
identity and it multiplies by monomials; an entry of chi' = pi_t chi
iota_s crosses to the next vertex.  pi and iota are homotopy equivalences
of each vertex, so stage one and the map it induces are those of the raw
cube up to isomorphism.  d_chi'^2 = pi chi (iota pi - 1) chi iota is not
zero, but iota pi - 1 = d h + h d makes it a vertex differential's
boundary there: the jump-one component squares to zero up to boundaries
of the jump-zero component, the slack the second stage already absorbs.
Every entry still keeps or raises the x-degree, so truncating above the
top is still a quotient complex.

The expansion grows with the window instead of being rebuilt.  An entry
of homological jump j raises the x-degree by exactly (1 - j)(n + 1): a
vertex entry by n + 1, a chi' entry by 0, and a zig-zag by the sum of
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
each class is expanded and reduced on its own.  A vertex entry raises k by
n + 1 and flips eps, which keeps both parts of the class; a chi' entry
keeps eps and k.  So every stage stays within one class: the raw entries
(the x-slope check forces this), the zig-zags, which compose entries, d0 into
(eps + 1, i, k + n + 1), d1 into (eps, i + 1, k), stage one's incoming image
from (eps + 1, i, k - n - 1), and phi and stage two, which read
(eps, i +- 1, k).  The elements of one generator at mark degree d lie in one
class, and those at d and d + n + 1 in the same one, so a generator meets a
class at one residue of d mod n + 1, if at all.

Stage two is the homology of (E1, phi*): E1 = H(C, d0) is a graded
Q[a]-module at each key, and phi*, the map d1 induces on it, squares to
zero there.  phi* keeps eps and k, so each column (eps, k), taken across i,
is a complex of its own, and stage two runs one column at a time.  A Smith
reduction of each key's presentation splits E1 there into cyclic summands
Q[a]/(a^e){t}, e >= 1 since no unit survives in d0, and Q[a]{s}.  A map
into Q[a]/(a^f) sees only the a-exponents below f, so phi* between the
summands keeps just the entries of exponent below their target's order.
An entry of exponent 0 between two summands of one order is an
isomorphism g -> h, and Gaussian elimination of an isomorphism is a
homotopy equivalence of complexes in any additive category: g and h leave
with the maps into g and out of h, and each u -> v gains -phi(g -> v)
phi(g -> h)^-1 phi(u -> h).  That correction is a composite of module maps
into v, so it too is reduced modulo v's order.  The homology of (E1, phi*)
is unchanged, and what is left goes to the subquotient construction.  A
column at x <= hi - n - 1 is complete: its keys' stage one reads only
final elements and entries, and the cancellation never leaves the column,
so its results stay final.  A wider window reads only its modules and
stage one's reductions at the n + 1 x-degrees up to hi - n - 1, whose
images present E1 at the keys just above; those are what the class keeps.
"""

from __future__ import annotations

import gc
import heapq
from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import add

from .cube import ChainComplexOfMF
from .poly import (
    KIND_A,
    KIND_MARK,
    BudgetError,
    Coefficient,
    InvariantError,
    exact,
    monomials,
    quotient,
)
from .skein import ATOM_ALPHA, Laurent, SkeinValue, atom_xin

Vec = dict[int, Coefficient]  # index -> coefficient; the label gives each exponent


# ---------------------------------------------------------------------------
# Graded vectors and matrices

def _vec_accumulate(vec: Vec, idx: int, coeff: Coefficient) -> None:
    cur = vec.get(idx)
    if cur is None:
        vec[idx] = coeff
        return
    s = cur + coeff
    if s:
        vec[idx] = s
    else:
        del vec[idx]


def _cols_apply(cols_mat: dict[int, Vec], vec: Vec) -> Vec:
    """Apply a column-major matrix (col -> row -> coefficient) to a vector."""
    out: Vec = {}
    for c, cv in vec.items():
        col = cols_mat.get(c)
        if not col:
            continue
        for r, mc in col.items():
            _vec_accumulate(out, r, cv if mc == 1 else (-cv if mc == -1 else mc * cv))
    return out


# ---------------------------------------------------------------------------
# Slice matrices and graded Smith reduction


@dataclass(frozen=True)
class SliceMatrix:
    """Homogeneous Q[a]-linear map between graded free modules.

    source and target list the a-degrees of the generators, shift is the
    a-degree of the map.  Homogeneity forces every entry to be one monomial
    c a^e with 2e = shift + source[col] - target[row], so entries hold the
    coefficient c alone, keyed by (row, col); the labels give e.  Column c
    is a graded vector of label source[c] + shift.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    shift: int
    entries: dict

    def __post_init__(self) -> None:
        clean = {}
        source, target, shift = self.source, self.target, self.shift
        for (r, c), coeff in self.entries.items():
            coeff = exact(coeff)
            if not coeff:
                continue
            if not (0 <= r < len(target)) or not (0 <= c < len(source)):
                raise ValueError(f"entry {(r, c)} outside the matrix")
            twice = shift + source[c] - target[r]
            if twice < 0:
                raise ValueError(f"negative a-exponent at {(r, c)}")
            if twice % 2:
                raise ValueError(f"entry at {(r, c)} breaks the grading")
            clean[(r, c)] = coeff
        object.__setattr__(self, "entries", clean)

    def columns(self) -> list[tuple[Vec, int]]:
        """Each column as a vector over the target, with its label."""
        cols: list[Vec] = [{} for _ in self.source]
        for (r, c), coeff in self.entries.items():
            cols[c][r] = coeff
        return [(col, s + self.shift) for col, s in zip(cols, self.source)]


def _hstack(a: SliceMatrix, b: SliceMatrix) -> SliceMatrix:
    if a.target != b.target or a.shift != b.shift:
        raise ValueError("hstack needs matching targets and shifts")
    entries = dict(a.entries)
    off = len(a.source)
    for (r, c), coeff in b.entries.items():
        entries[(r, c + off)] = coeff
    return SliceMatrix(a.source + b.source, a.target, a.shift, entries)


@dataclass
class SmithResult:
    """Diagonalization M . col_t = row_t_inv . D by graded row/column operations.

    source and target are M's labels; M's entries are not kept.  pivots
    lists (row, col, exponent) in selection order; exponents are
    non-decreasing, giving the divisibility chain a^{d1} | a^{d2} | ...
    The two transforms are invertible with monomial entries and stored
    column-major (col -> row -> coefficient): at each pivot (r0, c0, e),
    M . col_t[:, c0] = a^e row_t_inv[:, r0], and M . col_t[:, c] = 0 at every
    other column c.  So the non-pivot columns of col_t are the kernel basis
    and the pivot columns of row_t_inv, the only ones it holds, scaled by a^e
    are the image basis.  The coordinates rely on two support facts:

    - column operations only add multiples of the pivot column, so kernel
      column c of col_t is 1 at c and otherwise lives on pivot columns;
    - the row_t_inv column at pivot r0 is final once r0 is pivoted, and it
      lives on r0 and on the rows not yet pivoted then.

    The transforms hold coefficients only: column c of col_t is a graded
    vector of label source[c], each column operation adding a^((source[c] -
    source[c0]) / 2) times column c0, and the row_t_inv column at r0, the
    pivot column over a^e, one of label target[r0].
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    pivots: list[tuple[int, int, int]]
    row_t_inv: dict[int, Vec]
    col_t: dict[int, Vec]
    _ker_pos: dict | None = None
    _pivot_pos: dict | None = None

    def _kernel_positions(self) -> dict[int, int]:
        if self._ker_pos is None:
            pivot_cols = {c for _, c, _ in self.pivots}
            cols = [c for c in range(len(self.source)) if c not in pivot_cols]
            self._ker_pos = {c: i for i, c in enumerate(cols)}
        return self._ker_pos

    def _pivot_positions(self) -> dict[int, int]:
        if self._pivot_pos is None:
            self._pivot_pos = {r0: t for t, (r0, _, _) in enumerate(self.pivots)}
        return self._pivot_pos

    def kernel_basis(self) -> list[tuple[Vec, int]]:
        """Free basis of ker M: (vector over the source, its label).  The
        vectors are col_t's own columns, not copies."""
        col_t, source = self.col_t, self.source
        return [(col_t[c], source[c]) for c in self._kernel_positions()]

    def image_basis(self) -> list[tuple[Vec, int]]:
        """Free basis of im M: (vector over the target, its label).  The
        vectors are row_t_inv's own columns, of labels target[r0] + 2e."""
        row_t_inv, target = self.row_t_inv, self.target
        return [(row_t_inv[r0], target[r0] + 2 * e) for r0, _, e in self.pivots]

    def kernel_coords(self, vec: Vec) -> Vec:
        """Coordinates of a kernel element in the kernel basis, of its label:
        its entries at the non-pivot columns, checked by a zero residual."""
        pos = self._kernel_positions()
        rest = dict(vec)
        out: Vec = {}
        for c, vc in vec.items():
            t = pos.get(c)
            if t is None:
                continue
            out[t] = vc
            for r, gc in self.col_t[c].items():
                _vec_accumulate(rest, r, -gc * vc)
        if rest:
            raise InvariantError("vector is not in the kernel")
        return out

    def row_coords(self, vec: Vec) -> Vec:
        """Coordinates of a vector over the target, keyed by row, in the basis
        of the row_t_inv column at each pivot row and the unit vector at every
        other row.  By the second support fact the basis is triangular in
        pivot order, so forward substitution in that order gives the pivot
        rows' coordinates, and what is left on the other rows is theirs."""
        pos = self._pivot_positions()
        rest = dict(vec)
        todo = [pos[r] for r in rest if r in pos]
        heapq.heapify(todo)
        out: Vec = {}
        while todo:
            r0 = self.pivots[heapq.heappop(todo)][0]
            coeff = rest.pop(r0, None)
            if coeff is None:
                continue
            col = self.row_t_inv[r0]
            pc = col[r0]
            if pc != 1:
                coeff = quotient(coeff, pc)
            out[r0] = coeff
            for r, gc in col.items():
                if r != r0:
                    if r not in rest and r in pos:
                        heapq.heappush(todo, pos[r])
                    _vec_accumulate(rest, r, -gc * coeff)
        out.update(rest)
        return out

    def image_coords(self, vec: Vec, label: int) -> Vec:
        """Coordinates of an image element of the given label in the image
        basis, of that label: its row coordinates, checked to lie on pivot
        rows only, each of an exponent at least its pivot's."""
        pos = self._pivot_positions()
        out: Vec = {}
        for r, coeff in self.row_coords(vec).items():
            t = pos.get(r)
            if t is None or label - self.target[r] < 2 * self.pivots[t][2]:
                raise InvariantError("vector is not in the image")
            out[t] = coeff
        return out


def smith(M: SliceMatrix) -> SmithResult:
    """Graded Smith reduction: the least a-exponent first, then the least fill.

    Entries live in row- and column-indexed form so each operation touches
    only actual nonzeros, and pivot candidates sit in a heap keyed by
    (exponent, cost, row, col), where cost is the Markowitz count
    (|row| - 1)(|col| - 1) of the cell when it was pushed, the bound on the
    fill its elimination makes.  A cell's exponent is read from the labels
    when it is pushed and never changes, so a popped cell no longer present
    is discarded; a present one whose cost has grown since is pushed back
    with its current cost while the heap's least exponent is still its own,
    and taken as the pivot otherwise (the cost only orders cells of one
    exponent).  The pivot is cleared from its column by row operations and
    from its row by column operations.  No row is ever scaled: the pivot
    keeps its coefficient pc, and each operation divides once, its
    multiplier being quotient(-dc, pc) for the entry dc it clears.  So an
    integer matrix stays integral wherever pc divides, and a Fraction is
    made only where it does not.  Any cell of the least exponent pe is a
    valid pivot: every other cell of the matrix has exponent de >= pe, so
    every multiplier a^(de - pe) has a non-negative exponent, one pass per
    pivot suffices, and the recorded diagonal exponents come out
    non-decreasing.  The tie-break among those cells decides only the fill,
    hence the speed, and which basis the transforms give.

    Only col_t and row_t_inv are tracked (see SmithResult).  Row operations
    add multiples of row r0 to the rows not yet pivoted, whose row_t_inv
    columns stay identity columns; so the row_t_inv column at r0 is the
    pivot column over a^e, read before they run.
    """
    source, target, shift = M.source, M.target, M.shift
    by_row: dict[int, Vec] = {}
    by_col: dict[int, Vec] = {}
    for (r, c), coeff in M.entries.items():
        by_row.setdefault(r, {})[c] = coeff
        by_col.setdefault(c, {})[r] = coeff

    def cost(r: int, c: int) -> int:
        return (len(by_row[r]) - 1) * (len(by_col[c]) - 1)

    heap = [((shift + source[c] - target[r]) >> 1, cost(r, c), r, c) for r, c in M.entries]
    heapq.heapify(heap)
    row_t_inv: dict[int, Vec] = {}
    col_t: dict[int, Vec] = {i: {i: 1} for i in range(len(source))}
    pivots: list[tuple[int, int, int]] = []

    def set_cell(r: int, c: int, coeff: Coefficient) -> None:
        row = by_row.setdefault(r, {})
        cur = row.get(c)
        if cur is None:
            row[c] = coeff
            by_col.setdefault(c, {})[r] = coeff
            heapq.heappush(heap, ((shift + source[c] - target[r]) >> 1, cost(r, c), r, c))
            return
        s = cur + coeff
        if s:
            row[c] = s
            by_col[c][r] = s
        else:
            del row[c]
            del by_col[c][r]

    while heap:
        pe, pushed, r0, c0 = heapq.heappop(heap)
        pc = by_row.get(r0, {}).get(c0)
        if pc is None:
            continue
        now = cost(r0, c0)
        if now > pushed and heap and heap[0][0] == pe:
            heapq.heappush(heap, (pe, now, r0, c0))
            continue
        row_t_inv[r0] = dict(by_col[c0])
        # clear the pivot column by row operations
        pivot_row = by_row[r0]
        for r in [r for r in by_col[c0] if r != r0]:
            mc = quotient(-by_row[r][c0], pc)
            for c, gc in pivot_row.items():
                set_cell(r, c, gc if mc == 1 else (-gc if mc == -1 else mc * gc))
        # the column is now clear; clear the pivot row by column operations
        pivot_col, kernel_step = by_col[c0], col_t[c0]
        for c in [c for c in pivot_row if c != c0]:
            mc = quotient(-pivot_row[c], pc)
            for r, gc in pivot_col.items():
                set_cell(r, c, gc if mc == 1 else (-gc if mc == -1 else mc * gc))
            acc = col_t[c]
            for r, gc in kernel_step.items():
                _vec_accumulate(acc, r, gc if mc == 1 else (-gc if mc == -1 else mc * gc))
        row = by_row.pop(r0)
        del row[c0]
        col = by_col.pop(c0)
        del col[r0]
        if row or col:
            raise InvariantError("pivot row or column not cleared")
        pivots.append((r0, c0, pe))
    return SmithResult(source, target, pivots, row_t_inv, col_t)


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
    d0: dict  # (eps, i, k) -> {(row, col): coefficient} into (eps+1, i, k+n+1)
    d1: dict  # (eps, i, k) -> {(row, col): coefficient} into (eps, i+1, k)


# The expansion's budget, and its cost per basis vector: the most peak RSS
# over the baseline per vector, after each width of adaptive_homology, was
# 1,630 B over 95 widths at n = 1 to 32 and 2 to 7 marks (1 -2 1 -2 1 at
# n = 1; 1,270 B for 1 1 at n = 32).  A term per raw cell fit with weight 0.
EXPANSION_BUDGET = 800 << 20
VECTOR_BYTES = 1_700
_RESERVE = 1 << 24  # bytes of address space held back for unwinding from a MemoryError


def _mark_positions(table) -> list[int]:
    return [i for i, v in enumerate(table.variables) if v.kind == KIND_MARK]


def _vertex_generators(C: ChainComplexOfMF):
    """(i, vertex index, eps, a-degree, x-degree, marks) of every generator of
    the excluded vertices of C, in expansion order, with its vertex's mark
    count."""
    for i, vertices in C.excluded.vertices.items():
        for v, vertex in enumerate(vertices):
            marks = len(_mark_positions(vertex.mf.table))
            for par in (0, 1):
                for ga, gx in vertex.mf.basis(par):
                    yield i, v, par, ga, gx, marks


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
    by default, in all: each generator of an excluded vertex, of x-degree gx,
    times the monomials of degree d <= D = (top - gx) // 2 in its vertex's
    marks whose elements lie in the class.  In all classes these number
    comb(D + marks, marks), at a cost independent of the width."""
    if cls is None:
        return sum(
            comb((top - gx) // 2 + marks, marks)
            for *_, gx, marks in _vertex_generators(C)
            if gx <= top
        )
    n = C.n
    return sum(
        comb(d + marks - 1, d) if marks else int(d == 0)
        for _, _, eps, _, gx, marks in _vertex_generators(C)
        for c, start in _class_starts(n, eps, gx).items()
        if c == cls
        for d in range(start, (top - gx) // 2 + 1, n + 1)
    )


def _linear_images(names, vertex) -> list[list[tuple[int, object]]]:
    """Each named mark as a linear form over the marks of an excluded vertex:
    (position, coefficient) pairs, the mark itself where the vertex keeps it."""
    table = vertex.mf.table
    positions = _mark_positions(table)
    where = {table.variables[p].name: k for k, p in enumerate(positions)}
    out = []
    for name in names:
        if name in where:
            out.append([(where[name], 1)])
            continue
        form = []
        for e, coeff in vertex.sub[name].terms.items():
            mt = [e[p] for p in positions]
            if sum(e) != 1 or sum(mt) != 1:
                raise InvariantError("an excluded mark's image is not linear in the marks")
            form.append((mt.index(1), coeff))
        out.append(form)
    return out


class _Expansion:
    """The expansion of C on its slice basis, held as one _ClassExpansion per
    independent class that has generators, each grown in place.

    It is built on the excluded vertices of C (C.excluded): the elements of
    a generator are its monomials in its own vertex's marks.  It holds what
    the classes share: the generators, the entries, the linear images of one
    vertex's marks in another's ring and their products' cache, the mark
    monomials and the reserve of address space that lets a MemoryError
    unwind.  entries[gs] lists the entries out of generator gs, vertex
    differential and transported chi' alike, as (target, images id,
    a-exponent, [(coefficient, mark exponents)], x-jump); images[id] holds
    the linear image of each mark of the source vertex in the target's ring
    and the target ring's monomial 1, and the id is None where the two rings
    share their marks in order, as a vertex differential's always do.
    part(cls) creates a class on first use and keeps it (see _by_class).
    """

    def __init__(self, C: ChainComplexOfMF, kill_a: bool = False) -> None:
        for v in C.table.variables:
            if v.kind not in (KIND_A, KIND_MARK):
                raise ValueError("complex ring must be Q[a, marks]")
        excluded = C.excluded
        self.C = C
        self.n = n = C.n
        # generators: (eps, i, a-degree, x-degree), their vertices' mark
        # counts, and the first generator of each vertex and parity
        self.gens: list[tuple[int, int, int, int]] = []
        self.marks: list[int] = []
        first: dict[tuple[int, int, int], int] = {}
        for i, v, par, ga, gx, marks in _vertex_generators(C):
            first.setdefault((i, v, par), len(self.gens))
            self.gens.append((par, i, ga, gx))
            self.marks.append(marks)
        self.x_min = _resolve_window(C, None, n)[0]
        self.starts = [_class_starts(n, eps, gx) for eps, _, _, gx in self.gens]
        self.classes = sorted({cls for starts in self.starts for cls in starts})
        self.entries: list[list[tuple[int, int | None, int, list, int]]] = [
            [] for _ in self.gens
        ]
        self.images: list[tuple[list, tuple[int, ...]]] = []

        def enter(poly, gs: int, gt: int, img: int | None, jump: int) -> None:
            """Enter poly from gs to gt, each term checked to raise the x-degree
            by jump; homogeneity gives the entry one a-exponent."""
            table = poly.table
            a_pos, mark_pos = table.index("a"), _mark_positions(table)
            exps, terms = set(), []
            for e, coeff in poly.terms.items():
                ae = e[a_pos]
                if kill_a and ae:
                    continue
                mt = tuple(e[p] for p in mark_pos)
                if self.gens[gt][3] + 2 * sum(mt) - self.gens[gs][3] != jump:
                    raise InvariantError("expansion entry off the x-slope")
                exps.add(ae)
                terms.append((coeff, mt))
            if len(exps) > 1:
                raise InvariantError("inhomogeneous expansion entry")
            if terms:
                (_, i, ga, _), (_, it, gta, _) = self.gens[gs], self.gens[gt]
                ae = exps.pop()
                if 2 * ae != (i == it) + ga - gta:
                    raise InvariantError("expansion entry off the a-grading")
                self.entries[gs].append((gt, img, ae, terms, jump))

        for i, vertices in excluded.vertices.items():
            for v, vertex in enumerate(vertices):
                for par in (0, 1):
                    s0, t0 = first[(i, v, par)], first[(i, v, 1 - par)]
                    for (ti, si), poly in vertex.mf.differential(par).items():
                        enter(poly, s0 + si, t0 + ti, None, n + 1)
        image_ids: dict[tuple, int | None] = {}
        for (i, tis, sis), mats in excluded.blocks.items():
            src, tgt = excluded.vertices[i][sis], excluded.vertices[i + 1][tis]
            names = tuple(src.mf.table.variables[p].name for p in _mark_positions(src.mf.table))
            key = (names, i, tis)
            if key not in image_ids:
                forms = _linear_images(names, tgt)
                unit = (0,) * len(_mark_positions(tgt.mf.table))
                if len(names) == len(unit) and forms == [[(k, 1)] for k in range(len(unit))]:
                    image_ids[key] = None
                else:
                    image_ids[key] = len(self.images)
                    self.images.append((forms, unit))
            img = image_ids[key]
            for par in (0, 1):
                for (ti, si), poly in mats[par].items():
                    enter(poly, first[(i, sis, par)] + si, first[(i + 1, tis, par)] + ti, img, 0)
        # per images id, the image of each mark monomial met so far
        self.image_cache: list[dict[tuple[int, ...], list]] = [
            {(0,) * len(forms): [(unit, 1)]} for forms, unit in self.images
        ]
        self.parts: dict[tuple[int, int], _ClassExpansion] = {}
        self._monos: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self.admitted: int | None = None  # the widest top admitted
        self._reserve = bytes(_RESERVE)  # calloc'd: its pages are never touched

    def monos(self, marks: int, degree: int) -> list[tuple[int, ...]]:
        got = self._monos.get((marks, degree))
        if got is None:
            got = self._monos[(marks, degree)] = monomials((1,) * marks, degree)
        return got

    def image(self, img: int, m: tuple[int, ...]) -> list[tuple[tuple[int, ...], object]]:
        """The image of the mark monomial m of a source vertex in a target
        vertex's ring, as (monomial, coefficient) pairs: the product of its
        marks' linear images, built from the image of m less one mark."""
        cache = self.image_cache[img]
        got = cache.get(m)
        if got is None:
            forms = self.images[img][0]
            j = next(j for j, e in enumerate(m) if e)
            acc: dict[tuple[int, ...], object] = {}
            for mono, c in self.image(img, m[:j] + (m[j] - 1,) + m[j + 1:]):
                for pos, lc in forms[j]:
                    key = mono[:pos] + (mono[pos] + 1,) + mono[pos + 1:]
                    acc[key] = acc.get(key, 0) + c * lc
            got = cache[m] = [(key, c) for key, c in acc.items() if c]
        return got

    def part(self, cls: tuple[int, int]) -> _ClassExpansion:
        got = self.parts.get(cls)
        if got is None:
            got = self.parts[cls] = _ClassExpansion(self, cls)
        return got

    def admit(self, top: int) -> None:
        """Refuse a top whose expansion, all classes together, would pass
        EXPANSION_BUDGET bytes at VECTOR_BYTES a basis vector."""
        if self.admitted is not None and top <= self.admitted:
            return
        size = expansion_size(self.C, top)
        if size * VECTOR_BYTES > EXPANSION_BUDGET:
            raise BudgetError(
                f"x-window width {top - self.n - 1 - self.x_min} needs an expansion "
                f"of {size} basis vectors, about {size * VECTOR_BYTES >> 20} MiB, "
                f"over the budget of {EXPANSION_BUDGET >> 20} MiB"
            )
        self.admitted = top


class _ClassExpansion:
    """One class of the expansion up to x-degree top, with its unit entries
    eliminated, grown in place by raising the top.

    Basis elements are (generator, mark monomial) pairs, numbered in the
    order they are created.  out[s] maps each target of s to the cell's
    coefficient (the module docstring gives its exponent); rows[t] lists the
    sources with a cell into t, each once, so Markowitz costs are exact.  A
    unit cell made by a pivot step is pushed after it, at its cost then, so
    list order never decides the pivots.  Growing from top T to T' creates
    the elements at x in (T, T'] and the entries into them, and eliminates
    the unit entries then present as a fresh expansion would (module
    docstring).  modules holds the two-stage results of the keys at x <=
    final, which no growth changes, and kernels the stage-one Smith
    reductions at the n + 1 x-degrees up to final, whose images a wider
    window's presentations read.  After a MemoryError every class of the
    expansion is emptied and must not be used again.
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
        self.out: list[dict | None] = []  # None once eliminated
        self.rows: list[list[int] | None] = []
        self.final = knot.x_min - 1
        self.kernels: dict = {}
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
        gens, monos, marks = knot.gens, knot.monos, knot.marks
        info_eps, info_i, info_k, info_ja = self.info_eps, self.info_i, self.info_k, self.info_ja
        out, rows, index, starts = self.out, self.rows, self.index, self.starts
        first = len(info_i)
        for ids, start, nm, (eps, i, ga, gx) in zip(index, starts, marks, gens):
            if start is None:
                continue
            d_lo = 0 if old is None else max(0, (old - gx) // 2 + 1)
            for d in range(d_lo + (start - d_lo) % step, (top - gx) // 2 + 1, step):
                k = gx + 2 * d
                for m in monos(nm, d):
                    ids[m] = len(info_i)
                    info_eps.append(eps)
                    info_i.append(i)
                    info_k.append(k)
                    info_ja.append(ga)
        if len(info_i) != size:
            raise InvariantError("expansion size differs from its closed form")
        out.extend({} for _ in range(size - first))
        rows.extend([] for _ in range(size - first))

        # entries into the new elements from the surviving sources in this
        # class (module docstring); an entry of x-jump j reaches them from the
        # sources above old - j.  (g, m) goes to image(m) times the entry,
        # summed per target; one source element meets one target through one
        # entry, so a second write is a fault.
        units: list[tuple[int, int]] = []
        for entries, start, nm, src, (_, i, _, gx) in zip(knot.entries, starts, marks, index, gens):
            if start is None:
                continue
            for gt, img, ae, terms, jump in entries:
                tgt = index[gt]
                unit = not ae and gens[gt][1] == i
                d_lo = 0 if old is None else max(0, (old - gx - jump) // 2 + 1)
                for d in range(d_lo + (start - d_lo) % step, (top - gx - jump) // 2 + 1, step):
                    for m in monos(nm, d):
                        sid = src[m]
                        row = out[sid]
                        if row is None:
                            continue
                        acc: dict[int, object] = {}
                        for mw, cw in [(m, 1)] if img is None else knot.image(img, m):
                            for coeff, mt in terms:
                                tid = tgt[tuple(map(add, mw, mt))]
                                acc[tid] = acc.get(tid, 0) + cw * coeff
                        for tid, c in acc.items():
                            if not c:
                                continue
                            if tid in row:
                                raise InvariantError("second write to an expansion cell")
                            row[tid] = c
                            rows[tid].append(sid)
                            if unit:
                                units.append((sid, tid))
        # the unit entries, each with its Markowitz cost
        heap.extend(((len(out[s]) - 1) * (len(rows[t]) - 1), s, t) for s, t in units)
        heapq.heapify(heap)
        del units

        while heap:
            cost, s0, t0 = heapq.heappop(heap)
            if out[s0] is None:
                continue
            pivot = out[s0].get(t0)
            if pivot is None:
                continue
            now = (len(out[s0]) - 1) * (len(rows[t0]) - 1)
            if now > cost and heap:
                heapq.heappush(heap, (now, s0, t0))
                continue
            if t0 < first:
                raise InvariantError("growth eliminates an element at or below the old top")
            # the zig-zag s -> t0 <- s0 -> t adds the jumps of its two ends;
            # a jump of 2 or more never feeds the two-stage answer
            i0 = info_i[s0]
            flat = [(t, g) for t, g in out[s0].items() if t != t0 and info_i[t] == i0]
            both = flat + [(t, g) for t, g in out[s0].items() if info_i[t] != i0]
            fresh = []
            for s in [s for s in rows[t0] if s != s0]:
                row = out[s]
                dc = row[t0]
                factor = -dc if pivot == 1 else dc if pivot == -1 else quotient(-dc, pivot)
                same = info_i[s] == i0
                for t, gc in (both if same else flat):
                    coeff = gc if factor == 1 else (-gc if factor == -1 else factor * gc)
                    cur = row.get(t)
                    if cur is None:
                        row[t] = coeff
                        sources = rows[t]
                        sources.append(s)
                        if same and info_i[t] == i0 and info_ja[t] == info_ja[s] + 1:
                            fresh.append((s, t))
                    else:
                        c = cur + coeff
                        if c:
                            row[t] = c
                        else:
                            del row[t]
                            rows[t].remove(s)
            for s in rows[t0]:
                del out[s][t0]
            for t in out[s0]:
                rows[t].remove(s0)
            for t in out[t0]:
                rows[t].remove(t0)
            for u in rows[s0]:
                del out[u][s0]
            # the pair leaves the complex, and its containers with it
            out[s0] = out[t0] = rows[s0] = rows[t0] = None
            for s, t in fresh:
                heapq.heappush(heap, ((len(out[s]) - 1) * (len(rows[t]) - 1), s, t))

    def reduced(self) -> _Reduced:
        """The surviving slice bases above x = final, whose two-stage results
        are not kept yet, and the two components out of them, each cell
        holding its coefficient (the labels give its a-exponent)."""
        n, final = self.knot.n, self.final
        info_eps, info_i, info_k, info_ja = self.info_eps, self.info_i, self.info_k, self.info_ja
        out = self.out
        members: dict[tuple[int, int, int], list[int]] = {}
        for ident, row in enumerate(out):
            if row is not None and info_k[ident] > final:
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
            ja = info_ja[ident]
            for t, c in out[ident].items():
                tkey, tpos = position[t]
                di = tkey[1] - i
                if di == 0:
                    if ja + 1 == info_ja[t]:
                        raise InvariantError("unit entry survived the reduction")
                    if tkey != ((eps + 1) % 2, i, k + n + 1):
                        raise InvariantError("slice slope broken")
                    d0.setdefault(key, {})[(tpos, pos)] = c
                elif di == 1:
                    if tkey != (eps, i + 1, k):
                        raise InvariantError("slice slope broken")
                    d1.setdefault(key, {})[(tpos, pos)] = c
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


def _resolve_window(C: ChainComplexOfMF, x_window, n: int) -> tuple[int, int, int]:
    summands = [part for parts in C.summands.values() for part in parts]
    degrees = (gx for part in summands for par in (0, 1) for _, gx in part.mf.basis(par))
    x_min = min(degrees, default=0)
    if x_window is None:
        return x_min, x_min + 20, x_min
    if x_window < 0:
        raise ValueError("window width must be non-negative")
    return x_min, x_min + x_window, x_min


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
    generator x-degree; an integer window is a width anchored at x_min.  The
    search for the least width that decategorifies is adaptive_homology,
    below.

    Each class of the expansion of C is taken to the top hi + n + 1 and
    through both stages on its own (see _by_class), and the slices of all
    classes are merged before the tails are detected.  A narrower top than
    a given expansion's classes have is refused.  Results of keys at x <=
    hi - n - 1 are final (module docstring); they are kept on the class,
    and a wider computation on it reuses them.
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
    of keys at x <= hi - n - 1 are kept on the class.

    Stage one at each key reduces d0 out of it: its kernel basis spans the
    cycles, and the incoming image, in those coordinates, presents E1 there.
    phi* applies d1 to the kernel basis and writes the result in the next
    key's kernel coordinates.  Stage two then runs one column (eps, k) at a
    time (_column_homology)."""
    n = red.n
    kernels: dict[tuple[int, int, int], SmithResult] = part.kernels
    modules: dict[tuple[int, int, int], SliceModule | None] = part.modules
    columns: dict[tuple[int, int], dict] = {}

    for key in sorted(red.slices, key=lambda key: (key[2], key[0], key[1])):
        eps, i, k = key
        if k > hi:
            continue
        src = tuple(red.slices[key])
        tgt = tuple(red.slices.get(((eps + 1) % 2, i, k + n + 1), ()))
        sm = kernels[key] = smith(SliceMatrix(src, tgt, 1, red.d0.get(key, {})))
        kb_labels = tuple(lab for _, lab in sm.kernel_basis())
        incoming = kernels.get(((eps + 1) % 2, i, k - n - 1))
        cells = {}
        img_labels = []
        if incoming is not None:
            for vec, lab in incoming.image_basis():
                coords = sm.kernel_coords(vec)
                col = len(img_labels)
                img_labels.append(lab)
                for r, coeff in coords.items():
                    cells[(r, col)] = coeff
        columns.setdefault((eps, k), {})[key] = SliceMatrix(tuple(img_labels), kb_labels, 0, cells)

    def phi(key, presentations: dict) -> SliceMatrix:
        """Induced map of kernel bases one homological degree up."""
        eps, i, k = key
        nxt = (eps, i + 1, k)
        tgt = kernels.get(nxt)
        cells = {}
        d1cols: dict[int, Vec] = {}
        for (r, c), coeff in red.d1.get(key, {}).items():
            d1cols.setdefault(c, {})[r] = coeff
        for c, (vec, _) in enumerate(kernels[key].kernel_basis()):
            w = _cols_apply(d1cols, vec)
            if not w:
                continue
            if tgt is None:
                raise InvariantError("induced map into an empty slice")
            for r, coeff in tgt.kernel_coords(w).items():
                cells[(r, c)] = coeff
        tgt_labels = presentations[nxt].target if tgt is not None else ()
        return SliceMatrix(presentations[key].target, tgt_labels, 0, cells)

    for presentations in columns.values():
        phis = {key: phi(key, presentations) for key in presentations}
        modules.update(_column_homology(presentations, phis))

    out = {key: sm for key, sm in modules.items() if sm is not None}
    part.final = final = hi - n - 1
    for key in [key for key in modules if key[2] > final]:
        del modules[key]
    for key in [key for key in kernels if not final - n - 1 < key[2] <= final]:
        del kernels[key]
    return out


def _column_homology(presentations: dict, phis: dict) -> dict:
    """Stage two on one column (eps, k): the module at each of its keys, or
    None where it is zero.  presentations[key] presents E1 at key over its
    kernel basis, and phis[key] is phi* from that basis to the next key's.

    Each key's presentation is Smith-reduced once, which splits E1 there
    into cyclic summands, one per row: Q[a]/(a^e){label} at a pivot row of
    exponent e, on its row_t_inv column, and Q[a]{label} at every other row,
    on the unit vector (SmithResult.row_coords).  phi* is written between
    the summands, each entry dropped where its exponent reaches its
    target's order; a torsion summand has no entry into a free one.  Every
    entry of exponent 0 between summands of one order is an isomorphism,
    and these are cancelled in Markowitz order (module docstring).  What
    is left has a diagonal presentation, and goes to _stage2 at each key
    that still has an entry of phi* in or out."""
    keys = sorted(presentations)
    first: dict[tuple[int, int, int], int] = {}
    labels: list[int] = []
    orders: list[int | None] = []  # None: free
    reductions = {}
    for key in keys:
        pres = presentations[key]
        ps = reductions[key] = smith(pres)
        first[key] = len(labels)
        order: list[int | None] = [None] * len(pres.target)
        for r0, _, e in ps.pivots:
            if not e:
                raise InvariantError("a unit relation survives in E1")
            order[r0] = e
        labels += pres.target
        orders += order

    # phi* between the summands: out[s] maps each target of s to the
    # coefficient, ins[t] lists the sources into t, each once
    out: list[dict | None] = [{} for _ in labels]
    ins: list[list[int] | None] = [[] for _ in labels]
    for key in keys:
        if not phis[key].entries:
            continue
        eps, i, k = key
        nxt = (eps, i + 1, k)
        cols: dict[int, Vec] = {}
        for (r, c), coeff in phis[key].entries.items():
            cols.setdefault(c, {})[r] = coeff
        ps, s0, t0 = reductions[key], first[key], first[nxt]
        for row in range(len(presentations[key].target)):
            s = s0 + row
            image = _cols_apply(cols, ps.row_t_inv.get(row) or {row: 1})
            for r, coeff in reductions[nxt].row_coords(image).items():
                t = t0 + r
                if orders[t] is None:
                    if orders[s] is not None:
                        raise InvariantError("a torsion summand maps to a free one")
                elif (labels[s] - labels[t]) >> 1 >= orders[t]:
                    continue
                out[s][t] = coeff
                ins[t].append(s)

    def cost(s: int, t: int) -> int:
        return (len(out[s]) - 1) * (len(ins[t]) - 1)

    def iso(s: int, t: int) -> bool:
        return labels[s] == labels[t] and orders[s] == orders[t]

    heap = [(cost(s, t), s, t) for s, row in enumerate(out) for t in row if iso(s, t)]
    heapq.heapify(heap)
    while heap:
        pushed, g, h = heapq.heappop(heap)
        if out[g] is None or h not in out[g]:
            continue
        now = cost(g, h)
        if now > pushed and heap:
            heapq.heappush(heap, (now, g, h))
            continue
        fresh = []
        for u in ins[h]:
            if u == g:
                continue
            row = out[u]
            for v, coeff in _correction(out, labels, orders, g, h, u):
                cur = row.get(v)
                if cur is None:
                    row[v] = coeff
                    ins[v].append(u)
                    if iso(u, v):
                        fresh.append((u, v))
                else:
                    c = cur + coeff
                    if c:
                        row[v] = c
                    else:
                        del row[v]
                        ins[v].remove(u)
        for u in ins[g]:
            del out[u][g]
        for v in out[h]:
            ins[v].remove(h)
        for v in out[g]:
            if v != h:
                ins[v].remove(g)
        for u in ins[h]:
            if u != g:
                del out[u][h]
        out[g] = out[h] = ins[g] = ins[h] = None
        for u, v in fresh:
            heapq.heappush(heap, (cost(u, v), u, v))

    # the remainder, each key's surviving summands in row order
    alive = {
        key: [s for s in range(s0, s0 + len(presentations[key].target)) if out[s] is not None]
        for key, s0 in first.items()
    }
    rest = {}
    for key, nodes in alive.items():
        torsion = [(p, s) for p, s in enumerate(nodes) if orders[s] is not None]
        rest[key] = SliceMatrix(
            tuple(labels[s] + 2 * orders[s] for _, s in torsion),
            tuple(labels[s] for s in nodes),
            0,
            {(p, c): 1 for c, (p, _) in enumerate(torsion)},
        )
    rest_phis = {}
    for key, nodes in alive.items():
        eps, i, k = key
        nxt = (eps, i + 1, k)
        pos = {s: p for p, s in enumerate(alive.get(nxt, ()))}
        cells = {(pos[t], c): coeff for c, s in enumerate(nodes) for t, coeff in out[s].items()}
        rest_phis[key] = SliceMatrix(rest[key].target, rest[nxt].target if nxt in rest else (), 0, cells)

    modules = {}
    for key, nodes in alive.items():
        eps, i, k = key
        prev = rest_phis.get((eps, i - 1, k))
        if rest_phis[key].entries or (prev is not None and prev.entries):
            modules[key] = _stage2(key, rest, rest_phis)
            continue
        free = sorted(labels[s] for s in nodes if orders[s] is None)
        torsion = sorted((orders[s], labels[s]) for s in nodes if orders[s] is not None)
        modules[key] = SliceModule(tuple(free), tuple(torsion)) if nodes else None
    return modules


def _correction(out: list, labels: list, orders: list, g: int, h: int, u: int) -> list:
    """What cancelling g -> h adds to the entries out of u, a source of h:
    -phi(g -> v) phi(g -> h)^-1 phi(u -> h) at each other target v of g whose
    order its exponent stays below (module docstring)."""
    factor = quotient(-out[u][h], out[g][h])
    return [
        (v, factor * gc)
        for v, gc in out[g].items()
        if v != h and (orders[v] is None or (labels[u] - labels[v]) >> 1 < orders[v])
    ]


def _stage2(key, presentations: dict, phis: dict) -> SliceModule | None:
    """The second-stage subquotient at one key, or None when it is zero.

    presentations[key] presents E1 at each key of a column, its columns the
    relations among free generators of its target's labels, and phis holds
    phi* between those generators; _column_homology passes what its
    cancellation leaves, whose presentations are diagonal.  The cycles are
    {x : phi(x) lies in the next key's relations}, and the relations the
    incoming phi* and the key's own presentation."""
    eps, i, k = key
    pres = presentations[key]
    labels = pres.target
    if not labels:
        return None
    step = phis[key]
    nxt = presentations.get((eps, i + 1, k))
    aug = _hstack(step, nxt) if nxt is not None else step
    # free generators of {x : phi(x) lies in the incoming image}
    gcells = {}
    glabels = []
    nkb = len(labels)
    for vec, lab in smith(aug).kernel_basis():
        g = len(glabels)
        glabels.append(lab)
        for idx, coeff in vec.items():
            if idx < nkb:
                gcells[(idx, g)] = coeff
    gs = smith(SliceMatrix(tuple(glabels), labels, 0, gcells))
    zbasis = gs.image_basis()
    if not zbasis:
        return None
    # relations: the incoming induced map and the first-stage image
    rel_cols: list[tuple[Vec, int]] = []
    prev = phis.get((eps, i - 1, k))
    if prev is not None:
        if prev.target != labels:
            raise InvariantError("incoming induced map misses the kernel basis")
        rel_cols += prev.columns()
    rel_cols += pres.columns()
    rcells = {}
    rlabels = []
    for vec, lab in rel_cols:
        col = len(rlabels)
        rlabels.append(lab)
        for t, coeff in gs.image_coords(vec, lab).items():
            rcells[(t, col)] = coeff
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
                term = SkeinValue.tau_free(n, num, Counter({atom_xin(1): j + 1}))
                total = total + (term.times_tau() if tail.eps else term)
    return total.stripped()


# ---------------------------------------------------------------------------
# The least window that decategorifies

# the x-window search's width cap, in x-jumps n + 1 of a factorization term
AUTO_WIDTH_STEPS = 20


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
    2, 4, 6, ...; past AUTO_WIDTH_STEPS * (n + 1), which grows with n as the
    widths needed do, the search raises BudgetError, as does a width whose
    expansion would pass EXPANSION_BUDGET.
    homology and euler are the two functions it calls, so a caller may pass
    in its own references to them.

    Every width is computed on one expansion of C, as homology(C, w,
    expansion), which grows its classes and keeps their final results.
    """
    expansion = _Expansion(C)
    prev = None
    max_width = AUTO_WIDTH_STEPS * (C.n + 1)
    for width in range(2, max_width + 1, 2):
        mod = homology(C, width, expansion)
        try:
            value = euler(mod)
        except ValueError:
            prev = None
            continue
        if prev is not None and _confirms(*prev, mod, value):
            return prev
        prev = (mod, value)
    raise BudgetError(
        f"x-window search exhausted: no width up to {max_width} has an "
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

    # with a killed, d1 keeps the a-degree, so its Smith reduction never
    # mixes the a-degree blocks: each block's rank is the number of pivots
    # whose column carries its label
    ranks: Counter = Counter()
    for key, cells in red.d1.items():
        eps, i, k = key
        labels = red.slices[key]
        tgt_labels = red.slices[(eps, i + 1, k)]
        if any(tgt_labels[r] != labels[c] for r, c in cells):
            raise InvariantError("a-power survives modulo a")
        for _, c, _ in smith(SliceMatrix(tuple(labels), tuple(tgt_labels), 0, cells)).pivots:
            ranks[(eps, i, labels[c], k)] += 1

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
    """a_one_dimensions of one reduced class, each map a rational matrix: its
    cells at a = 1, as a SliceMatrix of a-degree 0."""
    n, slices = red.n, red.slices

    def at_one(cells: dict, tgt, src) -> SliceMatrix:
        rows, cols = len(slices.get(tgt, ())), len(slices.get(src, ()))
        return SliceMatrix((0,) * cols, (0,) * rows, 0, cells)

    def d0_into(key) -> SliceMatrix:
        eps, i, k = key
        src = ((eps + 1) % 2, i, k - n - 1)
        return at_one(red.d0.get(src, {}), key, src)

    kernels = {}
    rank_ib = {}
    for key in slices:
        eps, i, k = key
        if k > hi:
            continue
        out_map = at_one(red.d0.get(key, {}), ((eps + 1) % 2, i, k + n + 1), key)
        kernels[key] = smith(out_map).kernel_basis()
        rank_ib[key] = len(smith(d0_into(key)).pivots)

    phibar = {}
    for key, kb in kernels.items():
        eps, i, k = key
        nxt = (eps, i + 1, k)
        d1: dict[int, Vec] = {}
        for (r, c), coeff in red.d1.get(key, {}).items():
            d1.setdefault(c, {})[r] = coeff
        moved = [w for w in (_cols_apply(d1, vec) for vec, _ in kb) if w]
        if moved:
            cells = {(r, c): coeff for c, w in enumerate(moved) for r, coeff in w.items()}
            pushed = SliceMatrix((0,) * len(moved), (0,) * len(slices[nxt]), 0, cells)
            phibar[key] = len(smith(_hstack(pushed, d0_into(nxt))).pivots) - rank_ib.get(nxt, 0)

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
