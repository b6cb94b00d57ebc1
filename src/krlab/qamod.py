"""Graded Q[a] linear algebra and the two-stage homology of braid complexes.

The homology of a closed-braid complex is taken in two passes: first the
matrix-factorization differential, then the induced even differential between
the resulting graded Q[a]-modules.  Everything here happens one slice at a
time: fixing the Z2-degree, the homological degree and the x-degree leaves a
finitely generated graded Q[a]-module, and homogeneity forces every matrix
entry to be a single monomial c a^e.  Smith reduction with the least
a-exponent as pivot therefore never leaves the monomial world, and kernels,
images and subquotients come out as explicit graded pieces.  smith is the
package's one matrix reduction, and it runs on _cancel: a rational matrix is
a SliceMatrix of a-degree 0, and moy.gdim and the tests' a = 0 and a = 1
oracles take their ranks and kernels from it too.

The complex itself is infinite in the x-direction (marks act freely), so
computations run inside an x-degree window.  The window is widened internally
by the x-jump of the matrix-factorization differential, which makes every
reported slice exact: truncating above the widened top is a quotient complex
(no differential lowers the x-degree), and the discarded part never couples
back into the reported slices.  An eventually constant period-2 torsion
pattern near the top of the window is detected and reported as a tail, which
the decategorification sums in closed form.

_cancel is the package's one Markowitz elimination kernel.  It takes one
pivot cell at a time, the least class first and then the least fill, adds
multiples of the pivot's line to every other line through the pivot and
drops the pivot's row and column; its callers say which cells are pivots
and which fill they keep.  smith runs it on a matrix's rows and columns.
Before any Smith reduction, it shrinks the complex by eliminating the
differential entries that are nonzero rationals (a-exponent zero) within a
fixed homological degree, and stage two runs it on E1's isomorphisms.
That elimination of units keeps the homological filtration, so the
two-stage homology is unchanged, and it also produces the corrected
degree-one component used in the second stage.  Correction terms of
homological jump two and higher are discarded: they never enter the
two-stage answer.  The jump-one component squares to zero only up to
boundaries of the jump-zero component, which is exactly the slack the
second-stage subquotient construction absorbs.  A zig-zag through a pivot
adds the jumps of its two ends, so an entry of jump two or more only ever
produces more of them; they are never created.

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
its ends less its pivot.  Raising the top from T to T' adds the elements
above T and the raw entries into them from the surviving sources.  A unit
eliminated before left x <= T - n - 1, which has no entry above T, so no
elimination is replayed.  The units then present are eliminated, each
into an element above T (_extend checks this), so out of x > T - n - 1,
and the zig-zags correct only sources into that element.  So after a
reduction at top hi + n + 1, a later growth changes one thing at x <= hi:
the entries u -> s0 into an eliminated s0 of the top slab (hi, hi + n + 1]
leave with it.  That row of d0 was redundant: every vertex has potential
0, so d0^2 = 0, and its (u, t0) entry gives c d0(u -> s0) = -sum over
s' != s0 of d0(u -> s') d0(s' -> t0), c the unit, so it is a
Q[a]-combination of the rows left.  Hence the kernel of d0 out of each
x <= hi, E1 there and phi* (d1 between elements at x <= hi) are final once
hi is reported, and each key's stage one, phi* and module are computed
once, at the first hi reaching it.  The class keeps those modules, and
stage one's reductions in (hi - n - 1, hi], whose image bases present E1
at the keys above; they live on the top slab, so a wider window drops
their rows of the elements eliminated since, a projection injective on
the image, as the dropped coordinates are combinations of the kept ones.

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
isomorphism, which _cancel eliminates.  Each correction it makes is a
composite of module maps into its target v, so it too is reduced modulo
v's order, and the homology of (E1, phi*) is unchanged.  The cancellation
never leaves a column, so its modules are final with its keys' stage one
and phi*.

What is left is read off the summand graph itself.  At a key with summands
e_s, the cycles are the x in their free span with phi(x) in the next key's
relations R, spanned by a^f e_t over its torsion summands Q[a]/(a^f){t}:
the kernel of [phi | R], whose projection to the e_s is injective, as the
columns of R are independent.  So a basis of that kernel is a basis of the
cycles.  A boundary, phi of a summand of the key before or a relation
a^e e_s of the key, is a cycle; phi of it lies in R, and putting its
negative in R's coordinates lifts the boundary into the kernel.  Smith
reduction of the lifted boundaries in the kernel basis gives the module.
"""

from __future__ import annotations

import gc
import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
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
    _ker_pos: dict | None = field(default=None, init=False, repr=False)
    _pivot_pos: dict | None = field(default=None, init=False, repr=False)

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


def smith(M: SliceMatrix) -> SmithResult:
    """Graded Smith reduction: the least a-exponent first, then the least fill.

    A Smith step is a step of _cancel, which argues it: the rows are its
    sources 0 .. |target| - 1 and the columns its targets after them, and
    every cell is a candidate whose class is its exponent, read from the
    labels.  The tie-break among the cells of the least exponent decides
    only the fill, hence the speed, and which basis the transforms give.  A
    pivot's fill is its whole row, pivot cell included, so each other row's
    cell in the pivot column cancels to zero.  No row is ever scaled: each
    operation divides once, its multiplier being quotient(-dc, pc) for the
    entry dc it clears and the pivot pc, so an integer matrix stays
    integral wherever pc divides, and a Fraction is made only where it does
    not.

    Only col_t and row_t_inv are tracked (see SmithResult), both as each
    pivot is taken.  The row operations add multiples of row r0 to the rows
    not yet pivoted, whose row_t_inv columns stay identity columns; so the
    row_t_inv column at r0 is the pivot column over a^e, read before they
    run.  After them the pivot cell is alone in its column, so the column
    operations that clear its row change only col_t: each adds quotient(-g,
    pc) times col_t's pivot column to col_t's column of the row's cell g.  A
    row has no sources and a column no targets, and a row or column with no
    entry never gains one: these share the empty tuple as their container.
    """
    source, target, shift = M.source, M.target, M.shift
    nr = len(target)
    out: list = [()] * (nr + len(source))
    ins = out[:]
    heap = []
    for (r, c), coeff in M.entries.items():
        t = nr + c
        if not out[r]:
            out[r] = {}
        if not ins[t]:
            ins[t] = []
        out[r][t] = coeff
        ins[t].append(r)
        heap.append(((shift + source[c] - target[r]) >> 1, r, t))
    row_t_inv: dict[int, Vec] = {}
    col_t: dict[int, Vec] = {i: {i: 1} for i in range(len(source))}
    pivots: list[tuple[int, int, int]] = []

    def targets(r0: int, t0: int):
        c0 = t0 - nr
        pivots.append((r0, c0, (shift + source[c0] - target[r0]) >> 1))
        row_t_inv[r0] = {r: out[r][t0] for r in ins[t0]}
        pivot_row, kernel_step = out[r0], col_t[c0]
        pc = pivot_row[t0]
        for t, g in pivot_row.items():
            if t != t0:
                mc = quotient(-g, pc)
                acc = col_t[t - nr]
                for r, gc in kernel_step.items():
                    _vec_accumulate(acc, r, gc if mc == 1 else (-gc if mc == -1 else mc * gc))
        fill = list(pivot_row.items())
        return lambda _u: fill

    def candidate(r: int, t: int) -> int:
        return (shift + source[t - nr] - target[r]) >> 1

    _cancel(out, ins, heap, targets, candidate)
    return SmithResult(source, target, pivots, row_t_inv, col_t)


# ---------------------------------------------------------------------------
# The elimination kernel


def _cancel(out: list, ins: list, heap: list, targets, candidate) -> None:
    """Markowitz elimination of pivot cells of a sparse matrix, in place.

    out[s] maps each target of s to the cell's coefficient and ins[t] lists
    the sources with a cell into t, each once, so Markowitz costs are exact;
    heap holds the candidate cells (class, s, t) on entry.  A step at the
    pivot g -> h of coefficient p takes the Schur complement of that one
    cell: each other source u of h gains -phi(u -> h) p^-1 phi(g -> v) at
    each cell (v, phi(g -> v)) of targets(g, h)(u), and g and h leave with
    all their cells.

    - In a complex whose elements are numbered once, with an isomorphism as
      pivot, this is Gaussian elimination, a homotopy equivalence of
      complexes in any additive category (Bar-Natan, arXiv:math/0606318):
      the fill is the zig-zags u -> h <- g -> v that the caller keeps.
    - In smith's numbering, rows then columns, it is a Smith step: row
      operations clear the pivot column, and the pivot row leaves with it.
      It is exact over Q[a] because the class is the pivot's a-exponent,
      the least one left: each multiplier a^(e(u -> h) - e(g -> h)) has a
      non-negative exponent, and no cell the fill makes falls below the
      pivot's class, so the pivots' exponents come out non-decreasing.

    candidate(u, v) gives the class of a cell the fill makes, or None if it
    is no candidate.  Candidates are taken least class first, then
    cheapest, at the cost (|out[s]| - 1)(|ins[t]| - 1) of the fill they
    make, each pushed when it is made, at its cost then; one whose cost
    grew since its push is pushed again while the heap's least class is
    still its own.  Each heap entry is one int, (class * span + cost) *
    cell + s * size + t, with size = |out| and span = cell = size^2 above
    every cost and every s * size + t, so the ints order as the triples
    (class * span + cost, s, t) and ties fall to the least s, then t.  Each
    eliminated element's containers are set to None.
    """

    def cost(s: int, t: int) -> int:
        return (len(out[s]) - 1) * (len(ins[t]) - 1)

    size = len(out)
    cell = size * size  # above every s * size + t
    span = cell  # above every cost
    for j, (cls, s, t) in enumerate(heap):
        heap[j] = (cls * span + cost(s, t)) * cell + s * size + t
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        rank, st = divmod(key, cell)
        s0, t0 = divmod(st, size)
        pivot = None if out[s0] is None else out[s0].get(t0)
        if pivot is None:
            continue
        cls, pushed = divmod(rank, span)
        now = cost(s0, t0)
        if now > pushed and heap and heap[0] // cell // span == cls:
            heapq.heappush(heap, key + (now - pushed) * cell)
            continue
        fill = targets(s0, t0)
        for s in ins[t0][:]:
            if s == s0:
                continue
            row = out[s]
            dc = row[t0]
            factor = -dc if pivot == 1 else dc if pivot == -1 else quotient(-dc, pivot)
            for t, gc in fill(s):
                coeff = gc if factor == 1 else (-gc if factor == -1 else factor * gc)
                cur = row.get(t)
                if cur is None:
                    row[t] = coeff
                    ins[t].append(s)
                    cls = candidate(s, t)
                    if cls is not None:
                        heapq.heappush(heap, (cls * span + cost(s, t)) * cell + s * size + t)
                else:
                    c = cur + coeff
                    if c:
                        row[t] = c
                    else:
                        del row[t]
                        ins[t].remove(s)
        for e in (s0, t0):
            for s in ins[e]:
                del out[s][e]
            for t in out[e]:
                ins[t].remove(e)
        out[s0] = out[t0] = ins[s0] = ins[t0] = None


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
    idents: dict  # (eps, i, k) -> the expansion elements at its rows, in order


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

    monos(marks, d) lists the monomials of degree d in that many marks, in
    the order of poly.monomials, and positions[marks] gives each monomial
    met so far its position in that list, filled as monos fills its cache.
    shifted(marks, d, mt) gives, for each m of monos(marks, d) in order,
    the position of m + mt in monos(marks, d + |mt|): where an entry that
    multiplies by mt sends a run of elements into the target's run.
    """

    def __init__(self, C: ChainComplexOfMF) -> None:
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
        self.x_min = _resolve_window(C, 0, n)[0]
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
        self.positions: dict[int, dict[tuple[int, ...], int]] = {}
        self._shifts: dict[tuple[int, int, tuple[int, ...]], list[int]] = {}
        self.admitted: int | None = None  # the widest top admitted
        self._reserve = bytes(_RESERVE)  # calloc'd: its pages are never touched

    def monos(self, marks: int, degree: int) -> list[tuple[int, ...]]:
        got = self._monos.get((marks, degree))
        if got is None:
            got = self._monos[(marks, degree)] = monomials((1,) * marks, degree)
            self.positions.setdefault(marks, {}).update(zip(got, range(len(got))))
        return got

    def shifted(self, marks: int, degree: int, mt: tuple[int, ...]) -> list[int]:
        key = (marks, degree, mt)
        got = self._shifts.get(key)
        if got is None:
            self.monos(marks, degree + sum(mt))  # fills the positions of each m + mt
            pos = self.positions[marks]
            got = [pos[tuple(map(add, m, mt))] for m in self.monos(marks, degree)]
            self._shifts[key] = got
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
    order they are created, in runs per (generator, mark degree): the
    elements of g at degree d are made together in monomial order
    (knot.monos), so the one of monomial m has the id runs[g][d] plus m's
    position (knot.positions).  ids holds each id once, and every cell
    refers to that int.  out and rows are _cancel's out and ins, each cell
    holding its coefficient (the module docstring gives its exponent).
    Growing from top T to T' creates the elements at x in (T, T'] and the
    entries into them, and eliminates the unit entries then present as a
    fresh expansion would (module docstring); growths lists each growth's
    top and first id.  final is the last hi reported: modules holds the
    two-stage result of every key at x <= final, which no growth changes,
    and kernels the stage-one Smith reductions at the n + 1 x-degrees up to
    final, each with its target's elements then, whose images a wider
    window reads.  After a MemoryError every class of the expansion is
    emptied and must not be used again.
    """

    def __init__(self, knot: _Expansion, cls: tuple[int, int]) -> None:
        self.knot = knot
        self.cls = cls
        self.top: int | None = None
        # per generator, the least mark degree of its elements in this class
        self.starts = [starts.get(cls) for starts in knot.starts]
        self.runs: list[dict[int, int]] = [{} for _ in knot.gens]
        self.ids: list[int] = []
        self.growths: list[tuple[int, int]] = []
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
        heap: list = []  # the unit cells, then _cancel's heap
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
        gens, monos, marks, shifted = knot.gens, knot.monos, knot.marks, knot.shifted
        info_i, info_k, info_ja = self.info_i, self.info_k, self.info_ja
        out, rows, runs, starts, ids = self.out, self.rows, self.runs, self.starts, self.ids
        first = len(ids)
        for run, start, nm, (_, i, ga, gx) in zip(runs, starts, marks, gens):
            if start is None:
                continue
            d_lo = 0 if old is None else max(0, (old - gx) // 2 + 1)
            for d in range(d_lo + (start - d_lo) % step, (top - gx) // 2 + 1, step):
                run[d] = len(info_i)
                count = len(monos(nm, d))
                info_i += [i] * count
                info_k += [gx + 2 * d] * count
                info_ja += [ga] * count
        if len(info_i) != size:
            raise InvariantError("expansion size differs from its closed form")
        self.growths.append((top, first))
        ids.extend(range(first, size))
        out.extend({} for _ in range(size - first))
        rows.extend([] for _ in range(size - first))

        # entries into the new elements from the surviving sources in this
        # class (module docstring); an entry of x-jump j reaches them from the
        # sources above old - j.  (g, m) goes to image(m) times the entry, so
        # each term c m' sends the run of g at degree d into the run of the
        # target at d + |m'|.  One source element meets one target through
        # one entry, so a second write is a fault.
        for entries, start, nm, run, (_, i, _, gx) in zip(knot.entries, starts, marks, runs, gens):
            if start is None:
                continue
            for gt, img, ae, terms, jump in entries:
                into = runs[gt]
                unit = not ae and gens[gt][1] == i
                d_lo = 0 if old is None else max(0, (old - gx - jump) // 2 + 1)
                for d in range(d_lo + (start - d_lo) % step, (top - gx - jump) // 2 + 1, step):
                    ms = monos(nm, d)
                    sources = ids[run[d]:run[d] + len(ms)]
                    if img is None:
                        # m goes to m + m' at the position shifted gives; the
                        # terms' m' differ, so their targets do: nothing to sum
                        blocks = []
                        for coeff, mt in terms:
                            base = into[d + sum(mt)]
                            blocks.append(([ids[base + q] for q in shifted(nm, d, mt)], coeff))
                        for p, sid in enumerate(sources):
                            row = out[sid]
                            if row is None:
                                continue
                            for tids, coeff in blocks:
                                tid = tids[p]
                                if tid in row:
                                    raise InvariantError("second write to an expansion cell")
                                row[tid] = coeff
                                rows[tid].append(sid)
                                if unit:
                                    heap.append((0, sid, tid))
                        continue
                    # an images id marks a chi' entry, which raises i: never a unit
                    at = knot.positions[marks[gt]]
                    bases = [(coeff, mt, into[d + sum(mt)]) for coeff, mt in terms]
                    for sid, m in zip(sources, ms):
                        row = out[sid]
                        if row is None:
                            continue
                        acc: dict[int, object] = {}
                        for mw, cw in knot.image(img, m):
                            for coeff, mt, base in bases:
                                tid = ids[base + at[tuple(map(add, mw, mt))]]
                                acc[tid] = acc.get(tid, 0) + cw * coeff
                        for tid, c in acc.items():
                            if not c:
                                continue
                            if tid in row:
                                raise InvariantError("second write to an expansion cell")
                            row[tid] = c
                            rows[tid].append(sid)

        def targets(s0: int, t0: int):
            if t0 < first:
                raise InvariantError("growth eliminates an element at or below the old top")
            # the zig-zag s -> t0 <- s0 -> t adds the jumps of its two ends;
            # a jump of 2 or more never feeds the two-stage answer
            i0 = info_i[s0]
            flat = [(t, g) for t, g in out[s0].items() if t != t0 and info_i[t] == i0]
            both = flat + [(t, g) for t, g in out[s0].items() if info_i[t] != i0]
            return lambda s: both if info_i[s] == i0 else flat

        def is_unit(s: int, t: int) -> int | None:
            return 0 if info_i[s] == info_i[t] and info_ja[t] == info_ja[s] + 1 else None

        _cancel(out, rows, heap, targets, is_unit)

    def reduced(self) -> _Reduced:
        """The surviving slice bases above x = final, each key's elements in
        row order, and the two components out of the keys at x <= top - n - 1,
        each cell holding its coefficient (the labels give its a-exponent);
        every entry above final, the top slab's too, is checked."""
        n, final, last = self.knot.n, self.final, self.top - self.knot.n - 1
        info_i, info_k, info_ja = self.info_i, self.info_k, self.info_ja
        step, parity = n + 1, self.cls[1]
        out = self.out
        # a growth to top T makes only x in (its old top, T], so every
        # element above final comes from a growth whose top passed final
        begin = next((first for grown, first in self.growths if grown > final), len(out))
        members: dict[tuple[int, int, int], list[int]] = {}
        for ident in self.ids[begin:]:
            row = out[ident]
            k = info_k[ident]
            if row is not None and k > final:
                # the class (k mod (n + 1), (eps + k div (n + 1)) mod 2) and k fix eps
                key = ((parity - k // step) % 2, info_i[ident], k)
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
                    d0.setdefault(key, {})[(tpos, pos)] = c  # none out of the top slab
                elif di == 1:
                    if tkey != (eps, i + 1, k):
                        raise InvariantError("slice slope broken")
                    if k <= last:
                        d1.setdefault(key, {})[(tpos, pos)] = c
                elif di < 0:
                    raise InvariantError("backwards correction")
                else:
                    raise InvariantError("correction of homological jump two or more")
        return _Reduced(n, labels, d0, d1, members)


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


def _by_class(C: ChainComplexOfMF, top: int, fn, expansion=None) -> dict:
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
        knot = _Expansion(C) if expansion is None else expansion
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
    C: ChainComplexOfMF, x_window: int, expansion: _Expansion | None = None
) -> GradedQaModule:
    """Homology of the matrix-factorization differential, then of the induced
    even differential, decomposed into free and torsion Q[a]-summands.

    The window [x_min, x_min + x_window] is a width anchored at x_min, the
    least generator x-degree.  The search for the least width that
    decategorifies is adaptive_homology, below.

    Each class of the expansion of C is taken to the top hi + n + 1 and
    through both stages on its own (see _by_class), and the slices of all
    classes are merged before the tails are detected.  A narrower top than
    a given expansion's classes have is refused.  Results of keys at x <=
    hi are final (module docstring); they are kept on the class, and a
    wider window computes only the keys above, as a fresh one computes all.
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
    """The nonzero two-stage slices of one reduced class at x <= hi, each key
    computed once, at the first hi that reaches it, and kept on the class.

    Stage one at each key reduces d0 out of it: its kernel basis spans the
    cycles, and the incoming image, re-indexed if reduced at an earlier
    width, presents E1 there in those coordinates.  phi* applies d1 to the
    kernel basis and writes the result in the next key's kernel coordinates.
    Stage two then runs one column (eps, k) at a time (_column_homology)."""
    n = red.n
    kernels: dict[tuple[int, int, int], tuple[SmithResult, list[int]]] = part.kernels
    modules: dict[tuple[int, int, int], SliceModule | None] = part.modules
    columns: dict[tuple[int, int], dict] = {}

    for key in sorted(red.slices, key=lambda key: (key[2], key[0], key[1])):
        eps, i, k = key
        if k > hi:
            continue
        src = tuple(red.slices[key])
        tkey = ((eps + 1) % 2, i, k + n + 1)
        sm = smith(SliceMatrix(src, tuple(red.slices.get(tkey, ())), 1, red.d0.get(key, {})))
        kernels[key] = sm, red.idents.get(tkey, [])
        kb_labels = tuple(lab for _, lab in sm.kernel_basis())
        incoming, rows = kernels.get(((eps + 1) % 2, i, k - n - 1), (None, None))
        cells = {}
        img_labels = []
        if incoming is not None:
            now = red.idents[key]
            where = None if rows == now else {ident: r for r, ident in enumerate(now)}
            for vec, lab in incoming.image_basis():
                if where is not None:
                    vec = {where[rows[r]]: c for r, c in vec.items() if rows[r] in where}
                coords = sm.kernel_coords(vec)
                col = len(img_labels)
                img_labels.append(lab)
                for r, coeff in coords.items():
                    cells[(r, col)] = coeff
        columns.setdefault((eps, k), {})[key] = SliceMatrix(tuple(img_labels), kb_labels, 0, cells)

    def phi(key) -> dict[int, Vec]:
        """Induced map of kernel bases one homological degree up: each kernel
        column it moves, in the next key's kernel coordinates."""
        eps, i, k = key
        nxt = (eps, i + 1, k)
        tgt = kernels[nxt][0] if nxt in kernels else None
        cols: dict[int, Vec] = {}
        d1cols: dict[int, Vec] = {}
        for (r, c), coeff in red.d1.get(key, {}).items():
            d1cols.setdefault(c, {})[r] = coeff
        for c, (vec, _) in enumerate(kernels[key][0].kernel_basis()):
            w = _cols_apply(d1cols, vec)
            if not w:
                continue
            if tgt is None:
                raise InvariantError("induced map into an empty slice")
            cols[c] = tgt.kernel_coords(w)
        return cols

    for presentations in columns.values():
        modules.update(_column_homology(presentations, {key: phi(key) for key in presentations}))

    part.final = hi
    for key in [key for key in kernels if key[2] <= hi - n - 1]:
        del kernels[key]
    return {key: sm for key, sm in modules.items() if sm is not None}


def _column_homology(presentations: dict, phis: dict) -> dict:
    """Stage two on one column (eps, k): the module at each of its keys, or
    None where it is zero.  presentations[key] presents E1 at key over its
    kernel basis, and phis[key] is phi* from that basis to the next key's:
    each column it moves, in the next key's kernel coordinates.

    Each key's presentation is Smith-reduced once, which splits E1 there
    into cyclic summands, one per row: Q[a]/(a^e){label} at a pivot row of
    exponent e, on its row_t_inv column, and Q[a]{label} at every other row,
    on the unit vector (SmithResult.row_coords).  phi* is written between
    the summands, each entry checked to keep the a-degree and dropped where
    its exponent reaches its target's order; a torsion summand has no entry
    into a free one.  Every entry of exponent 0 between summands of one
    order is an isomorphism, and _cancel eliminates these (module
    docstring).  The summand graph left, labels, orders and phi*
    as out and ins, goes to _stage2 at each key that still has an entry of
    phi* in or out; every other key's module is its summands."""
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

    # phi* between the summands, as _cancel's out and ins
    out: list[dict | None] = [{} for _ in labels]
    ins: list[list[int] | None] = [[] for _ in labels]
    for key in keys:
        cols = phis[key]
        if not cols:
            continue
        eps, i, k = key
        nxt = (eps, i + 1, k)
        ps, s0, t0 = reductions[key], first[key], first[nxt]
        for row in range(len(presentations[key].target)):
            s = s0 + row
            image = _cols_apply(cols, ps.row_t_inv.get(row) or {row: 1})
            for r, coeff in reductions[nxt].row_coords(image).items():
                t = t0 + r
                twice = labels[s] - labels[t]
                if twice < 0 or twice % 2:
                    raise InvariantError("phi* breaks the grading")
                if orders[t] is None:
                    if orders[s] is not None:
                        raise InvariantError("a torsion summand maps to a free one")
                elif twice >> 1 >= orders[t]:
                    continue
                out[s][t] = coeff
                ins[t].append(s)

    def iso(s: int, t: int) -> int | None:
        return 0 if labels[s] == labels[t] and orders[s] == orders[t] else None

    isos = [(0, s, t) for s, row in enumerate(out) for t in row if iso(s, t) is not None]
    _cancel(out, ins, isos, lambda g, h: partial(_correction, out, labels, orders, g, h), iso)

    # the remainder, each key's surviving summands in row order
    alive = {
        key: [s for s in range(s0, s0 + len(presentations[key].target)) if out[s] is not None]
        for key, s0 in first.items()
    }
    modules = {}
    for key, nodes in alive.items():
        eps, i, k = key
        if any(out[s] or ins[s] for s in nodes):
            nxt = alive.get((eps, i + 1, k), [])
            modules[key] = _stage2(nodes, nxt, labels, orders, out, ins)
            continue
        free = sorted(labels[s] for s in nodes if orders[s] is None)
        torsion = sorted((orders[s], labels[s]) for s in nodes if orders[s] is not None)
        modules[key] = SliceModule(tuple(free), tuple(torsion)) if nodes else None
    return modules


def _correction(out: list, labels: list, orders: list, g: int, h: int, u: int) -> list:
    """The cells (v, phi(g -> v)) whose zig-zag cancelling g -> h adds to
    the entries out of u, a source of h: each other target v of g whose
    order the exponent of u -> v stays below (module docstring)."""
    return [
        (v, gc)
        for v, gc in out[g].items()
        if v != h and (orders[v] is None or (labels[u] - labels[v]) >> 1 < orders[v])
    ]


def _stage2(
    nodes: list[int], nxt: list[int], labels: list, orders: list, out: list, ins: list
) -> SliceModule | None:
    """The second-stage subquotient at one key, or None when it is zero.

    nodes and nxt are the summands _column_homology's cancellation leaves
    at the key and at the next one, each Q[a]/(a^order){label} or free where
    its order is None, and out and ins hold phi* between them.  The cycles
    are the kernel of [phi | a^order e_t over nxt's torsion summands t];
    its projection to nodes is injective, as the relation columns are
    independent, so the kernel basis is a basis of the cycles.  Each
    boundary, an incoming column of phi* or a^order e_s at a torsion node
    s, is lifted into the kernel with -phi of it on the relation columns,
    which it must not leave: no entry into a free summand, none of an
    exponent below its target's order.  A Smith reduction of the lifted
    boundaries' kernel coordinates gives the module."""
    pos = {s: p for p, s in enumerate(nodes)}
    row = {t: r for r, t in enumerate(nxt)}
    rel = {t: len(nodes) + j for j, t in enumerate(t for t in nxt if orders[t] is not None)}
    step = {p: out[s] for p, s in enumerate(nodes)}
    cells = {(row[t], p): coeff for p, col in step.items() for t, coeff in col.items()}
    cells.update({(row[t], c): 1 for t, c in rel.items()})
    source = [labels[s] for s in nodes] + [labels[t] + 2 * orders[t] for t in rel]
    cycles = smith(SliceMatrix(tuple(source), tuple(labels[t] for t in nxt), 0, cells))
    zlabels = tuple(lab for _, lab in cycles.kernel_basis())
    # boundaries: the incoming phi* and the key's own relations
    bounds = [
        ({pos[s]: coeff for s, coeff in out[u].items()}, labels[u])
        for u in sorted({u for s in nodes for u in ins[s]})
    ]
    bounds += [({pos[s]: 1}, labels[s] + 2 * orders[s]) for s in nodes if orders[s] is not None]
    bcells = {}
    for col, (vec, lab) in enumerate(bounds):
        lifted = dict(vec)
        for t, coeff in _cols_apply(step, vec).items():
            if orders[t] is None or lab - labels[t] < 2 * orders[t]:
                raise InvariantError("a boundary's image leaves the next key's relations")
            lifted[rel[t]] = -coeff
        for r, coeff in cycles.kernel_coords(lifted).items():
            bcells[(r, col)] = coeff
    rs = smith(SliceMatrix(tuple(lab for _, lab in bounds), zlabels, 0, bcells))
    torsion = sorted((e, zlabels[r]) for r, _, e in rs.pivots if e >= 1)
    pivot_rows = {r for r, _, _ in rs.pivots}
    free = sorted(lab for r, lab in enumerate(zlabels) if r not in pivot_rows)
    if free or torsion:
        return SliceModule(tuple(free), tuple(torsion))
    return None


# ---------------------------------------------------------------------------
# Decategorification


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
    expansion), which grows its classes and computes each key only once.
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
