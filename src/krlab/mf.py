"""Z2 x Z x Z graded matrix factorizations over bigraded polynomial rings.

A matrix factorization of a potential w consists of two free graded modules
M0, M1 and differentials d0: M0 -> M1, d1: M1 -> M0 with d1 d0 = w Id and
d0 d1 = w Id; differentials are homogeneous of bidegree (1, N+1).  Most
factorizations here are Koszul: tensor products of rank-2 pieces

    (left, right):   R --left--> R{1 - deg_a left, N+1 - deg_x left} --right--> R

one per row of a KoszulSpec, with the signed Leibniz rule governing the
tensor differential.  The module also provides the two simplifications the
pipelines use (exclusion of a variable through a unit-linear row, splitting
of contractible summands), the exact kernel of a sparse rational matrix, and
the graded dimension of the killed complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .poly import (
    BigradedPoly,
    Coefficient,
    ExpansionBudgetError,
    InvariantError,
    VariableTable,
    monomials,
    substitute,
)

Entry = tuple[int, int]  # (row, col)
Matrix = dict[Entry, BigradedPoly]


def cast(p: BigradedPoly, table: VariableTable) -> BigradedPoly:
    """Reinterpret a polynomial over a table sharing the variables it uses.

    Variables missing from the target are fine as long as they never occur
    with a positive exponent.
    """
    if p.table == table:
        return p
    src_names = p.table.names()
    idx = [table.index(name) if name in table else None for name in src_names]
    out: dict[tuple[int, ...], Coefficient] = {}
    width = len(table)
    for e, c in p.terms.items():
        e2 = [0] * width
        for pos, k in zip(idx, e):
            if pos is None:
                if k:
                    raise ValueError("cast drops a variable in use")
            else:
                e2[pos] = k
        out[tuple(e2)] = c
    return BigradedPoly(table, out)


# ---------------------------------------------------------------------------
# Koszul specifications


@dataclass(frozen=True)
class KoszulSpec:
    """Rows (left, right), each homogeneous with bidegree sum (2, 2N+2)."""

    table: VariableTable
    n: int
    rows: tuple[tuple[BigradedPoly, BigradedPoly], ...]

    def __post_init__(self) -> None:
        want = (2, 2 * self.n + 2)
        for left, right in self.rows:
            dl = left.bidegree()
            dr = right.bidegree()
            if dl is not None and dr is not None:
                total = (dl[0] + dr[0], dl[1] + dr[1])
                if total != want:
                    raise ValueError(f"row degree {total} != {want}")
            elif dl is None and dr is None:
                raise ValueError("zero row (both entries vanish)")

    def potential(self) -> BigradedPoly:
        w = BigradedPoly.zero(self.table)
        for left, right in self.rows:
            w = w + left * right
        return w


def koszul_row_shift(n: int, left: BigradedPoly, right: BigradedPoly) -> tuple[int, int]:
    """Degree of the odd generator of a single-row factorization.

    R -> R{1 - deg_a left, N+1 - deg_x left} -> R; when left = 0 the degree
    is read off the right entry instead (row sum is (2, 2N+2)).
    """
    dl = left.bidegree()
    if dl is None:
        dr = right.bidegree()
        if dr is None:
            raise InvariantError("zero row (both entries vanish)")
        dl = (2 - dr[0], 2 * n + 2 - dr[1])
    return (1 - dl[0], n + 1 - dl[1])


@dataclass(frozen=True)
class ExclusionStep:
    """Record of excluding one mark through one Koszul row.

    The row's right entry factored as u (v - image); the row is removed and
    v := image substituted everywhere else.  The substitution is a homotopy
    equivalence over the smaller ring.
    """

    spec_after: KoszulSpec
    var: str
    image: BigradedPoly  # over spec_after.table


def linear_unit_solve(entry: BigradedPoly, var: str) -> tuple[Coefficient, BigradedPoly] | None:
    """Write entry = u (var - p) with u a nonzero rational, p free of var."""
    if entry.degree_in(var) != 1:
        return None
    coeff = entry.coefficient_of(var, 1)
    if not coeff.is_constant():
        return None
    u = coeff.constant_value()
    if not u:
        return None
    rest = entry.coefficient_of(var, 0)
    p = rest * (Fraction(-1) / u)
    return u, p


def exclude_variable(spec: KoszulSpec, row: int, var: str) -> ExclusionStep:
    """Remove a row whose right entry is u (var - p) and substitute var := p."""
    left, right = spec.rows[row]
    solved = linear_unit_solve(right, var)
    if solved is None:
        raise ValueError(f"row {row} right entry is not unit-linear in {var}")
    p = solved[1]
    if p.degree_in(var):
        raise ValueError("variable appears in its own image")
    new_table = spec.table.without([var])
    image = cast(p, new_table)
    sub = {var: image}
    rows = []
    for idx, (l, r) in enumerate(spec.rows):
        if idx == row:
            continue
        rows.append(
            (substitute(l, sub, new_table), substitute(r, sub, new_table))
        )
    after = KoszulSpec(new_table, spec.n, tuple(rows))
    # potential of the dropped row dies under the substitution
    if after.potential() != substitute(spec.potential(), sub, new_table):
        raise InvariantError("exclusion changed the potential")
    return ExclusionStep(after, var, image)


def find_exclusion(spec: KoszulSpec, allowed: Iterable[str]) -> tuple[int, str] | None:
    """First (row, var) pair excludable among the allowed variable names."""
    allowed = [v for v in allowed if v in spec.table]
    for row in range(len(spec.rows)):
        right = spec.rows[row][1]
        for var in allowed:
            solved = linear_unit_solve(right, var)
            if solved is not None and not solved[1].degree_in(var):
                return row, var
    return None


def exclude_all(
    spec: KoszulSpec, allowed: Sequence[str]
) -> tuple[KoszulSpec, list[ExclusionStep]]:
    """Exclude allowed variables, each at the first (row, var) pair that
    find_exclusion offers, until none is left; the steps in their order."""
    steps: list[ExclusionStep] = []
    while (found := find_exclusion(spec, allowed)) is not None:
        steps.append(exclude_variable(spec, *found))
        spec = steps[-1].spec_after
    return spec, steps


# ---------------------------------------------------------------------------
# Matrix factorizations


class MatrixFactorization:
    """Finite rank matrix factorization with explicit bases and differentials.

    basis0/basis1 hold the (a-degree, x-degree) of each generator; d0 maps
    basis0 to basis1 and d1 maps back; d1 d0 = d0 d1 = potential Id.
    """

    __slots__ = ("table", "n", "potential", "basis0", "basis1", "d0", "d1")

    def __init__(
        self,
        table: VariableTable,
        n: int,
        potential: BigradedPoly,
        basis0: Sequence[tuple[int, int]],
        basis1: Sequence[tuple[int, int]],
        d0: Matrix,
        d1: Matrix,
        check: bool = True,
    ):
        self.table = table
        self.n = n
        self.potential = potential
        self.basis0 = list(basis0)
        self.basis1 = list(basis1)
        self.d0 = {k: v for k, v in d0.items() if not v.is_zero()}
        self.d1 = {k: v for k, v in d1.items() if not v.is_zero()}
        if check:
            self.verify()

    def rank(self) -> int:
        return len(self.basis0) + len(self.basis1)

    def basis(self, parity: int) -> list[tuple[int, int]]:
        return self.basis0 if parity % 2 == 0 else self.basis1

    def differential(self, parity: int) -> Matrix:
        return self.d0 if parity % 2 == 0 else self.d1

    def verify(self) -> None:
        """Check the defining identities; raise InvariantError on violation."""
        w = self.potential
        wdeg = w.bidegree()
        if wdeg is not None and wdeg != (2, 2 * self.n + 2):
            raise InvariantError(f"potential degree {wdeg}")
        self._verify_entry_degrees(self.d0, self.basis0, self.basis1)
        self._verify_entry_degrees(self.d1, self.basis1, self.basis0)
        self._verify_square(self.d1, self.d0, len(self.basis0))
        self._verify_square(self.d0, self.d1, len(self.basis1))

    def _verify_entry_degrees(self, d: Matrix, src, tgt) -> None:
        for (i, j), p in d.items():
            sj, sx = src[j]
            tj, tx = tgt[i]
            want = (1 + sj - tj, self.n + 1 + sx - tx)
            got = p.bidegree()
            if got is not None and got != want:
                raise InvariantError(f"entry degree {got}, expected {want}")

    def _verify_square(self, second: Matrix, first: Matrix, size: int) -> None:
        prod = compose(second, first)
        for j in range(size):
            diag = prod.pop((j, j), BigradedPoly.zero(self.table))
            if diag != self.potential:
                raise InvariantError("d^2 diagonal differs from potential")
        for entry, p in prod.items():
            if not p.is_zero():
                raise InvariantError(f"d^2 off-diagonal at {entry}")

    def shifted(self, da: int, dx: int, flip: int = 0) -> "MatrixFactorization":
        """Shift all generators by (da, dx); an odd flip swaps the parities.

        Nothing is checked again: neither move can break d^2 = w or an entry degree.
        """
        b0 = [(a + da, x + dx) for a, x in self.basis0]
        b1 = [(a + da, x + dx) for a, x in self.basis1]
        d0, d1 = self.d0, self.d1
        if flip % 2:
            b0, b1, d0, d1 = b1, b0, d1, d0
        return MatrixFactorization(self.table, self.n, self.potential, b0, b1, d0, d1, check=False)


def compose(second: Matrix, first: Matrix) -> Matrix:
    """Sparse matrix product second . first.

    All products of one output entry are summed term by term in one dict,
    and one polynomial is built per nonzero entry.  Every entry of both
    operands must share one variable table (ValueError otherwise).
    """
    tables = {p.table for p in second.values()} | {p.table for p in first.values()}
    if len(tables) > 1:
        raise ValueError("mismatched variable tables")
    table = next(iter(tables), None)
    by_col: dict[int, list[tuple[int, dict]]] = {}
    for (i, j), q in second.items():
        by_col.setdefault(j, []).append((i, q.terms))
    sums: dict[Entry, dict[tuple[int, ...], Coefficient]] = {}
    for (mid, j), p in first.items():
        pterms = p.terms.items()
        for i, qterms in by_col.get(mid, ()):
            acc = sums.setdefault((i, j), {})
            for e1, c1 in qterms.items():
                for e2, c2 in pterms:
                    e = tuple(map(add, e1, e2))
                    acc[e] = acc.get(e, 0) + c1 * c2
    out: Matrix = {}
    for key, acc in sums.items():
        p = BigradedPoly(table, acc)
        if p.terms:
            out[key] = p
    return out


def koszul_masks(nrows: int) -> tuple[list[int], list[int]]:
    masks0 = sorted(m for m in range(1 << nrows) if bin(m).count("1") % 2 == 0)
    masks1 = sorted(m for m in range(1 << nrows) if bin(m).count("1") % 2 == 1)
    return masks0, masks1


def koszul(spec: KoszulSpec) -> MatrixFactorization:
    """Tensor of the rank-2 factorizations of all rows, on the subset basis.

    Basis elements are bitmasks over rows; the slot-i differential carries
    the Leibniz sign (-1)^(number of set bits below i).
    """
    nrows = len(spec.rows)
    table = spec.table
    shifts = [koszul_row_shift(spec.n, l, r) for l, r in spec.rows]
    masks0, masks1 = koszul_masks(nrows)
    index0 = {m: i for i, m in enumerate(masks0)}
    index1 = {m: i for i, m in enumerate(masks1)}

    def degree(mask: int) -> tuple[int, int]:
        a = x = 0
        for i in range(nrows):
            if mask >> i & 1:
                a += shifts[i][0]
                x += shifts[i][1]
        return (a, x)

    basis0 = [degree(m) for m in masks0]
    basis1 = [degree(m) for m in masks1]
    d0: Matrix = {}
    d1: Matrix = {}
    for mask in range(1 << nrows):
        even = bin(mask).count("1") % 2 == 0
        src = index0[mask] if even else index1[mask]
        sign = 1
        for i in range(nrows):
            if i:
                sign = 1 if bin(mask & ((1 << i) - 1)).count("1") % 2 == 0 else -1
            entry = spec.rows[i][1] if mask >> i & 1 else spec.rows[i][0]
            if entry.is_zero():
                continue
            tgt_mask = mask ^ (1 << i)
            coeff = entry if sign == 1 else -entry
            if even:
                d0[(index1[tgt_mask], src)] = d0.get((index1[tgt_mask], src), BigradedPoly.zero(table)) + coeff
            else:
                d1[(index0[tgt_mask], src)] = d1.get((index0[tgt_mask], src), BigradedPoly.zero(table)) + coeff
    return MatrixFactorization(table, spec.n, spec.potential(), basis0, basis1, d0, d1)


def tensor(M: MatrixFactorization, M2: MatrixFactorization) -> MatrixFactorization:
    """Tensor product with the signed Leibniz rule; potentials add."""
    if M.table != M2.table or M.n != M2.n:
        raise ValueError("tensor factors over different rings")
    table = M.table
    # basis0: M0 x M2_0 then M1 x M2_1 ; basis1: M1 x M2_0 then M0 x M2_1
    pairs0 = [(0, i, 0, j) for i in range(len(M.basis0)) for j in range(len(M2.basis0))]
    pairs0 += [(1, i, 1, j) for i in range(len(M.basis1)) for j in range(len(M2.basis1))]
    pairs1 = [(1, i, 0, j) for i in range(len(M.basis1)) for j in range(len(M2.basis0))]
    pairs1 += [(0, i, 1, j) for i in range(len(M.basis0)) for j in range(len(M2.basis1))]
    loc = {}
    for pos, key in enumerate(pairs0):
        loc[key] = (0, pos)
    for pos, key in enumerate(pairs1):
        loc[key] = (1, pos)

    def deg(key):
        e1, i, e2, j = key
        a1, x1 = M.basis(e1)[i]
        a2, x2 = M2.basis(e2)[j]
        return (a1 + a2, x1 + x2)

    basis0 = [deg(k) for k in pairs0]
    basis1 = [deg(k) for k in pairs1]
    d0: Matrix = {}
    d1: Matrix = {}

    def add(src_key, tgt_key, p):
        se, si = loc[src_key]
        te, ti = loc[tgt_key]
        if te != (se + 1) % 2:
            raise InvariantError("tensor differential preserves parity")
        mat = d0 if se == 0 else d1
        cur = mat.get((ti, si))
        mat[(ti, si)] = p if cur is None else cur + p

    for src_key in itertools.chain(pairs0, pairs1):
        e1, i, e2, j = src_key
        for (ti, si), p in M.differential(e1).items():
            if si == i:
                add(src_key, ((e1 + 1) % 2, ti, e2, j), p)
        sign = 1 if e1 == 0 else -1
        for (tj, sj), p in M2.differential(e2).items():
            if sj == j:
                add(src_key, (e1, i, (e2 + 1) % 2, tj), p if sign == 1 else -p)
    return MatrixFactorization(table, M.n, M.potential + M2.potential, basis0, basis1, d0, d1)


def _eliminate_pair(
    M: MatrixFactorization, par: int, i_tgt: int, i_src: int
) -> MatrixFactorization:
    """Gaussian elimination of one constant entry of the differential.

    par is the parity of the source generator; the entry sits in d_par at
    (i_tgt, i_src) and must be a nonzero rational constant.
    """
    d = M.differential(par)
    c = d[(i_tgt, i_src)].constant_value()
    cinv = Fraction(1) / c
    table = M.table
    src_keep = [k for k in range(len(M.basis(par))) if k != i_src]
    tgt_keep = [k for k in range(len(M.basis((par + 1) % 2))) if k != i_tgt]
    src_pos = {k: p for p, k in enumerate(src_keep)}
    tgt_pos = {k: p for p, k in enumerate(tgt_keep)}

    d_same: Matrix = {}  # reduced differential out of the source parity
    for (i, j), p in d.items():
        if i == i_tgt or j == i_src:
            continue
        d_same[(tgt_pos[i], src_pos[j])] = p
    # correction  -gamma c^{-1} delta
    gamma = {i: p for (i, j), p in d.items() if j == i_src and i != i_tgt}
    delta = {j: p for (i, j), p in d.items() if i == i_tgt and j != i_src}
    for i, g in gamma.items():
        for j, dl in delta.items():
            key = (tgt_pos[i], src_pos[j])
            corr = g * dl * (-cinv)
            cur = d_same.get(key)
            s = corr if cur is None else cur + corr
            if s.is_zero():
                d_same.pop(key, None)
            else:
                d_same[key] = s
    dback = M.differential((par + 1) % 2)
    d_other: Matrix = {}
    for (i, j), p in dback.items():
        if i == i_src or j == i_tgt:
            continue
        d_other[(src_pos[i], tgt_pos[j])] = p

    nb_src = [M.basis(par)[k] for k in src_keep]
    nb_tgt = [M.basis((par + 1) % 2)[k] for k in tgt_keep]
    if par == 0:
        return MatrixFactorization(table, M.n, M.potential, nb_src, nb_tgt, d_same, d_other)
    return MatrixFactorization(table, M.n, M.potential, nb_tgt, nb_src, d_other, d_same)


def find_constant_entry(M: MatrixFactorization) -> tuple[int, int, int] | None:
    for par in (0, 1):
        for (i, j), p in M.differential(par).items():
            if p.is_constant() and p.constant_value():
                return par, i, j
    return None


def split_contractibles(M: MatrixFactorization) -> MatrixFactorization:
    """Remove all contractible direct summands (constant differential entries)."""
    while True:
        found = find_constant_entry(M)
        if found is None:
            return M
        par, i, j = found
        M = _eliminate_pair(M, par, i, j)


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

    def truncated(self, bound: int) -> "GdimSeries":
        return GdimSeries(
            {k: v for k, v in self.terms.items() if k[2] <= bound},
            min(self.x_truncation, bound),
        )

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

    def total_dimension(self) -> int:
        return sum(self.terms.values())

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


def kernel(cols: Sequence[Mapping[int, Fraction | int]]) -> list[dict[int, Fraction]]:
    """Kernel of a rational matrix given as sparse columns {row: entry}.

    Exact Gaussian elimination with the least row index as pivot.  Each
    returned combination {column index: coefficient} sends the columns to
    zero, and the combinations are independent, so the rank of the matrix
    is len(cols) - len(kernel(cols)).  Entries may be int or Fraction.
    """
    pivots: dict[int, tuple[dict, dict]] = {}
    out: list[dict[int, Fraction]] = []
    for idx, col in enumerate(cols):
        col = dict(col)
        combo: dict[int, Fraction] = {idx: Fraction(1)}
        while col:
            lead = min(col)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (col, combo)
                break
            pcol, pcombo = piv
            factor = Fraction(col[lead]) / pcol[lead]
            for target, source in ((col, pcol), (combo, pcombo)):
                for key, v in source.items():
                    s = target.get(key, 0) - factor * v
                    if s:
                        target[key] = s
                    else:
                        target.pop(key, None)
        if not col:
            out.append(combo)
    return out


def rank(cols: Sequence[Mapping[int, Fraction | int]]) -> int:
    return len(cols) - len(kernel(cols))


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
    elements in all raises ExpansionBudgetError before any is enumerated.
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

    def slice_basis(par: int, j: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
        return [
            (g, mono)
            for g, (ga, gx) in enumerate(bases[par])
            if ga == j and gx <= k
            for mono in monomials(weights, k - gx)
        ]

    def slice_matrix(par: int, src, tgt) -> list[dict[int, Coefficient]]:
        tgt_pos = {key: pos for pos, key in enumerate(tgt)}
        cols = []
        for g, mono in src:
            col: dict[int, Coefficient] = {}
            for ti, e, c in images[par].get(g, ()):
                idx = tgt_pos.get((ti, tuple(map(add, mono, e))))
                if idx is None:
                    raise InvariantError("image outside enumerated slice")
                col[idx] = col.get(idx, 0) + c
            cols.append({k2: v for k2, v in col.items() if v})
        return cols

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
            raise ExpansionBudgetError(
                f"graded dimension to x-degree {x_truncation} needs more than "
                f"{MAX_SLICE_BASIS} slice basis elements, the cap"
            )
    terms: dict[tuple[int, int, int], int] = {}
    slice_cache: dict[tuple[int, int, int], list] = {}

    def get_basis(par, j, k):
        key = (par, j, k)
        if key not in slice_cache:
            slice_cache[key] = slice_basis(par, j, k)
        return slice_cache[key]

    for par in (0, 1):
        for j in a_values:
            for k in range(x_min, x_top + 1):
                src = get_basis(par, j, k)
                if not src:
                    continue
                out_tgt = get_basis((par + 1) % 2, j + 1, k + M.n + 1)
                in_src = get_basis((par + 1) % 2, j - 1, k - M.n - 1)
                rank_out = rank(slice_matrix(par, src, out_tgt))
                rank_in = rank(slice_matrix((par + 1) % 2, in_src, src)) if in_src else 0
                dim = len(src) - rank_out - rank_in
                if dim < 0:
                    raise InvariantError("negative slice dimension")
                if dim:
                    terms[(par, j, k)] = dim
    return GdimSeries(terms, x_truncation)
