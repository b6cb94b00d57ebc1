"""Z2 x Z x Z graded matrix factorizations over bigraded polynomial rings.

A matrix factorization of a potential w consists of two free graded modules
M0, M1 and differentials d0: M0 -> M1, d1: M1 -> M0 with d1 d0 = w Id and
d0 d1 = w Id; differentials are homogeneous of bidegree (1, N+1).  Most
factorizations here are Koszul: tensor products of rank-2 pieces

    (left, right):   R --left--> R{1 - deg_a left, N+1 - deg_x left} --right--> R

one per row of a KoszulSpec, with the signed Leibniz rule governing the
tensor differential.  Every identity the checks multiply out (d^2 = w here,
chi commuting with the differentials and d_chi^2 = 0 in cube) is a signed sum
of sparse polynomial matrix products, taken by the one product kernel,
compose_sum.  It evaluates each such sum exactly, by content pairs: every
entry is a sign times a content class shared with its negative and with
every equal polynomial, and since the ring is commutative and the product
bilinear, each output entry is a sum over unordered pairs of classes of an
integer net coefficient times their product.  Only pairs whose coefficient
is nonzero are multiplied, so the pairs that cancel, as most do in a
closed diagram's checks, cost no product (compose_sum gives the argument).
A product packs each exponent tuple into one int, in fields wide enough
for twice the largest exponent, so a product of two monomials is one
integer addition that cannot carry; exponents are never negative.  The module
also provides the one simplification the pipelines use (exclusion of a
variable through a unit-linear row) and the symmetric difference quotient
of a power sum, the left entry of a vertex row.  An exclusion comes
with its chain maps (exclusion_reduction), which carry maps between
factorizations over to the smaller ring, and a chain of exclusions with its
composite substitution (exclusion_substitution).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .poly import (
    KIND_SYM,
    BigradedPoly,
    Coefficient,
    InvariantError,
    Variable,
    VariableTable,
    divide_exact,
    power_sum_in_elementary,
    quotient,
    substitute,
)

Entry = tuple[int, int]  # (row, col)
Matrix = dict[Entry, BigradedPoly]
ChainVector = dict[tuple[int, int], BigradedPoly]  # (parity, index) -> coefficient


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


def _difference_quotient(table, xs, ys, j, n) -> BigradedPoly:
    """[p(Y1..Y_{j-1}, X_j..X_m) - p(Y1..Y_j, X_{j+1}..X_m)] / (X_j - Y_j),
    with m = len(xs) and p the (n+1)-st power sum, computed through a fresh
    symbol so that X_j = Y_j is allowed."""
    fresh = "tQuot"
    if fresh in table:
        raise InvariantError(f"reserved symbol {fresh} already in the ring")
    big = VariableTable(list(table.variables) + [Variable(fresh, KIND_SYM, (0, 2 * j))])
    t = BigradedPoly.variable(big, fresh)
    up = [cast(p, big) for p in xs]
    yp = [cast(p, big) for p in ys]
    hi_args = yp[: j - 1] + [t] + up[j:]
    lo_args = yp[:j] + up[j:]
    numer = power_sum_in_elementary(hi_args, n + 1) - power_sum_in_elementary(lo_args, n + 1)
    quot = divide_exact(numer, t - yp[j - 1])
    return substitute(quot, {fresh: xs[j - 1]}, table)


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

    spec_before: KoszulSpec
    spec_after: KoszulSpec
    row: int
    var: str
    unit: Coefficient
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
    p = rest * quotient(-1, u)
    return u, p


def exclude_variable(spec: KoszulSpec, row: int, var: str) -> ExclusionStep:
    """Remove a row whose right entry is u (var - p) and substitute var := p."""
    left, right = spec.rows[row]
    solved = linear_unit_solve(right, var)
    if solved is None:
        raise ValueError(f"row {row} right entry is not unit-linear in {var}")
    u, p = solved
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
    return ExclusionStep(spec, after, row, var, u, image)


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


def exclusion_substitution(steps: Sequence[ExclusionStep]) -> dict[str, BigradedPoly]:
    """The composite substitution of a chain of exclusions: each excluded
    variable's image over the ring of the last step."""
    sub: dict[str, BigradedPoly] = {}
    for step in steps:
        one = {step.var: step.image}
        table = step.spec_after.table
        sub = {var: substitute(img, one, table) for var, img in sub.items()}
        sub[step.var] = step.image
    return sub


class Reduction(NamedTuple):
    """Chain maps between the Koszul factorizations before and after an
    exclusion, acting on sparse vectors over their subset bases (parity and
    index as in koszul_masks).  pi runs from before to after and iota back."""

    pi: Callable[[ChainVector], ChainVector]
    iota: Callable[[ChainVector], ChainVector]


def _vec_add(acc: ChainVector, key: tuple[int, int], p: BigradedPoly) -> None:
    cur = acc.get(key)
    s = p if cur is None else cur + p
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


def exclusion_reduction(step: ExclusionStep) -> Reduction:
    """Chain maps for one exclusion, on the Koszul bases.

    pi substitutes var := image and keeps the generators with the excluded
    row's bit unset.  iota lifts a generator to the one with that bit unset
    and adds, on the bit-set generators, the correction that cancels what
    the lift's differential loses under the substitution: each entry less
    its image divides exactly by (var - image).  pi iota = id exactly; both
    commute with the differentials when the potential is free of var (a
    closed diagram's is zero), so iota pi is homotopic to the identity.
    """
    spec, after = step.spec_before, step.spec_after
    row, var = step.row, step.var
    if spec.potential().degree_in(var):
        # the lift commutes with the differentials only when the potential
        # is the same polynomial before and after the substitution
        raise ValueError(f"potential involves excluded variable {var}")
    big, small = spec.table, after.table
    sub = {var: step.image}
    v_minus_p = BigradedPoly.variable(big, var) - cast(step.image, big)
    scale = quotient(-1, step.unit)
    # per kept row and per bit value, the entry less its image, over var - image
    rho = {
        i: tuple(
            divide_exact(entry - cast(substitute(entry, sub, small), big), v_minus_p) * scale
            for entry in pair
        )
        for i, pair in enumerate(spec.rows)
        if i != row
    }
    nrows = len(spec.rows)
    masks = koszul_masks(nrows)
    index = {m: (par, i) for par in (0, 1) for i, m in enumerate(masks[par])}
    red_masks = koszul_masks(nrows - 1)
    red_index = {m: (par, i) for par in (0, 1) for i, m in enumerate(red_masks[par])}
    low = (1 << row) - 1
    bit = 1 << row

    def sign_below(mask: int, slot: int) -> int:
        return -1 if bin(mask & ((1 << slot) - 1)).count("1") % 2 else 1

    def pi(vec: ChainVector) -> ChainVector:
        out: ChainVector = {}
        for (par, idx), coeff in vec.items():
            mask = masks[par][idx]
            if mask & bit:
                continue
            img = substitute(coeff, sub, small)
            if not img.is_zero():
                _vec_add(out, red_index[(mask & low) | (mask >> (row + 1) << row)], img)
        return out

    corrections: dict[int, list[tuple[tuple[int, int], BigradedPoly]]] = {}

    def mask_corrections(big_mask: int) -> list[tuple[tuple[int, int], BigradedPoly]]:
        got = corrections.get(big_mask)
        if got is None:
            got = corrections[big_mask] = []
            for i, pair in rho.items():
                r = pair[big_mask >> i & 1]
                if r.is_zero():
                    continue
                target = big_mask ^ (1 << i)
                sign = sign_below(big_mask, i) * sign_below(target, row)
                got.append((index[target | bit], r if sign > 0 else -r))
        return got

    def iota(vec: ChainVector) -> ChainVector:
        out: ChainVector = {}
        for (par, idx), coeff in vec.items():
            mask = red_masks[par][idx]
            big_mask = (mask & low) | (mask >> row << (row + 1))
            lifted = cast(coeff, big)
            _vec_add(out, index[big_mask], lifted)
            for key, r in mask_corrections(big_mask):
                _vec_add(out, key, r * lifted)
        return out

    return Reduction(pi, iota)


# ---------------------------------------------------------------------------
# Matrix factorizations


def check_entry_degrees(
    blocks: Iterable[tuple[Matrix, Sequence, Sequence]], da: int, dx: int
) -> None:
    """Check that each entry of every (matrix, source basis, target basis) in
    blocks, from (sa, sx) to (ta, tx), is zero or of bidegree (da + sa - ta,
    dx + sx - tx).  Blocks share entry objects (a Koszul matrix uses about 4
    per row at every mask), so each object's bidegree is computed once."""
    degrees: dict[int, tuple[int, int] | None] = {}
    for d, src, tgt in blocks:
        for (i, j), p in d.items():
            if id(p) not in degrees:
                degrees[id(p)] = p.bidegree()
            got = degrees[id(p)]
            sa, sx = src[j]
            ta, tx = tgt[i]
            want = (da + sa - ta, dx + sx - tx)
            if got is not None and got != want:
                raise InvariantError(f"entry degree {got}, expected {want}")


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
        blocks = ((self.d0, self.basis0, self.basis1), (self.d1, self.basis1, self.basis0))
        check_entry_degrees(blocks, 1, self.n + 1)
        self._verify_square(self.d1, self.d0, len(self.basis0))
        self._verify_square(self.d0, self.d1, len(self.basis1))

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


def compose_sum(triples: Sequence[tuple[int, Matrix, Matrix]]) -> Matrix:
    """Sparse sum of products: sign * second . first summed over the
    (sign, second, first) triples, each sign 1 or -1, with every zero entry
    dropped.

    The one matrix product loop of the package.  It multiplies each distinct
    pair of entry contents once, and only when the pair survives:

    - Each entry is sign * P for one content class P: the term set scaled so
      that the coefficient at its least exponent tuple is positive.  So p,
      -p and every polynomial equal to either share one class, found per
      call by id, which stays unique while the caller holds the matrices.
    - Output entry (i, j) is the sum of sign * q * p over its paths.  The
      ring is commutative, so q * p = p * q, and the product is bilinear, so
      the sum is the sum over unordered pairs {Q, P} of classes of an
      integer net coefficient times Q * P.  A pair netting to 0 adds
      nothing, so it is never multiplied: a Koszul entry's e_i e_j - e_j e_i,
      or a chi map commuting with a differential, cancels here exactly.
    - Each surviving pair is multiplied once per call, and each distinct
      output sum (pairs with their coefficients) is built once, so equal
      output entries may share one polynomial.

    Products are taken on packed exponents: each exponent tuple is packed
    into one int, its exponents side by side in fields of (2 * the largest
    exponent).bit_length() bits, so the product of two monomials is one
    integer addition: a field of a sum holds at most twice the largest
    exponent, which fits its width, and never carries into the next.  A
    negative exponent would borrow from its neighbour instead, so one
    raises InvariantError; a polynomial's exponents are never negative.
    Every entry of every operand must share one variable table (ValueError
    otherwise).  Both checks examine every operand, including those whose
    products cancel.
    """
    table = None
    classes: dict[frozenset, int] = {}
    # per entry id: (class, sign); a zero entry, rare, is classified at each use
    class_of: dict[int, tuple[int, int]] = {}

    def classify(p: BigradedPoly) -> tuple[int, int] | None:
        nonlocal table
        if table is None:
            table = p.table
        elif p.table is not table and p.table != table:
            raise ValueError("mismatched variable tables")
        terms = p.terms
        if not terms:
            return None
        if terms[min(terms)] > 0:
            sgn, key = 1, frozenset(terms.items())
        else:
            sgn, key = -1, frozenset((e, -c) for e, c in terms.items())
        cls = classes.get(key)
        if cls is None:
            cls = classes[key] = len(classes)
        got = class_of[id(p)] = (cls, sgn)
        return got

    # per output column and row, the net coefficient of each pair {lo, hi}
    # of classes, keyed lo * bound + hi; there are fewer classes than entries
    bound = 1 + sum(len(second) + len(first) for _, second, first in triples)
    sums: dict[int, dict[int, dict[int, int]]] = {}
    for sign, second, first in triples:
        by_col: dict[int, list[tuple[int, int, int]]] = {}
        for (i, j), q in second.items():
            cq = class_of.get(id(q)) or classify(q)
            if cq is not None:
                by_col.setdefault(j, []).append((i, cq[0], sign * cq[1]))
        for (mid, j), p in first.items():
            cp = class_of.get(id(p)) or classify(p)
            paths = by_col.get(mid)
            if cp is None or paths is None:
                continue
            kp, sp = cp
            col = sums.get(j)
            if col is None:
                col = sums[j] = {}
            for i, kq, sq in paths:
                pair = kq * bound + kp if kq < kp else kp * bound + kq
                acc = col.get(i)
                if acc is None:
                    col[i] = {pair: sq * sp}
                else:
                    acc[pair] = acc.get(pair, 0) + sq * sp
    # both checks have now seen every operand, cancelling or not
    reps = list(classes)
    flat = [k for rep in reps for e, _ in rep for k in e]
    if min(flat, default=0) < 0:
        raise InvariantError("a negative exponent in a product")
    width = (2 * max(flat, default=0)).bit_length()
    shifts = [width * i for i in range(len(table) if table is not None else 0)]
    codes: dict[tuple[int, ...], int] = {}
    packed: dict[int, list[tuple[int, Coefficient]]] = {}
    products: dict[int, dict[int, Coefficient]] = {}
    built: dict[frozenset, BigradedPoly | None] = {}

    def pack(cls: int) -> list[tuple[int, Coefficient]]:
        got = packed.get(cls)
        if got is None:
            got = packed[cls] = []
            for e, c in reps[cls]:
                code = codes.get(e)
                if code is None:
                    code = codes[e] = sum(k << s for k, s in zip(e, shifts))
                got.append((code, c))
        return got

    def product(pair: int) -> dict[int, Coefficient]:
        lo, hi = divmod(pair, bound)
        prod: dict[int, Coefficient] = {}
        pterms = pack(hi)
        for e1, c1 in pack(lo):
            for e2, c2 in pterms:
                e = e1 + e2
                prod[e] = prod.get(e, 0) + c1 * c2
        return prod

    mask = (1 << width) - 1
    decoded: dict[int, tuple[int, ...]] = {}

    def build(net: frozenset) -> BigradedPoly | None:
        total: dict[int, Coefficient] = {}
        for pair, c in net:
            prod = products.get(pair)
            if prod is None:
                prod = products[pair] = product(pair)
            for e, v in prod.items():
                total[e] = total.get(e, 0) + c * v
        terms = {}
        for code, v in total.items():
            if v:
                e = decoded.get(code)
                if e is None:
                    e = decoded[code] = tuple(code >> s & mask for s in shifts)
                terms[e] = v
        return BigradedPoly(table, terms) if terms else None

    out: Matrix = {}
    for j, col in sums.items():
        for i, acc in col.items():
            if not any(acc.values()):
                continue
            net = frozenset((pair, c) for pair, c in acc.items() if c)
            if net in built:
                poly = built[net]
            else:
                poly = built[net] = build(net)
            if poly is not None:
                out[(i, j)] = poly
    return out


def compose(second: Matrix, first: Matrix) -> Matrix:
    """Sparse matrix product second . first (see compose_sum)."""
    return compose_sum([(1, second, first)])


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
    # each row's entries and their negatives, built once and shared by all
    # the masks, so compose_sum packs each distinct entry once
    signed = [((left, right), (-left, -right)) for left, right in spec.rows]
    # a (source, target) mask pair differs in one row, so each entry is set once
    for mask in range(1 << nrows):
        if bin(mask).count("1") % 2 == 0:
            d, src, index = d0, index0[mask], index1
        else:
            d, src, index = d1, index1[mask], index0
        for i, pairs in enumerate(signed):
            entry = pairs[bin(mask & ((1 << i) - 1)).count("1") % 2][mask >> i & 1]
            if entry.is_zero():
                continue
            d[(index[mask ^ (1 << i)], src)] = entry
    return MatrixFactorization(spec.table, spec.n, spec.potential(), basis0, basis1, d0, d1)


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


def find_constant_entry(M: MatrixFactorization) -> tuple[int, int, int] | None:
    for par in (0, 1):
        for (i, j), p in M.differential(par).items():
            if p.is_constant() and p.constant_value():
                return par, i, j
    return None
