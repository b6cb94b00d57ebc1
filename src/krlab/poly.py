"""Exact bigraded polynomial arithmetic over the rationals.

Every ring in the library is a polynomial ring Q[a, marks, symmetric
generators] graded by a pair (a-degree, x-degree):

    deg a = (2, 0)       deg mark = (0, 2)       deg E_k = (0, 2k)

where E_k is the k-th elementary symmetric generator of a colored-edge
alphabet.  Polynomials are stored sparsely as exponent-vector ->
coefficient maps.  Coefficients are exact rationals throughout, never
floats: an int when integral and a Fraction otherwise (see exact).  The
Koszul rows of the potential a x^(N+1) have integer coefficients, and
keeping them as int spares the cube build Fraction's arithmetic.
A polynomial is written out in graded lexicographic term order.  The
one exact polynomial division, divide_terms, reduces by leading terms in
lexicographic order; divide_exact here and skein.divide_exact on Laurent
polynomials both call it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub
from typing import Iterable, Mapping, Sequence

KIND_A = "a"
KIND_MARK = "mark"
KIND_SYM = "elementary-symmetric"

_KIND_DEGREES = {KIND_A: (2, 0), KIND_MARK: (0, 2)}


class InvariantError(AssertionError):
    """An internal consistency check failed; unlike assert, never stripped by -O."""


class BudgetError(RuntimeError):
    """A computation would pass one of its size caps or search budgets."""


Coefficient = int | Fraction


def exact(c: object) -> Coefficient:
    """c as an exact scalar: an int when integral, a Fraction otherwise.

    Anything but an int or a Fraction (a float above all) raises TypeError,
    so an inexact value never becomes a coefficient.
    """
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"exact coefficients are int or Fraction, not {type(c).__name__}")


@dataclass(frozen=True)
class Variable:
    """One generator of a bigraded polynomial ring."""

    name: str
    kind: str
    bidegree: tuple[int, int]

    def __post_init__(self) -> None:
        if self.kind not in (KIND_A, KIND_MARK, KIND_SYM):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind in _KIND_DEGREES and self.bidegree != _KIND_DEGREES[self.kind]:
            raise ValueError(f"{self.kind} variables have bidegree {_KIND_DEGREES[self.kind]}")
        if self.kind == KIND_SYM and (self.bidegree[0] != 0 or self.bidegree[1] <= 0 or self.bidegree[1] % 2):
            raise ValueError("elementary-symmetric generators have bidegree (0, 2k)")


class VariableTable:
    """Ordered, immutable list of variables shared by a family of polynomials.

    Tables compare by value, so structurally equal tables built in different
    places are interchangeable.
    """

    __slots__ = ("variables", "_index", "_hash")

    def __init__(self, variables: Iterable[Variable]):
        self.variables: tuple[Variable, ...] = tuple(variables)
        self._index: dict[str, int] = {v.name: i for i, v in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            raise ValueError("duplicate variable names")
        self._hash = hash(self.variables)

    @staticmethod
    def build(spec: Sequence[tuple[str, str] | tuple[str, str, int]]) -> "VariableTable":
        """Build a table from (name, kind) or (name, 'elementary-symmetric', k) entries."""
        out = []
        for entry in spec:
            if entry[1] == KIND_SYM:
                name, kind, k = entry  # type: ignore[misc]
                out.append(Variable(name, kind, (0, 2 * k)))
            else:
                name, kind = entry[:2]
                out.append(Variable(name, kind, _KIND_DEGREES[kind]))
        return VariableTable(out)

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.variables)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableTable) and self.variables == other.variables

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "VariableTable(" + ", ".join(v.name for v in self.variables) + ")"

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def without(self, names: Iterable[str]) -> "VariableTable":
        drop = set(names)
        return VariableTable(v for v in self.variables if v.name not in drop)

    def monomial_bidegree(self, exponents: tuple[int, ...]) -> tuple[int, int]:
        da = dx = 0
        for e, v in zip(exponents, self.variables):
            if e:
                da += e * v.bidegree[0]
                dx += e * v.bidegree[1]
        return (da, dx)


def monomials(weights: Sequence[int], total: int) -> list[tuple[int, ...]]:
    """Exponent tuples e with sum(e[i] * weights[i]) == total, weights positive.

    Ordered by first exponent ascending, then recursively by the rest.  The
    last exponent is solved by divisibility, so the cost is that of the
    answer, whatever the total.
    """
    if total < 0:
        return []
    if not weights:
        return [] if total else [()]
    head, rest = weights[0], weights[1:]
    if not rest:
        q, r = divmod(total, head)
        return [] if r else [(q,)]
    return [
        (k,) + tail
        for k in range(total // head + 1)
        for tail in monomials(rest, total - k * head)
    ]


def _term_sort_key(exponents: tuple[int, ...]) -> tuple:
    # graded-lex: total degree first, then exponent vector
    return (sum(exponents), exponents)


class BigradedPoly:
    """Sparse polynomial over a VariableTable.

    Coefficients are int when integral and Fraction otherwise; the
    constructor normalises them through exact and drops zeros, so equal
    polynomials have equal term dicts whatever their coefficients were
    built from.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VariableTable, terms: Mapping[tuple[int, ...], Coefficient]):
        self.table = table
        out: dict[tuple[int, ...], Coefficient] = {}
        for e, c in terms.items():
            if type(c) is not int:
                c = exact(c)
            if c:
                out[e] = c
        self.terms = out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "BigradedPoly":
        return BigradedPoly(table, {})

    @staticmethod
    def constant(table: VariableTable, c: Coefficient) -> "BigradedPoly":
        c = exact(c)
        if not c:
            return BigradedPoly.zero(table)
        return BigradedPoly(table, {(0,) * len(table): c})

    @staticmethod
    def one(table: VariableTable) -> "BigradedPoly":
        return BigradedPoly.constant(table, 1)

    @staticmethod
    def variable(table: VariableTable, name: str) -> "BigradedPoly":
        e = [0] * len(table)
        e[table.index(name)] = 1
        return BigradedPoly(table, {tuple(e): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Coefficient:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def bidegree(self) -> tuple[int, int] | None:
        """Common bidegree of all terms, None for the zero polynomial.

        Raises if the polynomial is inhomogeneous; every quantity in the
        library is supposed to stay homogeneous.
        """
        deg: tuple[int, int] | None = None
        for e in self.terms:
            d = self.table.monomial_bidegree(e)
            if deg is None:
                deg = d
            elif d != deg:
                raise ValueError(f"inhomogeneous polynomial: degrees {deg} and {d}")
        return deg

    def degree_in(self, name: str) -> int:
        i = self.table.index(name)
        return max((e[i] for e in self.terms), default=0)

    def coefficient_of(self, name: str, power: int) -> "BigradedPoly":
        """Coefficient of name**power, as a polynomial in the other variables."""
        i = self.table.index(name)
        out: dict[tuple[int, ...], Coefficient] = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = out.get(tuple(e2), 0) + c
        return BigradedPoly(self.table, out)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coefficient]]:
        return sorted(self.terms.items(), key=lambda t: _term_sort_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "BigradedPoly") -> None:
        if self.table != other.table:
            raise ValueError("mismatched variable tables")

    def __add__(self, other: "BigradedPoly") -> "BigradedPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return BigradedPoly(self.table, out)

    def __neg__(self) -> "BigradedPoly":
        return BigradedPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "BigradedPoly") -> "BigradedPoly":
        return self + (-other)

    def __mul__(self, other: "BigradedPoly | Coefficient") -> "BigradedPoly":
        if not isinstance(other, BigradedPoly):
            other = exact(other)
            if not other:
                return BigradedPoly.zero(self.table)
            return BigradedPoly(self.table, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return BigradedPoly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BigradedPoly":
        if n < 0:
            raise ValueError("negative power")
        out = BigradedPoly.one(self.table)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BigradedPoly)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        names = self.table.names()
        parts = []
        for e, c in self.sorted_terms():
            factors = [str(c)] if (c != 1 or not any(e)) else []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def divide_terms(
    num: Mapping[tuple[int, ...], Coefficient], den: Mapping[tuple[int, ...], Coefficient]
) -> dict[tuple[int, ...], Coefficient] | None:
    """The exact quotient num/den of polynomials given as {exponent tuple:
    coefficient}, with non-negative exponents and den nonzero, or None when
    den does not divide num.

    Greedy division by leading terms in lexicographic order: the leading
    term of a multiple of den is a multiple of den's leading term, so a
    leading term of the remainder that den's does not divide shows that den
    does not divide num.  The remainder is one dict updated in place, and
    its leading term comes from a heap of its keys, negated so the least is
    the leading one; a key popped after its term cancelled is skipped, so a
    t-term division takes O(t log t) steps.
    """
    lead_e = max(den)
    lead_c = den[lead_e]
    tail = [(e, c) for e, c in den.items() if e != lead_e]
    rem = dict(num)
    heap = [tuple(map(neg, e)) for e in rem]
    heapq.heapify(heap)
    quot: dict[tuple[int, ...], Coefficient] = {}
    while heap:
        re = tuple(map(neg, heapq.heappop(heap)))
        rc = rem.pop(re, None)
        if rc is None:
            continue
        qe = tuple(map(sub, re, lead_e))
        if lead_e and min(qe) < 0:  # lead_e is () only in a ring with no variable
            return None
        qc, r = divmod(rc, lead_c)
        if r:
            qc = Fraction(rc, lead_c)  # not integral, so already exact's normal form
        quot[qe] = qc
        for e, c in tail:
            key = tuple(map(add, qe, e))
            left = rem.get(key, 0) - qc * c
            if left:
                if key not in rem:
                    heapq.heappush(heap, tuple(map(neg, key)))
                rem[key] = left
            else:
                del rem[key]
    return quot


def divide_exact(p: BigradedPoly, d: BigradedPoly) -> BigradedPoly:
    """Exact quotient p/d in the polynomial ring, by divide_terms; a
    non-exact division raises ValueError, never a silent truncation."""
    p._check(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    quot = divide_terms(p.terms, d.terms)
    if quot is None:
        raise ValueError("non-exact polynomial division")
    return BigradedPoly(p.table, quot)


def substitute(
    p: BigradedPoly,
    assignment: Mapping[str, BigradedPoly],
    target: VariableTable | None = None,
) -> BigradedPoly:
    """Evaluate p under variable -> polynomial assignments.

    Unassigned variables must exist in the target table and map to
    themselves.  Assigned images must already live over the target table.
    """
    if target is None:
        target = next(iter(assignment.values())).table if assignment else p.table
    keep: list[tuple[int, int]] = []  # (source position, target position)
    images: list[tuple[int, BigradedPoly]] = []
    for i, v in enumerate(p.table.variables):
        if v.name in assignment:
            img = assignment[v.name]
            if img.table != target:
                raise ValueError(f"image of {v.name} over wrong table")
            images.append((i, img))
        else:
            keep.append((i, target.index(v.name)))
    width = len(target)
    out: dict[tuple[int, ...], Coefficient] = {}
    # cache powers per variable to keep repeated exponents cheap
    powers: list[dict[int, dict]] = [dict() for _ in images]
    for e, c in p.terms.items():
        base = [0] * width
        for i, j in keep:
            base[j] = e[i]
        partial = {tuple(base): c}
        for (i, img), cache in zip(images, powers):
            k = e[i]
            if not k:
                continue
            if k not in cache:
                cache[k] = (img ** k).terms
            product: dict[tuple[int, ...], Coefficient] = {}
            for e1, c1 in partial.items():
                for e2, c2 in cache[k].items():
                    key = tuple(map(add, e1, e2))
                    product[key] = product.get(key, 0) + c1 * c2
            partial = product
        for key, v in partial.items():
            out[key] = out.get(key, 0) + v
    return BigradedPoly(target, out)


def _sym_values(generators: Sequence[BigradedPoly], k: int) -> BigradedPoly:
    """e_k as a polynomial, 1 at k=0, 0 outside [0, m]."""
    table = generators[0].table
    if k == 0:
        return BigradedPoly.one(table)
    if k < 0 or k > len(generators):
        return BigradedPoly.zero(table)
    return generators[k - 1]


def power_sum_in_elementary(generators: Sequence[BigradedPoly], k: int) -> BigradedPoly:
    """p_{m,k} written in the given elementary symmetric generators.

    generators[j-1] plays the role of E_j, m = len(generators) <= 3.
    Computed by Newton's identities; p_{m,0} = m.
    """
    m = len(generators)
    if not (1 <= m <= 3):
        raise ValueError("alphabet size must be 1..3")
    table = generators[0].table
    p: list[BigradedPoly] = [BigradedPoly.constant(table, m)]
    for kk in range(1, k + 1):
        acc = BigradedPoly.zero(table)
        for i in range(1, min(kk, m) + 1):
            term = _sym_values(generators, i) * p[kk - i]
            acc = acc + (term if i % 2 == 1 else -term)
        if kk <= m:
            # the i = kk summand above used p_0 = m, so the classical
            # (-1)^{k-1} k e_k term needs the correction coefficient (k - m)
            tail = _sym_values(generators, kk) * (kk - m)
            acc = acc + (tail if kk % 2 == 1 else -tail)
        p.append(acc)
    return p[k]
