"""Skein-recursion evaluation of the decategorified invariant.

The invariant of a braid closure lives in Z[[alpha,xi]][alpha^-1,xi^-1,tau]
modulo tau^2 - 1.  Since tau squares to one, a value is stored through its
two evaluations tau = +1 and tau = -1; each evaluation is an unreduced
fraction of Laurent polynomials in (alpha, xi) whose denominator is kept as
a multiset of fixed factors.  Equality is decided by cross-multiplication,
so the lack of reduction never changes an answer.

The recursion follows the computation-tree strategy: simplify by transverse
moves, split a negative crossing, or expose and split a square of a positive
generator found by conjugacy search.  Both branches of every split strictly
shrink (negative count, letter count), so the recursion terminates at
crossingless closures, whose value is the closed-form unlink evaluation.

Coefficients are exact: int or Fraction via `poly.exact`, an int whenever
the value is integral, and a float is refused.  Every value the recursion
builds has integer coefficients; a Fraction arises only from an inexact
division or from halving in series_expand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .braid import BraidWord, _order_key, markov_search, simplify, word_text
from .poly import BudgetError, Coefficient, divide_terms, exact

SKEIN_BUDGET = 10**4  # the square search's first budget, doubled up to MAX_BUDGET
MAX_BUDGET = 10**6


# ---------------------------------------------------------------------------
# Laurent polynomials in (alpha, xi)


class Laurent:
    """Laurent polynomial in (alpha, xi) with exact coefficients.

    Terms are keyed by integer exponent pairs (alpha power, xi power).
    Coefficients are int or Fraction via `poly.exact`: the constructor
    normalises them and drops zeros, so equal polynomials have equal term
    dicts, and it raises TypeError on a float.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Coefficient] | None = None):
        out: dict[tuple[int, int], Coefficient] = {}
        if terms:
            for key, c in terms.items():
                if type(c) is not int:
                    c = exact(c)
                if c:
                    out[key] = c
        self.terms = out

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def monomial(coeff, da: int = 0, dx: int = 0) -> "Laurent":
        return Laurent({(da, dx): coeff})

    @staticmethod
    def one() -> "Laurent":
        return Laurent.monomial(1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.terms == other.terms

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s if type(s) is int else exact(s)
            else:
                del out[key]
        res = Laurent()
        res.terms = out
        return res

    def __neg__(self) -> "Laurent":
        res = Laurent()
        res.terms = {key: -c for key, c in self.terms.items()}
        return res

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[tuple[int, int], Coefficient] = {}
        get = out.get
        right = list(other.terms.items())
        for (a1, x1), c1 in self.terms.items():
            for (a2, x2), c2 in right:
                key = (a1 + a2, x1 + x2)
                out[key] = get(key, 0) + c1 * c2
        return Laurent(out)

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = Laurent.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scaled(self, coeff, da: int = 0, dx: int = 0) -> "Laurent":
        c0 = exact(coeff)
        return Laurent({(a + da, x + dx): c * c0 for (a, x), c in self.terms.items()})

    def min_alpha(self) -> int | None:
        return min((a for a, _ in self.terms), default=None)

    def min_xi(self) -> int | None:
        return min((x for _, x in self.terms), default=None)

    def __repr__(self) -> str:
        return f"Laurent({self.pretty()})"

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, x) in sorted(self.terms, key=lambda t: (t[1], t[0])):
            c = self.terms[(a, x)]
            factors = []
            if a:
                factors.append("a" + (f"^{a}" if a != 1 else ""))
            if x:
                factors.append("q" + (f"^{x}" if x != 1 else ""))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def divide_exact(num: Laurent, den: Laurent) -> Laurent | None:
    """num / den when the division is exact, else None.

    Both are first shifted to least exponent 0 in alpha and in xi.  The
    shifted den then has no monomial factor, so Laurent divisibility is
    polynomial divisibility, which poly.divide_terms decides.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return Laurent.zero()
    na, nx = num.min_alpha(), num.min_xi()
    da, dx = den.min_alpha(), den.min_xi()
    quot = divide_terms(
        {(a - na, x - nx): c for (a, x), c in num.terms.items()},
        {(a - da, x - dx): c for (a, x), c in den.terms.items()},
    )
    if quot is None:
        return None
    sa, sx = na - da, nx - dx
    return Laurent({(a + sa, x + sx): c for (a, x), c in quot.items()})


def _truncated_product(
    p: Laurent, q: Laurent, alpha_max: int, xi_max: int | None = None
) -> Laurent:
    """p * q without the terms above alpha_max, or above xi_max when given."""
    out: dict[tuple[int, int], Coefficient] = {}
    get = out.get
    right = list(q.terms.items())
    for (a1, x1), c1 in p.terms.items():
        a_room = alpha_max - a1
        x_room = None if xi_max is None else xi_max - x1
        for (a2, x2), c2 in right:
            if a2 > a_room or (x_room is not None and x2 > x_room):
                continue
            key = (a1 + a2, x1 + x2)
            out[key] = get(key, 0) + c1 * c2
    return Laurent(out)


# ---------------------------------------------------------------------------
# Denominator atoms
#
# Every denominator produced by the recursion is a product of these four
# factors.  Each is lead * (1 - ratio) with lead a monic monomial, so its
# inverse is lead^-1 * sum ratio^i, a power series with exponents bounded
# below because every ratio raises alpha or xi.

ATOM_ALPHA = ("alpha",)  # 1 - alpha^2


def atom_xi1() -> tuple:
    return ("xi", 1)  # xi^-1 - xi


def atom_xin(n: int) -> tuple:
    return ("xi", n)  # xi^-n - xi^n


def atom_unit(n: int) -> tuple:
    return ("unit", n)  # tau*alpha*xi^(-n-1) + 1


def atom_parts(key: tuple, tau: int) -> tuple[tuple[int, int], tuple[int, int, int]]:
    """The atom as lead * (1 - ratio): lead's (alpha, xi) exponents and the
    ratio's (coefficient, alpha exponent, xi exponent); ValueError on an
    unknown atom."""
    if key == ATOM_ALPHA:
        return (0, 0), (1, 2, 0)  # 1 - alpha^2
    if key[0] == "xi":
        n = key[1]
        return (0, -n), (1, 0, 2 * n)  # xi^-n (1 - xi^2n)
    if key[0] == "unit":
        n = key[1]
        return (0, 0), (-tau, 1, -n - 1)  # 1 - (-tau alpha xi^(-n-1))
    raise ValueError(f"unknown denominator atom {key!r}")


def atom_poly(key: tuple, tau: int) -> Laurent:
    (la, lx), (c, ra, rx) = atom_parts(key, tau)
    return Laurent({(la, lx): 1, (la + ra, lx + rx): -c})


def _den_poly(den: Counter, tau: int) -> Laurent:
    out = Laurent.one()
    for key, mult in sorted(den.items()):
        out = out * atom_poly(key, tau) ** mult
    return out


# ---------------------------------------------------------------------------
# Rational functions at a fixed value of tau


@dataclass(frozen=True)
class RationalFunction:
    """num / prod(den atoms) evaluated at tau = +1 or tau = -1."""

    tau: int
    num: Laurent
    den: Counter

    def __post_init__(self):
        if self.tau not in (1, -1):
            raise ValueError("tau must be +1 or -1")
        if self.num.is_zero and self.den:
            object.__setattr__(self, "den", Counter())

    def stripped(self) -> "RationalFunction":
        """Cancel denominator atoms that divide the numerator exactly."""
        num, den = self.num, Counter(self.den)
        changed = True
        while changed and den:
            changed = False
            for key in list(den):
                q = divide_exact(num, atom_poly(key, self.tau))
                if q is not None:
                    num = q
                    den[key] -= 1
                    if not den[key]:
                        del den[key]
                    changed = True
        return RationalFunction(self.tau, num, den)

    def _match(self, other: "RationalFunction") -> tuple[Laurent, Laurent, Counter]:
        if self.tau != other.tau:
            raise ValueError("mixed tau evaluations")
        lcm = Counter(self.den)
        for key, mult in other.den.items():
            lcm[key] = max(lcm[key], mult)
        a, b = self.num, other.num
        for key, mult in lcm.items():
            up_self = mult - self.den[key]
            up_other = mult - other.den[key]
            if up_self:
                a = a * atom_poly(key, self.tau) ** up_self
            if up_other:
                b = b * atom_poly(key, self.tau) ** up_other
        return a, b, lcm

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        a, b, lcm = self._match(other)
        return RationalFunction(self.tau, a + b, lcm)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        a, b, lcm = self._match(other)
        return RationalFunction(self.tau, a - b, lcm)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(self.tau, -self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.tau != other.tau:
            raise ValueError("mixed tau evaluations")
        return RationalFunction(self.tau, self.num * other.num, self.den + other.den)

    def scaled(self, coeff, da: int = 0, dx: int = 0) -> "RationalFunction":
        return RationalFunction(self.tau, self.num.scaled(coeff, da, dx), self.den)

    def equals(self, other: "RationalFunction") -> bool:
        if self.tau != other.tau:
            return False
        if self.den == other.den:
            return self.num == other.num
        return self.num * _den_poly(other.den, other.tau) == other.num * _den_poly(
            self.den, self.tau
        )

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def series(self, alpha_max: int, xi_max: int) -> Laurent:
        """Exact expansion keeping alpha-exponents <= alpha_max and
        xi-exponents <= xi_max; exponents are bounded below throughout.

        Each atom lead * (1 - ratio) (`atom_parts`) is inverted as lead^-1 *
        sum ratio^i, with as many terms as the caps can use given the least
        exponent of the product so far; ValueError on an unknown atom."""
        out = self.num
        # the unit atom's ratio lowers xi while raising alpha, so expand it
        # first with an alpha cap, leaving the pure-xi atoms a stable xi floor
        parts = [(*atom_parts(key, self.tau), mult) for key, mult in sorted(self.den.items())]
        parts.sort(key=lambda part: part[1][2] >= 0)  # the ratio's xi exponent
        for (la, lx), (c, ra, rx), mult in parts:
            for _ in range(mult):
                if out.is_zero:
                    return Laurent.zero()
                if ra:
                    steps = (alpha_max - out.min_alpha() + la) // ra
                else:
                    steps = (xi_max - out.min_xi() + lx) // rx
                inv = Laurent(
                    {(ra * i - la, rx * i - lx): c**i for i in range(max(steps, 0) + 1)}
                )
                # once the xi-lowering ratios are done every factor raises both
                # exponents, so both caps hold from then on
                out = _truncated_product(out, inv, alpha_max, xi_max if rx >= 0 else None)
        return Laurent(
            {(a, x): c for (a, x), c in out.terms.items() if a <= alpha_max and x <= xi_max}
        )

    def pretty(self) -> str:
        num = self.num.pretty()
        if not self.den:
            return num
        factors = []
        for key, mult in sorted(self.den.items()):
            base = f"({atom_poly(key, self.tau).pretty()})"
            factors.append(base + (f"^{mult}" if mult > 1 else ""))
        return f"({num}) / ({' * '.join(factors)})"


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class SkeinValue:
    """The pair of evaluations tau = +1 / tau = -1 of one invariant value.

    The tau-polynomial form is recovered as (plus+minus)/2 + tau*(plus-minus)/2.
    """

    n: int
    plus: RationalFunction
    minus: RationalFunction

    def __post_init__(self):
        if self.plus.tau != 1 or self.minus.tau != -1:
            raise ValueError("components assigned to the wrong tau evaluation")

    @staticmethod
    def tau_free(n: int, num: Laurent, den: Counter | None = None) -> "SkeinValue":
        """The value num / den, with the same fraction at tau = +1 and -1."""
        return SkeinValue(
            n,
            RationalFunction(1, num, Counter(den)),
            RationalFunction(-1, num, Counter(den)),
        )

    @staticmethod
    def zero(n: int) -> "SkeinValue":
        return SkeinValue.tau_free(n, Laurent.zero())

    @staticmethod
    def from_monomial(n: int, coeff, da: int = 0, dx: int = 0) -> "SkeinValue":
        return SkeinValue.tau_free(n, Laurent.monomial(coeff, da, dx))

    def __add__(self, other: "SkeinValue") -> "SkeinValue":
        return SkeinValue(self.n, self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other: "SkeinValue") -> "SkeinValue":
        return SkeinValue(self.n, self.plus - other.plus, self.minus - other.minus)

    def __neg__(self) -> "SkeinValue":
        return SkeinValue(self.n, -self.plus, -self.minus)

    def __mul__(self, other: "SkeinValue") -> "SkeinValue":
        return SkeinValue(self.n, self.plus * other.plus, self.minus * other.minus)

    def scaled(self, coeff, da: int = 0, dx: int = 0) -> "SkeinValue":
        return SkeinValue(
            self.n, self.plus.scaled(coeff, da, dx), self.minus.scaled(coeff, da, dx)
        )

    def times_tau(self) -> "SkeinValue":
        return SkeinValue(self.n, self.plus, -self.minus)

    def stripped(self) -> "SkeinValue":
        return SkeinValue(self.n, self.plus.stripped(), self.minus.stripped())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkeinValue)
            and self.n == other.n
            and self.plus.equals(other.plus)
            and self.minus.equals(other.minus)
        )

    @property
    def is_zero(self) -> bool:
        return self.plus.is_zero and self.minus.is_zero

    def pretty(self) -> str:
        return f"tau=+1: {self.plus.pretty()}\ntau=-1: {self.minus.pretty()}"


def series_expand(v: SkeinValue, alpha_max: int, xi_max: int) -> dict:
    """Term table {(alpha exp, xi exp): (constant part, tau part)} of v for
    all alpha-exp <= alpha_max, xi-exp <= xi_max; ValueError on a foreign
    denominator."""
    p = v.plus.series(alpha_max, xi_max)
    m = v.minus.series(alpha_max, xi_max)
    out = {}
    for key in sorted(set(p.terms) | set(m.terms)):
        cp = p.terms.get(key, 0)
        cm = m.terms.get(key, 0)
        out[key] = (exact(Fraction(cp + cm, 2)), exact(Fraction(cp - cm, 2)))
    return out


# ---------------------------------------------------------------------------
# Closed form for crossingless closures


def unlink_value(m: int, n: int) -> SkeinValue:
    """Value of the crossingless m-strand closure.

    (tau a^-1 [n])^m (1/(1-a^2) + (((tau a q^-1 + q^-n)/(q^-n - q^n))^m - 1)
    / (tau a q^-n-1 + 1)).
    """
    if m <= 0:
        raise ValueError(f"strand count must be positive, got {m}")
    if n < 1:
        raise ValueError(f"potential exponent must be at least 1, got {n}")
    comps = []
    for tau in (1, -1):
        xin = atom_poly(atom_xin(n), tau)
        top = Laurent({(1, -1): tau, (0, -n): 1})
        head = RationalFunction(tau, Laurent.one(), Counter([ATOM_ALPHA]))
        ratio_pow = RationalFunction(tau, top ** m - xin ** m, Counter({atom_xin(n): m}))
        tail = RationalFunction(tau, ratio_pow.num, ratio_pow.den + Counter([atom_unit(n)]))
        bracket_pow = RationalFunction(
            tau, atom_poly(atom_xin(n), tau) ** m, Counter({atom_xi1(): m})
        ).scaled(tau**m, -m, 0)
        comps.append((bracket_pow * (head + tail)).stripped())
    return SkeinValue(n, comps[0], comps[1])


# ---------------------------------------------------------------------------
# Recursion


_memo: dict[tuple, SkeinValue] = {}
_SMOOTHING = atom_poly(atom_xi1(), 1)  # the smoothing coefficient xi^-1 - xi


def _cyclic_square(w: BraidWord) -> tuple[BraidWord, BraidWord] | None:
    """Split off a cyclically adjacent positive square: (uv, u sigma v)."""
    letters = w.letters
    L = len(letters)
    for p in range(L):
        a = letters[p]
        b = letters[(p + 1) % L]
        if a == b and a[1] == 1:
            base = letters[p:] + letters[:p]
            return (
                BraidWord(w.strands, base[2:]),
                BraidWord(w.strands, base[1:]),
            )
    return None


def _positive_split(w: BraidWord) -> tuple[BraidWord, BraidWord] | BraidWord:
    """Find a square to split in some transverse representative of w.

    Returns either the split pair or a strictly better representative to
    restart from (fewer strands or shorter, e.g. after a destabilization).
    """
    pair = _cyclic_square(w)
    if pair is not None:
        return pair
    b = SKEIN_BUDGET
    while True:
        result = markov_search(w, b)
        best = result[0]
        if _order_key(best) < _order_key(w):
            return best
        for cand in result:
            if (cand.strands, len(cand.letters)) > (w.strands, len(w.letters)):
                continue  # longer representatives would break the descent
            pair = _cyclic_square(cand)
            if pair is not None:
                return pair
        if result.complete or b >= MAX_BUDGET:
            raise BudgetError(
                f"irreducible positive word within budget: {word_text(w)!r} "
                f"on {w.strands} strands, budget {b}"
            )
        b = min(b * 2, MAX_BUDGET)


def evaluate(w: BraidWord, n: int) -> SkeinValue:
    """Invariant of the closure of w, by memoized skein recursion."""
    if not isinstance(w, BraidWord):
        raise TypeError(f"expected a BraidWord, got {type(w).__name__}")
    if n < 1:
        raise ValueError(f"potential exponent must be at least 1, got {n}")
    return _evaluate(w, n)


def _evaluate(w: BraidWord, n: int) -> SkeinValue:
    w = simplify(w)
    key = (w.strands, w.letters, n)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    letters = w.letters
    if not letters:
        value = unlink_value(w.strands, n)
    else:
        smoothing_factor = SkeinValue.tau_free(n, _SMOOTHING)
        neg = next((p for p, (_, s) in enumerate(letters) if s < 0), None)
        if neg is not None:
            i, _ = letters[neg]
            flipped = BraidWord(
                w.strands, letters[:neg] + ((i, 1),) + letters[neg + 1 :]
            )
            deleted = BraidWord(w.strands, letters[:neg] + letters[neg + 1 :])
            smoothing = _evaluate(deleted, n).scaled(1, -1, -n) * smoothing_factor
            value = _evaluate(flipped, n).scaled(1, -2, -2 * n) - smoothing.times_tau()
        else:
            found = _positive_split(w)
            if isinstance(found, BraidWord):
                value = _evaluate(found, n)
            else:
                uv, usv = found
                smoothing = _evaluate(usv, n).scaled(1, 1, n) * smoothing_factor
                value = _evaluate(uv, n).scaled(1, 2, 2 * n) + smoothing.times_tau()
    _memo[key] = value
    return value


def skein_residual(w: BraidWord, p: int, n: int) -> SkeinValue:
    """alpha^-1 xi^-n P(positive at p) - alpha xi^n P(negative at p)
    - tau (xi^-1 - xi) P(deleted at p); identically zero.  p is 1-based."""
    if not 1 <= p <= len(w.letters):
        raise ValueError(f"no letter at position {p}")
    i, _ = w.letters[p - 1]
    head, tail = w.letters[: p - 1], w.letters[p:]
    pos = BraidWord(w.strands, head + ((i, 1),) + tail)
    neg = BraidWord(w.strands, head + ((i, -1),) + tail)
    smooth = BraidWord(w.strands, head + tail)
    return (
        evaluate(pos, n).scaled(1, -1, -n)
        - evaluate(neg, n).scaled(1, 1, n)
        - (evaluate(smooth, n) * SkeinValue.tau_free(n, _SMOOTHING)).times_tau()
    )
