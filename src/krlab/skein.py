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
builds has integer coefficients.  Dividing by a denominator atom only adds
(see Denominator atoms), and the one coefficient division, series_expand's
halving, goes through `poly.quotient`; so a Fraction arises only there, from
an odd sum, or from a Fraction the caller passed in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .braid import BraidWord, _order_key, markov_search, simplify, word_text
from .poly import BudgetError, Coefficient, exact, quotient

SKEIN_BUDGET = 10**4  # the square search's first budget, doubled up to MAX_BUDGET
MAX_BUDGET = 10**6
# Most strands evaluate accepts.  The unlink's closed form alone grows
# steeply with the strand count and with n: on a 2-vCPU host `skein --braid
# ''` takes 3.3 s on 80 strands and 6.4 s on 100 at n = 1, and on 100
# strands 13.1 s at n = 2 and 80 s at n = 10.
MAX_SKEIN_STRANDS = 100


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


# ---------------------------------------------------------------------------
# Denominator atoms
#
# Every denominator produced by the recursion is a product of these
# factors.  Each is lead * (1 - c u) with lead a monic monomial, u the
# ratio's monomial and c = +-1, and every ratio raises alpha or xi.
#
# Dividing by an atom is dividing by 1 - c u and shifting by lead^-1, a unit.
# The exponents split into lines e0 + k u, and p is a sum over the lines of
# e0 times a Laurent polynomial sum p_k u^k; so q (1 - c u) = p holds line by
# line, where it reads p_k = q_k - c q_(k-1).  Up each line from its least k,
# then, q_k = p_k + c q_(k-1).  The division is exact when this running sum,
# taken to the line's greatest k, ends at 0 there: that last value is
# +-p(u = c), and c = 1/c.  Carried on past that k, the same sum is p times
# the inverse sum c^i u^i, the power series of p / (1 - c u), whose
# exponents are bounded below; on a line it runs until the exponent in the
# ratio's direction passes that direction's cap.  k counts steps from a
# point of the line fixed by floor division, so equal lines get equal e0.
# The sum only adds and flips signs, so integral coefficients stay ints.

ATOM_ALPHA = ("alpha",)  # 1 - alpha^2


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


def divide_by_atom(
    num: Laurent, key: tuple, tau: int, caps: tuple[int, int] | None = None
) -> Laurent | None:
    """num / atom by the running sum up each line (see Denominator atoms).

    Exact mode, caps None: the quotient, or None when a line leaves a
    remainder.  Series mode, caps (alpha_max, xi_max): the power series of
    num / atom, each line run to the cap in the ratio's direction, and a
    line whose fixed exponent is past its cap dropped; an exponent the ratio
    lowers is not capped.  A term past a cap is dropped for good, so an atom
    that lowers an exponent must be divided before the others, as `series`
    does.  ValueError on an unknown atom.
    """
    (la, lx), (c, ra, rx) = atom_parts(key, tau)
    lines: dict[tuple[int, int], dict[int, Coefficient]] = {}
    for (a, x), coeff in num.terms.items():
        k = a // ra if ra else x // rx
        base = (a - k * ra - la, x - k * rx - lx)
        line = lines.get(base)
        if line is None:
            line = lines[base] = {}
        line[k] = coeff
    out: dict[tuple[int, int], Coefficient] = {}
    for (a0, x0), line in lines.items():
        if caps is None:
            top = max(line) - 1
        else:
            alpha_max, xi_max = caps
            if (not ra and a0 > alpha_max) or (not rx and x0 > xi_max):
                continue
            top = (alpha_max - a0) // ra if ra else (xi_max - x0) // rx
        get = line.get
        q = 0
        for k in range(min(line), top + 1):
            q = get(k, 0) + c * q
            if q:
                out[(a0 + k * ra, x0 + k * rx)] = q
        if caps is None and line[top + 1] + c * q:
            return None
    return Laurent(out)


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
        """Cancel denominator atoms while one divides the numerator exactly,
        each by one exact-mode `divide_by_atom`.  An atom that refused N
        refuses every later numerator N/b too, as a | N/b gives a | N, so it
        is not tried again."""
        num, den = self.num, Counter(self.den)
        refused = set()
        changed = True
        while changed and den:
            changed = False
            for key in [key for key in den if key not in refused]:
                quot = divide_by_atom(num, key, self.tau)
                if quot is not None:
                    num = quot
                    den[key] -= 1
                    if not den[key]:
                        del den[key]
                    changed = True
                else:
                    refused.add(key)
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
        xi-exponents <= xi_max: the numerator divided in series mode by each
        atom factor in turn (`divide_by_atom`); ValueError on an unknown atom.

        The unit atoms' ratios lower xi while raising alpha, so they go first,
        where the alpha cap alone bounds their lines.  Every later ratio
        raises alpha or xi and lowers neither, nor does any lead's inverse,
        so the xi cap holds from then on."""
        factors = sorted(
            (atom_parts(key, self.tau)[1][2] >= 0, key, mult) for key, mult in self.den.items()
        )
        out = self.num
        for _, key, mult in factors:
            for _ in range(mult):
                out = divide_by_atom(out, key, self.tau, (alpha_max, xi_max))
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
        out[key] = (quotient(cp + cm, 2), quotient(cp - cm, 2))
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
            tau, atom_poly(atom_xin(n), tau) ** m, Counter({atom_xin(1): m})
        ).scaled(tau**m, -m, 0)
        comps.append((bracket_pow * (head + tail)).stripped())
    return SkeinValue(n, comps[0], comps[1])


# ---------------------------------------------------------------------------
# Recursion


_memo: dict[tuple, SkeinValue] = {}
_SMOOTHING = atom_poly(atom_xin(1), 1)  # the smoothing coefficient xi^-1 - xi


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
    if w.strands > MAX_SKEIN_STRANDS:
        raise BudgetError(f"{w.strands} strands is over the skein cap of {MAX_SKEIN_STRANDS}")
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
