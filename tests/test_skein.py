"""Skein recursion: exact values, residuals, unlink closed forms, flypes."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krlab import skein
from krlab.braid import BraidWord, markov_search, parse
from krlab.poly import divide_terms
from krlab.skein import (
    ATOM_ALPHA,
    Laurent,
    RationalFunction,
    SkeinValue,
    atom_parts,
    atom_poly,
    atom_unit,
    atom_xin,
    divide_by_atom,
    evaluate,
    series_expand,
    skein_residual,
    unlink_value,
)


def frac(tau, num, *atoms):
    return RationalFunction(tau, num, Counter(atoms))


def pair_value(n, build):
    """Assemble a SkeinValue from a per-tau component builder."""
    return SkeinValue(n, build(1), build(-1))


def mod_a_unlink(m, n):
    # ((1 + tau a^-1 xi^{1-n}) / (1 - xi^2))^m with 1/(1-xi^2) = xi^-1/(xi^-1-xi)
    def build(tau):
        base = Laurent({(0, 0): Fraction(1), (-1, 1 - n): Fraction(tau)})
        return RationalFunction(
            tau, (base**m).scaled(1, 0, -m), Counter({atom_xin(1): m})
        )

    return pair_value(n, build)


def least(p, i):
    """The least alpha (i = 0) or xi (i = 1) exponent of p, None when p is zero."""
    return min((e[i] for e in p.terms), default=None)


def untruncated_series(rf, alpha_max, xi_max):
    """RationalFunction.series as first written: whole products of the
    truncated inverses, trimmed only at the end."""
    out = rf.num
    for key, mult in sorted(rf.den.items()):
        if key[0] != "unit":
            continue
        n = key[1]
        for _ in range(mult):
            lo = least(out, 0)
            if lo is None:
                return Laurent.zero()
            steps = max(alpha_max - lo, 0)
            out = out * Laurent({(i, -(n + 1) * i): (-rf.tau) ** i for i in range(steps + 1)})
    for key, mult in sorted(rf.den.items()):
        if key == ATOM_ALPHA:
            for _ in range(mult):
                lo = least(out, 0)
                if lo is None:
                    return Laurent.zero()
                half = max((alpha_max - lo) // 2, 0)
                out = out * Laurent({(2 * i, 0): 1 for i in range(half + 1)})
        elif key[0] == "xi":
            n = key[1]
            for _ in range(mult):
                lo = least(out, 1)
                if lo is None:
                    return Laurent.zero()
                reps = max((xi_max - lo - n) // (2 * n) + 1, 0)
                out = out * Laurent({(0, n + 2 * n * i): 1 for i in range(reps + 1)})
    return Laurent(
        {(a, x): c for (a, x), c in out.terms.items() if a <= alpha_max and x <= xi_max}
    )


coefficients = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
exponent_pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def laurents(min_size=0):
    return st.dictionaries(exponent_pairs, coefficients, min_size=min_size, max_size=5).map(
        Laurent
    )


atoms = st.sampled_from(
    [ATOM_ALPHA, atom_xin(1), atom_xin(2), atom_xin(3), atom_unit(1), atom_unit(2)]
)
# every atom kind at both values of tau
EVERY_ATOM = [
    (key, tau)
    for key in (ATOM_ALPHA, *map(atom_xin, (1, 2, 3)), *map(atom_unit, (1, 2, 3)))
    for tau in (1, -1)
]


def divided_by_terms(num, key, tau):
    """num / atom by poly.divide_terms, or None when it finds a remainder.

    Both are shifted to least exponent 0 in alpha and in xi; the shifted atom
    has no monomial factor, so Laurent divisibility is polynomial
    divisibility."""
    if num.is_zero:
        return Laurent.zero()
    den = atom_poly(key, tau)
    na, nx = least(num, 0), least(num, 1)
    da, dx = least(den, 0), least(den, 1)
    quot = divide_terms(
        {(a - na, x - nx): c for (a, x), c in num.terms.items()},
        {(a - da, x - dx): c for (a, x), c in den.terms.items()},
    )
    if quot is None:
        return None
    return Laurent({(a + na - da, x + nx - dx): c for (a, x), c in quot.items()})


def bracket(n):
    return pair_value(
        n, lambda tau: frac(tau, atom_poly(atom_xin(n), tau), atom_xin(1))
    )


class TestLaurent:
    def test_arithmetic(self):
        a = Laurent.monomial(1, 1, 0)
        x = Laurent.monomial(1, 0, 1)
        p = (a + x) * (a - x)
        assert p == Laurent({(2, 0): 1, (0, 2): -1})
        assert (a - a).is_zero
        assert a * Laurent.zero() == Laurent.zero()

    def test_pow(self):
        two_terms = Laurent({(0, 0): 1, (2, 0): 1})
        assert two_terms**3 == Laurent({(0, 0): 1, (2, 0): 3, (4, 0): 3, (6, 0): 1})
        assert two_terms**0 == Laurent.one()
        with pytest.raises(ValueError):
            two_terms ** (-1)

    def test_negative_exponents(self):
        inv = Laurent.monomial(1, -1, -2)
        assert inv * Laurent.monomial(1, 1, 2) == Laurent.one()

    def test_pretty(self):
        p = Laurent({(-1, 0): 1, (0, 2): -1})
        assert p.pretty() == "a^-1 - q^2"
        assert Laurent.zero().pretty() == "0"

    def test_divide_exact(self):
        d = atom_poly(ATOM_ALPHA, 1)
        q = Laurent({(0, 0): 1, (2, 0): 1})
        assert divide_by_atom(d * q, ATOM_ALPHA, 1) == q
        assert divide_by_atom(Laurent.monomial(1), ATOM_ALPHA, 1) is None
        assert divide_by_atom(d.scaled(1, -1, 0) + Laurent.monomial(1, 0, 1), ATOM_ALPHA, 1) is None
        # 1 + q^2 is no multiple of q^-1 - q: its line sums to 2 at q^2 = 1
        assert divide_by_atom(Laurent({(0, 0): 1, (0, 2): 1}), atom_xin(1), 1) is None
        assert divide_by_atom(Laurent.zero(), ATOM_ALPHA, 1) == Laurent.zero()
        with pytest.raises(ValueError, match="unknown denominator atom"):
            divide_by_atom(q, ("bogus",), 1)

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            Laurent({(0, 0): 0.5})
        with pytest.raises(TypeError):
            Laurent.monomial(0.5)
        with pytest.raises(TypeError):
            Laurent.one().scaled(0.5)

    def test_integral_coefficients_are_ints(self):
        p = Laurent({(0, 0): Fraction(4, 2), (1, 0): Fraction(1, 2)})
        assert type(p.terms[(0, 0)]) is int
        assert type((p + p).terms[(1, 0)]) is int
        assert type((p * p).terms[(1, 0)]) is int
        assert all(type(c) is int for c in unlink_value(2, 2).plus.num.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(laurents())
    def test_divide_exact_recovers_the_factor(self, q):
        for key, tau in EVERY_ATOM:
            assert divide_by_atom(atom_poly(key, tau) * q, key, tau) == q

    @settings(max_examples=60, deadline=None)
    @given(laurents(), exponent_pairs, coefficients)
    def test_divide_exact_refuses_a_remainder(self, q, exp, c):
        # an atom has two terms, so it divides no nonzero monomial
        for key, tau in EVERY_ATOM:
            assert divide_by_atom(atom_poly(key, tau) * q + Laurent({exp: c}), key, tau) is None

    def test_divide_exact_long_quotient(self):
        # 1 - q^80 = (q^-1 - q) q (1 + q^2 + ... + q^78), a quotient of 40 terms
        num = Laurent({(0, 0): 1, (0, 80): -1})
        q = Laurent({(0, 2 * k + 1): 1 for k in range(40)})
        shifted = num.scaled(1, -3, 5)
        for tau in (1, -1):
            assert divide_by_atom(num, atom_xin(1), tau) == q
            # a monomial factor of the numerator only shifts the quotient
            assert divide_by_atom(shifted, atom_xin(1), tau) == q.scaled(1, -3, 5)
            assert divide_by_atom(shifted + Laurent.monomial(1, 0, 4), atom_xin(1), tau) is None


class TestRationalFunction:
    def test_cross_multiplication_equality(self):
        # (1 - a^4)/(1 - a^2) = 1 + a^2
        lhs = frac(1, Laurent({(0, 0): 1, (4, 0): -1}), ATOM_ALPHA)
        rhs = frac(1, Laurent({(0, 0): 1, (2, 0): 1}))
        assert lhs.equals(rhs)
        assert not lhs.equals(frac(1, Laurent.one()))

    def test_add_uses_common_denominator(self):
        one_over = frac(1, Laurent.one(), ATOM_ALPHA)
        s = one_over + one_over
        assert s.equals(frac(1, Laurent.monomial(2), ATOM_ALPHA))
        assert (one_over - one_over).is_zero

    def test_mixed_tau_rejected(self):
        with pytest.raises(ValueError):
            frac(1, Laurent.one()) + frac(-1, Laurent.one())
        with pytest.raises(ValueError):
            RationalFunction(0, Laurent.one(), Counter())

    @settings(max_examples=60, deadline=None)
    @given(laurents(), laurents())
    def test_divide_exact_agrees_with_divide_terms(self, q, r):
        for key, tau in EVERY_ATOM:
            atom = atom_poly(key, tau)
            for num in (atom * q, atom * q + r):
                assert divide_by_atom(num, key, tau) == divided_by_terms(num, key, tau)

    def test_stripped(self):
        d = atom_poly(ATOM_ALPHA, 1)
        v = frac(1, d * d, ATOM_ALPHA).stripped()
        assert not v.den
        assert v.num == d

    def test_stripped_tries_no_atom_after_it_refused(self, monkeypatch):
        # a | N/b gives a | N, so an atom that refused a numerator refuses
        # every later one of the same call
        tried = []

        def spy(num, key, tau, caps=None):
            got = divide_by_atom(num, key, tau, caps)
            tried.append((key, got is None))
            return got

        monkeypatch.setattr(skein, "divide_by_atom", spy)
        alpha, xi, unit = ATOM_ALPHA, atom_xin(1), atom_unit(1)
        v = frac(1, atom_poly(alpha, 1) * atom_poly(xi, 1), alpha, alpha, xi, unit).stripped()
        assert v.num == Laurent.one()
        assert v.den == Counter({alpha: 1, unit: 1})
        assert tried == [(alpha, False), (xi, False), (unit, True), (alpha, True)]

    def test_series_geometric(self):
        one_over = frac(1, Laurent.one(), ATOM_ALPHA)
        got = one_over.series(6, 0)
        assert got == Laurent({(0, 0): 1, (2, 0): 1, (4, 0): 1, (6, 0): 1})

    def test_series_quantum_integer(self):
        # [3] = xi^-2 + 1 + xi^2
        n = 3
        v = frac(1, atom_poly(atom_xin(n), 1), atom_xin(1))
        assert v.series(0, 10) == Laurent({(0, -2): 1, (0, 0): 1, (0, 2): 1})

    def test_series_unit_atom(self):
        v = frac(1, Laurent.one(), atom_unit(1))
        got = v.series(2, 4)
        assert got == Laurent({(0, 0): 1, (1, -2): -1, (2, -4): 1})

    def test_series_caps_xi_only_after_the_unit_atoms(self):
        # q^10 / (1 + tau a q^-2): the terms above the xi cap come down past it
        # only as the unit atom's sum runs, so the xi cap must not cut first
        for tau in (1, -1):
            rf = frac(tau, Laurent.monomial(1, 0, 10), atom_unit(1))
            got = rf.series(5, 4)
            assert got == Laurent({(3, 4): -tau, (4, 2): 1, (5, 0): -tau})
            assert got == untruncated_series(rf, 5, 4)

    @settings(max_examples=60, deadline=None)
    @given(laurents(), st.integers(-2, 8), st.integers(-4, 8))
    def test_series_mode_inverts_the_atom(self, q, alpha_max, xi_max):
        # the series of q / atom times the atom is q again, below the caps
        # less the atom's own reach; a unit atom's ratio lowers xi, so only
        # alpha is capped there
        for key, tau in EVERY_ATOM:
            (la, lx), (_, _, rx) = atom_parts(key, tau)
            back = divide_by_atom(q, key, tau, (alpha_max, xi_max)) * atom_poly(key, tau)

            def low(t):
                a, x = t
                return a <= alpha_max + la and (rx < 0 or x <= xi_max + lx)

            assert {t: c for t, c in back.terms.items() if low(t)} == {
                t: c for t, c in q.terms.items() if low(t)
            }

    def test_series_rejects_an_unknown_atom(self):
        with pytest.raises(ValueError, match="unknown denominator atom"):
            frac(1, Laurent.one(), ("bogus",)).series(2, 2)
        with pytest.raises(ValueError, match="unknown denominator atom"):
            frac(-1, Laurent.one(), ATOM_ALPHA, atom_unit(1), ("bogus",)).series(2, 2)


    @settings(max_examples=300, deadline=None)
    @given(
        laurents(),
        st.sampled_from([1, -1]),
        st.lists(atoms, max_size=4).map(Counter),
        st.integers(-2, 8),
        st.integers(-4, 8),
    )
    def test_series_equals_the_untruncated_product(self, num, tau, den, alpha_max, xi_max):
        rf = RationalFunction(tau, num, den)
        assert rf.series(alpha_max, xi_max) == untruncated_series(rf, alpha_max, xi_max)


class TestUnlinkValue:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unknot_closed_form(self, n):
        # tau a^-1 ([n]/(1-a^2) + xi^n/(xi^-1 - xi))
        def build(tau):
            head = frac(tau, atom_poly(atom_xin(n), tau), atom_xin(1), ATOM_ALPHA)
            tail = frac(tau, Laurent.monomial(1, 0, n), atom_xin(1))
            return (head + tail).scaled(tau, -1, 0)

        assert unlink_value(1, n) == pair_value(n, build)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_recursion(self, m, n):
        def xi_n_over(tau):
            return frac(tau, Laurent.monomial(1, 0, n), atom_xin(1))

        rhs = (
            bracket(n) * unlink_value(m - 1, n)
            + pair_value(n, xi_n_over) * mod_a_unlink(m - 1, n)
        ).scaled(1, -1, 0).times_tau()
        assert unlink_value(m, n) == rhs

    def test_tau_alpha_coupling(self):
        # tau always multiplies alpha, so tau = -1 is alpha -> -alpha
        for m in (1, 2, 3):
            v = unlink_value(m, 2)
            plus = v.plus.series(5, 8)
            minus = v.minus.series(5, 8)
            flipped = Laurent(
                {(a, x): c * (-1) ** (a % 2) for (a, x), c in plus.terms.items()}
            )
            assert minus == flipped

    def test_errors(self):
        with pytest.raises(ValueError):
            unlink_value(0, 1)
        with pytest.raises(ValueError):
            unlink_value(1, 0)


class TestEvaluate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_positive_destabilization(self, n):
        assert evaluate(parse("1", strands=2), n) == unlink_value(1, n)

    def test_multi_strand_unlink(self):
        for m in (1, 2, 3, 4):
            assert evaluate(parse("", strands=m), 1) == unlink_value(m, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_stabilization_value(self, n):
        got = evaluate(parse("-1", strands=2), n)
        want = (unlink_value(1, n) - mod_a_unlink(1, n)).scaled(1, -2, 0)
        assert got == want

    def test_hopf_link_by_hand(self):
        n = 1
        smoothing = pair_value(
            n, lambda tau: frac(tau, atom_poly(atom_xin(1), tau))
        )
        want = unlink_value(2, n).scaled(1, 2, 2 * n) + (
            unlink_value(1, n).scaled(1, 1, n) * smoothing
        ).times_tau()
        assert evaluate(parse("1 1"), n) == want

    def test_conjugation_and_rotation_invariance(self):
        words = ["1 2 1", "2 1 2", "1 1 2", "2 1 1", "1 2 1 -2"]
        vals = [evaluate(parse(t, strands=3), 1) for t in words]
        assert all(v == vals[0] for v in vals[:4])
        assert vals[4] == evaluate(parse("-2 1 2 1", strands=3), 1)

    def test_markov_search_orbit_invariance(self):
        w = parse("1 -2", strands=3)
        base = evaluate(w, 1)
        orbit = markov_search(w, 60)
        assert len(orbit) > 3
        for cand in list(orbit)[:6]:
            assert evaluate(cand, 1) == base

    def test_bad_inputs(self):
        with pytest.raises(TypeError):
            evaluate("1 1", 1)
        with pytest.raises(ValueError):
            evaluate(parse("1"), 0)

    def test_trefoil_components_differ_from_unknot(self):
        assert evaluate(parse("1 1 1"), 1) != unlink_value(1, 1)


class TestSkeinResidual:
    @pytest.mark.parametrize(
        "text,p,n",
        [
            ("1", 1, 1),
            ("1", 1, 3),
            ("1 2 1", 2, 1),
            ("-1 -1", 1, 2),
            ("1 -2 1", 3, 2),
            ("2 2", 2, 1),
        ],
    )
    def test_zero(self, text, p, n):
        assert skein_residual(parse(text, strands=3), p, n).is_zero

    def test_position_validation(self):
        with pytest.raises(ValueError):
            skein_residual(parse("1"), 0, 1)
        with pytest.raises(ValueError):
            skein_residual(parse("1"), 2, 1)

    @settings(max_examples=20, deadline=None)
    @given(
        letters=st.lists(
            st.tuples(st.integers(1, 2), st.sampled_from([1, -1])),
            min_size=1,
            max_size=3,
        ),
        n=st.integers(1, 2),
        data=st.data(),
    )
    def test_zero_random(self, letters, n, data):
        w = BraidWord(3, tuple(letters))
        p = data.draw(st.integers(1, len(letters)))
        assert skein_residual(w, p, n).is_zero


class TestFlype:
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_pair(self, n):
        a = evaluate(parse("1 2 2 -2", strands=3), n)
        b = evaluate(parse("1 -2 2 2", strands=3), n)
        assert a == b

    def test_large_pair(self):
        a = evaluate(parse("1 1 1 2 2 1 1 -2", strands=3), 1)
        b = evaluate(parse("1 1 1 -2 1 1 2 2", strands=3), 1)
        assert a == b


class TestSeriesExpand:
    def test_unknot_series_has_expected_low_terms(self):
        table = series_expand(unlink_value(1, 1), 3, 3)
        # P_1(U) = tau(a^-1 + a + ...)/(stuff): leading xi-free term a^-1 tau
        assert table[(-1, 0)] == (0, 1)
        for (da, dx), (c, t) in table.items():
            assert c.denominator == 1 and t.denominator == 1

    def test_rejects_foreign_denominator(self):
        bad = SkeinValue(
            1,
            RationalFunction(1, Laurent.one(), Counter([("bogus",)])),
            RationalFunction(-1, Laurent.one(), Counter()),
        )
        with pytest.raises(ValueError):
            series_expand(bad, 2, 2)

    def test_matches_component_series(self):
        v = unlink_value(2, 1)
        table = series_expand(v, 4, 4)
        plus = v.plus.series(4, 4)
        for key, (c, t) in table.items():
            assert c + t == plus.terms.get(key, Fraction(0))
