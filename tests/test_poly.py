"""Bigraded polynomial layer: ring identities, symmetric functions, division."""

import ast
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import krlab
from krlab.moy import _elem_union
from krlab.poly import (
    BigradedPoly,
    VariableTable,
    divide_exact,
    exact,
    monomials,
    power_sum_in_elementary,
    quotient,
    substitute,
)

T = VariableTable.build(
    [("a", "a"), ("x1", "mark"), ("x2", "mark"), ("x3", "mark"), ("y", "mark")]
)


def v(name):
    return BigradedPoly.variable(T, name)


def const(c):
    return BigradedPoly.constant(T, c)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (v("x1") + v("x2")) * (v("x1") - v("x2")) == v("x1") ** 2 - v("x2") ** 2

    def test_a_squared_bidegree(self):
        assert (v("a") * v("a")).bidegree() == (4, 0)

    def test_additive_inverse_is_empty(self):
        p = v("x1") * v("x2") + const(3) * v("y") ** 2
        assert (p + (-p)).terms == {}

    def test_mul_adds_bidegrees(self):
        p = v("a") * v("x1")
        q = v("x2") ** 3
        assert (p * q).bidegree() == (2, 8)

    def test_table_mismatch_rejected(self):
        other = VariableTable.build([("a", "a"), ("z", "mark")])
        with pytest.raises(ValueError):
            v("a") + BigradedPoly.variable(other, "z")


@st.composite
def any_poly(draw, min_terms=0, max_degree=3):
    """An inhomogeneous polynomial in x1, x2 and y with rational coefficients."""
    names = ["x1", "x2", "y"]
    terms = {}
    for _ in range(draw(st.integers(min_value=min_terms, max_value=5))):
        e = [0] * len(T)
        for name in names:
            e[T.index(name)] = draw(st.integers(min_value=0, max_value=max_degree))
        while sum(e) > max_degree:
            e[max(range(len(e)), key=e.__getitem__)] -= 1
        c = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
        terms[tuple(e)] = c
    return BigradedPoly(T, terms)


class TestDivideExact:
    def test_geometric_sum(self):
        x, y = v("x1"), v("y")
        q = divide_exact(x ** 3 - y ** 3, x - y)
        assert q == x ** 2 + x * y + y ** 2

    def test_self_division(self):
        d = v("x1") - v("y")
        assert divide_exact(d, d) == BigradedPoly.one(T)

    def test_non_exact_raises(self):
        with pytest.raises(ValueError):
            divide_exact(v("x1") ** 2 + v("y"), v("x1") - v("y"))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_quotient_times_divisor_is_the_dividend(self, data):
        q0, d = data.draw(any_poly()), data.draw(any_poly(min_terms=1))
        p = q0 * d
        q = divide_exact(p, d)
        assert q * d == p
        assert q == q0
        # a nonzero remainder below d's degree is no multiple of d
        low = max(sum(e) for e in d.terms)
        r = data.draw(any_poly(min_terms=1, max_degree=low - 1)) if low else None
        if r is not None:
            with pytest.raises(ValueError, match="non-exact"):
                divide_exact(p + r, d)

    # one draw of p, q and a remainder term
    TWO = VariableTable.build([("x", "mark"), ("y", "mark")])
    TERMS = st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]),
        max_size=5,
    )

    @settings(max_examples=150, deadline=None)
    @given(TERMS, TERMS.filter(lambda t: len(t) >= 2),
           st.tuples(st.integers(0, 6), st.integers(0, 6)))
    def test_divide_exact_refuses_a_monomial_remainder(self, p_terms, q_terms, key):
        p, q = BigradedPoly(self.TWO, p_terms), BigradedPoly(self.TWO, q_terms)
        assert divide_exact(p * q, q) == p
        # q has two terms or more, so it divides no nonzero monomial
        r = BigradedPoly(self.TWO, {key: 1})
        with pytest.raises(ValueError, match="non-exact"):
            divide_exact(p * q + r, q)

    def test_difference_quotient_roundtrip(self):
        # p_{2,3} at two alphabets, differenced in E1 and divided by E1-E1'
        E = VariableTable.build(
            [("e1", "elementary-symmetric", 1), ("e2", "elementary-symmetric", 2),
             ("f1", "elementary-symmetric", 1)]
        )
        e1 = BigradedPoly.variable(E, "e1")
        e2 = BigradedPoly.variable(E, "e2")
        f1 = BigradedPoly.variable(E, "f1")
        p_here = power_sum_in_elementary([e1, e2], 3)
        p_there = power_sum_in_elementary([f1, e2], 3)
        d = e1 - f1
        q = divide_exact(p_here - p_there, d)
        assert q * d == p_here - p_there


def coefficient_types(p):
    return {type(c) for c in p.terms.values()}


class TestCoefficientTypes:
    def test_exact_normalises(self):
        assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
        assert type(exact(True)) is int
        assert exact(Fraction(2, 3)) == Fraction(2, 3)

    @pytest.mark.parametrize("bad", [0.5, 2.0, 0.0, "1", None, complex(1)])
    def test_exact_rejects_inexact(self, bad):
        with pytest.raises(TypeError):
            exact(bad)

    def test_integral_results_are_int(self):
        # each result below is integral, though built from Fraction halves
        x, y = v("x1"), v("y")
        h = x * Fraction(3, 2) + y * Fraction(1, 2)  # (3x + y) / 2
        g = x * Fraction(1, 2) - y * Fraction(1, 2)  # (x - y) / 2
        p = BigradedPoly(T, {(0, 2, 0, 0, 0): Fraction(3), (0, 0, 0, 0, 1): Fraction(4, 2)})
        results = {
            "init": p,
            "+": h + h,
            "-": h - (x * Fraction(-1, 2) + y * Fraction(1, 2)),
            "*": (h * Fraction(2, 3)) * (g * 6),
            "scalar": h * Fraction(4, 2),
            "constant": BigradedPoly.constant(T, Fraction(6, 3)),
            "substitute": substitute(h * x, {"y": x}),
            "coefficient_of": p.coefficient_of("x1", 2),
            "divide_exact": divide_exact(h * (x - y), g),
        }
        for name, r in results.items():
            assert not r.is_zero(), name
            assert coefficient_types(r) == {int}, name

    def test_mixed_results_keep_each_coefficient_exact(self):
        x, y = v("x1"), v("y")
        h = x * Fraction(3, 2) + y * 2
        for r in (h + h * 2, h - x, h * h, h * Fraction(2, 3)):
            assert coefficient_types(r) == {int, Fraction}
            assert all((type(c) is int) == (c.denominator == 1) for c in r.terms.values())

    def test_non_integral_stays_fraction(self):
        q = divide_exact(const(2) * v("x1") ** 2, const(3) * v("x1"))
        assert q.terms == {(0, 1, 0, 0, 0): Fraction(2, 3)}
        assert coefficient_types(q) == {Fraction}

    def test_int_and_fraction_built_polys_agree(self):
        e = (0, 1, 0, 0, 0)
        p, q = BigradedPoly(T, {e: 1}), BigradedPoly(T, {e: Fraction(1)})
        assert p == q and hash(p) == hash(q)
        assert const(1) == const(Fraction(1)) and hash(const(1)) == hash(const(Fraction(1)))
        assert coefficient_types(q) == {int}

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            BigradedPoly(T, {(0, 1, 0, 0, 0): 0.5})
        with pytest.raises(TypeError):
            BigradedPoly(T, {(0, 1, 0, 0, 0): 0.0})
        with pytest.raises(TypeError):
            const(1.0)

    def test_float_scalar_rejected(self):
        with pytest.raises(TypeError):
            v("x1") * 0.5
        with pytest.raises(TypeError):
            0.5 * v("x1")
        with pytest.raises(TypeError):
            v("x1") * 0.0


class TestQuotient:
    @pytest.mark.parametrize(
        "num, den, expected",
        [
            (6, 3, 2),
            (7, 2, Fraction(7, 2)),
            (0, 5, 0),
            (-6, 3, -2),
            (6, -3, -2),
            (-6, -3, 2),
            (-7, 2, Fraction(-7, 2)),
            (7, -2, Fraction(-7, 2)),
            (-1, -2, Fraction(1, 2)),
            (Fraction(3, 2), Fraction(1, 2), 3),
            (Fraction(-4, 3), Fraction(2, 3), -2),
            (Fraction(4, 2), 2, 1),
            (3, Fraction(3, 4), 4),
            (Fraction(1, 2), 3, Fraction(1, 6)),
            (1, Fraction(2, 3), Fraction(3, 2)),
        ],
    )
    def test_exact_normal_form(self, num, den, expected):
        got = quotient(num, den)
        assert got == expected
        assert type(got) is type(expected)

    @pytest.mark.parametrize("num", [0, 1, -3, Fraction(1, 2)])
    @pytest.mark.parametrize("den", [0, Fraction(0)])
    def test_zero_denominator_raises(self, num, den):
        with pytest.raises(ZeroDivisionError):
            quotient(num, den)

    @pytest.mark.parametrize("num, den", [(1.0, 2), (1, 2.0), (0.5, 0.5)])
    def test_float_operand_rejected(self, num, den):
        with pytest.raises(TypeError):
            quotient(num, den)

    @given(
        st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)),
        st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)).filter(bool),
    )
    def test_times_the_denominator_is_the_numerator(self, num, den):
        got = quotient(num, den)
        assert got * den == num
        assert exact(got) == got and type(exact(got)) is type(got)


def raw_elementary(alphabet):
    """e_1 .. e_m of m <= 3 raw marks, written out."""
    x = [v(name) for name in alphabet] + [const(0)] * (3 - len(alphabet))
    e = [x[0] + x[1] + x[2], x[0] * x[1] + x[0] * x[2] + x[1] * x[2], x[0] * x[1] * x[2]]
    return e[: len(alphabet)]


def raw_union(alphabet, j):
    """e_j of raw marks, by the vertex rows' convolution over one-mark alphabets."""
    return _elem_union(T, [[v(name)] for name in alphabet], j)


class TestSymmetricFunctions:
    def test_e2_of_three(self):
        x1, x2, x3 = v("x1"), v("x2"), v("x3")
        assert raw_union(["x1", "x2", "x3"], 2) == x1 * x2 + x2 * x3 + x3 * x1

    def test_e0_is_one(self):
        assert raw_union(["x1", "x2"], 0) == BigradedPoly.one(T)

    def test_out_of_range_is_zero(self):
        assert raw_union(["x1", "x2"], 3).is_zero()
        assert raw_union(["x1", "x2"], 4).is_zero()

    def test_newton_p22(self):
        E = _egens(2)
        assert power_sum_in_elementary(E, 2) == E[0] ** 2 - 2 * E[1]

    def test_newton_p23(self):
        E = _egens(2)
        assert power_sum_in_elementary(E, 3) == E[0] ** 3 - 3 * E[0] * E[1]

    def test_single_variable_power(self):
        E = _egens(1)
        for k in range(6):
            assert power_sum_in_elementary(E, k + 1) == E[0] ** (k + 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", range(0, 9))
    def test_power_sum_matches_raw_alphabet(self, m, k):
        alphabet = ["x1", "x2", "x3"][:m]
        gens = raw_elementary(alphabet)
        assert gens == [raw_union(alphabet, j + 1) for j in range(m)]
        expanded = power_sum_in_elementary(gens, k)
        direct = BigradedPoly.constant(T, m) if k == 0 else sum(
            (v(name) ** k for name in alphabet), BigradedPoly.zero(T)
        )
        assert expanded == direct

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", range(0, 7))
    def test_complete_matches_raw_alphabet(self, m, k):
        # h_d, the sum of the degree-d monomials of the alphabet as monomials
        # lists them, satisfies Newton's k h_k = sum_i p_i h_(k-i) with the
        # power sums in the raw e_j; with h_0 = 1 that fixes every h_k
        alphabet = ["x1", "x2", "x3"][:m]
        idx = [T.index(name) for name in alphabet]

        def h(d):
            terms = {}
            for mono in monomials((1,) * m, d):
                e = [0] * len(T)
                for i, p in zip(idx, mono):
                    e[i] = p
                terms[tuple(e)] = terms.get(tuple(e), 0) + 1
            return BigradedPoly(T, terms)

        if k == 0:
            assert h(0) == BigradedPoly.one(T)
            return
        gens = raw_elementary(alphabet)
        newton = BigradedPoly.zero(T)
        for i in range(1, k + 1):
            newton = newton + power_sum_in_elementary(gens, i) * h(k - i)
        assert newton == k * h(k)


class TestMonomials:
    @pytest.mark.parametrize("weights", [(2,), (2, 4), (4, 2), (2, 4, 6), (1, 3, 2), (2, 2, 2)])
    def test_equals_a_brute_force_filter(self, weights):
        for total in range(-2, 21):
            brute = [
                e for e in itertools.product(range(total + 1), repeat=len(weights))
                if sum(k * w for k, w in zip(e, weights)) == total
            ]
            got = monomials(weights, total)
            assert len(got) == len(set(got))
            assert sorted(got) == brute

    def test_first_exponent_ascending(self):
        # qamod numbers its expansion elements in this order
        assert monomials((1, 1, 1), 2) == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)
        ]
        for weights in [(2, 4), (4, 2), (2, 4, 6), (1, 1, 1, 1)]:
            for total in range(13):
                got = monomials(weights, total)
                assert got == sorted(got)

    def test_negative_total_is_empty(self):
        assert monomials((2, 4), -2) == []
        assert monomials((1,), -1) == []
        assert monomials((), -1) == []

    def test_empty_weights(self):
        assert monomials((), 0) == [()]
        assert monomials((), 2) == []


def _egens(m):
    spec = [(f"E{j+1}", "elementary-symmetric", j + 1) for j in range(m)]
    tab = VariableTable.build(spec)
    return [BigradedPoly.variable(tab, f"E{j+1}") for j in range(m)]


class TestSubstitute:
    def test_collapse_to_zero(self):
        assert substitute(v("x1") - v("y"), {"y": v("x1")}, T).is_zero()

    def test_a_equals_one(self):
        p = v("a") * v("x1") ** 2
        out = substitute(p, {"a": BigradedPoly.one(T)}, T)
        assert out == v("x1") ** 2

    def test_one_valent_vertex_quotient_at_equal_marks(self):
        # (x^{N+1} - y^{N+1})/(x - y) specializes to (N+1)x^N at y = x
        for n in (1, 2, 3):
            x, y = v("x1"), v("y")
            u = divide_exact(x ** (n + 1) - y ** (n + 1), x - y)
            assert substitute(u, {"y": x}, T) == (n + 1) * x ** n

    def test_target_table_shrink(self):
        small = T.without(["y"])
        p = v("x1") + v("y")
        out = substitute(p, {"y": BigradedPoly.variable(small, "x2")}, small)
        assert out == BigradedPoly.variable(small, "x1") + BigradedPoly.variable(small, "x2")


@st.composite
def homogeneous_poly(draw):
    names = ["a", "x1", "x2"]
    da = draw(st.integers(min_value=0, max_value=2))
    dx = draw(st.integers(min_value=0, max_value=4))
    target = (2 * da, 2 * dx)
    n_terms = draw(st.integers(min_value=0, max_value=4))
    out = BigradedPoly.zero(T)
    for _ in range(n_terms):
        split = draw(st.integers(min_value=0, max_value=dx))
        e = [0] * len(T)
        e[T.index("a")] = da
        e[T.index("x1")] = split
        e[T.index("x2")] = dx - split
        c = draw(st.integers(min_value=-5, max_value=5))
        out = out + BigradedPoly(T, {tuple(e): Fraction(c)})
    return out, target


class TestHomogeneity:
    @settings(max_examples=200, deadline=None)
    @given(homogeneous_poly(), homogeneous_poly())
    def test_product_degree_adds(self, pq, rs):
        p, dp = pq
        r, dr = rs
        prod = p * r
        if not prod.is_zero():
            assert prod.bidegree() == (dp[0] + dr[0], dp[1] + dr[1])

    @settings(max_examples=200, deadline=None)
    @given(homogeneous_poly())
    def test_declared_degree(self, pq):
        p, d = pq
        if not p.is_zero():
            assert p.bidegree() == d

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_poly(), homogeneous_poly())
    def test_exact_division_roundtrip(self, pq, rs):
        p, _ = pq
        r, _ = rs
        if p.is_zero() or r.is_zero():
            return
        q = divide_exact(p * r, r)
        assert q == p


# every module of the package, by name
MODULES = sorted(path.stem for path in Path(krlab.__file__).parent.glob("*.py")
                 if path.stem != "__init__")


class TestImportOrder:
    @pytest.mark.parametrize("module", MODULES)
    def test_imports_first_in_a_fresh_interpreter(self, module):
        # an import cycle may show only when one of its modules is imported
        # first, so each module starts its own interpreter
        src = str(Path(krlab.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-c", f"import krlab.{module}"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert res.returncode == 0, res.stderr


class TestInvariantChecks:
    @staticmethod
    def assert_lines(source):
        return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]

    def test_package_has_no_assert_statements(self):
        # assert is stripped under python -O; checks raise InvariantError
        root = Path(krlab.__file__).parent
        paths = sorted(root.rglob("*.py"))
        assert len(paths) > 1
        found = [
            f"{path.relative_to(root)}:{line}"
            for path in paths
            for line in self.assert_lines(path.read_text())
        ]
        assert found == []

    def test_assert_scan_flags(self):
        assert self.assert_lines("def f(x):\n    if x:\n        assert x > 0, 'no'\n") == [3]
        assert self.assert_lines("raise InvariantError('no')\n") == []

    def test_checks_still_raise_under_optimisation(self):
        # the same checks as TestSmith's rejected kernel and image vectors,
        # under python -O; the image check is the tests' own, on row_coords
        probe = (
            "from krlab.poly import InvariantError\n"
            "from krlab.qamod import SliceMatrix, smith\n"
            "s = smith(SliceMatrix((1,), (0,), 1, {(0, 0): 1}))\n"
            "def image_coords(vec, label):\n"
            "    pos = {r0: t for t, (r0, _, _) in enumerate(s.pivots)}\n"
            "    for r in s.row_coords(vec):\n"
            "        t = pos.get(r)\n"
            "        if t is None or label - s.target[r] < 2 * s.pivots[t][2]:\n"
            "            raise InvariantError('vector is not in the image')\n"
            "for coords in (s.kernel_coords, lambda vec: image_coords(vec, 0)):\n"
            "    try:\n"
            "        coords({0: 1})\n"
            "    except InvariantError:\n"
            "        print('raised')\n"
        )
        src = str(Path(krlab.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-O", "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert res.stdout == "raised\nraised\n", res.stderr

    EXACT_MODULES = ("poly", "mf", "cube", "moy", "qamod", "skein")

    @staticmethod
    def inexact_nodes(tree):
        """Float constants, and true divisions not led by a Fraction(...) call."""

        def exact_left(node):
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                node = node.operand
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
            )

        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                yield node
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if not exact_left(node.left):
                    yield node
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                yield node

    def test_exact_modules_stay_exact(self):
        # an int divided by an int with / is a float; so is any float literal
        root = Path(krlab.__file__).parent
        found = []
        for name in self.EXACT_MODULES:
            path = root / f"{name}.py"
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in self.inexact_nodes(tree)]
        assert found == []

    @pytest.mark.parametrize(
        "line, flagged",
        [
            ("qc = rc / lead_c", True),
            ("x /= 2", True),
            ("u = 1 / pc", True),
            ("t = 0.5", True),
            ("qc = Fraction(rc) / lead_c", False),
            ("f = -Fraction(dc) / pivot", False),
            ("k = a // b", False),
        ],
    )
    def test_exactness_scan_flags(self, line, flagged):
        assert bool(list(self.inexact_nodes(ast.parse(line)))) == flagged

    @staticmethod
    def divisions(tree, allowed=()):
        """Each true division and each two-argument Fraction(...) call outside
        the functions named in allowed."""
        exempt = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in allowed
            for sub in ast.walk(node)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                yield node
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and len(node.args) + len(node.keywords) == 2
            ):
                yield node

    def test_every_coefficient_division_is_quotient(self):
        # one division, so an integral quotient is an int wherever it is made
        root = Path(krlab.__file__).parent
        found = []
        for path in sorted(root.glob("*.py")):
            allowed = ("quotient",) if path.name == "poly.py" else ()
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in self.divisions(tree, allowed)]
        assert found == []

    def test_division_scan_flags(self):
        source = (
            "def quotient(n, d): return Fraction(n, d)\n"
            "def half(x): return x / 2\n"
            "def third(x): x /= 3; return Fraction(x, 3)\n"
            "one = Fraction(1) + Fraction('1/2') + Fraction(numerator=1, denominator=2)\n"
            "floor = 7 // 2\n"
        )
        found = [node.lineno for node in self.divisions(ast.parse(source), ("quotient",))]
        assert sorted(found) == [2, 3, 3, 4]
        assert sorted(node.lineno for node in self.divisions(ast.parse(source))) == [1, 2, 3, 3, 4]

    @staticmethod
    def polynomial_divisions(tree):
        """Each import, load or attribute of the name divide_terms."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if any(alias.name == "divide_terms" for alias in node.names):
                    yield node
            elif isinstance(node, ast.Name) and node.id == "divide_terms":
                yield node
            elif isinstance(node, ast.Attribute) and node.attr == "divide_terms":
                yield node

    def test_every_polynomial_division_is_in_poly(self):
        # poly.divide_terms is the one general polynomial division, for poly
        # and mf through poly.divide_exact; skein divides by its atoms alone
        root = Path(krlab.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(root.glob("*.py"))
            if path.name != "poly.py"
            for node in self.polynomial_divisions(ast.parse(path.read_text()))
        ]
        assert found == []

    def test_polynomial_division_scan_flags(self):
        source = (
            "from .poly import BudgetError, divide_terms\n"
            "q = divide_terms(p, d)\n"
            "r = poly.divide_terms(p, d)\n"
            "f = divide_terms\n"
            "s = divide_exact(p, d) + my_divide_terms(p, d)\n"
            "t = 'divide_terms'\n"
        )
        found = {node.lineno for node in self.polynomial_divisions(ast.parse(source))}
        assert sorted(found) == [1, 2, 3, 4]

    @staticmethod
    def heap_pops(tree):
        """(qualified name of the enclosing top-level function or method, line)
        of each heappop call; <module> outside any function."""
        owners = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                owners.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                owners += [
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
        owner = {id(sub): name for name, node in owners for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "heappop":
                    yield owner.get(id(node), "<module>"), node.lineno

    def test_every_heap_pop_is_in_an_elimination_kernel(self):
        # one Markowitz loop each: the elimination kernel, which Smith
        # reduction runs too, Smith's row coordinates and the polynomial
        # division
        root = Path(krlab.__file__).parent
        found = {
            f"{path.name} {name}"
            for path in sorted(root.glob("*.py"))
            for name, _ in self.heap_pops(ast.parse(path.read_text()))
        }
        assert found == {
            "poly.py divide_terms",
            "qamod.py SmithResult.row_coords",
            "qamod.py _cancel",
        }

    def test_heap_pop_scan_flags(self):
        source = (
            "import heapq\n"
            "def _cancel(h):\n"
            "    return heapq.heappop(h)\n"
            "def _extend(h):\n"
            "    while h:\n"
            "        heapq.heappop(h)\n"
            "class Smith:\n"
            "    def row_coords(self, h):\n"
            "        return heappop(h)\n"
            "top = heappop([1]) + heappush([], 1)\n"
        )
        assert sorted(self.heap_pops(ast.parse(source))) == [
            ("<module>", 10), ("Smith.row_coords", 9), ("_cancel", 3), ("_extend", 6)
        ]

    def test_no_unused_imports(self):
        # every name an import binds in the package and its tests is read
        root = Path(krlab.__file__).parent
        paths = sorted(root.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
        found = []
        for path in paths:
            tree = ast.parse(path.read_text(), filename=str(path))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
        assert found == []

    # Definitions the package never reads: the click hook alone.
    UNREAD_KEPT = {
        "invoke": "cli: the click.Group hook that click itself calls",
    }

    @staticmethod
    def unread_definitions(sources):
        """(file, name) of each function or class whose name is loaded nowhere
        in the sources outside its own definition; click commands and dunders
        are exempt."""

        def click_command(node):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
                    return True
            return False

        trees = {name: ast.parse(text) for name, text in sources.items()}
        loads, defs = [], []
        for name, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.append((name, node.lineno, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.append((name, node.lineno, node.attr))
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        if not click_command(node):
                            defs.append((name, node))
        return [
            (name, node.name)
            for name, node in defs
            if not any(
                ident == node.name
                and (where != name or not node.lineno <= line <= node.end_lineno)
                for where, line, ident in loads
            )
        ]

    def test_every_definition_is_read(self):
        root = Path(krlab.__file__).parent
        sources = {path.name: path.read_text() for path in sorted(root.glob("*.py"))}
        found = self.unread_definitions(sources)
        assert [f"{f} {name}" for f, name in found if name not in self.UNREAD_KEPT] == []
        assert sorted({name for _, name in found}) == sorted(self.UNREAD_KEPT)

    # Attributes the package stores but never reads; one reason each.
    UNREAD_FIELDS_KEPT = {
        "SearchResult.expansions": "braid: only the benchmark's search observer reads it",
        "_Expansion._reserve": "qamod: held only so that a MemoryError can free it",
        "Summand.state": "cube: the tests check the cube layout against it",
    }

    @staticmethod
    def unread_fields(sources):
        """(file, "class.attribute") of each attribute a class stores, as an
        annotated name in its body (dataclass and NamedTuple fields) or as
        self.<name> = in its __init__, that no attribute load in the sources
        names."""
        trees = {name: ast.parse(text) for name, text in sources.items()}
        loaded = {
            node.attr
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        found = []
        for name, tree in trees.items():
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                stored = [
                    item.target.id
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                stored += [
                    node.attr
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for node in ast.walk(item)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ]
                found += [
                    (name, f"{cls.name}.{attr}")
                    for attr in dict.fromkeys(stored)
                    if attr not in loaded
                ]
        return found

    def test_every_field_is_read(self):
        root = Path(krlab.__file__).parent
        sources = {path.name: path.read_text() for path in sorted(root.glob("*.py"))}
        found = self.unread_fields(sources)
        assert [f"{f} {name}" for f, name in found if name not in self.UNREAD_FIELDS_KEPT] == []
        assert sorted({name for _, name in found}) == sorted(self.UNREAD_FIELDS_KEPT)

    def test_unread_field_scan_flags(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import NamedTuple\n"
            "@dataclass\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int\n"
            "    LIMIT = 3\n"
            "class Pair(NamedTuple):\n"
            "    left: int\n"
            "    right: int\n"
            "class Box:\n"
            "    def __init__(self, size):\n"
            "        self.size = self.spare = size\n"
            "        self.kind: int = 0\n"
            "        other.width = size\n"
            "    def grow(self):\n"
            "        self.later = 1\n"
            "        return self.size\n"
            "def read(p, q):\n"
            "    p.y = 0\n"
            "    return p.x + q.left\n"
        )
        found = sorted(name for _, name in self.unread_fields({"m.py": source}))
        assert found == ["Box.kind", "Box.spare", "Pair.right", "Point.y"]

    # Parameters the package never reads, kept for their callers; one reason each.
    UNREAD_PARAMETERS_KEPT = {
        "_resolve_window.n": "qamod: the benchmark's tests call it positionally with n",
    }

    @staticmethod
    def unread_parameters(sources):
        """(file, "function.parameter") of each parameter of a function or
        lambda that its body never loads; self, cls and names starting with
        an underscore are exempt."""
        found = []
        for name, text in sources.items():
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    continue
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                body = node.body if isinstance(node.body, list) else [node.body]
                loaded = {
                    sub.id
                    for stmt in body
                    for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                }
                owner = getattr(node, "name", "<lambda>")
                found += [
                    (name, f"{owner}.{param}")
                    for param in params
                    if param not in loaded
                    and param not in ("self", "cls")
                    and not param.startswith("_")
                ]
        return found

    def test_every_parameter_is_read(self):
        root = Path(krlab.__file__).parent
        sources = {path.name: path.read_text() for path in sorted(root.glob("*.py"))}
        found = self.unread_parameters(sources)
        assert [f"{f} {name}" for f, name in found if name not in self.UNREAD_PARAMETERS_KEPT] == []
        assert sorted({name for _, name in found}) == sorted(self.UNREAD_PARAMETERS_KEPT)

    def test_unread_parameter_scan_flags(self):
        source = (
            "def used(a, b): return a + b\n"
            "def unread(a, b): return a\n"
            "def exempt(self, cls, _c): return 0\n"
            "def closure(a):\n"
            "    def inner(): return a\n"
            "    return inner\n"
            "def default_only(a, b=1): return a\n"
            "def star(*args, key=0, **kwargs): return args, key\n"
            "class Box:\n"
            "    def method(self, item): return self\n"
            "square = lambda x, y: x * x\n"
        )
        found = sorted(name for _, name in self.unread_parameters({"m.py": source}))
        assert found == [
            "<lambda>.y", "default_only.b", "method.item", "star.kwargs", "unread.b"
        ]

    # Defaulted parameters that no call in the package passes, kept for the
    # tests or for an indirect caller; one reason each.
    DEFAULTS_KEPT = {
        "two_stage_homology.expansion":
            "qamod: adaptive_homology passes it through its homology parameter",
    }

    @staticmethod
    def unpassed_defaults(sources):
        """(file, "function.parameter") of each defaulted parameter of a
        function that some call in the sources names but none passes, by
        position or by keyword.  Calls match by name, __init__ through its
        class's name; a call with *args or **kwargs passes everything of
        its kind, and a function no call names is left to the unread scan."""
        trees = {name: ast.parse(text) for name, text in sources.items()}
        calls: dict[str, list[tuple[float, set]]] = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                    keywords = {kw.arg for kw in node.keywords}
                    calls.setdefault(callee, []).append(
                        (float("inf") if starred else len(node.args), keywords)
                    )

        def defaulted(node):
            """(parameter, position in a call or None) of each default."""
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            for pos, arg in enumerate(positional[first:], first):
                yield arg.arg, pos - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield arg.arg, None

        found = []
        for name, tree in trees.items():
            owners = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                            owners[item] = node.name
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                owner = owners.get(node, node.name)
                reach = calls.get(owner, [])
                found += [
                    (name, f"{owner}.{param}")
                    for param, pos in defaulted(node)
                    if reach and not any(
                        (pos is not None and pos < npos) or param in kws or None in kws
                        for npos, kws in reach
                    )
                ]
        return found

    def test_every_default_is_passed_somewhere(self):
        root = Path(krlab.__file__).parent
        sources = {path.name: path.read_text() for path in sorted(root.glob("*.py"))}
        found = self.unpassed_defaults(sources)
        assert [f"{f} {name}" for f, name in found if name not in self.DEFAULTS_KEPT] == []
        assert sorted({name for _, name in found}) == sorted(self.DEFAULTS_KEPT)

    def test_unpassed_default_scan_flags(self):
        source = (
            "def f(a, b=1, c=2, *, d=3, e=4): return a\n"
            "f(0, 1, e=5)\n"
            "def spread(a=1, b=2): return a\n"
            "spread(*[0])\n"
            "def keywords(a=1, b=2): return a\n"
            "keywords(**{})\n"
            "def uncalled(a=1): return a\n"
            "class Box:\n"
            "    def __init__(self, size=1, kind=0): self.size = size\n"
            "    def method(self, x=0, y=0): return x\n"
            "Box(3).method(1)\n"
        )
        found = sorted(name for _, name in self.unpassed_defaults({"m.py": source}))
        assert found == ["Box.kind", "f.c", "f.d", "method.y"]

    def test_unread_scan_flags(self):
        source = (
            "import click\n"
            "def used(): return 1\n"
            "def unused(): return used()\n"
            "def recursive(k): return recursive(k - 1) if k else 0\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def read(self): return 1\n"
            "    def unread(self): return self.read()\n"
            "@click.command()\n"
            "def command(): pass\n"
        )
        found = sorted(name for _, name in self.unread_definitions({"m.py": source}))
        assert found == ["Box", "recursive", "unread", "unused"]
