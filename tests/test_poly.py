"""Bigraded polynomial layer: ring identities, symmetric functions, division."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import krlab
from krlab.poly import (
    BigradedPoly,
    VariableTable,
    complete_symmetric_in_elementary,
    differentiate,
    divide_exact,
    elementary_symmetric,
    exact,
    power_sum_in_elementary,
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
            "differentiate": differentiate(x ** 3 * Fraction(1, 3), "x1"),
            "coefficient_of": p.coefficient_of("x1", 2),
            "divide_exact": divide_exact(h * (x - y), g),
        }
        for name, r in results.items():
            assert not r.is_zero(), name
            assert coefficient_types(r) == {int}, name

    def test_mixed_results_keep_each_coefficient_exact(self):
        x, y = v("x1"), v("y")
        h = x * Fraction(3, 2) + y * 2
        for r in (h + h * 2, h - x, h * h, h * Fraction(2, 3), differentiate(h * h, "x1")):
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


class TestSymmetricFunctions:
    def test_e2_of_three(self):
        x1, x2, x3 = v("x1"), v("x2"), v("x3")
        assert elementary_symmetric(T, ["x1", "x2", "x3"], 2) == x1 * x2 + x2 * x3 + x3 * x1

    def test_e0_is_one(self):
        assert elementary_symmetric(T, ["x1", "x2"], 0) == BigradedPoly.one(T)

    def test_out_of_range_is_zero(self):
        assert elementary_symmetric(T, ["x1", "x2"], 4).is_zero()
        assert elementary_symmetric(T, ["x1", "x2"], -1).is_zero()

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

    def test_h21_is_e1(self):
        E = _egens(2)
        assert complete_symmetric_in_elementary(E, 1) == E[0]

    def test_h1N_in_one_variable(self):
        x = v("x1")
        for n in (1, 2, 3):
            assert complete_symmetric_in_elementary([x], n) == x ** n

    def test_partial_of_p23_in_e2(self):
        E = _egens(2)
        p = power_sum_in_elementary(E, 3)
        h = complete_symmetric_in_elementary(E, 1)
        assert differentiate(p, "E2") == -3 * h

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", range(0, 9))
    def test_power_sum_matches_raw_alphabet(self, m, k):
        alphabet = ["x1", "x2", "x3"][:m]
        gens = [elementary_symmetric(T, alphabet, j + 1) for j in range(m)]
        expanded = power_sum_in_elementary(gens, k)
        direct = BigradedPoly.constant(T, m) if k == 0 else sum(
            (v(name) ** k for name in alphabet), BigradedPoly.zero(T)
        )
        assert expanded == direct

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", range(0, 7))
    def test_complete_matches_raw_alphabet(self, m, k):
        alphabet = ["x1", "x2", "x3"][:m]
        gens = [elementary_symmetric(T, alphabet, j + 1) for j in range(m)]
        expanded = complete_symmetric_in_elementary(gens, k)
        # h_k = sum of all degree-k monomials in the alphabet
        direct = BigradedPoly.zero(T)
        idx = [T.index(name) for name in alphabet]

        def rec(pos, left, expo):
            nonlocal direct
            if pos == len(idx):
                if left == 0:
                    e = [0] * len(T)
                    for i, p in zip(idx, expo):
                        e[i] = p
                    direct = direct + BigradedPoly(T, {tuple(e): Fraction(1)})
                return
            for take in range(left + 1):
                rec(pos + 1, left - take, expo + [take])

        rec(0, k, [])
        assert expanded == direct


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
        # under python -O
        probe = (
            "from krlab.poly import InvariantError\n"
            "from krlab.qamod import SliceMatrix, smith\n"
            "s = smith(SliceMatrix((1,), (0,), 1, {(0, 0): (1, 1)}))\n"
            "for coords in (s.kernel_coords, s.image_coords):\n"
            "    try:\n"
            "        coords({0: (1, 0)})\n"
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
