"""Matrix factorization layer: Koszul builds, exclusion, smith over Q, gdim."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from krlab.poly import (
    KIND_A,
    KIND_MARK,
    BigradedPoly,
    BudgetError,
    InvariantError,
    VariableTable,
    monomials,
)
from krlab import moy
from krlab.mf import (
    KoszulSpec,
    MatrixFactorization,
    compose,
    compose_sum,
    exclude_all,
    exclude_variable,
    exclusion_reduction,
    find_exclusion,
    koszul,
    tensor,
)
from krlab.moy import GdimSeries, gdim
from krlab.qamod import SliceMatrix, smith


def marks_table(*names: str) -> VariableTable:
    return VariableTable.build([("a", KIND_A)] + [(nm, KIND_MARK) for nm in names])


def var(table: VariableTable, name: str) -> BigradedPoly:
    return BigradedPoly.variable(table, name)


def h_two_vars(table: VariableTable, x: str, y: str, degree: int) -> BigradedPoly:
    """Complete homogeneous polynomial of the two marks x, y."""
    px, py = var(table, x), var(table, y)
    return sum((px**i * py**(degree - i) for i in range(degree + 1)), BigradedPoly.zero(table))


def arc_spec(n: int) -> KoszulSpec:
    table = marks_table("x", "y")
    a, x, y = (var(table, nm) for nm in "axy")
    return KoszulSpec(table, n, ((a * h_two_vars(table, "x", "y", n), x - y),))


def circle_spec(n: int) -> KoszulSpec:
    table = marks_table("x")
    a, x = var(table, "a"), var(table, "x")
    return KoszulSpec(table, n, ((Fraction(n + 1) * a * x**n, BigradedPoly.zero(table)),))


def apply_differential(M: MatrixFactorization, vec: dict) -> dict:
    """d0 + d1 on a vector {(parity, index): coefficient} over M's bases."""
    out: dict = {}
    for (par, idx), coeff in vec.items():
        for (ti, si), p in M.differential(par).items():
            if si == idx:
                key = ((par + 1) % 2, ti)
                out[key] = out[key] + p * coeff if key in out else p * coeff
    return {key: p for key, p in out.items() if not p.is_zero()}


def basis_vectors(M: MatrixFactorization):
    one = BigradedPoly.one(M.table)
    for par in (0, 1):
        for idx in range(len(M.basis(par))):
            yield {(par, idx): one}


def mf_equal(M: MatrixFactorization, M2: MatrixFactorization) -> bool:
    return (
        M.table == M2.table
        and M.n == M2.n
        and M.potential == M2.potential
        and M.basis0 == M2.basis0
        and M.basis1 == M2.basis1
        and M.d0 == M2.d0
        and M.d1 == M2.d1
    )


class TestKoszulConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_arc_potential(self, n):
        M = koszul(arc_spec(n))
        table = M.table
        a, x, y = (var(table, nm) for nm in "axy")
        assert M.potential == a * (x ** (n + 1) - y ** (n + 1))
        assert len(M.basis0 + M.basis1) == 2

    def test_arc_entry_degrees(self):
        M = koszul(arc_spec(2))
        assert M.basis0 == [(0, 0)]
        # odd generator degree (1 - 2, n + 1 - 2n) = (-1, 1 - n)
        assert M.basis1 == [(-1, -1)]

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_circle_generator_degree(self, n):
        M = koszul(circle_spec(n))
        assert M.basis0 == [(0, 0)]
        assert M.basis1 == [(-1, 1 - n)]
        assert M.potential.is_zero()

    def test_row_degree_mismatch_rejected(self):
        table = marks_table("x")
        a, x = var(table, "a"), var(table, "x")
        with pytest.raises(ValueError):
            KoszulSpec(table, 2, ((a * x, x),))

    def test_two_rows_match_tensor(self):
        n = 2
        table = marks_table("x", "y", "z", "w")
        a = var(table, "a")
        r1 = (a * h_two_vars(table, "x", "y", n), var(table, "x") - var(table, "y"))
        r2 = (a * h_two_vars(table, "z", "w", n), var(table, "z") - var(table, "w"))
        combined = koszul(KoszulSpec(table, n, (r1, r2)))
        factored = tensor(
            koszul(KoszulSpec(table, n, (r1,))), koszul(KoszulSpec(table, n, (r2,)))
        )
        assert mf_equal(combined, factored)

    def test_three_rows_match_iterated_tensor(self):
        n = 1
        table = marks_table("x", "y", "z")
        a = var(table, "a")
        rows = [
            (a * h_two_vars(table, "x", "y", n), var(table, "x") - var(table, "y")),
            (a * h_two_vars(table, "y", "z", n), var(table, "y") - var(table, "z")),
            (Fraction(2) * a * var(table, "z"), BigradedPoly.zero(table)),
        ]
        combined = koszul(KoszulSpec(table, n, tuple(rows)))
        step = koszul(KoszulSpec(table, n, (rows[0],)))
        step = tensor(step, koszul(KoszulSpec(table, n, (rows[1],))))
        step = tensor(step, koszul(KoszulSpec(table, n, (rows[2],))))
        assert mf_equal(combined, step)

    def test_swap_is_shift(self):
        n = 3
        table = marks_table("x", "y")
        a, x, y = (var(table, nm) for nm in "axy")
        left = a * h_two_vars(table, "x", "y", n)
        right = x - y
        swapped = koszul(KoszulSpec(table, n, ((right, left),)))
        # (a1, a0) is (a0, a1)<1>{1 - dega a1, n + 1 - degx a1}
        shifted = koszul(KoszulSpec(table, n, ((left, right),))).shifted(1, n - 1, flip=1)
        assert mf_equal(swapped, shifted)


class TestVerifyMutations:
    """Each identity verify() checks, broken on its own in a two-row Koszul factorization."""

    @staticmethod
    def two_row():
        # row 0 has a zero left entry, so d1 has a zero where d0 holds x + y
        table = marks_table("x", "y")
        a, x, y = (var(table, nm) for nm in "axy")
        M = koszul(KoszulSpec(table, 1, ((BigradedPoly.zero(table), x + y), (a * y, x - y))))
        key = next(k for k, p in M.d0.items() if p == x + y)
        return M, key, x

    def test_unbroken_verifies(self):
        M, _, _ = self.two_row()
        M.verify()
        assert len(M.d0) == 3 and len(M.d1) == 3

    def test_scaled_entry_breaks_the_diagonal(self):
        M, _, _ = self.two_row()
        key = next(k for k in M.d0 if k[0] != k[1])
        M.d0[key] = M.d0[key] * 2
        with pytest.raises(InvariantError, match="d\\^2 diagonal differs from potential"):
            M.verify()

    def test_added_term_breaks_off_the_diagonal(self):
        M, key, x = self.two_row()
        M.d0[key] = M.d0[key] + x
        with pytest.raises(InvariantError, match="d\\^2 off-diagonal"):
            M.verify()

    def test_entry_times_a_mark_breaks_its_degree(self):
        M, key, x = self.two_row()
        M.d0[key] = M.d0[key] * x
        with pytest.raises(InvariantError, match="entry degree"):
            M.verify()


def reference_compose(second, first):
    out = {}
    for (mid, j), p in first.items():
        for (i, mid2), q in second.items():
            if mid2 == mid:
                out[(i, j)] = out[(i, j)] + q * p if (i, j) in out else q * p
    return {k: p for k, p in out.items() if not p.is_zero()}


def reference_compose_sum(triples):
    out = {}
    for sign, second, first in triples:
        for key, p in reference_compose(second, first).items():
            p = p if sign > 0 else -p
            out[key] = out[key] + p if key in out else p
    return {k: p for k, p in out.items() if not p.is_zero()}


COMPOSE_TABLE = marks_table("x", "y")
EXPONENTS = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 1)]
COEFFICIENTS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)]


@st.composite
def sparse_matrices(draw):
    out = {}
    for key in draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6)):
        terms = draw(st.dictionaries(
            st.sampled_from(EXPONENTS), st.sampled_from(COEFFICIENTS), min_size=1, max_size=3
        ))
        out[key] = BigradedPoly(COMPOSE_TABLE, terms)
    return out


class Tally(int):
    """An int coefficient that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        Tally.products += 1
        return int(self) * (int(other) if isinstance(other, int) else other)

    __rmul__ = __mul__

    def __neg__(self):
        return Tally(-int(self))


def tallied(p: BigradedPoly) -> BigradedPoly:
    """A new object equal to p (integral coefficients) whose coefficients
    are Tally; set after construction, which would make them plain ints."""
    out = BigradedPoly(p.table, {})
    out.terms = {e: Tally(c) for e, c in p.terms.items()}
    return out


@st.composite
def pooled_triples(draw):
    """Signed triples whose entries come from a small pool of polynomials,
    each present as itself, its negative, and distinct objects with equal
    terms, one of them in reversed term order."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            st.sampled_from(EXPONENTS), st.sampled_from(COEFFICIENTS), min_size=1, max_size=3
        ))
        p = BigradedPoly(COMPOSE_TABLE, terms)
        pool += [p, -p, -(-p), BigradedPoly(COMPOSE_TABLE, dict(reversed(p.terms.items())))]
    matrices = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), st.sampled_from(pool), max_size=6
    )
    return draw(st.lists(
        st.tuples(st.sampled_from([1, -1]), matrices, matrices), min_size=1, max_size=4
    ))


class TestCompose:
    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices(), sparse_matrices())
    def test_matches_the_sum_of_products(self, second, first):
        got = compose(second, first)
        assert got == reference_compose(second, first)
        for p in got.values():
            assert not p.is_zero()
            assert all((type(c) is int) == (c.denominator == 1) for c in p.terms.values())

    def test_cancelling_entry_is_dropped(self):
        x, y = var(COMPOSE_TABLE, "x"), var(COMPOSE_TABLE, "y")
        half = Fraction(1, 2)
        second = {(0, 0): x * half, (0, 1): y, (1, 0): x}
        first = {(0, 0): y * 2, (1, 0): -x, (0, 1): x * half}
        got = compose(second, first)
        # (0, 0): x/2 * 2y - y * x = 0
        assert (0, 0) not in got
        assert got == {(0, 1): x * x * Fraction(1, 4), (1, 0): x * y * 2, (1, 1): x * x * half}
        assert got == reference_compose(second, first)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([1, -1]), sparse_matrices(), sparse_matrices()),
                    min_size=1, max_size=3))
    def test_sum_matches_the_signed_sum_of_products(self, triples):
        got = compose_sum(triples)
        assert got == reference_compose_sum(triples)
        for p in got.values():
            assert not p.is_zero()
            assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                       for c in p.terms.values())

    def test_shared_entries_under_both_signs(self):
        x, y = var(COMPOSE_TABLE, "x"), var(COMPOSE_TABLE, "y")
        p = x * Fraction(1, 3) + y
        second, first = {(0, 0): p, (1, 0): -p}, {(0, 0): p, (0, 1): x}
        assert compose_sum([(1, second, first), (-1, second, first)]) == {}
        # the same entry objects as second and as first operands, under both signs
        triples = [(1, second, first), (-1, first, second)]
        assert compose_sum(triples) == reference_compose_sum(triples) != {}

    @settings(max_examples=200, deadline=None)
    @given(pooled_triples())
    def test_shared_pool_matches_the_signed_sum_of_products(self, triples):
        assert compose_sum(triples) == reference_compose_sum(triples)

    def test_equal_contents_cancel_without_a_product(self):
        x, y = var(COMPOSE_TABLE, "x"), var(COMPOSE_TABLE, "y")
        r, p, same, negated = tallied(y), tallied(x + y), tallied(x + y), tallied(-x - y)
        Tally.products = 0
        # distinct objects with equal terms, and p against its negative
        for sign, other in ((-1, same), (1, negated)):
            triples = [(1, {(0, 0): r}, {(0, 0): p}), (sign, {(0, 0): r}, {(0, 0): other})]
            assert compose_sum(triples) == {}
        # r p - p r, the shape of a Koszul off-diagonal entry, in one product
        assert compose({(0, 0): r, (0, 1): same}, {(0, 0): p, (1, 0): -r}) == {}
        assert Tally.products == 0
        # one coefficient apart, the two products are taken and do not cancel
        differs = tallied(x + y * 2)
        triples = [(1, {(0, 0): r}, {(0, 0): p}), (-1, {(0, 0): r}, {(0, 0): differs})]
        got = compose_sum(triples)
        assert Tally.products > 0
        assert got == reference_compose_sum(triples) == {(0, 0): -(y * y)}

    def test_a_pair_nets_within_each_output_entry(self):
        x, y = var(COMPOSE_TABLE, "x"), var(COMPOSE_TABLE, "y")
        q, p = x + y, x - y
        # the pair {q, p} with +1 at (0, 0) and -1 at (1, 0): no entry cancels
        got = compose({(0, 0): q, (1, 0): -q}, {(0, 0): p})
        assert got == {(0, 0): q * p, (1, 0): -(q * p)}

    def test_checks_reach_operands_whose_products_cancel(self):
        x = var(COMPOSE_TABLE, "x")
        inverse = BigradedPoly(COMPOSE_TABLE, {(0, -1, 0): 1})
        cancelling = [(1, {(0, 0): inverse}, {(0, 0): x}), (-1, {(0, 0): inverse}, {(0, 0): x})]
        with pytest.raises(InvariantError, match="negative exponent"):
            compose_sum(cancelling)
        z = var(marks_table("x", "z"), "z")
        with pytest.raises(ValueError, match="mismatched variable tables"):
            compose_sum([(1, {(0, 0): x}, {(0, 0): z}), (-1, {(0, 0): x}, {(0, 0): z})])

    def test_flipped_leibniz_sign_breaks_off_the_diagonal(self):
        # the flipped entry's partner in d1 is zero, so the diagonal holds
        # and only the pair that used to cancel shows the fault
        M, key, _ = TestVerifyMutations.two_row()
        M.d0[key] = -M.d0[key]
        with pytest.raises(InvariantError, match="d\\^2 off-diagonal"):
            M.verify()

    @pytest.mark.parametrize("k", [1, 7, 8, 15, 16])
    def test_exponents_fill_a_field_exactly(self, k):
        # x^k x^k = x^2k sets the top bit of its field, (2k).bit_length()
        # bits wide; a field one bit narrower would carry into the next one
        a, x, y = (var(COMPOSE_TABLE, nm) for nm in "axy")
        second = {(0, 0): x**k * y + a**k, (1, 0): y**k - a * x**k, (1, 1): a**k * x**k * y**k}
        first = {(0, 0): x**k + a**k * y**k, (1, 0): y**k * x, (1, 1): a**k * x**k * y**k}
        got = compose(second, first)
        assert got == reference_compose(second, first)
        assert got[(1, 1)] == a ** (2 * k) * x ** (2 * k) * y ** (2 * k)
        assert compose({(0, 0): x**k}, {(0, 0): x**k}) == {(0, 0): x ** (2 * k)}

    def test_negative_exponent_is_an_invariant_error(self):
        x = var(COMPOSE_TABLE, "x")
        inverse = BigradedPoly(COMPOSE_TABLE, {(0, -1, 0): 1})
        with pytest.raises(InvariantError, match="negative exponent"):
            compose({(0, 0): inverse}, {(0, 0): x})

    def test_mismatched_tables_across_triples_rejected(self):
        x = var(COMPOSE_TABLE, "x")
        z = var(marks_table("x", "z"), "z")
        with pytest.raises(ValueError, match="mismatched variable tables"):
            compose_sum([(1, {(0, 0): x}, {(0, 0): x}), (-1, {(0, 0): z}, {(0, 0): z})])

    def test_empty_sum(self):
        assert compose_sum([]) == {}
        assert compose_sum([(1, {}, {}), (-1, {}, {})]) == {}
        x = var(COMPOSE_TABLE, "x")
        assert compose_sum([(1, {(0, 0): x}, {(1, 1): x})]) == {}

    @pytest.mark.parametrize("operand", [0, 1])
    def test_mismatched_table_rejected(self, operand):
        other = marks_table("x", "z")
        x = var(COMPOSE_TABLE, "x")
        stray = {(5, 5): var(other, "z")}  # no partner in the other operand
        second, first = {(0, 0): x}, {(0, 0): x}
        (second if operand == 0 else first).update(stray)
        with pytest.raises(ValueError, match="mismatched variable tables"):
            compose(second, first)


class TestExclusion:
    def test_exclude_substitutes_and_drops(self):
        n = 2
        table = marks_table("x", "y", "z")
        a, x, y, z = (var(table, nm) for nm in "axyz")
        rows = (
            (a * h_two_vars(table, "x", "y", n), x - y),
            (a * h_two_vars(table, "y", "z", n), y - z),
        )
        spec = KoszulSpec(table, n, rows)
        step = exclude_variable(spec, 0, "y")
        assert step.var == "y"
        assert "y" not in step.spec_after.table
        assert len(step.spec_after.rows) == 1
        small = step.spec_after.table
        xs, zs = var(small, "x"), var(small, "z")
        assert step.image == xs
        assert step.spec_after.rows[0][1] == xs - zs

    def test_exclude_requires_unit_linear(self):
        n = 1
        table = marks_table("x", "y")
        a, x, y = (var(table, nm) for nm in "axy")
        spec = KoszulSpec(table, n, ((a * BigradedPoly.one(table), (x - y) * (x + y)),))
        with pytest.raises(ValueError):
            exclude_variable(spec, 0, "x")

    def test_find_exclusion_skips_quadratic(self):
        n = 1
        table = marks_table("x", "y")
        a, x, y = (var(table, nm) for nm in "axy")
        spec = KoszulSpec(
            table,
            n,
            (
                (a * BigradedPoly.one(table), x * x - y * y),
                (a * h_two_vars(table, "x", "y", n), x - y),
            ),
        )
        assert find_exclusion(spec, ["x", "y"]) == (1, "x")

    def test_exclude_all_takes_the_first_pair_each_time(self):
        n = 2
        table = marks_table("x", "y", "z", "w")
        a, x, y, z, w = (var(table, nm) for nm in "axyzw")
        rows = (
            (a * h_two_vars(table, "x", "y", n), x - y),
            (a * h_two_vars(table, "y", "z", n), y - z),
            (a * h_two_vars(table, "z", "w", n), z - w),
        )
        spec = KoszulSpec(table, n, rows)
        after, steps = exclude_all(spec, ["y", "z", "q"])
        assert [step.var for step in steps] == ["y", "z"]
        assert steps[-1].spec_after == after
        assert after.table.names() == ("a", "x", "w")
        assert after.rows[0][1] == var(after.table, "x") - var(after.table, "w")
        # the same as excluding by hand at find_exclusion's first pair
        by_hand = exclude_variable(spec, *find_exclusion(spec, ["y", "z"])).spec_after
        by_hand = exclude_variable(by_hand, *find_exclusion(by_hand, ["y", "z"])).spec_after
        assert by_hand == after
        assert exclude_all(after, ["y", "z"]) == (after, [])

    def test_exclusion_maps_with_a_potential_free_of_the_variable(self):
        # a nonzero potential is fine when the excluded variable is not in it;
        # the excluded row sits between two others
        n = 1
        table = marks_table("x", "y", "z", "t")
        a, x, y, z, t = (var(table, nm) for nm in "axyzt")
        spec = KoszulSpec(
            table, n,
            ((a * (x + y), x - y), (a * (y + z), y - z), (2 * a * t, BigradedPoly.zero(table))),
        )
        step = exclude_variable(spec, 1, "y")
        red = exclusion_reduction(step)
        big, small = koszul(spec), koszul(step.spec_after)
        xs, zs = var(small.table, "x"), var(small.table, "z")
        assert small.potential == var(small.table, "a") * (xs * xs - zs * zs)
        for v in basis_vectors(small):
            assert red.pi(red.iota(v)) == v
            assert apply_differential(big, red.iota(v)) == red.iota(apply_differential(small, v))
        for v in basis_vectors(big):
            assert red.pi(apply_differential(big, v)) == apply_differential(small, red.pi(v))

    def test_exclusion_maps_refuse_a_potential_in_the_variable(self):
        n = 1
        table = marks_table("x", "y")
        a, x, y = (var(table, nm) for nm in "axy")
        spec = KoszulSpec(table, n, ((a * (x + y), x - y), (a * (x + y), y - 2 * x)))
        with pytest.raises(ValueError, match="potential involves excluded variable y"):
            exclusion_reduction(exclude_variable(spec, 1, "y"))


class TestKernel:
    # rank 4 by construction: c3 = 0, c4 = c0 + c1 and c6 = 3 c2 - c5; the
    # int pivots 2 and 3 make the first elimination factor 3/2
    COLS = [
        {0: 2, 1: 1},
        {0: 3, 1: 1},
        {0: Fraction(1, 3), 2: 1},
        {},
        {0: 5, 1: 2},
        {1: 3, 2: Fraction(1, 2), 3: 7},
        {0: 1, 1: -3, 2: Fraction(5, 2), 3: -7},
    ]

    def matrix(self) -> SliceMatrix:
        """COLS as a rational matrix: a SliceMatrix of a-degree 0."""
        cells = {(r, c): v for c, col in enumerate(self.COLS) for r, v in col.items()}
        return SliceMatrix((0,) * len(self.COLS), (0,) * 4, 0, cells)

    def test_combinations_send_the_columns_to_zero(self):
        combos = smith(self.matrix()).kernel_basis()
        assert combos
        for combo, degree in combos:
            # of label 0 over generators of a-degree 0: every exponent is 0
            assert degree == 0
            image: dict[int, Fraction] = {}
            for j, c in combo.items():
                assert type(c) in (int, Fraction)
                for r, v in self.COLS[j].items():
                    image[r] = image.get(r, 0) + c * v
            assert not any(image.values())

    def test_kernel_size_plus_rank_is_the_column_count(self):
        before = [dict(col) for col in self.COLS]
        M = self.matrix()
        entries = dict(M.entries)
        reduced = smith(M)
        assert len(reduced.kernel_basis()) + 4 == len(self.COLS)
        assert len(reduced.pivots) == 4
        assert self.COLS == before
        assert M.entries == entries


class TestGdim:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_circle_series(self, n):
        M = koszul(circle_spec(n))
        series = gdim(M, x_truncation=8)
        assert series.terms == {(0, 0, 0): 1, (1, -1, 1 - n): 1}

    def test_arc_with_survivor(self):
        M = koszul(arc_spec(2))
        series = gdim(M, x_truncation=10, kill=["a", "y"])
        assert series.terms == {(0, 0, 0): 1}

    def test_requires_killing_a(self):
        M = koszul(circle_spec(1))
        with pytest.raises(ValueError):
            gdim(M, 5, kill=["x"])

    def test_series_shift_and_add(self):
        s = GdimSeries({(0, 0, 0): 1, (1, -1, -1): 1}, 8)
        doubled = s + s
        assert doubled.terms == {(0, 0, 0): 2, (1, -1, -1): 2}
        moved = s.shifted(1, 2, 3)
        assert moved.terms == {(1, 2, 3): 1, (0, 1, 2): 1}
        assert moved.x_truncation == 11

    def test_count_stops_past_its_cap(self):
        # a count past the cap costs about the cap, whatever the total
        assert moy._count_up_to((2, 4), 10**12, 1000) == 1001
        for weights in [(), (2,), (2, 4), (4, 2, 6)]:
            for total in range(-1, 30):
                full = sum(len(monomials(weights, t)) for t in range(total + 1))
                assert moy._count_up_to(weights, total, 10**6) == full
                assert moy._count_up_to(weights, total, 5) == min(full, 6)

    def test_a_truncation_over_the_cap_is_refused(self, monkeypatch):
        # arc_spec(2) with y killed: x survives, and up to x-degree 10 + n + 1
        # the generators at x-degrees 0 and -1 meet 7 and 8 of its powers
        M = koszul(arc_spec(2))
        monkeypatch.setattr(moy, "MAX_SLICE_BASIS", 15)
        assert gdim(M, x_truncation=10, kill=["a", "y"]).terms == {(0, 0, 0): 1}
        monkeypatch.setattr(moy, "MAX_SLICE_BASIS", 14)
        with pytest.raises(BudgetError, match="more than 14 slice basis elements"):
            gdim(M, x_truncation=10, kill=["a", "y"])


def _random_entry(table, draw_ints, n, dega, degx):
    """Deterministic small homogeneous polynomial of bidegree (dega, degx)."""
    a = var(table, "a")
    marks = [var(table, nm) for nm in table.names() if nm != "a"]
    out = BigradedPoly.zero(table)
    if dega % 2 or degx % 2 or dega < 0 or degx < 0:
        return out
    apow = dega // 2
    xdeg = degx // 2
    for i, coeff in enumerate(draw_ints):
        if not coeff:
            continue
        term = BigradedPoly.constant(table, Fraction(coeff)) * a**apow
        left = xdeg
        for j, m in enumerate(marks):
            take = left if j == len(marks) - 1 else min(left, (i + j) % (left + 1))
            term = term * m**take
            left -= take
        if left == 0:
            out = out + term
    return out


@st.composite
def random_koszul_spec(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    table = marks_table("x", "y")
    nrows = draw(st.integers(min_value=1, max_value=3))
    rows = []
    for _ in range(nrows):
        right_deg = draw(st.sampled_from([2, 4]))
        ints_r = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3))
        right = _random_entry(table, ints_r, n, 0, right_deg)
        ints_l = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3))
        left = _random_entry(table, ints_l, n, 2, 2 * n + 2 - right_deg)
        if left.is_zero() and right.is_zero():
            right = var(table, "x") ** (right_deg // 2)
        rows.append((left, right))
    return KoszulSpec(table, n, tuple(rows))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_koszul_spec())
    def test_koszul_verifies(self, spec):
        M = koszul(spec)
        assert M.potential == spec.potential()

    @settings(max_examples=30, deadline=None)
    @given(random_koszul_spec(), st.integers(-2, 2), st.integers(-3, 3), st.integers(0, 1))
    def test_shift_verifies(self, spec, da, dx, flip):
        M = koszul(spec)
        S = M.shifted(2 * da, 2 * dx, flip)
        S.verify()
        assert S.potential == M.potential
