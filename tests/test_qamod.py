"""Two-stage homology: graded Smith reduction, decompositions, tails, euler."""

import gc
import heapq
import tracemalloc
import weakref
from fractions import Fraction
from math import comb

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from krlab import cli, qamod
from krlab.braid import parse
from krlab.cube import build_complex
from krlab.poly import KIND_MARK, BigradedPoly, BudgetError, InvariantError
from krlab.qamod import (
    GradedQaModule,
    SliceMatrix,
    SmithResult,
    SliceModule,
    Tail,
    _ClassExpansion,
    _Expansion,
    _class_of,
    _reduce_complex,
    _Reduced,
    _mod_a_dimensions,
    a_one_dimensions,
    adaptive_homology,
    euler_characteristic,
    expansion_size,
    mod_a_homology,
    smith,
    specialize,
    two_stage_homology,
)
from krlab.skein import SkeinValue, evaluate, unlink_value
from test_cube import reduced_words
from test_pinned_homology import digest, pinned


def homology(text, strands, n, window=None):
    return two_stage_homology(build_complex(parse(text, strands), n), x_window=window)


def lift(vec, label, degrees):
    """A graded vector as monomials (coefficient, exponent): its entry at an
    index of a-degree d has exponent (label - d) / 2, a natural number."""
    out = {}
    for idx, coeff in vec.items():
        assert type(coeff) in (int, Fraction)
        twice = label - degrees[idx]
        assert twice >= 0 and twice % 2 == 0
        out[idx] = (coeff, twice // 2)
    return out


def lift_matrix(m):
    """A SliceMatrix's entries as monomials, each exponent from the labels."""
    out = {}
    for (r, c), coeff in m.entries.items():
        assert type(coeff) in (int, Fraction)
        out[(r, c)] = (coeff, (m.shift + m.source[c] - m.target[r]) // 2)
    return out


def accumulate(vec, idx, coeff, exp):
    """Add a monomial to a vector of monomials, which must stay homogeneous."""
    cur = vec.get(idx)
    if cur is None:
        vec[idx] = (coeff, exp)
        return
    assert cur[1] == exp
    s = cur[0] + coeff
    if s:
        vec[idx] = (s, exp)
    else:
        del vec[idx]


def apply_cells(cells, vec):
    """Matrix given as (row, col) -> monomial, applied to a sparse vector of
    monomials; the sums must stay homogeneous."""
    out = {}
    for (r, c), (mc, me) in cells.items():
        got = vec.get(c)
        if got is None:
            continue
        accumulate(out, r, mc * got[0], me + got[1])
    return out


def reference_smith(M):
    """smith as it was before it stopped scaling pivot rows, and while every
    cell held a (coefficient, exponent) pair: each pivot row is multiplied by
    1/pc first, so every multiplier is a plain negation.  The kernel must
    give the same pivots and the same transform coefficients, as values in
    Q; the transforms here hold pairs."""
    entries = lift_matrix(M)
    by_row, by_col = {}, {}
    for (r, c), mono in entries.items():
        by_row.setdefault(r, {})[c] = mono
        by_col.setdefault(c, {})[r] = mono

    def cost(r, c):
        return (len(by_row[r]) - 1) * (len(by_col[c]) - 1)

    heap = [(mono[1], cost(r, c), r, c) for (r, c), mono in entries.items()]
    heapq.heapify(heap)
    one = (1, 0)
    row_t_inv = {}
    col_t = {i: {i: one} for i in range(len(M.source))}
    pivots = []

    def set_cell(r, c, coeff, exp):
        row = by_row.setdefault(r, {})
        cur = row.get(c)
        if cur is None:
            mono = (coeff, exp)
            row[c] = mono
            by_col.setdefault(c, {})[r] = mono
            heapq.heappush(heap, (exp, cost(r, c), r, c))
            return
        if cur[1] != exp:
            raise InvariantError("graded collision in smith")
        s = cur[0] + coeff
        if s:
            mono = (s, exp)
            row[c] = mono
            by_col[c][r] = mono
        else:
            del row[c]
            del by_col[c][r]

    while heap:
        pe, pushed, r0, c0 = heapq.heappop(heap)
        got = by_row.get(r0, {}).get(c0)
        if got is None:
            continue
        now = cost(r0, c0)
        if now > pushed and heap and heap[0][0] == pe:
            heapq.heappush(heap, (pe, now, r0, c0))
            continue
        row_t_inv[r0] = {r: (dc, de - pe) for r, (dc, de) in by_col[c0].items()}
        pc = got[0]
        if pc != 1:
            u = -1 if pc == -1 else Fraction(1) / pc
            row = by_row[r0] = {c: (cc * u, ce) for c, (cc, ce) in by_row[r0].items()}
            for c, mono in row.items():
                by_col[c][r0] = mono
        # clear the pivot column by row operations
        pivot_row = by_row[r0]
        for r in [r for r in by_col[c0] if r != r0]:
            dc, de = by_row[r][c0]
            mc, me = -dc, de - pe
            for c, (gc, ge) in pivot_row.items():
                set_cell(r, c, gc if mc == 1 else (-gc if mc == -1 else mc * gc), me + ge)
        # the column is now clear; clear the pivot row by column operations
        pivot_col, kernel_step = by_col[c0], col_t[c0]
        for c in [c for c in pivot_row if c != c0]:
            dc, de = pivot_row[c]
            mc, me = -dc, de - pe
            for r, (gc, ge) in pivot_col.items():
                set_cell(r, c, gc if mc == 1 else (-gc if mc == -1 else mc * gc), me + ge)
            acc = col_t[c]
            for r, (gc, ge) in kernel_step.items():
                accumulate(acc, r, gc if mc == 1 else (-gc if mc == -1 else mc * gc), me + ge)
        row = by_row.pop(r0)
        del row[c0]
        col = by_col.pop(c0)
        del col[r0]
        if row or col:
            raise InvariantError("pivot row or column not cleared")
        pivots.append((r0, c0, pe))
    return SmithResult(M.source, M.target, pivots, row_t_inv, col_t)


class TestSliceMatrix:
    def test_entry_breaking_the_grading_is_rejected(self):
        with pytest.raises(ValueError, match="breaks the grading"):
            SliceMatrix((1,), (0,), 0, {(0, 0): Fraction(1)})

    def test_negative_exponent_is_rejected(self):
        with pytest.raises(ValueError, match="negative a-exponent"):
            SliceMatrix((0,), (2,), 0, {(0, 0): Fraction(1)})

    def test_out_of_range_entry_is_rejected(self):
        with pytest.raises(ValueError, match="outside the matrix"):
            SliceMatrix((0,), (0,), 0, {(1, 0): Fraction(1)})

    def test_a_coefficient_exponent_pair_is_rejected(self):
        # a caller still writing (coefficient, exponent) cells fails loudly
        with pytest.raises(TypeError, match="exact coefficients"):
            SliceMatrix((0,), (0,), 0, {(0, 0): (Fraction(1), 0)})

    def test_columns_carry_the_shift_in_their_labels(self):
        m = SliceMatrix((0, 2), (1, 1), 1, {(0, 0): 1, (1, 1): Fraction(3, 2)})
        assert m.columns() == [({0: 1}, 1), ({1: Fraction(3, 2)}, 3)]


class TestSmith:
    def test_already_diagonal(self):
        m = SliceMatrix(
            (2, 4), (0, 0), 0,
            {(0, 0): Fraction(1), (1, 1): Fraction(1)},
        )
        s = smith(m)
        assert [e for _, _, e in s.pivots] == [1, 2]
        assert s.kernel_basis() == []

    def test_zero_matrix_has_free_cokernel(self):
        s = smith(SliceMatrix((0,), (), 0, {}))
        assert s.pivots == []
        assert s.kernel_basis() == [({0: 1}, 0)]

    @staticmethod
    def check_transforms(m, s):
        """The oracle on the two kept transforms and their support facts, in
        monomials whose exponents are read from the labels."""
        entries = lift_matrix(m)
        pivot_cols = [c0 for _, c0, _ in s.pivots]
        pivot_rows = [r0 for r0, _, _ in s.pivots]
        for t, (r0, c0, e) in enumerate(s.pivots):
            col = lift(s.row_t_inv[r0], m.target[r0], m.target)
            expected = {r: (coeff, exp + e) for r, (coeff, exp) in col.items()}
            assert apply_cells(entries, lift(s.col_t[c0], m.source[c0], m.source)) == expected
            # final once r0 is pivoted: on r0 and the rows not yet pivoted then
            assert set(col) - {r0} <= set(range(len(m.target))) - set(pivot_rows[: t + 1])
        for c in sorted(set(range(len(m.source))) - set(pivot_cols)):
            assert apply_cells(entries, lift(s.col_t[c], m.source[c], m.source)) == {}
            assert s.col_t[c][c] == 1
            assert set(s.col_t[c]) - {c} <= set(pivot_cols)

    def test_upper_triangular(self):
        m = SliceMatrix(
            (2, 2), (0, -2), 0,
            {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)},
        )
        s = smith(m)
        assert [e for _, _, e in s.pivots] == [1, 2]
        self.check_transforms(m, s)

    COEFFICIENTS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    # integers that often divide one another, so most pivots are not units
    DIVIDING_COEFFICIENTS = (0, 0, 1, -1, 2, -2, 3, 4, -6, Fraction(1, 2), Fraction(4, 3))

    @staticmethod
    def draw_matrix(data, nr, nc, coefficients=COEFFICIENTS):
        """A random graded nr x nc slice matrix of shift 0 or 1."""
        shift = data.draw(st.sampled_from([0, 1]))
        target = tuple(shift + t for t in data.draw(st.lists(
            st.sampled_from([0, 2, 4]), min_size=nr, max_size=nr)))
        source = tuple(data.draw(st.lists(
            st.sampled_from([0, 2, 4, 6]), min_size=nc, max_size=nc)))
        entries = {}
        for r in range(nr):
            for c in range(nc):
                if shift + source[c] < target[r]:
                    continue
                coeff = data.draw(st.sampled_from(coefficients))
                if coeff:
                    entries[(r, c)] = coeff
        return SliceMatrix(source, target, shift, entries)

    @given(
        st.data(),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_reduction_properties(self, data, nr, nc):
        m = self.draw_matrix(data, nr, nc)
        s = smith(m)

        self.check_transforms(m, s)
        diag = [e for _, _, e in s.pivots]
        assert diag == sorted(diag)  # divisibility chain a^d1 | a^d2 | ...
        for vec, lab in s.kernel_basis():
            assert apply_cells(lift_matrix(m), lift(vec, lab, m.source)) == {}
        for t, (vec, _) in enumerate(s.kernel_basis()):
            assert s.kernel_coords(vec) == {t: 1}
        for t, (vec, lab) in enumerate(s.image_basis()):
            assert s.image_coords(vec, lab) == {t: 1}
        # every column of M is an image element, rebuilt from its coordinates
        # (lift asserts each coordinate's exponent is a natural number)
        basis = s.image_basis()
        labels = tuple(lab for _, lab in basis)
        image = SliceMatrix(labels, m.target, 0, {
            (r, t): coeff for t, (vec, _) in enumerate(basis) for r, coeff in vec.items()
        })
        for vec, lab in m.columns():
            coords = lift(s.image_coords(vec, lab), lab, labels)
            assert apply_cells(lift_matrix(image), coords) == lift(vec, lab, m.target)

    @given(st.data(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_the_pivots_and_transforms_of_scaled_pivot_rows(self, data, nr, nc):
        # one division per operation makes the same values in Q as scaling
        # each pivot row first, so the same pivots and the same transforms;
        # and each exponent the reference stores is the one the labels give
        m = self.draw_matrix(data, nr, nc, self.DIVIDING_COEFFICIENTS)
        s, ref = smith(m), reference_smith(m)
        assert s.pivots == ref.pivots
        for mat, ref_mat in ((s.row_t_inv, ref.row_t_inv), (s.col_t, ref.col_t)):
            assert mat == {
                j: {r: c for r, (c, _) in col.items()} for j, col in ref_mat.items()
            }
        for r0, col in ref.row_t_inv.items():
            assert col == lift(s.row_t_inv[r0], m.target[r0], m.target)
        for c, col in ref.col_t.items():
            assert col == lift(s.col_t[c], m.source[c], m.source)

    def test_pivots_that_divide_keep_the_transforms_integral(self):
        # each pivot is 2 and divides what is left of its row and column, so
        # every multiplier is an int; scaling a pivot row by 1/2 made Fractions
        rows = [[2, 2, 4], [2, 4, 6], [4, 6, 12]]
        m = SliceMatrix((0, 0, 0), (0, 0, 0), 0, {
            (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)
        })
        s = smith(m)
        assert [s.row_t_inv[r0][r0] for r0, _, _ in s.pivots] == [2] * 3
        coefficients = [
            c for mat in (s.row_t_inv, s.col_t) for col in mat.values() for c in col.values()
        ]
        assert all(type(c) is int for c in coefficients)
        self.check_transforms(m, s)

    def test_arrowhead_is_pivoted_without_fill(self):
        # a unit diagonal with a dense row 0 and column 0, all exponents 0:
        # pivoting (0, 0) first would fill the whole matrix, so the least
        # Markowitz cost takes the diagonal first and (0, 0) last
        k = 40
        entries = {(i, i): Fraction(1) for i in range(1, k)}
        entries[(0, 0)] = Fraction(2 * k)
        for i in range(1, k):
            entries[(0, i)] = entries[(i, 0)] = Fraction(1)
        m = SliceMatrix((0,) * k, (0,) * k, 0, entries)
        s = smith(m)
        assert s.pivots[-1] == (0, 0, 0)
        assert all(len(col) <= 2 for col in s.row_t_inv.values())
        self.check_transforms(m, s)

    @given(st.data(), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_permutations_keep_the_diagonal(self, data, nr, nc):
        # the tie-break may pick other pivots in a permuted matrix, but never
        # other exponents or another kernel rank
        m = self.draw_matrix(data, nr, nc)
        rows = data.draw(st.permutations(range(nr)))
        cols = data.draw(st.permutations(range(nc)))
        p = SliceMatrix(
            tuple(m.source[c] for c in cols), tuple(m.target[r] for r in rows), m.shift,
            {(rows.index(r), cols.index(c)): coeff for (r, c), coeff in m.entries.items()},
        )
        s, sp = smith(m), smith(p)
        self.check_transforms(p, sp)
        assert [e for _, _, e in sp.pivots] == [e for _, _, e in s.pivots]
        assert len(sp.kernel_basis()) == len(s.kernel_basis())

    def test_the_image_basis_is_row_t_inv_itself(self):
        m = SliceMatrix((2, 4), (0, 2), 0, {(0, 0): 2, (1, 0): 3, (1, 1): 1})
        s = smith(m)
        basis = s.image_basis()
        assert [lab for _, lab in basis] == [m.target[r0] + 2 * e for r0, _, e in s.pivots]
        assert all(vec is s.row_t_inv[r0] for (vec, _), (r0, _, _) in zip(basis, s.pivots))

    def test_kernel_coords_rejects_outside_vectors(self):
        m = SliceMatrix((1,), (0,), 1, {(0, 0): Fraction(1)})
        s = smith(m)
        with pytest.raises(AssertionError, match="not in the kernel"):
            s.kernel_coords({0: 1})

    def test_image_coords_rejects_outside_vectors(self):
        s = smith(SliceMatrix((2,), (0, 0), 0, {(0, 0): Fraction(1)}))
        with pytest.raises(InvariantError, match="not in the image"):
            s.image_coords({1: 1}, 0)

    def test_image_coords_rejects_a_negative_power(self):
        # e0 = a^-1 (a e0) would need a coefficient outside Q[a]
        s = smith(SliceMatrix((1,), (-1,), 0, {(0, 0): Fraction(1)}))
        assert s.image_coords({0: 3}, 1) == {0: 3}
        with pytest.raises(InvariantError, match="not in the image"):
            s.image_coords({0: 1}, -1)

    def test_image_coords_rejects_a_label_below_its_pivot(self):
        # the pivot is 2 a^2 at row 0: 6 e0 of label 4 is 3 (2 a^2 e0), but
        # of label 2 it would need a^-1
        s = smith(SliceMatrix((4,), (0,), 0, {(0, 0): 2}))
        assert s.pivots == [(0, 0, 2)]
        assert s.image_coords({0: 6}, 4) == {0: 3}
        assert s.image_coords({0: 6}, 6) == {0: 3}
        with pytest.raises(InvariantError, match="not in the image"):
            s.image_coords({0: 6}, 2)


def unknot_table(n, window):
    lo, hi = window
    slices = {}
    for l in range(n):
        slices[(1, 0, -n + 1 + 2 * l)] = SliceModule((-1,), ())
    k = n + 1
    while k <= hi:
        slices[(1, 0, k)] = SliceModule((), ((1, -1),))
        k += 2
    return slices


class TestUnknot:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form(self, n):
        m = homology("", 1, n)
        assert m.window == (-n + 1, -n + 21)
        assert m.slices == unknot_table(n, m.window)
        assert m.tails == (Tail(1, 0, n + 1, ((1, -1, (1,)),)),)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_euler_is_the_unknot_skein_value(self, n):
        assert euler_characteristic(homology("", 1, n)) == unlink_value(1, n)

    def test_positive_stabilization_is_invisible(self):
        base = homology("", 1, 1)
        stab = homology("1", 2, 1)
        assert stab.slices == base.slices
        assert stab.tails == base.tails


class TestNegativeUnknot:
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form(self, n):
        m = homology("-1", 2, n)
        lo, hi = m.window
        expect = {}
        for l in range(n):
            expect[(1, 0, -n + 1 + 2 * l)] = SliceModule((-1,), ())
        k = 0
        while k <= hi:
            expect[(0, 1, k)] = SliceModule((), ((1, -2),))
            k += 2
        assert m.slices == expect
        assert m.tails == (Tail(0, 1, 0, ((1, -2, (1,)),)),)

    @pytest.mark.parametrize("n", [1, 2])
    def test_euler_matches_the_skein_route(self, n):
        m = homology("-1", 2, n)
        assert euler_characteristic(m) == evaluate(parse("-1", 2), n)


class TestInvariance:
    def test_reidemeister_two_cancels(self):
        # compare up to one top x = 14; the crossing pair shifts the least
        # generator degree from 0 down to -2, so the widths differ by two
        cancelled = homology("1 -1", 2, 1, window=16)
        unlink = homology("", 2, 1, window=14)
        assert (cancelled.window, unlink.window) == ((-2, 14), (0, 14))
        assert cancelled.slices == unlink.slices
        assert cancelled.tails == unlink.tails

class TestHopfLink:
    def test_torsion_multiplicity_grows_linearly(self):
        m = homology("1 1", 2, 1)
        assert m.slices[(0, -2, 8)] == SliceModule((), ((1, 0),) * 3)
        assert m.slices[(1, -2, 8)] == SliceModule((), ((1, 1),) * 3)
        assert m.slices[(0, 0, 0)] == SliceModule((0,), ())
        assert Tail(0, -2, 2, ((1, 0, (0, 1)),)) in m.tails
        assert Tail(1, -2, 2, ((1, 1, (0, 1)),)) in m.tails

    def test_euler_matches_the_skein_route(self):
        m = homology("1 1", 2, 1)
        assert euler_characteristic(m) == evaluate(parse("1 1", 2), 1)


class TestUnlinks:
    @pytest.mark.parametrize("m_comp", [2, 3])
    def test_euler_is_the_unlink_value(self, m_comp):
        mod = homology("", m_comp, 1)
        assert euler_characteristic(mod) == unlink_value(m_comp, 1)


class TestWindows:
    def test_narrow_window_refuses_to_decategorify(self):
        m = homology("", 1, 1, window=4)
        with pytest.raises(ValueError, match="widen the window"):
            euler_characteristic(m)

    def test_empty_window_refuses_to_decategorify(self):
        # (-4, -2) lies below all of this knot's homology at n = 2
        m = homology("-1", 2, 2, window=2)
        assert m.slices == {}
        with pytest.raises(ValueError, match="widen the window"):
            euler_characteristic(m)

    def test_non_complex_input_is_rejected(self):
        with pytest.raises(TypeError):
            two_stage_homology(42)


class TestAdaptiveWindow:
    @pytest.mark.parametrize("text,strands,n,width", [
        ("", 1, 1, 6), ("", 1, 2, 8),
        ("1", 2, 1, 6), ("1", 2, 2, 8),
        ("-1", 2, 1, 8), ("-1", 2, 2, 12),
        ("1 1", 2, 1, 8), ("1 1", 2, 2, 16),
        ("1 -1", 2, 1, 10), ("1 -1", 2, 2, 14),
        ("-1 -1", 2, 1, 10), ("-1 -1", 2, 2, 14),
    ])
    def test_least_confirmed_width(self, text, strands, n, width):
        C = build_complex(parse(text, strands), n)
        mod, chi = adaptive_homology(C)
        lo, hi = mod.window
        assert hi - lo == width
        assert mod == two_stage_homology(C, x_window=width)
        assert chi == euler_characteristic(mod) == evaluate(parse(text, strands), n)

    def test_an_accepted_width_needs_confirmation(self):
        # read an empty window as zero: width 2 then decategorifies, to a
        # wrong value that width 4 cannot confirm
        def lax_euler(m):
            return euler_characteristic(m) if m.slices else SkeinValue.zero(m.n)

        C = build_complex(parse("-1", 2), 2)
        mod, chi = adaptive_homology(C, euler=lax_euler)
        assert mod.window == (-4, 8)
        assert chi == evaluate(parse("-1", 2), 2)

    @pytest.mark.parametrize("differs", ["value", "slices", "tails"])
    def test_confirmation_compares_value_slices_and_tails(self, differs):
        # widths 2 and 4 disagree in one respect, widths 4 and 6 agree
        tower = SliceModule((), ((1, 0),))
        tail = (Tail(0, 0, 0, ((1, 0, (1,)),)),)

        def fake_homology(C, width, expansion):
            slices = {(0, 0, 0): tower, (0, 0, 2): tower}
            if differs == "slices" and width == 2:
                slices = {(0, 0, 0): tower}
            tails = () if differs == "tails" and width == 2 else tail
            return GradedQaModule(1, (0, width), slices, tails)

        def fake_euler(m):
            width = m.window[1]
            return SkeinValue.from_monomial(1, 1 + (differs == "value" and width == 2))

        C = build_complex(parse("", 1), 1)
        mod, _ = adaptive_homology(C, fake_homology, fake_euler)
        assert mod.window == (0, 4)

    def test_the_next_width_agrees(self):
        C = build_complex(parse("-1", 2), 2)
        mod, _ = adaptive_homology(C)
        wide = two_stage_homology(C, x_window=14)
        assert wide.tails == mod.tails
        assert {key: sm for key, sm in wide.slices.items() if key[2] <= mod.window[1]} \
            == mod.slices


# every width up to the least confirmed one plus two, except where fresh
# computations at every width would cost seconds (1 1 1, 1 2 1, 2 1 2)
GROWING_CORPUS = [
    ("1 1", 2, 1, 10), ("1 1", 2, 2, 18), ("-1", 2, 2, 14), ("1 -1", 2, 1, 12),
    ("1 1 1", 2, 1, 8), ("1 1 1", 2, 2, 8), ("1 2 1", 3, 1, 6), ("2 1 2", 3, 1, 8),
]


class TestGrowingExpansion:
    @pytest.mark.parametrize("text,strands,n,widest", GROWING_CORPUS)
    def test_one_expansion_grown_equals_fresh_ones(self, text, strands, n, widest):
        C = build_complex(parse(text, strands), n)
        expansion = _Expansion(C)
        for width in range(2, widest + 1, 2):
            grown = two_stage_homology(C, width, expansion)
            assert grown == two_stage_homology(C, width)

    @pytest.mark.parametrize("text,strands,n,widest", GROWING_CORPUS)
    def test_source_lists_and_the_image_cache_stay_exact(self, text, strands, n, widest):
        C = build_complex(parse(text, strands), n)
        knot = _Expansion(C)
        for width in range(2, widest + 1, 2):
            two_stage_homology(C, width, knot)
            for part in knot.parts.values():
                # each surviving target lists the surviving sources with a cell
                # into it, each once; an eliminated one has no cell into it
                into = [[] for _ in part.out]
                for s, row in enumerate(part.out):
                    for t in row or ():
                        into[t].append(s)
                for t, sources in enumerate(part.rows):
                    assert (sources is None) == (part.out[t] is None)
                    assert sorted(sources or ()) == into[t]
        # the one cache of the knot holds products of linear images
        for (forms, unit), cache in zip(knot.images, knot.image_cache):
            for m, image in cache.items():
                direct = {unit: 1}
                for form, power in zip(forms, m):
                    for _ in range(power):
                        acc = {}
                        for mono, c in direct.items():
                            for pos, lc in form:
                                key = mono[:pos] + (mono[pos] + 1,) + mono[pos + 1:]
                                acc[key] = acc.get(key, 0) + c * lc
                        direct = {key: c for key, c in acc.items() if c}
                assert dict(image) == direct

    def test_the_same_top_again_gives_the_same_module(self):
        C = build_complex(parse("1 1", 2), 2)
        expansion = _Expansion(C)
        first = two_stage_homology(C, 12, expansion)
        assert two_stage_homology(C, 12, expansion) == first

    def test_a_narrower_top_is_refused(self):
        C = build_complex(parse("1 1", 2), 1)
        expansion = _Expansion(C)
        two_stage_homology(C, 8, expansion)
        with pytest.raises(ValueError, match="cannot be narrowed"):
            two_stage_homology(C, 6, expansion)

    def test_an_expansion_serves_one_complex(self):
        C = build_complex(parse("1 1", 2), 1)
        with pytest.raises(ValueError, match="another complex"):
            two_stage_homology(C, 4, _Expansion(build_complex(parse("1 1", 2), 1)))

    @pytest.mark.parametrize(
        "text,strands,n",
        [
            pytest.param("1 -1", 2, 1, id="1 -1-2-1"),
            pytest.param("1 1 1", 2, 2, id="1 1 1-2-2"),
            pytest.param("1 1 1", 2, 1, id="1 1 1-2-1"),
        ],
    )
    def test_the_closed_form_counts_the_basis(self, text, strands, n):
        # every class, grown and fresh, creates exactly its own closed form,
        # each generator's monomials counted in its own vertex's marks, and
        # the vertices differ in how many marks they keep
        C = build_complex(parse(text, strands), n)
        grown = _Expansion(C)
        assert len(set(grown.marks)) > 1
        for top in (-4, 0, 3, 8):
            for cls in grown.classes:
                _reduce_complex(C, top, grown.part(cls))
                fresh = _ClassExpansion(_Expansion(C), cls)
                _reduce_complex(C, top, fresh)
                assert len(grown.part(cls).out) == len(fresh.out) \
                    == expansion_size(C, top, cls)


class TestClasses:
    @pytest.mark.parametrize("text,strands,n,widest", GROWING_CORPUS)
    def test_every_term_stays_in_its_class(self, text, strands, n, widest):
        knot = _Expansion(build_complex(parse(text, strands), n))
        if n == 1:
            assert len(knot.classes) == 2
        # an entry sends a monomial of degree d to an image of degree d
        terms = [
            (gs, gt, mt, jump)
            for gs, entries in enumerate(knot.entries)
            for gt, _, _, entry, jump in entries
            for _, mt in entry
        ]
        assert any(jump == 0 for *_, jump in terms) and any(jump for *_, jump in terms)
        for gs, gt, mt, jump in terms:
            eps_s, _, _, gx_s = knot.gens[gs]
            eps_t, _, _, gx_t = knot.gens[gt]
            # the class of an element repeats every n + 1 mark degrees
            for d in range(2 * (n + 1)):
                k = gx_s + 2 * d
                assert gx_t + 2 * (d + sum(mt)) == k + jump
                assert _class_of(n, eps_t, k + jump) == _class_of(n, eps_s, k)

    @pytest.mark.parametrize("text,strands,n,widest", GROWING_CORPUS)
    def test_the_class_closed_forms_sum_to_the_whole(self, text, strands, n, widest):
        C = build_complex(parse(text, strands), n)
        knot = _Expansion(C)
        empty = [(r, p) for r in range(n + 1) for p in (0, 1) if (r, p) not in knot.classes]
        for top in range(knot.x_min - 2, knot.x_min + widest + n + 2):
            whole = sum(
                comb(marks + (top - gx) // 2, marks)
                for (*_, gx), marks in zip(knot.gens, knot.marks)
                if gx <= top
            )
            by_class = [expansion_size(C, top, cls) for cls in knot.classes]
            assert sum(by_class) == expansion_size(C, top) == whole
            assert all(expansion_size(C, top, cls) == 0 for cls in empty)

    @pytest.mark.parametrize("text,strands,n,width", [("1 1 1", 2, 1, 6), ("1 1 1", 2, 2, 6)])
    def test_a_fixed_window_holds_one_class_at_a_time(
        self, text, strands, n, width, monkeypatch
    ):
        made = []
        init = _ClassExpansion.__init__

        def tracked(self, knot, cls):
            assert all(ref() is None for ref in made), "two class expansions held at once"
            init(self, knot, cls)
            made.append(weakref.ref(self))

        monkeypatch.setattr(_ClassExpansion, "__init__", tracked)
        C = build_complex(parse(text, strands), n)
        two_stage_homology(C, width)
        assert len(made) == len(_Expansion(C).classes) >= 2
        assert all(ref() is None for ref in made)


def mark_of(table) -> str:
    return next(v.name for v in table.variables if v.kind == KIND_MARK)


def off_slope(cube):
    # a transported entry times a mark, two x-degrees above its slope
    mats, key, p = next(
        (mats, key, p) for mats in cube.blocks.values() for key, p in mats[0].items()
    )
    mats[0][key] = p * BigradedPoly.variable(p.table, mark_of(p.table))


def two_a_exponents(cube):
    # a vertex entry plus a times itself, on its slope with two a-exponents
    d0 = cube.vertices[0][0].mf.d0
    key, p = next(iter(d0.items()))
    d0[key] = p + p * BigradedPoly.variable(p.table, "a")


def off_grading(cube):
    # a vertex entry times a: one a-exponent, on its x-slope, one too high
    d0 = cube.vertices[0][0].mf.d0
    key, p = next(iter(d0.items()))
    d0[key] = p * BigradedPoly.variable(p.table, "a")


def second_write(knot):
    knot.entries[:] = [entries * 2 for entries in knot.entries]


def extra_mark(knot):
    # every generator's elements counted in one mark more than its vertex has
    knot.marks[:] = [marks + 1 for marks in knot.marks]


def nonlinear_image(cube):
    for vertices in cube.vertices.values():
        for vertex in vertices:
            for name, image in vertex.sub.items():
                vertex.sub[name] = image * image


def unchanged(_):
    pass


class TestExpansionChecks:
    """Each invariant check of the expansion catches the fault it is there
    for: the homology command on a mutated excluded cube or expansion ends
    with the check's message and exit 4."""

    # fault -> (mutation of the excluded cube, mutation of the expansion, message)
    FAULTS = {
        "off-slope": (off_slope, unchanged, "expansion entry off the x-slope"),
        "two-a-exponents": (two_a_exponents, unchanged, "inhomogeneous expansion entry"),
        "off-a-grading": (off_grading, unchanged, "expansion entry off the a-grading"),
        "second-write": (unchanged, second_write, "second write to an expansion cell"),
        "extra-mark": (unchanged, extra_mark, "expansion size differs from its closed form"),
        "nonlinear-image": (nonlinear_image, unchanged, "an excluded mark's image is not linear"),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_the_fault_exits_four(self, fault, monkeypatch):
        cube_fault, expansion_fault, message = self.FAULTS[fault]
        init = _Expansion.__init__

        def mutated_init(self, C, *args):
            cube_fault(C.excluded)
            init(self, C, *args)
            expansion_fault(self)

        monkeypatch.setattr(_Expansion, "__init__", mutated_init)
        res = CliRunner().invoke(
            cli.main, ["homology", "--braid", "1 1", "--strands", "2", "--xwindow", "4"]
        )
        assert res.exit_code == 4
        assert len(res.stderr.splitlines()) == 1
        assert f"internal invariant violated: {message}" in res.stderr


class TestMemoryGuard:
    # tracemalloc peak of adaptive_homology on 1 1 1 at n = 2, in bytes, less
    # the reserve, as measured with coefficient-only cells and source lists
    PEAK = 8_282_414

    def test_the_trefoil_at_n_2_stays_near_its_measured_peak(self):
        C = build_complex(parse("1 1 1", 2), 2)
        tracemalloc.start()
        try:
            adaptive_homology(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the reserve is calloc'd and never touched, but tracemalloc counts it
        assert peak - qamod._RESERVE <= 1.2 * self.PEAK


class TestCollectorPause:
    @staticmethod
    def run_with_collector(enabled, call):
        """gc.isenabled() after call(), run with the collector on or off."""
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            try:
                call()
            finally:
                after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        return after

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_inside_and_restored_after_a_return(self, enabled, monkeypatch):
        seen = []
        real = qamod.smith

        def watched(M):
            seen.append(gc.isenabled())
            return real(M)

        monkeypatch.setattr(qamod, "smith", watched)
        C = build_complex(parse("1 1", 2), 1)
        assert self.run_with_collector(enabled, lambda: two_stage_homology(C, 4)) == enabled
        assert seen and not any(seen)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_after_a_refused_expansion(self, enabled, monkeypatch):
        monkeypatch.setattr(qamod, "EXPANSION_BUDGET", 1)
        C = build_complex(parse("1 1", 2), 1)

        def refused():
            with pytest.raises(BudgetError):
                two_stage_homology(C, 4)

        assert self.run_with_collector(enabled, refused) == enabled

    @pytest.mark.parametrize(
        "oracle", [mod_a_homology, a_one_dimensions], ids=lambda fn: fn.__name__
    )
    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_oracles_pause_too(self, enabled, oracle, monkeypatch):
        seen = []
        real = qamod._reduce_complex

        def watched(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(qamod, "_reduce_complex", watched)
        C = build_complex(parse("1 1", 2), 1)
        assert self.run_with_collector(enabled, lambda: oracle(C, 4)) == enabled
        assert len(seen) >= 2 and not any(seen)


class TestSliceModule:
    def test_q_dimension_counts_graded_pieces(self):
        sm = SliceModule((-1,), ((2, 3),))
        # Q[a]{-1} lives at every odd j >= -1, Q[a]/(a^2){3} only at j in {3, 5}
        assert [sm.q_dimension(j) for j in (-3, -1, 1, 3, 5, 7)] == [0, 1, 1, 2, 2, 1]

    def test_pretty_mentions_torsion(self):
        m = homology("", 1, 1)
        text = m.pretty()
        assert "Q[a]/(a" in text and "Q[a]{-1}" in text


class TestSpecialize:
    def test_a_one_keeps_only_free_summands(self):
        m = homology("", 1, 2)
        assert specialize(m, "a=1") == {(1, 0, -1): 1, (1, 0, 1): 1}

    def test_a_zero_counts_every_generator(self):
        m = homology("", 1, 1)
        at0 = specialize(m, "a=0")
        assert at0[(1, 0, 0)] == 1 and at0[(1, 0, 2)] == 1

    def test_unknown_specialization_is_rejected(self):
        with pytest.raises(ValueError, match="unknown specialization"):
            specialize(homology("", 1, 1), "a=2")


class TestModA:
    @pytest.mark.parametrize("n", [1, 2])
    def test_unknot_is_two_towers(self, n):
        sh = mod_a_homology(build_complex(parse("", 1), n))
        for (eps, i, j, k), d in sh.items():
            assert d == 1 and i == 0
            assert (eps, j) in ((0, 0), (1, -1))
        ks0 = sorted(k for (eps, _, _, k) in sh if eps == 0)
        assert ks0[0] == 0 and ks0[1] - ks0[0] == 2
        ks1 = sorted(k for (eps, _, _, k) in sh if eps == 1)
        assert ks1[0] == -n + 1

    def test_destabilization_ranks_alternate(self):
        # long exact sequence of the pair: per (eps, j, k) the euler
        # characteristics of H(U-), H(U){-2,0} and the killed homology
        # of U shifted the same way must cancel
        minus = homology("-1", 2, 1)
        full = homology("", 1, 1)
        killed = mod_a_homology(build_complex(parse("", 1), 1))
        for eps in (0, 1):
            for j in range(-8, 9):
                for k in range(-2, 17):
                    chi_m = sum(
                        (1 if i % 2 == 0 else -1) * minus.q_dimension(eps, i, j, k)
                        for i in range(-3, 4))
                    chi_u = sum(
                        (1 if i % 2 == 0 else -1) * full.q_dimension(eps, i, j + 2, k)
                        for i in range(-3, 4))
                    chi_s = sum(
                        (1 if i % 2 == 0 else -1) * killed.get((eps, i, j + 2, k), 0)
                        for i in range(-3, 4))
                    assert chi_m == chi_u - chi_s


# the a = 1 oracle's cases: three at the default window, and the 17 freely
# reduced words of length <= 2 on 3 strands at n = 1 and 2 at width 10
A_ONE_CASES = [("", 1, 2, None), ("-1", 2, 1, None), ("1 1", 2, 1, None)] + [
    (word, 3, n, 10) for n in (1, 2) for word in reduced_words(3, 2)
]


class TestModAChecks:
    def test_a_d1_cell_between_labels_is_an_a_power(self):
        # with a killed, a d1 cell from label 2 to label 0 would be a c a
        red = _Reduced(1, {(0, 0, 0): [2], (0, 1, 0): [0]}, {}, {(0, 0, 0): {(0, 0): 1}})
        with pytest.raises(InvariantError, match="a-power survives modulo a"):
            _mod_a_dimensions(red, 0, 0)

    def test_a_d1_cell_within_a_label_is_counted(self):
        red = _Reduced(1, {(0, 0, 0): [2, 0], (0, 1, 0): [0]}, {}, {(0, 0, 0): {(0, 1): 1}})
        assert _mod_a_dimensions(red, 0, 0) == {(0, 0, 2, 0): 1}


class TestAOne:
    @pytest.mark.parametrize(
        "text,strands,n,x_window",
        A_ONE_CASES,
        ids=["-".join(str(v) for v in case if v is not None) for case in A_ONE_CASES],
    )
    def test_matches_free_counts(self, text, strands, n, x_window):
        C = build_complex(parse(text, strands), n)
        module = two_stage_homology(C, x_window)
        free = {key: len(sl.free) for key, sl in module.slices.items() if sl.free}
        assert a_one_dimensions(C, x_window) == free

    def test_torsion_towers_vanish(self):
        # the negative unknot table is all torsion in the even sector
        dims = a_one_dimensions(build_complex(parse("-1", 2), 1))
        assert all(eps == 1 and i == 0 for eps, i, _ in dims)


def induced_squares(text: str, n: int, monkeypatch) -> dict[tuple, list[bool]]:
    """Run two_stage_homology at width 10 on a 3-strand word, checking that
    each phi(i + 1) phi(i) lands in the image of the first stage, where
    stage two takes its quotient; for each key (eps, i, x) with a next map,
    whether each composite column is nonzero.  The maps and presentations
    are those of the stage-one kernel bases, before any cancellation."""
    composites = {}
    real = qamod._column_homology

    def checked(presentations, phis):
        for key, step in phis.items():
            eps, i, k = key
            nxt = phis.get((eps, i + 1, k))
            if nxt is None:
                continue
            composites[key] = []
            for c in range(len(step.source)):
                unit = {c: (1, 0)}
                vec = apply_cells(lift_matrix(nxt), apply_cells(lift_matrix(step), unit))
                if vec:
                    pres = presentations[(eps, i + 2, k)]
                    coeffs = {r: coeff for r, (coeff, _) in vec.items()}
                    # raises unless in the image; phi keeps the label
                    smith(pres).image_coords(coeffs, step.source[c])
                composites[key].append(bool(vec))
        return real(presentations, phis)

    monkeypatch.setattr(qamod, "_column_homology", checked)
    two_stage_homology(build_complex(parse(text, 3), n), 10)
    return composites


class TestTransportedSquare:
    # d_chi'^2 = pi chi (iota pi - 1) chi iota is a vertex boundary, not zero
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("text", reduced_words(3, 2))
    def test_the_induced_map_squares_into_the_stage_one_image(self, text, n, monkeypatch):
        composites = induced_squares(text, n, monkeypatch)
        if len(parse(text, 3).letters) == 2:
            assert any(composites.values())

    def test_the_corpus_meets_a_nonzero_square(self, monkeypatch):
        # so the check above is not vacuous: here phi^2 is a nonzero boundary.
        # Whether a composite is zero does not depend on the kernel bases
        composites = induced_squares("1 1", 1, monkeypatch)
        assert len(composites) == 24
        assert {key for key, cols in composites.items() if any(cols)} == {(1, -2, 8), (1, -2, 10)}


class TestStage2:
    def test_an_incoming_map_into_other_labels_raises(self, monkeypatch):
        # phi of (eps, i - 1, k) targets the generators of (eps, i, k); one
        # aimed at other labels must not be dropped from the relations.  On
        # -1 -1 -1 the cancellation leaves a key with an incoming phi*
        real = qamod._stage2
        seen = []

        def mismatched(key, presentations, phis):
            eps, i, k = key
            prev = phis.get((eps, i - 1, k))
            if prev is not None:
                seen.append(key)
                wrong = SliceMatrix(prev.source, prev.target + (0,), 0, prev.entries)
                phis = {**phis, (eps, i - 1, k): wrong}
            return real(key, presentations, phis)

        monkeypatch.setattr(qamod, "_stage2", mismatched)
        with pytest.raises(InvariantError, match="incoming induced map"):
            homology("-1 -1 -1", 2, 1, 6)
        assert seen

    def test_the_corpus_meets_a_nonzero_correction(self, monkeypatch):
        # so the cancellation's corrections are exercised: cancelling an
        # isomorphism here changes an entry of phi* between two other summands
        real = qamod._correction
        made = []

        def spy(*args):
            got = real(*args)
            made.extend(got)
            return got

        monkeypatch.setattr(qamod, "_correction", spy)
        homology("1 1", 3, 1, 10)
        assert made

    def test_dropping_the_corrections_changes_a_pinned_module(self, monkeypatch):
        monkeypatch.setattr(qamod, "_correction", lambda *args: [])
        assert digest("homology", "1 1", 1) != pinned("homology", "1 1", 1)
