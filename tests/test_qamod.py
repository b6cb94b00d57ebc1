"""Two-stage homology: graded Smith reduction, decompositions, tails, euler."""

import gc
import heapq
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from math import comb
from operator import add

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from krlab import cli, qamod
from krlab.braid import parse
from krlab.cube import ChainComplexOfMF, build_complex
from krlab.poly import KIND_MARK, BigradedPoly, BudgetError, InvariantError, monomials
from krlab.qamod import (
    GradedQaModule,
    SliceMatrix,
    SmithResult,
    SliceModule,
    Tail,
    _ClassExpansion,
    _Expansion,
    _class_of,
    _cols_apply,
    _reduce_complex,
    _Reduced,
    adaptive_homology,
    euler_characteristic,
    expansion_size,
    smith,
    two_stage_homology,
)
from krlab.skein import SkeinValue, evaluate, unlink_value
from test_cube import reduced_words
from test_pinned_homology import digest, pinned


def homology(text, strands, n, window):
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


def image_coords(s, vec, label):
    """Coordinates of an image element of the given label in the image basis
    of the Smith reduction s, of that label: its row coordinates, checked to
    lie on pivot rows only, each of an exponent at least its pivot's."""
    pos = {r0: t for t, (r0, _, _) in enumerate(s.pivots)}
    out = {}
    for r, coeff in s.row_coords(vec).items():
        t = pos.get(r)
        if t is None or label - s.target[r] < 2 * s.pivots[t][2]:
            raise InvariantError("vector is not in the image")
        out[t] = coeff
    return out


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

    def test_an_empty_row_and_an_empty_column(self):
        # row 1 and column 1 hold no entry and never gain one
        m = SliceMatrix((0, 0), (0, 0), 0, {(0, 0): 1})
        s = smith(m)
        assert s.pivots == [(0, 0, 0)]
        assert s.kernel_basis() == [({1: 1}, 0)]
        self.check_transforms(m, s)

    def test_a_fill_cell_is_pushed_at_its_cost_when_made(self):
        # pivoting (0, 0) makes the cell (1, 1) while row 0 still counts in
        # column 1: pushed then, at cost 1, it loses the exponent-1 tie to
        # (1, 2) at cost 0; pushed after the step, at cost 0, it would win
        m = SliceMatrix((0, 2, 2), (0, 0), 0, {(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 2): 1})
        s = smith(m)
        assert s.pivots == reference_smith(m).pivots == [(0, 0, 0), (1, 2, 1)]
        self.check_transforms(m, s)

    def test_a_cell_whose_cost_grew_is_pushed_again(self):
        # pivoting (0, 0) makes (2, 1) at cost 0, then (2, 2), which raises
        # it to 1: pushed again, it ties (1, 1) at cost 1 and loses on the row
        m = SliceMatrix((2, 2, 2), (2, 0, 0), 0, {
            (0, 0): 2, (0, 1): -1, (0, 2): -2, (1, 1): 3, (1, 2): 3, (2, 0): -2,
        })
        s = smith(m)
        assert s.pivots == reference_smith(m).pivots == [(0, 0, 0), (1, 1, 1), (2, 2, 1)]
        self.check_transforms(m, s)

    def test_a_tie_falls_to_the_least_row_then_column(self):
        # both cells have exponent 0 and cost 0: the one in row 0 goes first,
        # though its column comes after the other's
        m = SliceMatrix((0, 0), (0, 0), 0, {(0, 1): 1, (1, 0): 1})
        s = smith(m)
        assert s.pivots == reference_smith(m).pivots == [(0, 1, 0), (1, 0, 0)]
        self.check_transforms(m, s)

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
            assert image_coords(s, vec, lab) == {t: 1}
        # every column of M is an image element, rebuilt from its coordinates
        # (lift asserts each coordinate's exponent is a natural number)
        basis = s.image_basis()
        labels = tuple(lab for _, lab in basis)
        image = SliceMatrix(labels, m.target, 0, {
            (r, t): coeff for t, (vec, _) in enumerate(basis) for r, coeff in vec.items()
        })
        for c, source in enumerate(m.source):
            vec = {r: coeff for (r, col), coeff in m.entries.items() if col == c}
            lab = source + m.shift
            coords = lift(image_coords(s, vec, lab), lab, labels)
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
            image_coords(s, {1: 1}, 0)

    def test_image_coords_rejects_a_negative_power(self):
        # e0 = a^-1 (a e0) would need a coefficient outside Q[a]
        s = smith(SliceMatrix((1,), (-1,), 0, {(0, 0): Fraction(1)}))
        assert image_coords(s, {0: 3}, 1) == {0: 3}
        with pytest.raises(InvariantError, match="not in the image"):
            image_coords(s, {0: 1}, -1)

    def test_image_coords_rejects_a_label_below_its_pivot(self):
        # the pivot is 2 a^2 at row 0: 6 e0 of label 4 is 3 (2 a^2 e0), but
        # of label 2 it would need a^-1
        s = smith(SliceMatrix((4,), (0,), 0, {(0, 0): 2}))
        assert s.pivots == [(0, 0, 2)]
        assert image_coords(s, {0: 6}, 4) == {0: 3}
        assert image_coords(s, {0: 6}, 6) == {0: 3}
        with pytest.raises(InvariantError, match="not in the image"):
            image_coords(s, {0: 6}, 2)


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
        m = homology("", 1, n, 20)
        assert m.window == (-n + 1, -n + 21)
        assert m.slices == unknot_table(n, m.window)
        assert m.tails == (Tail(1, 0, n + 1, ((1, -1, (1,)),)),)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_euler_is_the_unknot_skein_value(self, n):
        assert euler_characteristic(homology("", 1, n, 20)) == unlink_value(1, n)

    def test_positive_stabilization_is_invisible(self):
        base = homology("", 1, 1, 20)
        stab = homology("1", 2, 1, 20)
        assert stab.slices == base.slices
        assert stab.tails == base.tails


class TestNegativeUnknot:
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form(self, n):
        m = homology("-1", 2, n, 20)
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
        m = homology("-1", 2, n, 20)
        assert euler_characteristic(m) == evaluate(parse("-1", 2), n)


def rotation_classes(words: list[str]) -> list[list[str]]:
    """The words grouped by rotation, each group in the words' order."""
    groups: dict[tuple, list[str]] = {}
    for word in words:
        letters = word.split()
        key = min(tuple(letters[j:] + letters[:j]) for j in range(len(letters) or 1))
        groups.setdefault(key, []).append(word)
    return list(groups.values())


ROTATION_CLASSES = rotation_classes(reduced_words(3, 3))
SHARED_ROTATIONS = [words for words in ROTATION_CLASSES if len(words) > 1]


class TestInvariance:
    def test_reidemeister_two_cancels(self):
        # compare up to one top x = 14; the crossing pair shifts the least
        # generator degree from 0 down to -2, so the widths differ by two
        cancelled = homology("1 -1", 2, 1, window=16)
        unlink = homology("", 2, 1, window=14)
        assert (cancelled.window, unlink.window) == ((-2, 14), (0, 14))
        assert cancelled.slices == unlink.slices
        assert cancelled.tails == unlink.tails

    @pytest.mark.parametrize("words", SHARED_ROTATIONS, ids=" | ".join)
    def test_rotations_agree(self, words):
        # a rotation of the word conjugates the braid by one letter
        first, *rest = [homology(word, 3, 1, 8) for word in words]
        for word, mod in zip(words[1:], rest):
            assert mod.window == first.window, word
            assert (mod.slices, mod.tails) == (first.slices, first.tails), word

    # 3-strand words whose stabilizations by sigma_3 on 4 strands are checked
    STABILIZED = ["1", "1 1", "1 2", "-1 2", "1 -2", "-1 -2 -1"]

    @pytest.mark.parametrize("word", STABILIZED)
    def test_positive_stabilization_agrees(self, word):
        base = homology(word, 3, 1, 10)
        stab = homology(word + " 3", 4, 1, 10)
        assert stab.window == base.window
        assert (stab.slices, stab.tails) == (base.slices, base.tails)

    @pytest.mark.parametrize("word", STABILIZED)
    def test_negative_stabilization_changes_the_slices(self, word):
        # sigma_3^-1 lowers the least generator degree by two; the slices
        # differ even at the x-degrees both windows cover
        base = homology(word, 3, 1, 10)
        neg = homology(word + " -3", 4, 1, 10)
        lo, hi = base.window[0], neg.window[1]

        def shared(mod):
            return {key: sl for key, sl in mod.slices.items() if lo <= key[2] <= hi}

        assert shared(neg) != shared(base)

    @pytest.mark.parametrize("left, right", [("1 2 1", "2 1 2"), ("-1 -2 -1", "-2 -1 -2")])
    def test_braid_relation_agrees(self, left, right):
        assert homology(left, 3, 1, 10) == homology(right, 3, 1, 10)

    def test_the_rotation_corpus_is_whole(self):
        # every reduced word of length <= 3 on 3 strands is grouped, and 32
        # of the 53 share a rotation class with another
        assert sum(len(words) for words in ROTATION_CLASSES) == 53
        assert sum(len(words) for words in SHARED_ROTATIONS) == 32


class TestHopfLink:
    def test_torsion_multiplicity_grows_linearly(self):
        m = homology("1 1", 2, 1, 20)
        assert m.slices[(0, -2, 8)] == SliceModule((), ((1, 0),) * 3)
        assert m.slices[(1, -2, 8)] == SliceModule((), ((1, 1),) * 3)
        assert m.slices[(0, 0, 0)] == SliceModule((0,), ())
        assert Tail(0, -2, 2, ((1, 0, (0, 1)),)) in m.tails
        assert Tail(1, -2, 2, ((1, 1, (0, 1)),)) in m.tails

    def test_euler_matches_the_skein_route(self):
        m = homology("1 1", 2, 1, 20)
        assert euler_characteristic(m) == evaluate(parse("1 1", 2), 1)


class TestUnlinks:
    @pytest.mark.parametrize("m_comp", [2, 3])
    def test_euler_is_the_unlink_value(self, m_comp):
        mod = homology("", m_comp, 1, 20)
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
            two_stage_homology(42, 20)


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


def grow(text: str, strands: int, n: int, widest: int) -> _Expansion:
    """One expansion grown width by width, 2 to widest, through both stages."""
    C = build_complex(parse(text, strands), n)
    expansion = _Expansion(C)
    for width in range(2, widest + 1, 2):
        two_stage_homology(C, width, expansion)
    return expansion


class TestEachKeyOnce:
    """A grown expansion reduces each key once, at the first width whose hi
    reaches it, and carries stage one's images at the top forward."""

    @pytest.mark.parametrize("text,strands,n", [
        ("1 1", 2, 1), ("1 1", 2, 2), ("1 -1", 2, 1), ("1 1 1", 2, 2), ("2 1 2", 3, 1),
    ])
    def test_a_search_reduces_each_key_and_column_once(self, text, strands, n, monkeypatch):
        real_class, real_column, real_smith = (
            qamod._class_homology, qamod._column_homology, qamod.smith
        )
        current, keys, columns, stage_one = [], set(), [], []

        def class_homology(part, red, hi):
            current[:] = [part.cls]
            keys.update((part.cls, key) for key in red.slices if key[2] <= hi)
            return real_class(part, red, hi)

        def column_homology(presentations, phis):
            (column,) = {(eps, k) for eps, _, k in presentations}
            columns.append((current[0], column))
            return real_column(presentations, phis)

        def counted_smith(M):
            if M.shift == 1:  # stage one reduces d0, of a-degree 1
                stage_one.append(current[0])
            return real_smith(M)

        monkeypatch.setattr(qamod, "_class_homology", class_homology)
        monkeypatch.setattr(qamod, "_column_homology", column_homology)
        monkeypatch.setattr(qamod, "smith", counted_smith)
        mod, _ = adaptive_homology(build_complex(parse(text, strands), n))
        assert mod.window[1] - mod.window[0] >= 6  # three widths or more
        assert Counter(stage_one) == Counter(cls for cls, _ in keys)
        assert sorted(columns) == sorted({(cls, (eps, k)) for cls, (eps, _, k) in keys})

    def test_growth_reindexes_kept_images(self, monkeypatch):
        # the target rows of a kept image lose their elements eliminated
        # since, and gain none; here 8 images lose 108 rows in all
        real = qamod._class_homology
        lost = []

        def class_homology(part, red, hi):
            for (eps, i, k), (sm, rows) in part.kernels.items():
                now = red.idents.get(((eps + 1) % 2, i, k + red.n + 1))
                if now is not None and now != rows:
                    assert set(now) < set(rows)
                    gone = set(rows) - set(now)
                    assert all(part.out[ident] is None for ident in gone)
                    lost.append(len(gone))
            return real(part, red, hi)

        monkeypatch.setattr(qamod, "_class_homology", class_homology)
        grow("1 1", 2, 1, 10)
        assert (len(lost), sum(lost)) == (8, 108)

    def test_images_left_on_eliminated_rows_miss_the_kernel(self, monkeypatch):
        # with every kept target taken as unchanged, the images keep their old
        # rows, and the residual check of the kernel coordinates refuses them
        class Unchanged(list):
            def __eq__(self, other):
                return True

            def __ne__(self, other):
                return False

        real = _ClassExpansion.reduced

        def reduced(self):
            red = real(self)
            red.idents = {key: Unchanged(ids) for key, ids in red.idents.items()}
            return red

        monkeypatch.setattr(_ClassExpansion, "reduced", reduced)
        with pytest.raises(InvariantError, match="vector is not in the kernel"):
            grow("1 1", 2, 1, 10)

    @pytest.mark.parametrize("jump,message", [
        (2, "correction of homological jump two or more"), (-1, "backwards correction"),
    ])
    def test_the_checks_see_the_top_slab(self, jump, message):
        # a cell out of the top slab, whose components no stage reads, is
        # still checked
        expansion = grow("1 1", 2, 1, 6)
        n = expansion.n
        for part in expansion.parts.values():
            alive = [
                s for s, row in enumerate(part.out)
                if row is not None and part.info_k[s] > part.final
            ]
            slab = [s for s in alive if part.info_k[s] > part.top - n - 1]
            pair = next(
                ((s, t) for s in slab for t in alive if part.info_i[t] == part.info_i[s] + jump),
                None,
            )
            if pair is not None:
                break
        s, t = pair
        part.reduced()  # clean before the injection
        part.out[s][t] = 1
        part.rows[t].append(s)
        with pytest.raises(InvariantError, match=message):
            part.reduced()


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


class TestNumbering:
    """A generator's elements at mark degree d are one run of ids, in the
    order of poly.monomials, and every raw entry is written through that
    numbering.  Both are checked against lists and lookups built here."""

    @pytest.mark.parametrize(
        "text,strands,n,tops",
        [("1 1 1", 2, 2, (0, 3, 7, 12, 17)), ("1 -2 1 -2", 3, 1, (-1, 2, 5, 8))],
    )
    def test_raw_cells_land_where_the_monomials_say(self, text, strands, n, tops, monkeypatch):
        # no unit is eliminated, so every raw cell stays where it was written
        monkeypatch.setattr(qamod, "_cancel", lambda *_: None)
        knot = _Expansion(build_complex(parse(text, strands), n))
        for top in tops:
            for cls in knot.classes:
                part = knot.part(cls)
                part.grow(top)
                info = (part.info_i, part.info_k, part.info_ja)
                where = {}  # (generator, monomial) -> id
                for g, ((eps, i, ga, gx), marks, run) in enumerate(
                    zip(knot.gens, knot.marks, part.runs)
                ):
                    degrees = [
                        d for d in range((top - gx) // 2 + 1)
                        if _class_of(n, eps, gx + 2 * d) == cls
                    ]
                    assert sorted(run) == degrees
                    for d in degrees:
                        for pos, m in enumerate(monomials((1,) * marks, d)):
                            ident = run[d] + pos
                            assert [col[ident] for col in info] == [i, gx + 2 * d, ga]
                            where[(g, m)] = ident
                assert sorted(where.values()) == list(range(len(part.out))) == part.ids
                cells = [{} for _ in part.out]
                for (g, m), s in where.items():
                    for gt, img, _, terms, _ in knot.entries[g]:
                        for mw, cw in [(m, 1)] if img is None else knot.image(img, m):
                            for coeff, mt in terms:
                                t = where.get((gt, tuple(map(add, mw, mt))))
                                if t is not None:  # None above the top
                                    cells[s][t] = cells[s].get(t, 0) + cw * coeff
                assert part.out == [{t: c for t, c in row.items() if c} for row in cells]
                into = [[] for _ in part.out]
                for s, row in enumerate(part.out):
                    for t in row:
                        into[t].append(s)
                assert [sorted(sources) for sources in part.rows] == into

    @pytest.mark.parametrize("marks", [1, 3, 5])
    def test_shifted_looks_m_plus_mt_up(self, marks):
        knot = _Expansion(build_complex(parse("1 1", 2), 1))
        for d in range(6):
            ms = monomials((1,) * marks, d)
            for j in range(4):
                for mt in monomials((1,) * marks, j):
                    within = monomials((1,) * marks, d + j)
                    expected = [within.index(tuple(map(add, m, mt))) for m in ms]
                    assert knot.shifted(marks, d, mt) == expected
            assert [knot.positions[marks][m] for m in ms] == list(range(len(ms)))


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


def second_vertex_write(knot):
    # each vertex entry twice: the check of the writes by position alone
    knot.entries[:] = [entries + [e for e in entries if e[4]] for entries in knot.entries]


def second_image_write(knot):
    # each chi' entry through an images id twice: the check of the summed writes alone
    knot.entries[:] = [
        entries + [e for e in entries if e[1] is not None] for entries in knot.entries
    ]


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
        "second-vertex-write": (
            unchanged, second_vertex_write, "second write to an expansion cell"
        ),
        "second-image-write": (unchanged, second_image_write, "second write to an expansion cell"),
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


# ---------------------------------------------------------------------------
# The a = 0 and a = 1 oracles: the two-stage homology with a set to a number,
# each slice a Q-vector space, from ranks alone.


def q_dimension(module: GradedQaModule, eps: int, i: int, j: int, k: int) -> int:
    """Dimension over Q of the a-degree-j piece of the slice (eps, i, k)."""
    sm = module.slices.get((eps, i, k))
    if sm is None:
        return 0
    dim = sum(1 for s in sm.free if s <= j and (j - s) % 2 == 0)
    dim += sum(1 for l, t in sm.torsion if t <= j < t + 2 * l and (j - t) % 2 == 0)
    return dim


def specialize(M: GradedQaModule, at: str) -> dict:
    """Per-slice generator counts after setting a to 1 or to 0.

    At a = 1 torsion dies and each free summand contributes one dimension;
    at a = 0 every summand contributes its generator.
    """
    if at not in ("a=1", "a=0"):
        raise ValueError(f"unknown specialization {at!r}")
    out = {}
    for key, sm in M.slices.items():
        count = len(sm.free)
        if at == "a=0":
            count += len(sm.torsion)
        if count:
            out[key] = count
    return out


def mod_a_homology(C: ChainComplexOfMF, x_window: int) -> dict:
    """Two-stage homology of the complex with a set to zero.

    Killing a makes every slice a finite Q-vector space graded additionally
    by the generator a-degree, and the first-stage differential reduces to
    zero after the unit eliminations, so only the ranks of the induced even
    differential remain.  Returns (eps, i, j, k) -> dimension.

    The expansion is entered in full, every term checked, and then loses its
    entries of positive a-exponent: each entry has one a-exponent, so that
    drops exactly the terms that vanish at a = 0.
    """
    if not isinstance(C, ChainComplexOfMF):
        raise TypeError("mod_a_homology expects a complex of factorizations")
    n = C.n
    lo, hi, _ = qamod._resolve_window(C, x_window, n)
    knot = _Expansion(C)
    knot.entries = [[e for e in out if not e[2]] for out in knot.entries]
    return qamod._by_class(C, hi + n + 1, lambda _, red: _mod_a_dimensions(red, lo, hi), knot)


def _mod_a_dimensions(red: _Reduced, lo: int, hi: int) -> dict:
    """mod_a_homology of one reduced class of the complex with a killed."""
    for key, cells in red.d0.items():
        if cells:
            raise InvariantError("first-stage differential survives modulo a")

    # count each slice's generators by a-degree
    bases: dict[tuple[int, int, int, int], int] = {}
    for (eps, i, k), labels in red.slices.items():
        for ja, count in Counter(labels).items():
            bases[(eps, i, ja, k)] = count

    # with a killed, d1 keeps the a-degree, so its Smith reduction never
    # mixes the a-degree blocks: each block's rank is the number of pivots
    # whose column carries its label
    ranks: Counter = Counter()
    for key, cells in red.d1.items():
        eps, i, k = key
        labels = red.slices[key]
        tgt_labels = red.slices[(eps, i + 1, k)]
        if any(tgt_labels[r] != labels[c] for r, c in cells):
            raise InvariantError("a-power survives modulo a")
        for _, c, _ in smith(SliceMatrix(tuple(labels), tuple(tgt_labels), 0, cells)).pivots:
            ranks[(eps, i, labels[c], k)] += 1

    out: dict[tuple[int, int, int, int], int] = {}
    for (eps, i, ja, k), count in bases.items():
        if not (lo <= k <= hi):
            continue
        dim = count - ranks.get((eps, i, ja, k), 0) - ranks.get((eps, i - 1, ja, k), 0)
        if dim < 0:
            raise InvariantError("negative slice dimension")
        if dim:
            out[(eps, i, ja, k)] = dim
    return out


def a_one_dimensions(C: ChainComplexOfMF, x_window: int) -> dict:
    """Per-slice dimensions of the two-stage homology with a set to one.

    Setting a to one keeps the (eps, i, x) slicing (a has x-degree zero) but
    forgets the module structure, so each slice reduces to plain rank
    arithmetic over Q: the kernel of the outgoing first-stage differential
    modulo the incoming image, then the map the degree-one differential
    induces on those subquotients.  Free-summand counts of the graded answer
    must match these dimensions, since torsion dies at a = 1.
    """
    if not isinstance(C, ChainComplexOfMF):
        raise TypeError("a_one_dimensions expects a complex of factorizations")
    n = C.n
    lo, hi, _ = qamod._resolve_window(C, x_window, n)
    return qamod._by_class(C, hi + n + 1, lambda _, red: _a_one_dimensions(red, lo, hi))


def _hstack(a: SliceMatrix, b: SliceMatrix) -> SliceMatrix:
    if a.target != b.target or a.shift != b.shift:
        raise ValueError("hstack needs matching targets and shifts")
    entries = dict(a.entries)
    off = len(a.source)
    for (r, c), coeff in b.entries.items():
        entries[(r, c + off)] = coeff
    return SliceMatrix(a.source + b.source, a.target, a.shift, entries)


def _a_one_dimensions(red: _Reduced, lo: int, hi: int) -> dict:
    """a_one_dimensions of one reduced class, each map a rational matrix: its
    cells at a = 1, as a SliceMatrix of a-degree 0."""
    n, slices = red.n, red.slices

    def at_one(cells: dict, tgt, src) -> SliceMatrix:
        rows, cols = len(slices.get(tgt, ())), len(slices.get(src, ()))
        return SliceMatrix((0,) * cols, (0,) * rows, 0, cells)

    def d0_into(key) -> SliceMatrix:
        eps, i, k = key
        src = ((eps + 1) % 2, i, k - n - 1)
        return at_one(red.d0.get(src, {}), key, src)

    kernels = {}
    rank_ib = {}
    for key in slices:
        eps, i, k = key
        if k > hi:
            continue
        out_map = at_one(red.d0.get(key, {}), ((eps + 1) % 2, i, k + n + 1), key)
        kernels[key] = smith(out_map).kernel_basis()
        rank_ib[key] = len(smith(d0_into(key)).pivots)

    phibar = {}
    for key, kb in kernels.items():
        eps, i, k = key
        nxt = (eps, i + 1, k)
        d1: dict[int, dict] = {}
        for (r, c), coeff in red.d1.get(key, {}).items():
            d1.setdefault(c, {})[r] = coeff
        moved = [w for w in (_cols_apply(d1, vec) for vec, _ in kb) if w]
        if moved:
            cells = {(r, c): coeff for c, w in enumerate(moved) for r, coeff in w.items()}
            pushed = SliceMatrix((0,) * len(moved), (0,) * len(slices[nxt]), 0, cells)
            phibar[key] = len(smith(_hstack(pushed, d0_into(nxt))).pivots) - rank_ib.get(nxt, 0)

    out: dict[tuple[int, int, int], int] = {}
    for key, kb in kernels.items():
        eps, i, k = key
        if not (lo <= k <= hi):
            continue
        h1 = len(kb) - rank_ib.get(key, 0)
        dim = h1 - phibar.get(key, 0) - phibar.get((eps, i - 1, k), 0)
        if dim < 0:
            raise InvariantError("negative slice dimension")
        if dim:
            out[key] = dim
    return out


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
        m = GradedQaModule(1, (0, 0), {(0, 0, 0): SliceModule((-1,), ((2, 3),))}, ())
        # Q[a]{-1} lives at every odd j >= -1, Q[a]/(a^2){3} only at j in {3, 5}
        assert [q_dimension(m, 0, 0, j, 0) for j in (-3, -1, 1, 3, 5, 7)] == [0, 1, 1, 2, 2, 1]

    def test_pretty_mentions_torsion(self):
        m = homology("", 1, 1, 20)
        text = m.pretty()
        assert "Q[a]/(a" in text and "Q[a]{-1}" in text


class TestSpecialize:
    def test_a_one_keeps_only_free_summands(self):
        m = homology("", 1, 2, 20)
        assert specialize(m, "a=1") == {(1, 0, -1): 1, (1, 0, 1): 1}

    def test_a_zero_counts_every_generator(self):
        m = homology("", 1, 1, 20)
        at0 = specialize(m, "a=0")
        assert at0[(1, 0, 0)] == 1 and at0[(1, 0, 2)] == 1

    def test_unknown_specialization_is_rejected(self):
        with pytest.raises(ValueError, match="unknown specialization"):
            specialize(homology("", 1, 1, 20), "a=2")


class TestModA:
    @pytest.mark.parametrize("n", [1, 2])
    def test_unknot_is_two_towers(self, n):
        sh = mod_a_homology(build_complex(parse("", 1), n), 20)
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
        minus = homology("-1", 2, 1, 20)
        full = homology("", 1, 1, 20)
        killed = mod_a_homology(build_complex(parse("", 1), 1), 20)
        for eps in (0, 1):
            for j in range(-8, 9):
                for k in range(-2, 17):
                    chi_m = sum(
                        (1 if i % 2 == 0 else -1) * q_dimension(minus, eps, i, j, k)
                        for i in range(-3, 4))
                    chi_u = sum(
                        (1 if i % 2 == 0 else -1) * q_dimension(full, eps, i, j + 2, k)
                        for i in range(-3, 4))
                    chi_s = sum(
                        (1 if i % 2 == 0 else -1) * killed.get((eps, i, j + 2, k), 0)
                        for i in range(-3, 4))
                    assert chi_m == chi_u - chi_s


# the a = 1 oracle's cases: three at width 20, the CLI's default, whose ids
# leave it out, and the 17 freely reduced words of length <= 2 on 3 strands
# at n = 1 and 2 at width 10
A_ONE_CASES = [("", 1, 2, 20), ("-1", 2, 1, 20), ("1 1", 2, 1, 20)] + [
    (word, 3, n, 10) for n in (1, 2) for word in reduced_words(3, 2)
]


class TestModAChecks:
    def test_a_d1_cell_between_labels_is_an_a_power(self):
        # with a killed, a d1 cell from label 2 to label 0 would be a c a
        red = _Reduced(1, {(0, 0, 0): [2], (0, 1, 0): [0]}, {}, {(0, 0, 0): {(0, 0): 1}}, {})
        with pytest.raises(InvariantError, match="a-power survives modulo a"):
            _mod_a_dimensions(red, 0, 0)

    def test_a_d1_cell_within_a_label_is_counted(self):
        red = _Reduced(1, {(0, 0, 0): [2, 0], (0, 1, 0): [0]}, {}, {(0, 0, 0): {(0, 1): 1}}, {})
        assert _mod_a_dimensions(red, 0, 0) == {(0, 0, 2, 0): 1}


class TestAOne:
    @pytest.mark.parametrize(
        "text,strands,n,x_window",
        A_ONE_CASES,
        ids=["-".join(map(str, case[: 3 if case[3] == 20 else 4])) for case in A_ONE_CASES],
    )
    def test_matches_free_counts(self, text, strands, n, x_window):
        C = build_complex(parse(text, strands), n)
        module = two_stage_homology(C, x_window)
        free = {key: len(sl.free) for key, sl in module.slices.items() if sl.free}
        assert a_one_dimensions(C, x_window) == free

    def test_torsion_towers_vanish(self):
        # the negative unknot table is all torsion in the even sector
        dims = a_one_dimensions(build_complex(parse("-1", 2), 1), 20)
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
        def cells(key):
            """phis[key] as monomial cells, each exponent read from the kernel
            labels (lift asserts it is a natural number)."""
            eps, i, k = key
            if not phis[key]:
                return {}
            source, target = presentations[key].target, presentations[(eps, i + 1, k)].target
            return {
                (r, c): mono
                for c, col in phis[key].items()
                for r, mono in lift(col, source[c], target).items()
            }

        for key in phis:
            eps, i, k = key
            if (eps, i + 1, k) not in phis:
                continue
            step, after = cells(key), cells((eps, i + 1, k))
            source = presentations[key].target
            composites[key] = []
            for c in range(len(source)):
                vec = apply_cells(after, apply_cells(step, {c: (1, 0)}))
                if vec:
                    pres = presentations[(eps, i + 2, k)]
                    coeffs = {r: coeff for r, (coeff, _) in vec.items()}
                    # raises unless in the image; phi keeps the label
                    image_coords(smith(pres), coeffs, source[c])
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
    # cases whose cancellation leaves phi* for _stage2, at the adaptive window
    REACHES = [("-1 -1", 3, 1), ("-1 -2", 3, 1), ("1 1 1", 2, 2), ("-1 -1 -1", 2, 1)]

    def test_a_map_between_torsion_summands(self):
        """Q[a]/(a^2){L} -> Q[a]/(a^2){L - 2}, e0 -> a e1.  At i = 0 the cycles
        are the x with a x in (a^2), so x in (a): Q[a] a e0, of label L + 2,
        and the relation a^2 e0 = a (a e0) leaves Q[a]/(a){L + 2}.  At i = 1
        every x is a cycle, Q[a] e1 of label L - 2, and the boundary a e1 and
        the relation a^2 e1 leave Q[a]/(a){L - 2}."""
        L = 3
        labels, orders, out, ins = [L, L - 2], [2, 2], [{1: 1}, {}], [[], [0]]
        assert qamod._stage2([0], [1], labels, orders, out, ins) == SliceModule((), ((1, L + 2),))
        assert qamod._stage2([1], [], labels, orders, out, ins) == SliceModule((), ((1, L - 2),))

    def test_a_map_between_free_summands(self):
        """Q[a]{0} -> Q[a]{-2}, e0 -> a e1.  At i = 0 multiplication by a is
        injective, so there are no cycles.  At i = 1 the cycles are Q[a] e1,
        of label -2, and the boundary a e1 leaves Q[a]/(a){-2}."""
        labels, orders, out, ins = [0, -2], [None, None], [{1: 1}, {}], [[], [0]]
        assert qamod._stage2([0], [1], labels, orders, out, ins) is None
        assert qamod._stage2([1], [], labels, orders, out, ins) == SliceModule((), ((1, -2),))

    def test_two_smith_reductions_per_call(self, monkeypatch):
        # one for the cycles, one for the boundaries in their coordinates
        real_stage2, real_smith = qamod._stage2, qamod.smith
        counts, inside = [], []

        def stage2(*args):
            inside.append(0)
            got = real_stage2(*args)
            counts.append(inside.pop())
            return got

        def counted(M):
            if inside:
                inside[-1] += 1
            return real_smith(M)

        monkeypatch.setattr(qamod, "_stage2", stage2)
        monkeypatch.setattr(qamod, "smith", counted)
        for text, strands, n in self.REACHES:
            before = len(counts)
            adaptive_homology(build_complex(parse(text, strands), n))
            assert len(counts) > before
        assert set(counts) == {2}

    @pytest.mark.parametrize("shift", [1, 2])
    def test_phi_breaking_the_grading_raises(self, shift, monkeypatch):
        # phi* keeps the a-degree, so each entry s -> t has the exponent
        # (labels[s] - labels[t]) / 2, a natural number.  Raising every label
        # at odd i by 1 makes each exponent in or out a half; by 2, it takes
        # an entry of exponent 0 into odd i to -1
        real = qamod._column_homology

        def shifted(presentations, phis):
            moved = {
                key: SliceMatrix(
                    tuple(lab + shift for lab in pres.source),
                    tuple(lab + shift for lab in pres.target),
                    0,
                    pres.entries,
                ) if key[1] % 2 else pres
                for key, pres in presentations.items()
            }
            return real(moved, phis)

        monkeypatch.setattr(qamod, "_column_homology", shifted)
        with pytest.raises(InvariantError, match=r"phi\* breaks the grading"):
            homology("1 1", 2, 1, 6)

    @pytest.mark.parametrize("target", ["free", "higher order"])
    def test_a_boundary_leaving_the_relations_raises(self, target, monkeypatch):
        # every source of phi* left becomes Q[a]/(a), so its relation a e_s
        # is a boundary whose image, a phi(e_s), must lie in the next key's
        # relations; with the targets free, or of an order above that image's
        # exponent, it does not
        real = qamod._stage2
        seen = []

        def mutated(nodes, nxt, labels, orders, out, ins):
            orders = list(orders)
            for s in nodes:
                if out[s]:
                    seen.append(s)
                    orders[s] = 1
            for t in nxt:
                orders[t] = None if target == "free" else 9
            return real(nodes, nxt, labels, orders, out, ins)

        monkeypatch.setattr(qamod, "_stage2", mutated)
        with pytest.raises(InvariantError, match="leaves the next key's relations"):
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


class TestCancel:
    def test_a_hand_built_graph(self):
        # 0 -> 1 is cancelled first: its zig-zag through 2 -> 1 cancels the
        # cell 2 -> 3 to zero and makes the candidate 2 -> 4, which is then
        # cancelled, with a non-unit pivot, against 5 -> 4
        out = [{1: 1, 3: 1, 4: 2}, {}, {1: 1, 3: 1, 6: 1}, {}, {}, {4: 3}, {}]
        ins = [[], [0, 2], [], [0, 2], [0, 5], [], [2]]
        made = []

        def targets(g, h):
            return lambda u: [(v, c) for v, c in out[g].items() if v != h]

        def candidate(s, t):
            made.append((s, t))
            return 0 if t == 4 else None

        qamod._cancel(out, ins, [(0, 0, 1)], targets, candidate)
        assert made == [(2, 4), (5, 6)]
        assert out == [None, None, None, {}, None, {6: Fraction(3, 2)}, {}]
        # each survivor lists the survivors with a cell into it, each once
        into = [[] for _ in out]
        for s, row in enumerate(out):
            for t in row or ():
                into[t].append(s)
        assert [sources and sorted(sources) for sources in ins] == [
            into[t] if row is not None else None for t, row in enumerate(out)
        ]
