"""Crossing resolution cubes over closed braids."""

import pytest
from hypothesis import given, settings, strategies as st

from krlab.braid import BraidWord, parse
from krlab.cube import (
    _crossing_rows,
    build_complex,
    check_even_morphism,
    crossing_model,
)
from krlab.mf import KoszulSpec, MatrixFactorization, gdim, koszul
from krlab.poly import KIND_A, KIND_MARK, BigradedPoly, InvariantError, VariableTable


def marks_table(*names: str) -> VariableTable:
    return VariableTable.build([("a", KIND_A)] + [(nm, KIND_MARK) for nm in names])


def var(table: VariableTable, name: str) -> BigradedPoly:
    return BigradedPoly.variable(table, name)


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


class TestCrossingModel:
    def test_rows_for_n_one(self):
        # U1 = X1 + Y1 and U2 = -2 when the potential exponent is 2
        model = crossing_model("positive", ("p", "q", "r", "t"), 1)
        table = model.table
        a, p, q, r, t = (var(table, nm) for nm in "apqrt")
        s = t - p
        assert model.s == s
        assert model.f_row == (a * (q + t + r - p), p + q - t - r)
        assert model.g0_row == (-2 * a * s, p - r)
        assert model.g1_row == (-2 * a, s * (p - r))

    @pytest.mark.parametrize("kind", ["positive", "negative"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_builds_and_verifies(self, kind, n):
        # composites, degrees and commutation are asserted inside
        model = crossing_model(kind, ("p", "q", "r", "t"), n)
        assert model.gamma0.rank() == 4
        assert model.gamma1.rank() == 4

    def test_gamma1_carries_internal_shift(self):
        model = crossing_model("positive", ("p", "q", "r", "t"), 2)
        raw = koszul(KoszulSpec(model.table, 2, (model.f_row, model.g1_row)))
        assert model.gamma1.basis0 == [(a, x - 1) for a, x in raw.basis0]

    def test_degenerate_marks_rejected(self):
        with pytest.raises(ValueError):
            crossing_model("positive", ("p", "q", "p", "t"), 2)
        with pytest.raises(ValueError):
            crossing_model("positive", ("p", "q", "r"), 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            crossing_model("sideways", ("p", "q", "r", "t"), 2)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError):
            crossing_model("positive", ("p", "q", "r", "t"), 0)

    def test_morphism_checker_rejects_wrong_degree(self):
        model = crossing_model("positive", ("p", "q", "r", "t"), 2)
        with pytest.raises(AssertionError):
            check_even_morphism(model.gamma1, model.gamma0, model.chi1, 0, 3)

    def test_morphism_checker_rejects_swapped_pattern(self):
        model = crossing_model("positive", ("p", "q", "r", "t"), 2)
        with pytest.raises(AssertionError):
            check_even_morphism(model.gamma1, model.gamma0, model.chi0, 0, 1)


class TestUnknotComplex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_strand_closure(self, n):
        C = build_complex(parse("", 1), n)
        assert sorted(C.summands) == [0]
        term = C.terms[0]
        table = C.table
        a, x = var(table, "a"), var(table, "x0")
        assert term.basis0 == [(0, 0)]
        assert term.d0 == {(0, 0): (n + 1) * a * x**n}
        assert term.d1 == {}
        assert C.blocks == {}

    def test_two_strand_closure_is_two_circles(self):
        C = build_complex(parse("", 2), 1)
        assert sorted(C.summands) == [0]
        assert C.terms[0].rank() == 4
        assert len(C.summands[0]) == 1


class TestSingleCrossing:
    @pytest.mark.parametrize("n", [1, 2])
    def test_positive_terms(self, n):
        C = build_complex(parse("1", 2), n)
        assert sorted(C.summands) == [-1, 0]
        table = C.table
        f, g0, g1, _ = _crossing_rows(table, n, ("x0", "x1", "x0", "x1"))
        wide = koszul(KoszulSpec(table, n, (f, g1))).shifted(1, n - 1, 1)
        oriented = koszul(KoszulSpec(table, n, (f, g0))).shifted(1, n - 1, 1)
        assert mf_equal(C.terms[-1], wide)
        assert mf_equal(C.terms[0], oriented)

    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_terms(self, n):
        C = build_complex(parse("-1", 2), n)
        assert sorted(C.summands) == [0, 1]
        table = C.table
        f, g0, g1, _ = _crossing_rows(table, n, ("x0", "x1", "x0", "x1"))
        oriented = koszul(KoszulSpec(table, n, (f, g0))).shifted(-1, -n + 1, 1)
        wide = koszul(KoszulSpec(table, n, (f, g1))).shifted(-1, -n - 1, 1)
        assert mf_equal(C.terms[0], oriented)
        assert mf_equal(C.terms[1], wide)

    def test_positive_chi_entries(self):
        # two Koszul rows, crossing row is bit 1; the parity flip from the
        # crossing swaps the even and odd mask lists {00, 11} and {01, 10}
        C = build_complex(parse("1", 2), 1)
        table = C.table
        one = BigradedPoly.one(table)
        s = var(table, "x1") - var(table, "x0")
        mat0, mat1 = C.blocks[(-1, 0, 0)]
        assert mat0 == {(0, 0): one, (1, 1): s}
        assert mat1 == {(0, 0): one, (1, 1): s}

    def test_negative_chi_entries(self):
        C = build_complex(parse("-1", 2), 1)
        table = C.table
        one = BigradedPoly.one(table)
        s = var(table, "x1") - var(table, "x0")
        mat0, mat1 = C.blocks[(0, 0, 0)]
        assert mat0 == {(0, 0): s, (1, 1): one}
        assert mat1 == {(0, 0): s, (1, 1): one}


class TestCubeShape:
    @pytest.mark.parametrize(
        "text, strands, lo, hi",
        [
            ("1 -1", 2, -1, 1),
            ("1 1", 2, -2, 0),
            ("-1 -1", 2, 0, 2),
            ("1 1 1", 2, -3, 0),
            ("1 -1 1", 2, -2, 1),
            ("1 2", 3, -2, 0),
        ],
    )
    def test_degree_window(self, text, strands, lo, hi):
        C = build_complex(parse(text, strands), 1)
        assert sorted(C.summands) == list(range(lo, hi + 1))

    def test_vertex_count(self):
        C = build_complex(parse("1 -1", 2), 1)
        assert [len(C.summands[i]) for i in sorted(C.summands)] == [1, 2, 1]

    def test_mark_exclusion_shrinks_ring(self):
        # one of the four arc marks is solved out through a crossing row
        C = build_complex(parse("1 -1", 2), 1)
        assert C.table.names() == ("a", "x1", "x2", "x3")

    def test_terms_have_zero_potential(self):
        C = build_complex(parse("1 1", 2), 2)
        for i in sorted(C.summands):
            assert C.terms[i].potential.is_zero()

    def test_verify_passes_after_build(self):
        C = build_complex(parse("1 -1", 2), 2)
        C.verify()

    def test_rejects_plain_text(self):
        with pytest.raises(TypeError):
            build_complex("1 -1", 1)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            build_complex(parse("1", 2), 0)

    def test_rejects_unknown_extra_mark_point(self):
        with pytest.raises(ValueError):
            build_complex(parse("1", 2), 1, extra_marks=[(7, 1)])


class TestVerify:
    def test_each_vertex_is_verified_once(self, monkeypatch):
        calls = []
        original = MatrixFactorization.verify

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(MatrixFactorization, "verify", counting)
        build_complex(parse("1 1"), 1)
        assert len(calls) == 4

    def test_negated_block_breaks_the_square(self):
        C = build_complex(parse("1 1"), 1)
        key = next(k for k in C.blocks if k[0] == -2)
        C.blocks[key] = tuple({e: -p for e, p in m.items()} for m in C.blocks[key])
        with pytest.raises(InvariantError, match=r"d_chi\^2"):
            C.verify()

    def test_scaled_parity_does_not_commute(self):
        C = build_complex(parse("1 1"), 1)
        key = next(iter(C.blocks))
        mat0, mat1 = C.blocks[key]
        C.blocks[key] = ({e: 2 * p for e, p in mat0.items()}, mat1)
        with pytest.raises(InvariantError, match="does not commute"):
            C.verify()


class TestMarkingIndependence:
    @pytest.mark.parametrize(
        "text, strands, extras",
        [
            ("", 1, [(0, 1)]),
            ("", 1, [(0, 1), (0, 1)]),
            ("1", 2, [(0, 1)]),
            ("1", 2, [(0, 1), (0, 2)]),
            ("-1", 2, [(0, 2)]),
            ("1 -1", 2, [(0, 1), (1, 2)]),
        ],
    )
    def test_killed_gdim_is_marking_independent(self, text, strands, extras):
        base = build_complex(parse(text, strands), 1)
        marked = build_complex(parse(text, strands), 1, extra_marks=extras)
        assert sorted(base.summands) == sorted(marked.summands)
        for i in sorted(base.summands):
            assert base.terms[i].rank() == marked.terms[i].rank()
            g0 = gdim(base.terms[i], 10)
            g1 = gdim(marked.terms[i], 10)
            assert g0.same_series(g1)


@st.composite
def braid_words(draw):
    strands = draw(st.integers(min_value=2, max_value=3))
    length = draw(st.integers(min_value=0, max_value=3))
    letters = tuple(
        (
            draw(st.integers(min_value=1, max_value=strands - 1)),
            draw(st.sampled_from([1, -1])),
        )
        for _ in range(length)
    )
    return BraidWord(strands, letters)


class TestCubeProperties:
    @given(braid_words())
    @settings(max_examples=12, deadline=None)
    def test_degree_window_matches_crossing_signs(self, word):
        C = build_complex(word, 1)
        positive = sum(1 for _, sgn in word.letters if sgn > 0)
        negative = len(word.letters) - positive
        assert sorted(C.summands) == list(range(-positive, negative + 1))
        C.verify()
