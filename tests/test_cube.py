"""Crossing resolution cubes over closed braids."""

import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from krlab import cube
from krlab.braid import BraidWord, parse
from krlab.cube import (
    ChainComplexOfMF,
    ExcludedVertex,
    MatPair,
    Summand,
    _closure_arcs,
    _crossing_rows,
    build_complex,
    check_even_morphism,
    chi_diagonal,
)
from krlab.mf import (
    ChainVector,
    KoszulSpec,
    MatrixFactorization,
    compose,
    exclude_all,
    koszul,
    koszul_masks,
)
from krlab.poly import (
    KIND_A,
    KIND_MARK,
    BigradedPoly,
    InvariantError,
    VariableTable,
    substitute,
)
from test_mf import apply_differential, basis_vectors


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


@dataclass(frozen=True)
class CrossingModel:
    """Both resolutions of one crossing with the explicit chi maps between them.

    gamma1 carries the wide resolution's {0,-1} shift.  chi0: gamma0 -> gamma1
    and chi1: gamma1 -> gamma0 are (mat0, mat1) pairs over the rank-4 Koszul
    bases; their composites equal s Id exactly.
    """

    n: int
    table: VariableTable
    marks: tuple[str, str, str, str]  # (x1, y1, y2, x2)
    f_row: tuple[BigradedPoly, BigradedPoly]
    g0_row: tuple[BigradedPoly, BigradedPoly]
    g1_row: tuple[BigradedPoly, BigradedPoly]
    s: BigradedPoly
    gamma0: MatrixFactorization
    gamma1: MatrixFactorization
    chi0: MatPair
    chi1: MatPair


def crossing_model(marks, n: int) -> CrossingModel:
    """Local models and chi maps for one crossing on four distinct marks."""
    marks = tuple(marks)
    if len(marks) != 4 or len(set(marks)) != 4:
        raise ValueError("crossing_model needs four distinct marks")
    if n < 1:
        raise ValueError("n must be a positive integer")
    table = VariableTable.build([("a", KIND_A)] + [(nm, KIND_MARK) for nm in marks])
    f_row, g0_row, g1_row, s = _crossing_rows(table, n, marks)
    gamma0 = koszul(KoszulSpec(table, n, (f_row, g0_row)))
    gamma1 = koszul(KoszulSpec(table, n, (f_row, g1_row))).shifted(0, -1)

    a = BigradedPoly.variable(table, "a")
    w = BigradedPoly.zero(table)
    for nm, sign in zip(marks, (1, 1, -1, -1)):
        v = BigradedPoly.variable(table, nm)
        w = w + (v ** (n + 1) if sign > 0 else -(v ** (n + 1)))
    w = a * w
    if gamma0.potential != w or gamma1.potential != w:
        raise InvariantError("crossing potential")

    # rows (F, G): the G row is bit 1 of the two-row masks
    masks = koszul_masks(2)
    chi1 = chi_diagonal(masks, 0, 1, s, 1, 1)
    chi0 = chi_diagonal(masks, 0, 1, s, 0, 1)
    check_even_morphism(gamma1, gamma0, chi1, 0, 1)
    check_even_morphism(gamma0, gamma1, chi0, 0, 1)
    s_id = {(i, i): s for i in range(2)}
    for par in (0, 1):
        if compose(chi1[par], chi0[par]) != s_id:
            raise InvariantError("chi^1 chi^0 != s Id")
        if compose(chi0[par], chi1[par]) != s_id:
            raise InvariantError("chi^0 chi^1 != s Id")
    return CrossingModel(n, table, marks, f_row, g0_row, g1_row, s, gamma0, gamma1, chi0, chi1)


class TestCrossingModel:
    def test_rows_for_n_one(self):
        # U1 = X1 + Y1 and U2 = -2 when the potential exponent is 2
        model = crossing_model(("p", "q", "r", "t"), 1)
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
        # composites, degrees and commutation are asserted inside; the cube
        # edge of a positive crossing is chi^1 (wide to oriented), of a
        # negative one chi^0 (oriented to wide)
        model = crossing_model(("p", "q", "r", "t"), n)
        assert len(model.gamma0.basis0 + model.gamma0.basis1) == 4
        assert len(model.gamma1.basis0 + model.gamma1.basis1) == 4
        if kind == "positive":
            src, tgt, edge, back = model.gamma1, model.gamma0, model.chi1, model.chi0
        else:
            src, tgt, edge, back = model.gamma0, model.gamma1, model.chi0, model.chi1
        check_even_morphism(src, tgt, edge, 0, 1)
        s_id = {(i, i): model.s for i in range(2)}
        assert all(compose(back[par], edge[par]) == s_id for par in (0, 1))

    def test_gamma1_carries_internal_shift(self):
        model = crossing_model(("p", "q", "r", "t"), 2)
        raw = koszul(KoszulSpec(model.table, 2, (model.f_row, model.g1_row)))
        assert model.gamma1.basis0 == [(a, x - 1) for a, x in raw.basis0]

    def test_degenerate_marks_rejected(self):
        with pytest.raises(ValueError):
            crossing_model(("p", "q", "p", "t"), 2)
        with pytest.raises(ValueError):
            crossing_model(("p", "q", "r"), 2)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError):
            crossing_model(("p", "q", "r", "t"), 0)

    def test_morphism_checker_rejects_wrong_degree(self):
        model = crossing_model(("p", "q", "r", "t"), 2)
        with pytest.raises(AssertionError):
            check_even_morphism(model.gamma1, model.gamma0, model.chi1, 0, 3)

    def test_morphism_checker_rejects_swapped_pattern(self):
        model = crossing_model(("p", "q", "r", "t"), 2)
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
        assert len(C.terms[0].basis0 + C.terms[0].basis1) == 4
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

    @pytest.mark.parametrize("text, strands, pieces", [
        ("", 3, 3), ("1", 2, 1), ("1 1", 2, 1), ("2", 4, 3), ("1 3", 4, 2), ("1 -2 1", 3, 1),
    ])
    def test_one_shared_row_per_piece(self, text, strands, pieces):
        # the size the cube cap counts before any row is built
        C = build_complex(parse(text, strands), 1)
        c = len(parse(text, strands).letters)
        assert all(len(s.spec.rows) == c + pieces for ss in C.summands.values() for s in ss)

    def test_a_row_left_over_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(cube, "exclude_all", lambda spec, names: (spec, []))
        with pytest.raises(InvariantError, match="2 shared rows left for 1 pieces"):
            build_complex(parse("1 1", 2), 1)


def closure_arcs_by_union_find(word: BraidWord):
    """Oracle for cube._closure_arcs: join each node (g, p) to (g - 1, p)
    unless crossing g cuts position p, then number the classes in the order
    their first node appears."""
    m = word.strands
    c = len(word.letters)
    gaps = max(c, 1)
    touched = [set() for _ in range(gaps)]
    for t, (i, _) in enumerate(word.letters):
        touched[t].update((i, i + 1))
    parent = {(g, p): (g, p) for g in range(gaps) for p in range(1, m + 1)}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for g in range(gaps):
        below = (g - 1) % gaps
        for p in range(1, m + 1):
            if (c and p in touched[g]) or below == g:
                continue
            parent[find((below, p))] = find((g, p))
    circles, node_arc, seen = [], {}, {}
    for g in range(gaps):
        for p in range(1, m + 1):
            root = find((g, p))
            if root not in seen:
                seen[root] = len(circles)
                circles.append(c == 0 or all(p not in cut for cut in touched))
            node_arc[(g, p)] = seen[root]
    return circles, node_arc


class TestClosureArcs:
    @pytest.mark.parametrize("strands", [1, 2, 3, 4])
    def test_walk_equals_the_union_find(self, strands):
        letters = [(i, sign) for i in range(1, strands) for sign in (1, -1)]
        cases = 0
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                word = BraidWord(strands, word)
                assert _closure_arcs(word) == closure_arcs_by_union_find(word)
                cases += 1
        assert cases == sum((2 * strands - 2) ** k for k in range(5))


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

    def test_one_term_off_does_not_commute(self):
        C = build_complex(parse("1 1"), 1)
        (i, ti, _), (mat0, _) = next(iter(C.blocks.items()))
        tgt = C.summands[i + 1][ti].mf
        # an entry of tgt.d0 out of a generator that chi scales by a constant:
        # one more copy of one of its terms puts tgt.d chi one term off chi' src.d
        key, p = next((k, p) for k, p in tgt.d0.items() if mat0[(k[1], k[1])].is_constant())
        e, c = next(iter(p.terms.items()))
        tgt.d0[key] = p + BigradedPoly(p.table, {e: c})
        with pytest.raises(InvariantError, match="does not commute"):
            C.verify()

    def test_opposite_faults_into_two_targets(self):
        # vertices of rank one with zero differentials, so every block commutes;
        # d_chi^2 out of s is +x into t1 and -x into t2, which cancel only if
        # the two target vertices are summed together
        table = marks_table("x")
        x = var(table, "x")

        def vertex(xdeg: int) -> Summand:
            mf = MatrixFactorization(table, 1, BigradedPoly.zero(table), [(0, xdeg)], [], {}, {})
            return Summand(None, mf, None, (0, 0, 0))

        def block(entry: BigradedPoly):
            return ({(0, 0): entry}, {})

        summands = {0: [vertex(0)], 1: [vertex(0), vertex(0)], 2: [vertex(-2), vertex(-2)]}
        one = BigradedPoly.one(table)
        blocks = {(0, 0, 0): block(one), (0, 1, 0): block(one)}
        blocks |= {(1, t, 0): block(x) for t in (0, 1)}
        blocks |= {(1, t, 1): block(-x) for t in (0, 1)}
        ChainComplexOfMF(table, 1, summands, blocks)
        del blocks[(1, 0, 1)]
        blocks[(1, 1, 1)] = block(x * -2)
        with pytest.raises(InvariantError, match=r"d_chi\^2 != 0"):
            ChainComplexOfMF(table, 1, summands, blocks)


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


def reduced_words(strands: int, max_length: int) -> list[str]:
    """Every freely reduced word of length <= max_length, shortest first."""
    letters = [s * g for g in range(1, strands) for s in (1, -1)]
    words: list[list[int]] = [[]]
    out = [""]
    for _ in range(max_length):
        words = [w + [l] for w in words for l in letters if not w or w[-1] != -l]
        out += [" ".join(map(str, w)) for w in words]
    return out


SHORT_CUBES = [(w, s, n) for s in (2, 3) for w in reduced_words(s, 3) for n in (1, 2)]



class TestStateOrder:
    def test_summands_and_blocks_follow_the_state_order(self):
        # each degree lists its vertices in state order, and every block is
        # keyed by the positions of its two states in those lists
        corpus = [(w, s) for s in (2, 3) for w in reduced_words(s, 3)] + [("1 -2 1 -2", 3)]
        for text, strands in corpus:
            C = build_complex(parse(text, strands), 1)
            position = {}
            for i, parts in C.summands.items():
                states = [part.state for part in parts]
                assert states == sorted(states)
                position |= {state: (i, pos) for pos, state in enumerate(states)}
            assert len(position) == 2 ** len(parse(text, strands).letters)
            keys = set()
            for state, (i, si) in position.items():
                for t in (t for t, b in enumerate(state) if not b):
                    j, ti = position[state[:t] + (1,) + state[t + 1:]]
                    assert j == i + 1
                    keys.add((i, ti, si))
            assert C.blocks.keys() == keys


def chain(maps, vec: ChainVector) -> ChainVector:
    for fn in maps:
        vec = fn(vec)
    return vec


def over_target(src: ExcludedVertex, tgt: ExcludedVertex) -> MatrixFactorization:
    """The source vertex's factorization over the target's ring, its marks
    sent where the target's exclusions send them."""
    table = tgt.mf.table

    def move(mat):
        return {key: substitute(p, tgt.sub, table) for key, p in mat.items()}

    return MatrixFactorization(
        table, src.mf.n, BigradedPoly.zero(table), src.mf.basis0, src.mf.basis1,
        move(src.mf.d0), move(src.mf.d1),
    )


class TestVertexExclusion:
    @pytest.mark.parametrize("text,strands,n", SHORT_CUBES)
    def test_pi_and_iota_at_every_vertex(self, text, strands, n):
        C = build_complex(parse(text, strands), n)
        marks = [v.name for v in C.table.variables if v.kind == KIND_MARK]
        excluded = C.excluded
        for i, parts in C.summands.items():
            for part, vertex in zip(parts, excluded.vertices[i]):
                after, _ = exclude_all(part.spec, marks)
                raw, small = koszul(part.spec), koszul(after)
                assert mf_equal(small.shifted(*part.shift), vertex.mf)
                pis = [red.pi for red in vertex.reductions]
                iotas = [red.iota for red in reversed(vertex.reductions)]
                for vec in basis_vectors(small):
                    lifted = chain(iotas, vec)
                    assert chain(pis, lifted) == vec
                    assert apply_differential(raw, lifted) == chain(
                        iotas, apply_differential(small, vec)
                    )
                for vec in basis_vectors(raw):
                    assert chain(pis, apply_differential(raw, vec)) == apply_differential(
                        small, chain(pis, vec)
                    )

    @pytest.mark.parametrize("text,strands,n", SHORT_CUBES)
    def test_every_transported_block_is_an_even_morphism(self, text, strands, n):
        C = build_complex(parse(text, strands), n)
        excluded = C.excluded
        assert excluded.blocks.keys() == C.blocks.keys()
        for (i, ti, si), mats in excluded.blocks.items():
            src, tgt = excluded.vertices[i][si], excluded.vertices[i + 1][ti]
            check_even_morphism(over_target(src, tgt), tgt.mf, mats, 0, 0)

    def test_the_oriented_rows_exclude_marks(self):
        # the shared rows have nothing left to exclude (their right entries
        # are linear, so only zero ones remain); each oriented resolution's
        # row x1 - y2 may exclude one more mark, unless earlier ones already
        # identified its two marks
        word = parse("1 -2 1 -2", 3)
        C = build_complex(word, 1)
        marks = sum(1 for v in C.table.variables if v.kind == KIND_MARK)
        counts = []
        for i, parts in C.summands.items():
            for part, vertex in zip(parts, C.excluded.vertices[i]):
                oriented = sum(
                    b == (1 if sign > 0 else 0) for b, (_, sign) in zip(part.state, word.letters)
                )
                kept = sum(1 for v in vertex.mf.table.variables if v.kind == KIND_MARK)
                excluded = len(vertex.reductions)
                assert kept == marks - excluded and excluded <= oriented
                rank = len(vertex.mf.basis0 + vertex.mf.basis1)
                assert rank == len(part.mf.basis0 + part.mf.basis1) >> excluded
                counts.append((oriented, excluded))
        assert (0, 0) in counts and (4, 2) in counts
