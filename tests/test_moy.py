"""Colored graphs: vertex rows, whole-graph reductions, graded dimensions."""

import pytest

from krlab.mf import find_constant_entry
from krlab.moy import (
    BUILTIN_GRAPHS,
    MoyGraph,
    MoyVertex,
    builtin_graph,
    graph_factorization,
    graph_gdim,
    parse_graph,
    reduced_graph_spec,
    vertex_factorization,
    vertex_shift,
)
from krlab.poly import (
    KIND_A,
    KIND_MARK,
    KIND_SYM,
    BigradedPoly,
    VariableTable,
    power_sum_in_elementary,
)


def with_extra_mark(graph: MoyGraph, edge_id: str, alph: str) -> MoyGraph:
    """Insert one more marked point at the far end of an edge's mark list."""
    graph.edge(edge_id)
    marks = []
    inserted = False
    for mid, name in graph.marks:
        marks.append((mid, name))
        if mid == edge_id and not inserted:
            inserted = True
            marks.append((edge_id, alph))
    return MoyGraph(graph.edges, marks)


def one_plus_a(n, *ks):
    """Term dict of prod_k (1 + A_k), A_k = tau alpha^-1 xi^(k - n)."""
    terms = {(0, 0, 0): 1}
    for k in ks:
        nxt = {}
        for (e, j, x), v in terms.items():
            nxt[(e, j, x)] = nxt.get((e, j, x), 0) + v
            key = ((e + 1) % 2, j - 1, x + k - n)
            nxt[key] = nxt.get(key, 0) + v
        terms = nxt
    return terms


def xi_mul(terms, *dks):
    """Multiply a term dict by a sum of xi^dk monomials."""
    out = {}
    for dk in dks:
        for (e, j, x), v in terms.items():
            key = (e, j, x + dk)
            out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


class TestCircle:
    def test_rank_and_zero_potential(self):
        M = graph_factorization(builtin_graph("circle"), 2)
        assert len(M.basis0 + M.basis1) == 2
        assert M.potential.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gdim(self, n):
        s = graph_gdim(builtin_graph("circle"), n, 10)
        assert s.terms == {(0, 0, 0): 1, (1, -1, 1 - n): 1}

    def test_second_mark_changes_nothing(self):
        g = builtin_graph("circle")
        g2 = with_extra_mark(g, "c", "z")
        assert len(g2.marks) == 2
        assert graph_gdim(g2, 2, 10).same_series(graph_gdim(g, 2, 10))


class TestVertexRows:
    def table(self, entries):
        return VariableTable.build([("a", KIND_A)] + entries)

    def test_two_valent_row_is_complete_symmetric(self):
        t = self.table([("x", KIND_MARK), ("y", KIND_MARK)])
        v = MoyVertex("p", (("y", 1),), (("x", 1),))
        spec = vertex_factorization(v, 2, t)
        assert len(spec.rows) == 1
        a = BigradedPoly.variable(t, "a")
        x = BigradedPoly.variable(t, "x")
        y = BigradedPoly.variable(t, "y")
        left, right = spec.rows[0]
        assert right == x - y
        assert left == a * (x * x + x * y + y * y)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_merge_vertex_potential(self, n):
        t = self.table(
            [("x", KIND_MARK), ("y", KIND_MARK), ("W.e1", KIND_SYM, 1), ("W.e2", KIND_SYM, 2)]
        )
        v = MoyVertex("m", (("x", 1), ("y", 1)), (("W", 2),))
        spec = vertex_factorization(v, n, t)
        a = BigradedPoly.variable(t, "a")
        gens = [BigradedPoly.variable(t, "W.e1"), BigradedPoly.variable(t, "W.e2")]
        x = BigradedPoly.variable(t, "x")
        y = BigradedPoly.variable(t, "y")
        want = a * (
            power_sum_in_elementary(gens, n + 1)
            - power_sum_in_elementary([x + y, x * y], n + 1)
        )
        assert spec.potential() == want

    @pytest.mark.parametrize("n", [1, 2])
    def test_three_color_split_potential(self, n):
        t = self.table(
            [
                ("V.e1", KIND_SYM, 1),
                ("V.e2", KIND_SYM, 2),
                ("V.e3", KIND_SYM, 3),
                ("X.e1", KIND_SYM, 1),
                ("X.e2", KIND_SYM, 2),
                ("z", KIND_MARK),
            ]
        )
        v = MoyVertex("s", (("V", 3),), (("X", 2), ("z", 1)))
        spec = vertex_factorization(v, n, t)
        assert len(spec.rows) == 3
        a = BigradedPoly.variable(t, "a")
        vg = [BigradedPoly.variable(t, f"V.e{k}") for k in (1, 2, 3)]
        xg = [BigradedPoly.variable(t, f"X.e{k}") for k in (1, 2)]
        z = BigradedPoly.variable(t, "z")
        union = [xg[0] + z, xg[1] + xg[0] * z, xg[1] * z]
        want = a * (
            power_sum_in_elementary(union, n + 1) - power_sum_in_elementary(vg, n + 1)
        )
        assert spec.potential() == want

    def test_color_flow_and_width_limits(self):
        t = self.table([(nm, KIND_MARK) for nm in "pqrsuv"])
        with pytest.raises(ValueError, match="color flow"):
            vertex_factorization(MoyVertex("b", (("p", 1),), (("q", 1), ("r", 1))), 1, t)
        wide = MoyVertex(
            "w", (("p", 1), ("q", 1), ("r", 1), ("s", 1)), (("u", 1), ("v", 3))
        )
        with pytest.raises(ValueError, match="total color"):
            vertex_factorization(wide, 1, t)

    def test_shift_counts_outgoing_color_pairs(self):
        assert vertex_shift(MoyVertex("m", (("x", 1), ("y", 1)), (("W", 2),))) == (0, 0)
        assert vertex_shift(MoyVertex("s", (("W", 2),), (("x", 1), ("y", 1)))) == (0, -1)
        assert vertex_shift(MoyVertex("t", (("V", 3),), (("X", 2), ("z", 1)))) == (0, -2)
        assert vertex_shift(MoyVertex("p", (("x", 1),), (("y", 1),))) == (0, 0)


class TestWideEdge:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_degrees_and_gdim(self, n):
        g = builtin_graph("wide-edge")
        M = graph_factorization(g, n)
        assert len(M.basis0 + M.basis1) == 4
        degrees = sorted(M.basis0 + M.basis1)
        assert degrees == sorted(
            [(0, 0), (-1, 1 - n), (-1, 3 - n), (-2, 4 - 2 * n)]
        )
        assert graph_gdim(g, n, 12).terms == one_plus_a(n, 1, 3)


class TestThetaSplit:
    @pytest.mark.parametrize("n", [1, 2])
    def test_golden_series(self, n):
        g = builtin_graph("theta-split")
        spec, sh = reduced_graph_spec(g, n)
        assert sh == (0, -1)
        assert len(spec.rows) == 3
        assert "x5" not in spec.table and "x6" in spec.table
        s = graph_gdim(g, n, 12)
        assert s.terms == xi_mul(one_plus_a(n, 1, 3), 1, -1)
        assert sum(s.terms.values()) == 8

    def test_equals_shifted_pair_of_wide_edges(self):
        theta = graph_gdim(builtin_graph("theta-split"), 2, 12)
        wide = graph_gdim(builtin_graph("wide-edge"), 2, 12)
        assert theta.same_series(wide.shifted(0, 0, 1) + wide.shifted(0, 0, -1))


class TestLadder:
    @pytest.mark.parametrize("n", [1, 2])
    def test_parallel_strands(self, n):
        s = graph_gdim(builtin_graph("r3-gamma0"), n, 14)
        assert s.terms == one_plus_a(n, 1, 1, 3)
        assert sum(s.terms.values()) == 8

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_wide_ladder(self, n):
        s = graph_gdim(builtin_graph("r3-gamma1"), n, 14)
        assert s.terms == xi_mul(one_plus_a(n, 1, 3, 5), -2)
        assert sum(s.terms.values()) == 8

    @pytest.mark.parametrize("n", [1, 2])
    def test_double_rung_ladder(self, n):
        g = builtin_graph("r3-gamma")
        spec, sh = reduced_graph_spec(g, n)
        assert sh == (0, -2)
        assert len(spec.rows) == 4
        s = graph_gdim(g, n, 14)
        assert s.terms == xi_mul(one_plus_a(n, 1, 3, 3), 0, -2)
        assert sum(s.terms.values()) == 16

    def test_ladder_splits_as_direct_sum(self):
        n = 1
        whole = graph_gdim(builtin_graph("r3-gamma"), n, 14)
        parallel = graph_gdim(builtin_graph("r3-gamma0"), n, 14)
        wide = graph_gdim(builtin_graph("r3-gamma1"), n, 14)
        assert whole.same_series(parallel + wide)


class TestCrossingResolutions:
    @pytest.mark.parametrize("n", [1, 2])
    def test_two_arcs(self, n):
        g = builtin_graph("crossing-gamma0")
        M = graph_factorization(g, n)
        assert len(M.basis0 + M.basis1) == 4
        t = M.table
        a = BigradedPoly.variable(t, "a")
        x1, y1, x2, y2 = (BigradedPoly.variable(t, nm) for nm in ("x1", "y1", "x2", "y2"))
        assert M.potential == a * (
            x1 ** (n + 1) + y1 ** (n + 1) - x2 ** (n + 1) - y2 ** (n + 1)
        )
        assert graph_gdim(g, n, 10).terms == one_plus_a(n, 1, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_wide_resolution(self, n):
        g = builtin_graph("crossing-gamma1")
        spec, sh = reduced_graph_spec(g, n)
        assert sh == (0, -1)
        assert len(spec.rows) == 2
        assert "W.e1" not in spec.table and "W.e2" not in spec.table
        M = graph_factorization(g, n)
        assert len(M.basis0 + M.basis1) == 4
        t = M.table
        a = BigradedPoly.variable(t, "a")
        x1, y1, x2, y2 = (BigradedPoly.variable(t, nm) for nm in ("x1", "y1", "x2", "y2"))
        assert M.potential == a * (
            x1 ** (n + 1) + y1 ** (n + 1) - x2 ** (n + 1) - y2 ** (n + 1)
        )
        assert graph_gdim(g, n, 10).terms == xi_mul(one_plus_a(n, 1, 3), -1)


class TestMarkingIndependence:
    @pytest.mark.parametrize("name", BUILTIN_GRAPHS)
    def test_extra_mark_on_each_edge(self, name):
        g = builtin_graph(name)
        base = graph_gdim(g, 1, 8)
        for eid, _, _, _ in g.edges:
            g2 = with_extra_mark(g, eid, "zz")
            assert graph_gdim(g2, 1, 8).same_series(base), f"edge {eid}"


class TestGraphValidation:
    def test_color_flow_must_balance(self):
        with pytest.raises(ValueError, match="color flow"):
            MoyGraph(
                [("b", 2, "_", "V"), ("t", 1, "V", "_")],
                [("b", "Y"), ("t", "x")],
            )

    def test_every_edge_needs_a_mark(self):
        with pytest.raises(ValueError, match="no mark"):
            MoyGraph([("c", 1, "V", "V")], [])

    def test_alphabet_names_unique(self):
        with pytest.raises(ValueError, match="used twice"):
            MoyGraph(
                [("l", 1, "_", "_"), ("r", 1, "_", "_")],
                [("l", "x"), ("r", "x")],
            )

    def test_reserved_and_malformed_names(self):
        with pytest.raises(ValueError, match="bad alphabet name"):
            MoyGraph([("c", 1, "V", "V")], [("c", "a")])
        with pytest.raises(ValueError, match="bad alphabet name"):
            MoyGraph([("c", 1, "V", "V")], [("c", "1x")])

    def test_colors_outside_range(self):
        with pytest.raises(ValueError, match="color 4"):
            MoyGraph([("c", 4, "V", "V")], [("c", "x")])

    def test_edge_ids_unique(self):
        with pytest.raises(ValueError, match="duplicate edge id"):
            MoyGraph([("c", 1, "V", "V"), ("c", 1, "W", "W")], [("c", "x")])

    def test_vertices_in_order_of_first_appearance(self):
        assert builtin_graph("r3-gamma").vertices() == [
            ("A", ("lb",), ("lm", "g1")),
            ("D", ("lm", "g2"), ("lt",)),
            ("B", ("g1", "rb"), ("rm",)),
            ("C", ("rm",), ("rt", "g2")),
        ]
        assert builtin_graph("circle").vertices() == [("V", ("c",), ("c",))]
        assert builtin_graph("wide-edge").vertices() == []

    def test_mark_on_unknown_edge(self):
        with pytest.raises(ValueError, match="unknown edge"):
            MoyGraph([("c", 1, "V", "V")], [("c", "x"), ("d", "y")])

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_graph("does-not-exist")

    def test_with_extra_mark_checks_edge(self):
        with pytest.raises(KeyError):
            with_extra_mark(builtin_graph("circle"), "nope", "z")


class TestParser:
    THETA = """
    # two-colored edge splitting into two simple edges and merging back
    e b 2 _ S
    e l 1 S M
    e r 1 S M
    e t 2 M _
    m b Y
    m l x5
    m r x6
    m t X
    """

    def test_matches_builtin(self):
        assert parse_graph(self.THETA) == builtin_graph("theta-split")

    def test_vertex_lines_and_comments(self):
        text = "v V\ne c 1 V V  # a loop\nm c x\n"
        assert parse_graph(text) == builtin_graph("circle")

    def test_declared_vertex_needs_an_edge(self):
        with pytest.raises(ValueError, match="no incident edge"):
            parse_graph("v L\ne c 1 V V\nm c x\n")

    def test_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_graph("e c 1 V V\nwat\nm c x\n")

    def test_bad_color_field(self):
        with pytest.raises(ValueError, match="syntax error"):
            parse_graph("e c one V V\nm c x\n")


class TestBuiltinCatalog:
    def test_names_all_load(self):
        for name in BUILTIN_GRAPHS:
            builtin_graph(name)  # a MoyGraph checks itself when made

    def test_closed_flag(self):
        assert builtin_graph("circle").is_closed()
        assert not builtin_graph("wide-edge").is_closed()


class TestNothingIsContractible:
    """Why graph_factorization splits nothing off: rows (a U_j, X_j - Y_j)
    keep their degrees under exclusion, so no entry is a nonzero constant."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_GRAPHS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_left_entries_carry_a_and_right_entries_marks(self, name, n):
        spec, _ = reduced_graph_spec(builtin_graph(name), n)
        for left, right in spec.rows:
            assert left.is_zero() or left.bidegree()[0] == 2
            assert right.is_zero() or right.bidegree()[1] >= 2

    @pytest.mark.parametrize("name", sorted(BUILTIN_GRAPHS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_entry_is_a_nonzero_constant(self, name, n):
        assert find_constant_entry(graph_factorization(builtin_graph(name), n)) is None
