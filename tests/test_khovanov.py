"""Khovanov homology over Q: an oracle for the free part of H_N at n = 2.

Torsion dies at a = 1, so the free summands of H_N count the dimensions of
its a = 1 homology.  At n = 2 that homology is sl(2) Khovanov-Rozansky
homology, which over Q is Khovanov homology.  This file computes Khovanov
homology of a braid closure from the cube of resolutions, as in Bar-Natan
(arXiv:math/0201043), with exact rational ranks and nothing from krlab, so
it checks stage two against code that shares none of it.

Conventions.  Letter +j is a positive crossing of strands j and j + 1.  The
0-smoothing of a positive crossing and the 1-smoothing of a negative one is
the oriented smoothing, a circle's generators v+ and v- have q-degrees +1
and -1, and C = [[D]][-n_-]{n_+ - 2 n_-}.  So the oracle gives the
unknot q + q^-1 and the trefoil 1 1 1 q + q^3 + t^2 q^5 + t^3 q^9.

The regrading, fixed once from those two: a free summand of H_N at (eps, i,
k) counts in Khovanov bidegree (r, q) = (-i, k), whatever its eps and its
a-degree.  The unknot's two free summands lie at k = -1 and 1, with i = 0,
and the trefoil's four at (i, k) = (0, 1), (0, 3), (-2, 5) and (-3, 9).
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from krlab.braid import parse
from krlab.cube import build_complex
from krlab.qamod import adaptive_homology


def closure(letters: list[int], strands: int):
    """The crossings of the braid, as (sign, a, b, c, d), the arc count and
    the closing strands.  Arcs a and b enter a crossing from below at
    positions j and j + 1, and arcs c and d leave it above at the same
    positions.  Arc p starts at the bottom at position p, and the closing
    strands join the arc that ends on top at p to it."""
    top = list(range(strands))
    crossings = []
    arcs = strands
    for letter in letters:
        j = abs(letter) - 1
        crossings.append((1 if letter > 0 else -1, top[j], top[j + 1], arcs, arcs + 1))
        top[j], top[j + 1] = arcs, arcs + 1
        arcs += 2
    return crossings, arcs, list(zip(top, range(strands)))


def circles(crossings, arcs: int, closing, vertex: tuple[int, ...]) -> list[int]:
    """The circle of each arc in the resolution vertex, numbered by least arc."""
    parent = list(range(arcs))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = list(closing)
    for (sign, a, b, c, d), bit in zip(crossings, vertex):
        joins += ((a, c), (b, d)) if (bit == 0) == (sign > 0) else ((a, b), (c, d))
    for x, y in joins:
        parent[find(x)] = find(y)
    number: dict[int, int] = {}
    return [number.setdefault(find(x), len(number)) for x in range(arcs)]


def khovanov(word: str, strands: int) -> Counter:
    """Rank of Khovanov homology over Q at each bidegree (r, q)."""
    crossings, arcs, closing = closure([int(t) for t in word.split()], strands)
    n_minus = sum(1 for sign, *_ in crossings if sign < 0)
    n_plus = len(crossings) - n_minus
    vertices = list(product((0, 1), repeat=len(crossings)))
    comp = {v: circles(crossings, arcs, closing, v) for v in vertices}

    def grading(v, state) -> tuple[int, int]:
        return sum(v) - n_minus, sum(state) + sum(v) + n_plus - 2 * n_minus

    # the generators of each bidegree, and the differential out of each
    gens: dict[tuple[int, int], list] = {}
    for v in vertices:
        for state in product((1, -1), repeat=max(comp[v]) + 1):
            gens.setdefault(grading(v, state), []).append((v, state))
    dims = Counter({deg: len(g) for deg, g in gens.items()})

    def d(v, state) -> Counter:
        out: Counter = Counter()
        for j in [j for j, bit in enumerate(v) if bit == 0]:
            w = v[:j] + (1,) + v[j + 1:]
            sign = -1 if sum(v[:j]) % 2 else 1
            near = {comp[v][x] for x in crossings[j][1:]}
            after = {comp[w][x] for x in crossings[j][1:]}
            # each circle away from crossing j keeps its label
            base = [0] * (max(comp[w]) + 1)
            for x in range(arcs):
                base[comp[w][x]] = state[comp[v][x]]
            if len(near) == 2:  # merge: v+ v+ -> v+, v+ v- -> v-, v- v- -> 0
                labels = [state[c] for c in near]
                if labels == [-1, -1]:
                    continue
                (c,) = after
                base[c] = min(labels)
                out[(w, tuple(base))] += sign
            else:  # split: v+ -> v+ v- + v- v+, v- -> v- v-
                (c0,) = near
                c1, c2 = sorted(after)
                pairs = [(1, -1), (-1, 1)] if state[c0] == 1 else [(-1, -1)]
                for x1, x2 in pairs:
                    base[c1], base[c2] = x1, x2
                    out[(w, tuple(base))] += sign
        return out

    def rank(deg) -> int:
        """Rank over Q of the differential out of bidegree deg."""
        index = {g: col for col, g in enumerate(gens.get((deg[0] + 1, deg[1]), []))}
        pivots: dict[int, dict] = {}
        for g in gens.get(deg, []):
            row = {index[t]: Fraction(c) for t, c in d(*g).items() if c}
            while row:
                col = min(row)
                if col not in pivots:
                    pivots[col] = row
                    break
                factor = row[col] / pivots[col][col]
                for t, c in pivots[col].items():
                    row[t] = row.get(t, 0) - factor * c
                    if not row[t]:
                        del row[t]
        return len(pivots)

    ranks = {deg: rank(deg) for deg in dims}
    kh = Counter()
    for (r, q), dim in dims.items():
        kh[(r, q)] = dim - ranks[(r, q)] - ranks.get((r - 1, q), 0)
    return +kh


def free_summands(word: str, strands: int, n: int) -> Counter:
    """The free summands of H_N at the auto window, per Khovanov bidegree
    (r, q) = (-i, k) (module docstring)."""
    module, _ = adaptive_homology(build_complex(parse(word, strands), n))
    free = Counter()
    for (_, i, k), sl in module.slices.items():
        free[(-i, k)] += len(sl.free)
    return +free


def components(word: str, strands: int) -> int:
    """The number of components of the closure: cycles of the braid's permutation."""
    perm = list(range(strands))
    for letter in word.split():
        j = abs(int(letter)) - 1
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    seen, count = set(), 0
    for p in range(strands):
        if p not in seen:
            count += 1
            while p not in seen:
                seen.add(p)
                p = perm[p]
    return count


# every braid whose `both` at n = 2 takes about a second or less, knots and
# links, then three that take 8 to 15 s
CASES = [("", 1), ("1", 2), ("-1", 2), ("1 1", 2), ("-1 -1", 2), ("1 -1", 2),
         ("1 1 1", 2), ("-1 -1 -1", 2), ("1 2", 3), ("1 -2", 3), ("1 2 1", 3),
         ("1 1 -2", 3)]
SLOW = [("1 -2 1 -2", 3), ("1 1 1 1", 2), ("-1 -1 -1 -1", 2)]


def ids(cases):
    return [f"[{w}]-{m}" for w, m in cases]


@pytest.mark.parametrize(
    "word,strands",
    CASES + [pytest.param(*case, marks=pytest.mark.slow) for case in SLOW],
    ids=ids(CASES + SLOW),
)
def test_the_free_part_at_n_2_is_khovanov_homology(word, strands):
    assert free_summands(word, strands, 2) == khovanov(word, strands)


KNOTS = [(w, m) for w, m in CASES if components(w, m) == 1] + [("1 -2 1 -2", 3)]


@pytest.mark.parametrize("word,strands", KNOTS, ids=ids(KNOTS))
def test_a_knot_has_one_free_summand_at_n_1(word, strands):
    # sl(1) homology of a knot is Q
    assert sum(free_summands(word, strands, 1).values()) == 1

