"""Braid words: parsing, canonical forms, transverse moves, bounded search.

markov_search and simplify keep no record of the moves they make.  replay()
applies a list of Moves, validating each one, so the reference search here
reaches every word through listed moves only and certifies that
markov_search and simplify find the same words.
"""

from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krlab import braid
from krlab.braid import (
    DEFAULT_BUDGET,
    MARKOV_SLACK,
    MAX_SEARCH_STRANDS,
    BraidWord,
    canonical,
    markov_search,
    parse,
    simplify,
    word_text,
)
from krlab.poly import BudgetError
from test_cube import reduced_words


MOVE_KINDS = frozenset(
    {"free-cancel", "rotate", "conjugate", "braid-relation", "far-commute", "destabilize"}
)


@dataclass(frozen=True)
class Move:
    """One of MOVE_KINDS at a position of the word it is applied to; no text
    format of its own.  "rotate" at r conjugates by the first r letters;
    "conjugate" stores the signed generator index in the position field."""

    kind: str
    position: int


def replay(w: BraidWord, moves: list[Move]) -> BraidWord:
    """Apply a move log, validating every step; raises on any illegal move."""
    m = w.strands
    letters = list(w.letters)
    for mv in moves:
        n = len(letters)
        p = mv.position
        if mv.kind == "free-cancel":
            if not (0 <= p < n - 1):
                raise ValueError(f"free-cancel {p}: no adjacent pair there")
            (i1, s1), (i2, s2) = letters[p], letters[p + 1]
            if i1 != i2 or s1 != -s2:
                raise ValueError(f"free-cancel {p}: letters are not inverse")
            del letters[p : p + 2]
        elif mv.kind == "rotate":
            if not (0 <= p < max(n, 1)):
                raise ValueError(f"rotate {p}: out of range")
            letters = letters[p:] + letters[:p]
        elif mv.kind == "conjugate":
            k, s = abs(p), (1 if p > 0 else -1)
            if not (1 <= k <= m - 1):
                raise ValueError(f"conjugate {p}: generator out of range")
            letters = [(k, -s)] + letters + [(k, s)]
        elif mv.kind == "braid-relation":
            if not (0 <= p < n - 2):
                raise ValueError(f"braid-relation {p}: needs three letters")
            (a, sa), (b, sb), (c, sc) = letters[p : p + 3]
            if not (a == c and sa == sb == sc and abs(a - b) == 1):
                raise ValueError(f"braid-relation {p}: pattern mismatch")
            letters[p : p + 3] = [(b, sa), (a, sa), (b, sa)]
        elif mv.kind == "far-commute":
            if not (0 <= p < n - 1):
                raise ValueError(f"far-commute {p}: needs two letters")
            x, y = letters[p], letters[p + 1]
            if abs(x[0] - y[0]) < 2:
                raise ValueError(f"far-commute {p}: indices too close")
            letters[p], letters[p + 1] = y, x
        elif mv.kind == "destabilize":
            if m < 2:
                raise ValueError("destabilize: no strand to remove")
            if not (0 <= p < n):
                raise ValueError(f"destabilize {p}: out of range")
            i, s = letters[p]
            if i != m - 1 or s != 1:
                raise ValueError(f"destabilize {p}: letter is not a positive top letter")
            if any(q != p and i2 == m - 1 for q, (i2, _) in enumerate(letters)):
                raise ValueError("destabilize: top generator occurs more than once")
            del letters[p]
            m -= 1
        else:
            raise ValueError(f"unknown move kind {mv.kind!r}")
    return BraidWord(m, tuple(letters))


class TestParse:
    def test_signed_integers(self):
        w = parse("1 -2 1")
        assert w.strands == 3
        assert w.letters == ((1, 1), (2, -1), (1, 1))

    def test_symbolic(self):
        assert parse("s1 s2^-1 s1") == parse("1 -2 1")
        assert parse("s1^-1") == BraidWord(2, ((1, -1),))

    def test_empty_with_override(self):
        w = parse("", strands=2)
        assert w == BraidWord(2, ())

    def test_empty_defaults_to_one_strand(self):
        assert parse("").strands == 1

    def test_larger_override(self):
        assert parse("1", strands=5).strands == 5

    @pytest.mark.parametrize("bad", ["x", "0", "s0", "s1^2", "s1^", "1.5", "--1"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse(bad)

    def test_override_too_small(self):
        with pytest.raises(ValueError, match="strands"):
            parse("3", strands=3)

    def test_too_few_strands_reports_the_strands_needed(self):
        with pytest.raises(ValueError, match="the word needs 1, got 0$"):
            parse("", strands=0)
        with pytest.raises(ValueError, match="the word needs 4, got 3$"):
            parse("3", strands=3)

    def test_round_trip(self):
        for text in ["", "1", "1 -2 1", "-1 -1 2 3"]:
            w = parse(text)
            assert parse(word_text(w), strands=w.strands) == w

    def test_writhe(self):
        assert parse("1 -2 1").writhe == 1
        assert parse("-1 -2", strands=3).writhe == -2


class TestBraidWordValidation:
    def test_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BraidWord(2, ((2, 1),))

    def test_sign_domain(self):
        with pytest.raises(ValueError, match="sign"):
            BraidWord(3, ((1, 2),))

    def test_min_strands(self):
        with pytest.raises(ValueError, match="positive"):
            BraidWord(0, ())


class TestCanonical:
    def test_rotation_invariance(self):
        assert canonical(parse("2 1")) == canonical(parse("1 2"))

    def test_free_reduction(self):
        assert canonical(parse("1 -1")) == BraidWord(2, ())

    def test_lex_least_rotation(self):
        assert canonical(parse("2 1 2")).letters == ((1, 1), (2, 1), (2, 1))

    def test_packing_limit(self):
        top = BraidWord(MAX_SEARCH_STRANDS, ((MAX_SEARCH_STRANDS - 1, 1),))
        assert canonical(top) == top

    def test_strands_past_the_packing_are_refused(self):
        # skein.evaluate refuses such a count first; the searches guard their own input
        past = BraidWord(MAX_SEARCH_STRANDS + 1, ())
        for search in (canonical, lambda w: markov_search(w, 10)):
            with pytest.raises(BudgetError, match="a Markov search can hold"):
                search(past)

    def test_idempotent(self):
        once = canonical(parse("2 -1 2 2"))
        assert canonical(once) == once

    def test_moves_replay(self):
        w = parse("1 -1 2 1")
        letters, moves = oracle_canonical(w.letters)
        assert [m.kind for m in moves] == ["free-cancel", "rotate"]
        assert replay(w, moves) == canonical(w) == BraidWord(w.strands, letters)


class TestSimplify:
    def test_free_reduction_then_destabilization(self):
        assert simplify(parse("1 -1 2")) == BraidWord(2, ())

    def test_positive_destabilization(self):
        assert simplify(parse("1")) == BraidWord(1, ())

    def test_destabilization_after_conjugation(self):
        assert simplify(parse("1", strands=3)) == BraidWord(2, ())

    def test_trivial_strands_kept(self):
        assert simplify(parse("", strands=2)) == BraidWord(2, ())
        assert simplify(parse("1 -1", strands=3)) == BraidWord(3, ())

    def test_negative_letter_blocks_destabilization(self):
        assert simplify(parse("-1")) == BraidWord(2, ((1, -1),))

    def test_log_replays(self):
        w = parse("1 2 1")
        s, log = oracle_simplify(w, DEFAULT_BUDGET)
        assert simplify(w) == s == replay(w, log)
        assert s == BraidWord(2, ((1, 1), (1, 1)))

    def test_log_format(self):
        w = parse("1 -1 2")
        s, log = oracle_simplify(w, DEFAULT_BUDGET)
        assert [(m.kind, m.position) for m in log] == [("free-cancel", 0), ("destabilize", 0)]
        assert simplify(w) == s

    def test_matches_the_oracle_in_fewer_searches(self, monkeypatch):
        search, searches, oracle_searches = oracle_search, [], []
        monkeypatch.setattr(braid, "markov_search",
                            lambda w, budget: searches.append(w) or markov_search(w, budget))
        monkeypatch.setitem(globals(), "oracle_search",
                            lambda w, budget: oracle_searches.append(w) or search(w, budget))
        for text in reduced_words(3, 3):
            w = parse(text, 3)
            before = len(searches), len(oracle_searches)
            assert simplify(w) == oracle_simplify(w, DEFAULT_BUDGET)[0], text
            assert len(searches) - before[0] <= len(oracle_searches) - before[1], text
        # the oracle searches again from each better word until none is
        # better, as simplify did before it returned a complete search's best
        # word no longer than the word searched from
        assert len(searches) < len(oracle_searches)


def oracle_canonical(letters):
    """Free reduction and least rotation as first written, with their log."""
    letters, log = list(letters), []
    i = 0
    while i + 1 < len(letters):
        (a, s), (b, t) = letters[i], letters[i + 1]
        if a == b and s == -t:
            log.append(Move("free-cancel", i))
            del letters[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    if len(letters) > 1:
        r = min(range(len(letters)), key=lambda k: letters[k:] + letters[:k])
        if r:
            log.append(Move("rotate", r))
            letters = letters[r:] + letters[:r]
    return tuple(letters), log


def oracle_search(w, budget):
    """markov_search as first written: every neighbour move is tried through
    replay, in the search's order, and each reached word keeps its full log.
    Returns (words best first, complete, expansions, {word: log})."""
    max_length = len(w.letters) + MARKOV_SLACK
    letters, prelude = oracle_canonical(w.letters)
    start = BraidWord(w.strands, letters)
    logs = {start: prelude}
    queue = deque([start])
    expansions = 0
    while queue and expansions < budget:
        node = queue.popleft()
        expansions += 1
        m, n = node.strands, len(node.letters)
        sites = [("conjugate", k * s) for k in range(1, m) for s in (1, -1)]
        sites += [("free-cancel", 0), ("far-commute", 0), ("braid-relation", 0)]
        tries = [
            ([Move("rotate", r)] if r else []) + [Move(kind, p)]
            for r in range(max(n, 1))
            for kind, p in sites
        ]
        tries += [[Move("destabilize", p)] for p in range(n)]
        for moves in tries:
            try:
                moved = replay(node, moves)
            except ValueError:
                continue
            letters, extra = oracle_canonical(moved.letters)
            if len(letters) > max_length:
                continue
            cand = BraidWord(moved.strands, letters)
            if cand not in logs:
                logs[cand] = logs[node] + moves + extra
                queue.append(cand)
    words = sorted(logs, key=lambda v: (v.strands, len(v.letters), v.letters))
    return words, not queue, expansions, logs


def oracle_simplify(w, budget):
    """simplify through oracle_search, searching again from each better word
    until the best stops improving; returns (word, log from w)."""
    letters, log = oracle_canonical(w.letters)
    current = BraidWord(w.strands, letters)
    while True:
        words, _, _, logs = oracle_search(current, budget)
        best = words[0]
        if (best.strands, len(best.letters), best.letters) >= (
            current.strands, len(current.letters), current.letters
        ):
            return current, log
        log += logs[best]
        current = best


class TestMarkovSearch:
    def test_matches_the_oracle_on_short_words(self):
        # a budget that cuts some searches short
        words = [parse(text, 3) for text in reduced_words(3, 3)]
        assert len(words) == 53
        completes = set()
        for w in words:
            res = markov_search(w, 60)
            nodes, complete, expansions, _ = oracle_search(w, 60)
            assert (list(res), res.complete, res.expansions) == (nodes, complete, expansions), w
            completes.add(complete)
        assert completes == {True, False}

    # start words whose canonical forms are not cyclically reduced, and words
    # on 4 and 5 strands, where more conjugators fill the queue
    ORDER_WORDS = [("1 2 -1", 3), ("-2 1 2", 3), ("2 1 3 -2", 4), ("-3 1 2 3", 4),
                   ("1 -4 2 4", 5), ("2 4 1 -3 -2", 5)]

    @pytest.mark.parametrize("budget", [1, 7, 60])
    @pytest.mark.parametrize("text,strands", ORDER_WORDS,
                             ids=[f"[{t}]-{m}" for t, m in ORDER_WORDS])
    def test_matches_the_oracle_in_discovery_order(self, text, strands, budget):
        # a cut search returns the words its order of first meetings reached
        w = parse(text, strands)
        res = markov_search(w, budget)
        nodes, complete, expansions, _ = oracle_search(w, budget)
        assert (list(res), res.complete, res.expansions) == (nodes, complete, expansions)
        assert not complete or budget == 60

    def test_oracle_logs_replay_every_move_kind(self):
        w = parse("1 3 -1 2", strands=4)
        nodes, _, _, logs = oracle_search(w, 300)
        assert list(markov_search(w, 300)) == nodes
        kinds = set()
        for v in nodes:
            assert replay(w, logs[v]) == v
            kinds |= {m.kind for m in logs[v]}
        assert kinds == MOVE_KINDS

    def test_braid_relation_pair(self):
        res = markov_search(parse("1 2 1"), 200)
        assert canonical(parse("2 1 2")) in res
        back = markov_search(parse("2 1 2"), 200)
        assert canonical(parse("1 2 1")) in back

    def test_reaches_destabilized_word(self):
        res = markov_search(parse("1", strands=3), 500)
        assert BraidWord(2, ()) in res

    def test_budget_one_keeps_input(self):
        w = parse("1 2 1 -2 1 2 1")
        res = markov_search(w, 1)
        assert canonical(w) in res
        assert not res.complete
        assert res.expansions == 1

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            markov_search(parse("1"), 0)

    def test_complete_when_component_finite(self):
        res = markov_search(parse("1"), 500)
        assert res.complete
        assert BraidWord(1, ()) in res

    def test_ordering_best_first(self):
        res = markov_search(parse("1 -1 2"), 300)
        assert res[0] == BraidWord(2, ())

    def test_every_path_replays(self):
        w = parse("1 2 1")
        nodes, _, _, logs = oracle_search(w, 60)
        assert list(markov_search(w, 60)) == nodes
        for out in nodes:
            assert replay(w, logs[out]) == out
            assert {m.kind for m in logs[out]} <= MOVE_KINDS


class TestReplayValidation:
    def test_rejects_negative_destabilization(self):
        w = BraidWord(2, ((1, -1),))
        with pytest.raises(ValueError, match="positive top letter"):
            replay(w, [Move("destabilize", 0)])

    def test_rejects_non_top_letter(self):
        w = BraidWord(3, ((1, 1),))
        with pytest.raises(ValueError, match="positive top letter"):
            replay(w, [Move("destabilize", 0)])

    def test_rejects_repeated_top_generator(self):
        w = BraidWord(2, ((1, 1), (1, 1)))
        with pytest.raises(ValueError, match="more than once"):
            replay(w, [Move("destabilize", 0)])

    def test_rejects_bad_relation_site(self):
        w = parse("1 2 -1")
        with pytest.raises(ValueError, match="pattern"):
            replay(w, [Move("braid-relation", 0)])

    def test_rejects_near_commutation(self):
        w = parse("1 2")
        with pytest.raises(ValueError, match="too close"):
            replay(w, [Move("far-commute", 0)])

    def test_far_commutation_applies(self):
        w = parse("1 3")
        assert replay(w, [Move("far-commute", 0)]).letters == ((3, 1), (1, 1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown move"):
            replay(parse("1"), [Move("stabilize", 0)])


words = st.builds(
    lambda m, idx: BraidWord(m, tuple((1 + i % (m - 1), 1 if s else -1) for i, s in idx)),
    st.integers(min_value=2, max_value=4),
    st.lists(st.tuples(st.integers(min_value=0, max_value=5), st.booleans()), max_size=6),
)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_simplify_idempotent(self, w):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(braid, "DEFAULT_BUDGET", 250)
            s = simplify(w)
            assert simplify(s) == s

    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_writhe_tracks_strand_reductions(self, w):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(braid, "DEFAULT_BUDGET", 250)
            s = simplify(w)
        assert w.writhe - (w.strands - s.strands) == s.writhe

    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_logs_replay_and_use_listed_moves_only(self, w):
        s, log = oracle_simplify(w, 250)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(braid, "DEFAULT_BUDGET", 250)
            assert simplify(w) == s == replay(w, log)
        assert {m.kind for m in log} <= MOVE_KINDS

    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_simplified_word_is_canonical(self, w):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(braid, "DEFAULT_BUDGET", 250)
            s = simplify(w)
        assert canonical(s) == s

    @settings(max_examples=30, deadline=None)
    @given(words)
    def test_search_members_replay(self, w):
        res = markov_search(w, 40)
        nodes, complete, expansions, logs = oracle_search(w, 40)
        assert (list(res), res.complete, res.expansions) == (nodes, complete, expansions)
        for out in nodes[:5]:
            assert replay(w, logs[out]) == out
