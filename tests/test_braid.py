"""Braid words: parsing, canonical forms, transverse moves, bounded search."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krlab.braid import (
    MOVE_KINDS,
    BraidWord,
    Move,
    canonical,
    canonical_with_moves,
    markov_search,
    parse,
    replay,
    simplify,
    simplify_with_log,
    word_text,
)


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

    def test_idempotent(self):
        w = parse("2 -1 2 2")
        assert canonical(canonical(w)) == canonical(w)

    def test_moves_replay(self):
        w = parse("1 -1 2 1")
        c, moves = canonical_with_moves(w)
        assert replay(w, moves) == c


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
        s, log = simplify_with_log(w)
        assert replay(w, log) == s
        assert s == BraidWord(2, ((1, 1), (1, 1)))

    def test_log_format(self):
        _, log = simplify_with_log(parse("1 -1 2"))
        assert [(m.kind, m.position) for m in log] == [("free-cancel", 0), ("destabilize", 0)]


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


def oracle_search(w, budget, max_length):
    """markov_search as first written: every neighbour move is tried through
    replay, in the search's order, and each reached word keeps its full log.
    Returns (words best first, complete, expansions, {word: log})."""
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


def reduced_words(strands, max_length):
    letters = [(g, s) for g in range(1, strands) for s in (1, -1)]
    words = [()]
    for length in range(max_length):
        words += [
            w + (x,)
            for w in words
            if len(w) == length
            for x in letters
            if not w or w[-1] != (x[0], -x[1])
        ]
    return [BraidWord(strands, w) for w in words]


class TestMarkovSearch:
    def test_matches_the_oracle_on_short_words(self):
        # simplify's length allowance; a budget that cuts some searches short
        words = reduced_words(3, 3)
        assert len(words) == 53
        completes = set()
        for w in words:
            res = markov_search(w, 60, max_length=len(w.letters) + 4)
            nodes, complete, expansions, logs = oracle_search(w, 60, len(w.letters) + 4)
            assert list(res) == nodes, w
            assert (res.complete, res.expansions) == (complete, expansions), w
            for v in res:
                assert res.moves_to(v) == logs[v], (w, v)
            completes.add(complete)
        assert completes == {True, False}

    def test_moves_to_replays_every_move_kind(self):
        w = parse("1 3 -1 2", strands=4)
        res = markov_search(w, 300, max_length=len(w.letters) + 2)
        kinds = set()
        for v in res:
            moves = res.moves_to(v)
            assert replay(w, moves) == v
            kinds |= {m.kind for m in moves}
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
        res = markov_search(parse("1"), 500, max_length=3)
        assert res.complete
        assert BraidWord(1, ()) in res

    def test_ordering_best_first(self):
        res = markov_search(parse("1 -1 2"), 300, max_length=5)
        assert res[0] == BraidWord(2, ())

    def test_every_path_replays(self):
        w = parse("1 2 1")
        res = markov_search(w, 60, max_length=5)
        for out in res:
            moves = res.moves_to(w=out)
            assert replay(w, moves) == out
            assert {m.kind for m in moves} <= MOVE_KINDS

    def test_unreached_word_raises(self):
        res = markov_search(parse("1"), 1)
        with pytest.raises(KeyError):
            res.moves_to(BraidWord(5, ()))


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
        s = simplify(w, budget=250)
        assert simplify(s, budget=250) == s

    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_writhe_tracks_strand_reductions(self, w):
        s = simplify(w, budget=250)
        assert w.writhe - (w.strands - s.strands) == s.writhe

    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_logs_replay_and_use_listed_moves_only(self, w):
        s, log = simplify_with_log(w, budget=250)
        assert replay(w, log) == s
        assert {m.kind for m in log} <= MOVE_KINDS

    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_simplified_word_is_canonical(self, w):
        s = simplify(w, budget=250)
        assert canonical(s) == s

    @settings(max_examples=30, deadline=None)
    @given(words)
    def test_search_members_replay(self, w):
        res = markov_search(w, 40, max_length=len(w.letters) + 2)
        for out in res[:5]:
            assert replay(w, res.moves_to(out)) == out
