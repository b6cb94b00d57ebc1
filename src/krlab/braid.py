"""Braid words, transverse Markov moves, and a bounded rewrite search.

Letters are (generator index, sign) pairs; a word lives in B_m with indices
1..m-1.  The rewrite moves are exactly the transverse ones: free cancellation,
cyclic rotation (conjugation by a prefix), single-letter conjugation, the
braid relation s_i s_j s_i = s_j s_i s_j for |i-j| = 1, far commutation for
|i-j| >= 2, and positive destabilization (the unique, positive, top-index
letter is removed together with its strand).  Negative destabilization does
not exist here and trivial top strands are never dropped.

Every derived word carries a move log: a list of Moves, each a (kind,
position) pair, with no text format of its own.  Positions refer to the
word the move is applied to; a "rotate" move at r conjugates by the first r
letters; "conjugate" stores the signed generator index in the position
field.  replay() re-applies a log, validating each move, so tests can
certify that only listed moves were used.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

MOVE_KINDS = frozenset(
    {"free-cancel", "rotate", "conjugate", "braid-relation", "far-commute", "destabilize"}
)

_SYMBOLIC = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")
_NUMERIC = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.strands, int) or self.strands < 1:
            raise ValueError(f"strand count must be a positive integer, got {self.strands}")
        for i, s in self.letters:
            if not 1 <= i <= self.strands - 1:
                raise ValueError(f"letter index {i} out of range for {self.strands} strands")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")

    @property
    def writhe(self) -> int:
        return sum(s for _, s in self.letters)

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {word_text(self)!r})"


def parse(text: str, strands: int | None = None) -> BraidWord:
    """Read a word from signed integers ("1 -2 1") or powers ("s1 s2^-1")."""
    letters: list[tuple[int, int]] = []
    for token in text.split():
        m = _SYMBOLIC.match(token)
        if m:
            idx = int(m.group(1))
            power = int(m.group(2)) if m.group(2) is not None else 1
            if power not in (1, -1):
                raise ValueError(f"token {token!r}: only powers 1 and -1 are single letters")
            sign = power
        elif _NUMERIC.match(token):
            v = int(token)
            idx, sign = abs(v), (1 if v > 0 else -1)
        else:
            raise ValueError(f"malformed braid letter {token!r}")
        if idx <= 0:
            raise ValueError(f"generator index must be positive in {token!r}")
        letters.append((idx, sign))
    needed = max((i for i, _ in letters), default=0) + 1
    if strands is None:
        strands = max(needed, 1)
    elif strands < needed:
        raise ValueError(f"too few strands: the word needs {needed}, got {strands}")
    return BraidWord(strands, tuple(letters))


def word_text(w: BraidWord) -> str:
    return " ".join(str(i * s) for i, s in w.letters)


# ---------------------------------------------------------------------------
# Moves and logs


@dataclass(frozen=True)
class Move:
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


# ---------------------------------------------------------------------------
# Canonical form


def _reduce(letters: list[tuple[int, int]], log: list[Move] | None) -> list[tuple[int, int]]:
    """Free reduction, cancelling each pair as it meets the reduced prefix."""
    out: list[tuple[int, int]] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
            if log is not None:
                log.append(Move("free-cancel", len(out)))
        else:
            out.append(letter)
    return out


def _least_rotation(letters: list[tuple[int, int]]) -> int:
    """The first r whose rotation letters[r:] + letters[:r] is least.

    A least rotation starts at a least letter, so only those starts are
    compared, and only when there are several.
    """
    first = min(letters)
    if letters.count(first) == 1:
        return letters.index(first)
    starts = [k for k, letter in enumerate(letters) if letter == first]
    n = len(letters)
    doubled = letters + letters
    return min(starts, key=lambda k: doubled[k : k + n])


def _canonical_letters(
    letters: list[tuple[int, int]], log: list[Move] | None = None
) -> list[tuple[int, int]]:
    """Freely reduce, then rotate to the least rotation; log=None keeps no log."""
    letters = _reduce(letters, log)
    if len(letters) > 1:
        r = _least_rotation(letters)
        if r:
            if log is not None:
                log.append(Move("rotate", r))
            letters = letters[r:] + letters[:r]
    return letters


def canonical_with_moves(w: BraidWord) -> tuple[BraidWord, list[Move]]:
    """Freely reduce, then take the lexicographically least cyclic rotation."""
    log: list[Move] = []
    letters = _canonical_letters(list(w.letters), log)
    return BraidWord(w.strands, tuple(letters)), log


def canonical(w: BraidWord) -> BraidWord:
    return canonical_with_moves(w)[0]


def _order_key(w: BraidWord) -> tuple:
    return (w.strands, len(w.letters), w.letters)


# ---------------------------------------------------------------------------
# Search


def _neighbors(word: BraidWord):
    """Single transverse moves from a word, as (rotation, kind, position,
    letters, strands): rotate by rotation, then apply the move kind at
    position, which yields letters on strands.

    Rotation-sensitive moves are offered at cyclic position 0 of every
    rotation, which covers all cyclic sites exactly once.
    """
    m = word.strands
    letters = list(word.letters)
    n = len(letters)
    for r in range(max(n, 1)):
        base = letters[r:] + letters[:r]
        for k in range(1, m):
            for s in (1, -1):
                yield r, "conjugate", k * s, [(k, -s), *base, (k, s)], m
        if n >= 2:
            a, b = base[0], base[1]
            if a[0] == b[0] and a[1] == -b[1]:
                yield r, "free-cancel", 0, base[2:], m
            if abs(a[0] - b[0]) >= 2:
                yield r, "far-commute", 0, [b, a, *base[2:]], m
        if n >= 3:
            a, b, c = base[0], base[1], base[2]
            if a == c and a[1] == b[1] and abs(a[0] - b[0]) == 1:
                yield r, "braid-relation", 0, [(b[0], a[1]), a, (b[0], a[1]), *base[3:]], m
    if m >= 2:
        top = [p for p, (i, _) in enumerate(letters) if i == m - 1]
        if len(top) == 1 and letters[top[0]][1] == 1:
            p = top[0]
            yield 0, "destabilize", p, letters[:p] + letters[p + 1 :], m - 1


class SearchResult(list):
    """Reachable canonical words, best (fewest strands, shortest) first.

    complete is False when the budget ran out with the frontier nonempty;
    moves_to(word) reconstructs a full move log from the raw input.
    """

    complete: bool
    expansions: int

    def __init__(self, words, complete, expansions, prelude, parents, start_key):
        super().__init__(words)
        self.complete = complete
        self.expansions = expansions
        self._prelude = tuple(prelude)
        self._parents = parents
        self._start_key = start_key

    def moves_to(self, w: BraidWord) -> list[Move]:
        key = (w.strands, w.letters)
        if key not in self._parents:
            raise KeyError(f"{w!r} was not reached by this search")
        steps = []
        while key != self._start_key:
            parent, rotation, kind, position = self._parents[key]
            steps.append((BraidWord(*parent), rotation, kind, position))
            key = parent
        out = list(self._prelude)
        for parent, rotation, kind, position in reversed(steps):
            chunk = [Move("rotate", rotation)] if rotation else []
            chunk.append(Move(kind, position))
            moved = replay(parent, chunk)
            _canonical_letters(list(moved.letters), chunk)
            out.extend(chunk)
        return out


def markov_search(w: BraidWord, budget: int, max_length: int | None = None) -> SearchResult:
    """Breadth-first closure under the transverse moves, memoized on
    canonical forms; budget counts node expansions.

    max_length, when given, prunes intermediate words longer than that; it
    makes the explored component finite at the cost of reachability.  Each
    reached word stores its parent and the move that reached it, from which
    moves_to rebuilds the log.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    start, prelude = canonical_with_moves(w)
    start_key = (start.strands, start.letters)
    parents: dict[tuple, tuple | None] = {start_key: None}
    nodes: dict[tuple, BraidWord] = {start_key: start}
    queue: deque[tuple] = deque([start_key])
    expansions = 0
    while queue and expansions < budget:
        key = queue.popleft()
        expansions += 1
        for rotation, kind, position, cand, strands in _neighbors(nodes[key]):
            letters = _canonical_letters(cand)
            if max_length is not None and len(letters) > max_length:
                continue
            ck = (strands, tuple(letters))
            if ck not in parents:
                parents[ck] = (key, rotation, kind, position)
                nodes[ck] = BraidWord(strands, ck[1])
                queue.append(ck)
    words = sorted(nodes.values(), key=_order_key)
    return SearchResult(words, not queue, expansions, prelude, parents, start_key)


# ---------------------------------------------------------------------------
# Simplification


DEFAULT_BUDGET = 2000


def simplify_with_log(w: BraidWord, budget: int = DEFAULT_BUDGET) -> tuple[BraidWord, list[Move]]:
    """Best reachable word (fewest strands, then shortest, then lex) and the
    move log that realizes it; iterated to a fixpoint, hence idempotent.

    The search allows intermediate words to grow by four letters, enough for
    the conjugation chains that expose a destabilizable top generator.
    """
    current, log = canonical_with_moves(w)
    while True:
        result = markov_search(current, budget, max_length=len(current.letters) + 4)
        best = result[0]
        if _order_key(best) >= _order_key(current):
            return current, log
        log.extend(result.moves_to(best))
        current = best


def simplify(w: BraidWord, budget: int = DEFAULT_BUDGET) -> BraidWord:
    return simplify_with_log(w, budget)[0]
