"""Braid words, transverse Markov moves, and a bounded rewrite search.

Letters are (generator index, sign) pairs; a word lives in B_m with indices
1..m-1.  The rewrite moves are exactly the transverse ones: free cancellation,
cyclic rotation (conjugation by a prefix), single-letter conjugation, the
braid relation s_i s_j s_i = s_j s_i s_j for |i-j| = 1, far commutation for
|i-j| >= 2, and positive destabilization (the unique, positive, top-index
letter is removed together with its strand).  Negative destabilization does
not exist here and trivial top strands are never dropped.

canonical() and markov_search work on packed words: a str with one
character per letter, (i, s) packed as chr(64 + 2i + (s > 0)).  A letter's
inverse flips the low bit of its code, and string order is the order of the
(i, s) tuples, so free reduction, the least rotation and the search's sort
read the same on packed words as on letter tuples.  Only the words a search
returns are unpacked.  A braid on more than MAX_SEARCH_STRANDS strands has
codes past the last character and is refused with BudgetError.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .poly import BudgetError

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
# Packed words and canonical form


# The most strands a packed word can hold: its largest code, chr(63 + 2m),
# must be a character.
MAX_SEARCH_STRANDS = (sys.maxunicode - 63) // 2


def _pack(w: BraidWord) -> str:
    if w.strands > MAX_SEARCH_STRANDS:
        raise BudgetError(
            f"{w.strands} strands is over the {MAX_SEARCH_STRANDS} a Markov search can hold"
        )
    return "".join([chr(64 + 2 * i + (s > 0)) for i, s in w.letters])


class _Letters(dict):
    """Packed character to letter, decoding each character once."""

    def __missing__(self, c: str) -> tuple[int, int]:
        code = ord(c)
        letter = self[c] = ((code - 64) >> 1, (code & 1) * 2 - 1)
        return letter


def _unpack(words: Iterable[tuple[int, str]]) -> list[BraidWord]:
    """BraidWords from (strands, packed word) pairs.  They share one tuple
    per letter, which keeps a large search's result small."""
    letters = _Letters()
    return [BraidWord(m, tuple(map(letters.__getitem__, word))) for m, word in words]


def _reduced(word: str) -> str:
    """Freely reduce, cancelling each pair as it meets the reduced prefix."""
    out: list[str] = []
    for c in word:
        if out and ord(out[-1]) == ord(c) ^ 1:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def _least_rotation(word: str) -> str:
    """The least cyclic rotation.  It starts at a least letter, so only those
    starts are compared, and only when there are several."""
    if len(word) < 2:
        return word
    first = min(word)
    if word.count(first) == 1:
        before, _, after = word.partition(first)
        return first + after + before
    n = len(word)
    doubled = word + word
    return min(doubled[k : k + n] for k in range(n) if word[k] == first)


def _canonical(word: str) -> str:
    return _least_rotation(_reduced(word))


def canonical(w: BraidWord) -> BraidWord:
    """Freely reduce, then take the lexicographically least cyclic rotation."""
    return _unpack([(w.strands, _canonical(_pack(w)))])[0]


def _order_key(w: BraidWord) -> tuple:
    return (w.strands, len(w.letters), w.letters)


# ---------------------------------------------------------------------------
# Search


# Letters a search's intermediate words may grow by: enough for the
# conjugation chains that expose a destabilizable top generator.
MARKOV_SLACK = 4


class SearchResult(list):
    """Reachable canonical words, best (fewest strands, shortest) first.

    complete is False when the budget ran out with the frontier nonempty.
    """

    complete: bool
    expansions: int

    def __init__(self, words, complete, expansions):
        super().__init__(words)
        self.complete = complete
        self.expansions = expansions


def markov_search(w: BraidWord, budget: int) -> SearchResult:
    """Breadth-first closure under the transverse moves, memoized on
    canonical forms; budget counts node expansions.

    Intermediate words longer than w by more than MARKOV_SLACK letters are
    pruned; that makes the explored component finite at the cost of
    reachability.

    Order.  A node's neighbours come in a fixed order: for each rotation
    base of the node in turn, the conjugations x^-1 base x by x = s1, s1^-1,
    s2, s2^-1, ...; then cancelling, far-commuting and braid-relating the
    first letters of base; and after all rotations the positive
    destabilization.  A canonical form joins the queue when it is first met,
    so a search cut by its budget returns the words this order reaches.
    Every shortcut below skips only a neighbour whose canonical form was
    offered before, and offering a form again changes nothing, so the words,
    complete and expansions are those of canonicalising every neighbour.

    End cases.  Free reduction commutes with conjugation, so x^-1 base x has
    the canonical form of x^-1 R x, R being base freely reduced.  If R
    starts with x and ends with x^-1, both ends cancel, leaving R without
    them.  If one end cancels, the result is a rotation of R.  If neither
    does, x^-1 R x is reduced and has |R| + 2 letters, so it is pruned on
    its length before it is built.  Each is only least-rotated.

    Cyclically reduced nodes.  Each rotation of such a node is its own R,
    and its one-end cases are rotations of the node itself.  Any other node
    is the least rotation of a freely reduced word F whose ends cancel d
    letters deep; a rotation of F reduces only at its seam, at most d
    letters each way, so R is sliced from F with no reduction loop.

    Met strings.  Conjugating by every x gives the same words for every node
    that reduces to the same R, so a per-search set, one per strand count,
    keeps the R of nodes that are not cyclically reduced, and an R met
    again is not conjugated again.  Another such set keeps the raw words
    left by free cancellation and destabilization, which repeat across
    nodes in the same way, and skips one met again before reducing it.
    Far-commuted and braid-related words almost never repeat, so they are
    canonicalised without a set.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    start = _canonical(_pack(w))
    longest = len(w.letters) + MARKOV_SLACK
    found: dict[int, set[str]] = {w.strands: {start}}
    met: dict[int, set[str]] = {}
    conjugated: dict[int, set[str]] = {}
    conjugators: dict[int, list[tuple[str, str]]] = {}
    queue: deque[tuple[int, str]] = deque([(w.strands, start)])
    expansions = 0

    def offer(m: int, word: str) -> None:
        if len(word) <= longest:
            group = found.setdefault(m, set())
            if word not in group:
                group.add(word)
                queue.append((m, word))

    def offer_raw(m: int, raw: str) -> None:
        seen = met.setdefault(m, set())
        if raw not in seen:
            seen.add(raw)
            offer(m, _canonical(raw))

    def conjugate(m: int, R: str, near: str) -> None:
        """Offer x^-1 R x for every letter x in order; near is the canonical
        form of the cases where an end cancels."""
        if len(R) + 2 > longest:
            offer(m, near)
            return
        head, tail = R[0], chr(ord(R[-1]) ^ 1)
        group = found[m]
        for inv, x in conjugators[m]:
            word = near if x == head or x == tail else _least_rotation(inv + R + x)
            if word not in group:
                group.add(word)
                queue.append((m, word))

    while queue and expansions < budget:
        m, node = queue.popleft()
        expansions += 1
        n = len(node)
        if m not in conjugators:
            # (x^-1, x) for x = s1, s1^-1, s2, s2^-1, ...
            conjugators[m] = [(chr(c), chr(c ^ 1)) for c in range(66, 64 + 2 * m)]
        codes = [ord(c) for c in node]
        # A node is the least rotation of a freely reduced word, so at most one
        # of its cyclically adjacent pairs, node[p - 1] node[p], cancels.
        p = next((j for j in range(n) if codes[j - 1] ^ 1 == codes[j]), None)
        if p is not None:
            # cut there, F is freely reduced and its first d letters cancel
            # against its last d; a rotation of F reduces at that junction
            F = node[p:] + node[:p]
            d = 1
            while ord(F[d]) ^ 1 == ord(F[n - 1 - d]):
                d += 1
            done = conjugated.setdefault(m, set())
        for r in range(n):
            base = node[r:] + node[:r]
            if p is None:
                conjugate(m, base, node)
            else:
                t = (r - p) % n
                k = min(d, t, n - t)
                R = F[t : n - k] + F[k:t]
                if R not in done:
                    done.add(R)
                    both = ord(R[0]) ^ 1 == ord(R[-1])
                    conjugate(m, R, _least_rotation(R[1:-1] if both else R))
            if n >= 2:
                a, b = codes[r], codes[(r + 1) % n]
                if a ^ 1 == b:
                    offer_raw(m, base[2:])
                if abs((a >> 1) - (b >> 1)) >= 2:
                    offer(m, _canonical(base[1] + base[0] + base[2:]))
                if (n >= 3 and base[2] == base[0] and a & 1 == b & 1
                        and abs((a >> 1) - (b >> 1)) == 1):
                    offer(m, _canonical(base[1] + base[0] + base[1] + base[3:]))
        if m >= 2:
            top = chr(63 + 2 * m)
            if chr(62 + 2 * m) not in node and node.count(top) == 1:
                offer_raw(m - 1, node.replace(top, ""))
    met.clear()  # freed before the result is unpacked, to lower the peak
    conjugated.clear()
    words = sorted((m, len(word), word) for m, group in found.items() for word in group)
    return SearchResult(_unpack((m, word) for m, _, word in words), not queue, expansions)


# ---------------------------------------------------------------------------
# Simplification


DEFAULT_BUDGET = 2000


def simplify(w: BraidWord) -> BraidWord:
    """Best reachable word (fewest strands, then shortest, then lex),
    iterated to a fixpoint, hence idempotent.  Each search may expand
    DEFAULT_BUDGET words.

    A complete search from current that finds a best word no longer than
    current is already the fixpoint, so best is returned without searching
    from it again.  That search would allow len(best) + MARKOV_SLACK
    letters, at most the first search's bound, and the first search's words
    are closed under every move within that bound, since each was expanded.
    So every word the second search reaches lies among the first search's,
    of which best is the least: it would return best again.
    """
    current = canonical(w)
    while True:
        found = markov_search(current, DEFAULT_BUDGET)
        best = found[0]
        if _order_key(best) >= _order_key(current):
            return current
        if found.complete and len(best.letters) <= len(current.letters):
            return best
        current = best
