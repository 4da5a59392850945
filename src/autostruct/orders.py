"""Reduction word orders.

Four kinds: plain shortlex, weighted lex, weighted shortlex, and the
level-wise wreath-product order.  Each is a translation-invariant well-order
on words with the empty word least, which is what both rewriting and the
acceptor construction need.

Comparison conventions:

* lex comparisons use the rank a symbol has in its alphabet, and a proper
  prefix precedes every extension of itself
* the weighted orders compare total weight first; the shortlex variant
  breaks weight ties by length before falling back to lex
* the wreath-product order (ECHLPT, *Word Processing in Groups*, 1992)
  compares the projections to the top level by shortlex and, on a tie,
  the segments between the top-level symbols one by one, each by the
  wreath order one level down

Every kind is given by a sort key: ``Order.key(u) < Order.key(v)`` exactly
when u precedes v, and ``compare`` compares keys.  A key is a flat tuple of
integers built from rank (and, for the wreath kind, level) tables made once
per order.  Each key is self-delimiting, since it states how many entries
follow before it lists them, so tuple order on a concatenation of keys is
the lexicographic order of the keys themselves.  The wreath key of a word
for the top level J is the length of its level-J projection, the ranks of
that projection, then the keys one level down of the segments before,
between and after its level-J symbols; one level below the lowest, the key
is the shortlex key (length, then ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import InputError
from .words import Alphabet, Word

LT, EQ, GT = -1, 0, 1

SHORTLEX = "shortlex"
WTLEX = "wtlex"
WTSHORTLEX = "wtshortlex"
WREATH = "wreathshortlex"

KINDS = (SHORTLEX, WTLEX, WTSHORTLEX, WREATH)


def lex_cmp(alpha: Alphabet, u: Word, v: Word) -> int:
    """Lexicographic comparison; a proper prefix precedes its extensions."""
    for a, b in zip(u, v):
        if a != b:
            return LT if alpha.rank(a) < alpha.rank(b) else GT
    return (len(u) > len(v)) - (len(u) < len(v))


def _key_function(kind: str, alpha: Alphabet):
    """The sort key of the order kind, closed over its integer tables."""
    rank = {s: i for i, s in enumerate(alpha.symbols)}.__getitem__
    weight = alpha.weights.__getitem__
    if kind == SHORTLEX:
        return lambda w: (len(w),) + tuple(map(rank, w))
    if kind == WTLEX:
        return lambda w: (sum(map(weight, w)),) + tuple(map(rank, w))
    if kind == WTSHORTLEX:
        return lambda w: (sum(map(weight, w)), len(w)) + tuple(map(rank, w))
    # levels renumbered 0, 1, ... so that a gap in the declared levels
    # costs nothing
    tiers = sorted(set(alpha.levels.values()))
    tier = {s: tiers.index(alpha.levels[s]) for s in alpha.symbols}.__getitem__

    def emit(w: Word, k: int, out: list) -> None:
        if k == 0:
            out.append(len(w))
            out.extend(map(rank, w))
            return
        cuts = [i for i, s in enumerate(w) if tier(s) == k]
        out.append(len(cuts))
        out.extend(rank(w[i]) for i in cuts)
        prev = 0
        for i in cuts:
            emit(w[prev:i], k - 1, out)
            prev = i + 1
        emit(w[prev:], k - 1, out)

    top = len(tiers) - 1

    def wreath_key(w: Word) -> tuple:
        out = []
        emit(w, top, out)
        return tuple(out)

    return wreath_key


@dataclass(frozen=True)
class Order:
    """An order kind bound to its alphabet."""

    alphabet: Alphabet
    kind: str
    _key: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown order kind {self.kind!r}")
        if self.kind == WREATH and self.alphabet.levels is None:
            raise InputError("the wreath-product order needs generator levels")
        object.__setattr__(self, "_key", _key_function(self.kind, self.alphabet))

    def key(self, w: Word) -> tuple:
        """Sort key of w: u precedes v exactly when key(u) < key(v)."""
        return self._key(w)

    def compare(self, u: Word, v: Word) -> int:
        if u == v:
            return EQ
        return LT if self._key(u) < self._key(v) else GT

    def precedes(self, u: Word, v: Word) -> bool:
        """Strictly earlier in the order."""
        return self.compare(u, v) == LT

    def weight(self, s: str) -> int:
        # Plain shortlex ignores declared weights entirely; reading them as 1
        # here keeps the history machinery consistent with compare().
        return 1 if self.kind == SHORTLEX else self.alphabet.weights[s]

    def word_weight(self, w: Word) -> int:
        return sum(self.weight(s) for s in w)
