"""Generator alphabets and the plain tuple words they spell.

A word is a tuple of symbol names; the empty tuple is the empty word.  The
padding symbol that two-track automata use to even out track lengths lives
here as well, so every module agrees on what padding looks like.
"""

from __future__ import annotations

from typing import Container, Iterable, Optional

from .errors import InputError, LogicError

PAD = "_"

Word = tuple  # tuple[str, ...]; the bare alias keeps annotations short

EMPTY: Word = ()

# "e" spells the empty word in text formats and "#" starts a comment, so
# neither may name a generator.  PAD is reserved for the automata.
_RESERVED = {PAD, "e", "#"}


def parse_word(text: str, alphabet: Container[str]) -> Word:
    """Read a word over the given symbols (an `Alphabet`, or a machine's
    `symbols`) from text.

    Whitespace-separated symbol names, or a run of single-character symbols
    when the text has no whitespace.  "e" (or nothing) is the empty word.
    A text that is one of the symbols is read as that one symbol, and every
    symbol is checked against them.
    """
    text = text.strip()
    if text in ("", "e"):
        return EMPTY
    if any(ch.isspace() for ch in text):
        w = tuple(text.split())
    elif text in alphabet:
        w = (text,)  # a single multi-character symbol, not a run
    else:
        w = tuple(text)
    for s in w:
        if s not in alphabet:
            raise InputError(f"unknown symbol {s!r} in word {text!r}")
    return w


def format_word(w: Word) -> str:
    """Inverse of parse_word, preferring the compact single-character form."""
    if not w:
        return "e"
    if all(len(s) == 1 for s in w):
        return "".join(w)
    return " ".join(w)


class Alphabet:
    """Ordered generators with a formal inverse involution.

    Position in ``symbols`` is the lex rank every order reads, so the
    construction order of the alphabet is semantically meaningful.  Weights
    default to 1 for every generator.  Levels are optional; only the
    wreath-product order needs them.

    Constraints enforced here:

    * symbol names are nonempty, contain no whitespace, and are not one of
      the reserved tokens ("e", "#", the padding symbol)
    * the inverse map is a total involution (a generator may be its own
      inverse)
    * weights are integers >= 1
    * levels, when present, are integers >= 1 and agree on inverse pairs
    """

    def __init__(
        self,
        symbols: Iterable[str],
        inverse: dict,
        weights: Optional[dict] = None,
        levels: Optional[dict] = None,
    ):
        self.symbols: tuple = tuple(symbols)
        if not self.symbols:
            raise InputError("alphabet needs at least one generator")
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or not s or any(c.isspace() for c in s):
                raise InputError(f"bad generator name {s!r}")
            if s in _RESERVED:
                raise InputError(f"generator name {s!r} is reserved")
            if s in seen:
                raise InputError(f"duplicate generator {s!r}")
            seen.add(s)
        self._rank = {s: i for i, s in enumerate(self.symbols)}

        self.inverse = dict(inverse)
        if set(self.inverse) - seen:
            extra = sorted(set(self.inverse) - seen)
            raise InputError(f"inverse map mentions unknown symbols {extra}")
        for s in self.symbols:
            t = self.inverse.get(s)
            if t is None:
                raise InputError(f"no inverse listed for generator {s!r}")
            if self.inverse.get(t) != s:
                raise InputError(f"inverse map is not an involution at {s!r}")

        if weights is None:
            self.weights = {s: 1 for s in self.symbols}
        else:
            self.weights = {}
            for s in self.symbols:
                if s not in weights:
                    raise InputError(f"no weight for generator {s!r}")
                w = weights[s]
                if not isinstance(w, int) or w < 1:
                    raise InputError(f"weight of {s!r} must be an integer >= 1")
                self.weights[s] = w

        self.levels: Optional[dict] = None
        if levels is not None:
            self.levels = {}
            for s in self.symbols:
                if s not in levels:
                    raise InputError(f"no level for generator {s!r}")
                lv = levels[s]
                if not isinstance(lv, int) or lv < 1:
                    raise InputError(f"level of {s!r} must be an integer >= 1")
                self.levels[s] = lv
            for s in self.symbols:
                if self.levels[s] != self.levels[self.inverse[s]]:
                    raise InputError(
                        f"{s!r} and its inverse must share a level"
                    )

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, s: str) -> bool:
        return s in self._rank

    def rank(self, s: str) -> int:
        try:
            return self._rank[s]
        except KeyError:
            raise InputError(f"unknown symbol {s!r}") from None

    def check_word(self, w: Iterable[str]) -> Word:
        w = tuple(w)
        for s in w:
            if s not in self._rank:
                raise InputError(f"unknown symbol {s!r} in word")
        return w

    def invert(self, w: Word) -> Word:
        """Group inverse of a word: reverse it and invert each symbol."""
        return tuple(self.inverse[s] for s in reversed(w))

    def level(self, s: str) -> int:
        if self.levels is None:
            raise LogicError("alphabet has no levels")
        return self.levels[s]

    def max_level(self, w: Word) -> int:
        """Highest level appearing in w; 0 for the empty word."""
        if self.levels is None:
            raise LogicError("alphabet has no levels")
        return max((self.levels[s] for s in w), default=0)

    def project(self, w: Word, j: int) -> Word:
        """Subsequence of w at level exactly j."""
        if self.levels is None:
            raise LogicError("alphabet has no levels")
        return tuple(s for s in w if self.levels[s] == j)

    def prefix_below(self, w: Word, j: int) -> Word:
        """Longest prefix of w whose symbols all have level < j."""
        if self.levels is None:
            raise LogicError("alphabet has no levels")
        for i, s in enumerate(w):
            if self.levels[s] >= j:
                return w[:i]
        return w
