"""Independent oracles for the benchmark's answer checks.

Nothing here imports autostruct.  Rules and word acceptors are read
straight from their serialized text, and rewriting, walking, counting and
enumeration are redone with plain code, so a fault shared by the
program's parser, its automata and its pipeline cannot vouch for itself.
"""

from __future__ import annotations


def _word(toks: list) -> tuple:
    return () if toks == ["e"] else tuple(toks)


def read_rules(text: str) -> list:
    """(lhs, rhs) pairs of an R.rws text, in file order."""
    rules = []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] == "rule":
            i = toks.index("->")
            rules.append((_word(toks[1:i]), _word(toks[i + 1:])))
    return rules


class Factors:
    """Membership test for 'has some left-hand side as a factor'."""

    def __init__(self, lhss):
        self.lhss = frozenset(lhss)
        self.lengths = sorted({len(l) for l in self.lhss})

    def occurs_in(self, w: tuple) -> bool:
        return any(
            w[i:i + n] in self.lhss
            for n in self.lengths
            for i in range(len(w) - n + 1)
        )

    def ends(self, w: tuple) -> bool:
        return any(n <= len(w) and w[-n:] in self.lhss for n in self.lengths)


def free_words(symbols, factors: Factors, max_len: int) -> list:
    """Words with no left-hand side as a factor, by length, then in
    alphabet order."""
    out = []

    def grow(w, left):
        if left == 0:
            out.append(w)
            return
        for a in symbols:
            v = w + (a,)
            if not factors.ends(v):
                grow(v, left - 1)

    for n in range(max_len + 1):
        grow((), n)
    return out


def normal_form(w: tuple, rules) -> tuple:
    """Rewrite until no left-hand side occurs.

    Letters move one at a time onto an irreducible stack; a left-hand side
    can only appear as a suffix of the stack, and its right-hand side goes
    back onto the input.  For a confluent system every strategy reaches the
    same word, so this is an oracle for the program's normal forms there.
    """
    by_len = {}
    for lhs, rhs in rules:
        by_len.setdefault(len(lhs), {}).setdefault(lhs, rhs)
    lengths = sorted(by_len)
    out = []
    pending = list(reversed(w))
    while pending:
        out.append(pending.pop())
        for n in lengths:
            rhs = by_len[n].get(tuple(out[-n:])) if n <= len(out) else None
            if rhs is not None:
                del out[-n:]
                pending.extend(reversed(rhs))
                break
    return tuple(out)


class WordMachine:
    """A word acceptor read from W.fsa text (states kept 1-based)."""

    def __init__(self, text: str):
        head = {}
        self.table = {}
        for line in text.splitlines():
            toks = line.split()
            if not toks:
                continue
            if toks[0] in ("fsa", "type", "alphabet", "pad", "states",
                           "start", "accept", "label"):
                head[toks[0]] = toks[1:]
            else:
                s, sym, t = toks
                self.table[(int(s), sym)] = int(t)
        if head.get("type") != ["word"]:
            raise ValueError("not a word acceptor")
        self.symbols = tuple(head["alphabet"])
        self.start = int(head["start"][0])
        self.accepting = frozenset(int(s) for s in head["accept"])
        self._live = [self.accepting]

    def accepts(self, w) -> bool:
        s = self.start
        for a in w:
            s = self.table.get((s, a))
            if s is None:
                return False
        return s in self.accepting

    def growth(self, max_len: int) -> list:
        """Accepted words of each length 0..max_len."""
        counts = []
        vec = {self.start: 1}
        for n in range(max_len + 1):
            counts.append(sum(c for s, c in vec.items() if s in self.accepting))
            nxt = {}
            for s, c in vec.items():
                for a in self.symbols:
                    t = self.table.get((s, a))
                    if t is not None:
                        nxt[t] = nxt.get(t, 0) + c
            vec = nxt
        return counts

    def _live_within(self, steps: int) -> frozenset:
        # states from which some accepted word is exactly `steps` long
        while len(self._live) <= steps:
            prev = self._live[-1]
            self._live.append(frozenset(
                s for (s, _a), t in self.table.items() if t in prev
            ))
        return self._live[steps]

    def words(self, max_len: int) -> list:
        """Accepted words by length, then in alphabet order."""
        out = []

        def walk(s, w, left):
            if left == 0:
                out.append(w)
                return
            for a in self.symbols:
                t = self.table.get((s, a))
                if t is not None and t in self._live_within(left - 1):
                    walk(t, w + (a,), left - 1)

        for n in range(max_len + 1):
            if self.start in self._live_within(n):
                walk(self.start, (), n)
        return out
