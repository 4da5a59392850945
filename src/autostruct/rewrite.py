"""Rewriting systems oriented by a reduction order, plus completion.

A system always carries the free-reduction rules (a generator followed by
its inverse cancels) ahead of the oriented relation rules, and rewriting is
deterministic: leftmost match first, lowest rule index on ties.  Completion
is the classic critical-pair loop with interreduction, run in bounded passes
so a caller can interleave it with other work and stop early; each pass
says why completion stopped, if it did.

The active left sides are indexed by a trie (the left-side index of Sims,
*Computation with Finitely Presented Groups*, 1994).  Each node is a dict
from symbol to child; a node where left sides end also holds, under the
key None, the ascending indices of the active rules with that left side.
Adding a rule inserts its path and deactivating one removes its index and
prunes the nodes left empty, so the trie always holds exactly the active
rules even while interreduction changes them mid-pass.  Rewriting walks
the trie from each position in turn; at the first position where some
left side matches it takes the lowest rule index among all left sides
that start there, whatever their lengths, and then backs up by the
longest left side so no earlier match is missed.

The completion queue pops by the length of the superposed word, then by
push order, so it is one first-in-first-out deque per length and a pointer
to the shortest length that may hold an entry.  A superposition waits as
three slots: the two rules' sides, as they were when it was pushed, and the
offset of the second left side in the first; its two reductions are
spelled only when it is popped, since a run pops few of the superpositions
it pushes.  A rule's sides are one (lhs, rhs) tuple, made when the rule
joins or its right side changes, so every entry pushed for one version of
a rule holds the same tuple.  A retired rule waits as its sides, None and
the offset _RETIRED.  A deque frees its slots as they pop, and goes once
it drains.

Completion keeps one invariant: every active right side is irreducible,
except those it has not normalized yet: the rules it was built with, all
due at the first new rule.  A new rule's left side L is a normal form
under the rules before it, so no active left side is a factor of L, and
every left side holding L is retired before pairing.  A right side the
completion normalized stays irreducible until a new left side occurs in
it, since retiring a rule never makes a word reducible, and a new rule's
right side, being earlier than L in a reduction order, cannot hold L.
So each new rule visits only:

* for interreduction, the rules with L as a factor of either side, plus
  the ones not yet normalized.  Each rule is spelled as one string, one
  character per generator, and a substring test on each string finds them;
* for pairing, the rules whose left side properly overlaps L: those that
  start with a proper suffix of L, found by bisecting the sorted left-side
  strings, and those that end with a proper prefix of L, found the same
  way in the sorted reversed strings.  Each bisect range is one overlap,
  of the suffix's or prefix's length, so the superpositions are queued
  from the overlaps the ranges found, in the order `_offsets` would yield
  them, with no word compared again.  The reversed strings are searched
  before L joins the index and the others after, so L's proper
  self-overlaps come once, from its own left side.  Containments cannot
  arise, and a key equal to the suffix or prefix, which would be one, is
  skipped.

Candidates are taken in ascending rule index, with retirements and
right-side rewrites interleaved as a scan over every rule would do them;
every rule skipped is one where that scan's rewrite or superposition was a
no-op, so the rules and the queue come out the same.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterable, Iterator, Optional

from .errors import InputError, LogicError
from .orders import EQ, GT, LT, Order
from .words import Word

CONFLUENT = "confluent"

MAX_RULES, MAX_LEN, MAX_PAIRS = 1000, 40, 200_000  # completion's caps


class RewriteSystem:
    """Ordered list of rules lhs -> rhs with rhs strictly earlier."""

    def __init__(self, order: Order):
        self.order = order
        self.rules = []  # [lhs, rhs, active]
        self._trie = {}
        self._active = 0
        self._max_lhs = 0
        self.changes = 0  # bumped by every change to the rules
        for g in order.alphabet.symbols:
            self._append((g, order.alphabet.inverse[g]), ())

    @classmethod
    def from_relations(cls, order: Order, relations: Iterable[tuple]) -> "RewriteSystem":
        rs = cls(order)
        for x, y in relations:
            rs.add_equation(x, y)
        return rs

    # ------------------------------------------------------------ building

    def _append(self, lhs: Word, rhs: Word) -> int:
        idx = len(self.rules)
        self.rules.append([lhs, rhs, True])
        node = self._trie
        for s in lhs:
            node = node.setdefault(s, {})
        node.setdefault(None, []).append(idx)
        self._active += 1
        self._max_lhs = max(self._max_lhs, len(lhs))
        self.changes += 1
        return idx

    def add_rule(self, lhs: Word, rhs: Word) -> int:
        """Append an oriented rule; the caller vouches for rhs < lhs."""
        if not lhs:
            raise LogicError("empty left-hand side")
        if self.order.compare(rhs, lhs) != LT:
            raise LogicError("rule is not oriented by the order")
        return self._append(lhs, rhs)

    def add_equation(self, x: Word, y: Word) -> Optional[int]:
        """Orient a valid group equation into a rule; drop it if trivial."""
        x = self.order.alphabet.check_word(x)
        y = self.order.alphabet.check_word(y)
        c = self.order.compare(x, y)
        if c == EQ:
            return None
        if c == LT:
            x, y = y, x
        return self.add_rule(x, y)

    def deactivate(self, idx: int) -> None:
        rule = self.rules[idx]
        if not rule[2]:
            return
        rule[2] = False
        self._active -= 1
        self.changes += 1
        path = [self._trie]
        for s in rule[0]:
            path.append(path[-1][s])
        ends = path[-1][None]
        ends.remove(idx)
        if not ends:
            del path[-1][None]
        # prune the nodes this left side alone kept alive, deepest first
        for depth in range(len(rule[0]), 0, -1):
            if path[depth]:
                break
            del path[depth - 1][rule[0][depth - 1]]

    def set_rhs(self, idx: int, rhs: Word) -> None:
        """Replace a rule's right side; the caller vouches that it spells
        the same element and stays earlier than the left side."""
        self.rules[idx][1] = rhs
        self.changes += 1

    def active(self) -> Iterator[tuple]:
        for lhs, rhs, on in self.rules:
            if on:
                yield lhs, rhs

    def active_count(self) -> int:
        return self._active

    # ----------------------------------------------------------- rewriting

    def rewrite(self, w: Word) -> Word:
        """Deterministic normal form of w under the active rules."""
        out = list(w)
        trie, rules = self._trie, self.rules
        n = len(out)
        i = 0
        while i < n:
            # the lowest rule index among the left sides starting at i
            node, best = trie, None
            for j in range(i, n):
                node = node.get(out[j])
                if node is None:
                    break
                ends = node.get(None)
                if ends is not None and (best is None or ends[0] < best):
                    best, end = ends[0], j + 1
            if best is None:
                i += 1
                continue
            out[i:end] = rules[best][1]
            n = len(out)
            # no earlier match can start before this window
            i = max(0, i - self._max_lhs + 1)
        return tuple(out)


# -------------------------------------------------------- critical pairs


def critical_pairs(lhs1: Word, rhs1: Word, lhs2: Word, rhs2: Word, same_rule: bool):
    """Superpositions of two rules: (superposed word, reduction 1, reduction 2).

    Proper overlaps (a suffix of the first left side equals a prefix of the
    second) and strict containments of the second inside the first.  The
    full self-overlap of a rule with itself is no superposition at all.
    """
    for at in _offsets(lhs1, lhs2, same_rule):
        p, q = _reductions(lhs1, rhs1, lhs2, rhs2, at)
        yield lhs1 + lhs2[len(lhs1) - at :], p, q


def _offsets(lhs1: Word, lhs2: Word, same_rule: bool) -> Iterator[int]:
    """Where the second left side starts in each superposition with the
    first, in the order `critical_pairs` yields them: proper overlaps by
    growing length, then containments from the left."""
    n1, n2 = len(lhs1), len(lhs2)
    for k in range(1, min(n1, n2)):
        if lhs1[n1 - k :] == lhs2[:k]:
            yield n1 - k
    for s in range(0, n1 - n2 + 1):
        if same_rule and s == 0 and n1 == n2:
            continue
        if lhs1[s : s + n2] == lhs2:
            yield s


def _reductions(lhs1: Word, rhs1: Word, lhs2: Word, rhs2: Word, at: int) -> tuple:
    """The two reductions of the superposition with lhs2 at offset at of
    lhs1; one spelling serves overlaps and containments, since the slices
    past a word's end are empty."""
    n1 = len(lhs1)
    return rhs1 + lhs2[n1 - at :], lhs1[:at] + rhs2 + lhs1[at + len(lhs2) :]


def is_confluent(rs: RewriteSystem) -> bool:
    """Do all critical pairs of the active rules join?"""
    rules = list(rs.active())
    for i, (l1, r1) in enumerate(rules):
        for j, (l2, r2) in enumerate(rules):
            for _sup, p, q in critical_pairs(l1, r1, l2, r2, i == j):
                if rs.rewrite(p) != rs.rewrite(q):
                    return False
    return True


# ------------------------------------------------------------- completion


_ARROW = "\x01"  # parts the two sides in a rule's text
_TOP = chr(0x10FFFF)  # sorts after every symbol's character
_RETIRED = -1  # the offset slot of a queued retired rule


class KbCompletion:
    """Critical-pair completion driver over a rewriting system.

    Runs in bounded passes; between passes the caller may inspect the
    rules and rewrite with them, but adds none.  Equations whose
    normalized sides exceed the length cap are discarded but remembered:
    a drained queue then means the system is incomplete, not confluent.
    Queue entries, as `pending` yields them, are (length, lhs1, rhs1,
    lhs2, rhs2, offset) for a superposition and (length, lhs, rhs) for a
    retired rule; `_pop` spells either as the equation it stands for.  The
    queue starts with every superposition of the rules the system holds;
    each rule the completion adds is then paired through the left-side
    indexes alone, itself included (see the module docstring).
    """

    def __init__(
        self,
        rs: RewriteSystem,
        max_rules: int = MAX_RULES,
        max_len: int = MAX_LEN,
    ):
        if max_rules < 1 or max_len < 1:
            raise InputError("completion caps must be positive")
        self.rs = rs
        self.max_rules = max_rules
        self.max_len = max_len
        self.discarded = False
        # the queue: per length, a deque of three slots per entry, or None
        # where none waits; the shortest length that may hold an entry; and
        # the entries waiting
        self._queue = []
        self._low = 0
        self._waiting = 0
        self._rule_sides = []  # per rule: its (lhs, rhs), None if never active
        chars = {g: chr(2 + k) for k, g in enumerate(rs.order.alphabet.symbols)}
        self._char = chars.__getitem__
        self._texts = []  # per rule: lhs, _ARROW, rhs; "" once retired
        self._heads = ([], [])  # sorted left sides, and their rule indices
        self._tails = ([], [])  # sorted reversed left sides, and theirs
        for i in range(len(rs.rules)):
            self._index(i)
        rules = [(i, s) for i, s in enumerate(self._rule_sides) if s is not None]
        # right sides the completion did not write may be reducible
        self._unnormalized = {i for i, _ in rules}
        for i, first in rules:
            for j, second in rules:
                self._push_pairs(first, second, i == j)

    def _push_pairs(self, first: tuple, second: tuple, same: bool) -> None:
        """Queue each superposition of the rules with sides first and
        second, keyed by its length, as those sides and the offset it is
        spelled from."""
        n1, n2 = len(first[0]), len(second[0])
        for at in _offsets(first[0], second[0], same):
            self._enqueue(max(n1, at + n2), first, second, at)

    def _enqueue(
        self, prio: int, first: tuple, second: Optional[tuple], offset: int
    ) -> None:
        """Queue one entry's three slots under prio: the first rule's
        (lhs, rhs), the second's and the offset, or a retired rule's
        (lhs, rhs), None and _RETIRED."""
        queue = self._queue
        if prio >= len(queue):
            queue += [None] * (prio + 1 - len(queue))
        slots = queue[prio]
        if slots is None:
            slots = queue[prio] = deque()
        slots.extend((first, second, offset))
        if prio < self._low:
            self._low = prio
        self._waiting += 1

    def _pop(self) -> tuple:
        """The next queued equation (p, q), spelled now; the queue must not
        be empty.  An entry holds the sides it was pushed with, which never
        change, so it spells the words it stood for when pushed."""
        queue, n = self._queue, self._low
        while queue[n] is None:
            n += 1
        self._low = n
        slots = queue[n]
        first, second, offset = slots.popleft(), slots.popleft(), slots.popleft()
        if not slots:
            queue[n] = None
        self._waiting -= 1
        if offset == _RETIRED:
            return first
        return _reductions(*first, *second, offset)

    def pending(self) -> Iterator[tuple]:
        """The queued entries in the order they will pop: (length, lhs,
        rhs) for a retired rule, (length, lhs1, rhs1, lhs2, rhs2, offset)
        for a superposition."""
        for n in range(self._low, len(self._queue)):
            slots = self._queue[n]
            if slots is None:
                continue
            slots = iter(slots)
            for first, second, offset in zip(slots, slots, slots):
                if offset == _RETIRED:
                    yield (n, *first)
                else:
                    yield (n, *first, *second, offset)

    # ------------------------------------------------------------ indexes

    def _spell(self, w: Word) -> str:
        return "".join(map(self._char, w))

    def _index(self, i: int) -> None:
        lhs, rhs, on = self.rs.rules[i]
        if not on:
            self._texts.append("")
            self._rule_sides.append(None)
            return
        self._rule_sides.append((lhs, rhs))
        word = self._spell(lhs)
        self._texts.append(word + _ARROW + self._spell(rhs))
        for (keys, ids), key in ((self._heads, word), (self._tails, word[::-1])):
            at = bisect_right(keys, key)
            keys.insert(at, key)
            ids.insert(at, i)

    # ---------------------------------------------------------------- loop

    def settled(self) -> bool:
        """Whether the active rules still imply every equation completion
        has met: none was discarded for length, and each retired rule still
        waiting in the queue rewrites to one word on both sides.  A retired
        rule is one of the group's relations until it is popped, and the
        pending superpositions follow from the rules and retired rules, so
        active rules that are also confluent (`is_confluent`) are complete."""
        rewrite = self.rs.rewrite
        return not self.discarded and all(
            rewrite(e[1]) == rewrite(e[2]) for e in self.pending() if len(e) == 3
        )

    def run(self, max_pairs: int) -> Optional[str]:
        """Process up to max_pairs queued superpositions and say why
        completion stopped: CONFLUENT once the queue drains with nothing
        discarded, the cap that fired ("rules" past max_rules active, or
        "rule length" once the queue drains with equations discarded), or
        None while superpositions are left and no cap has fired."""
        if max_pairs < 1:
            raise InputError("completion caps must be positive")
        done = 0
        rs = self.rs
        rules, texts, sides = rs.rules, self._texts, self._rule_sides
        enqueue = self._enqueue
        while self._waiting and done < max_pairs:
            if rs.active_count() > self.max_rules:
                break
            p, q = self._pop()
            done += 1
            p2, q2 = rs.rewrite(p), rs.rewrite(q)
            if p2 == q2:
                continue
            c = rs.order.compare(p2, q2)
            lhs, rhs = (p2, q2) if c == GT else (q2, p2)
            if len(lhs) > self.max_len or len(rhs) > self.max_len:
                self.discarded = True
                continue
            new_idx = rs.add_rule(lhs, rhs)
            word = self._spell(lhs)
            # interreduce: retire rules whose left side the new rule hits,
            # and renormalize the right sides it occurs in
            holding = {i for i, text in enumerate(texts) if word in text}
            for i in sorted(holding | self._unnormalized):
                old_lhs, old_rhs, _on = rules[i]
                if word in texts[i][: len(old_lhs)]:
                    rs.deactivate(i)
                    texts[i] = ""
                    enqueue(len(old_lhs), sides[i], None, _RETIRED)
                    continue
                reduced = rs.rewrite(old_rhs)
                if reduced != old_rhs:
                    rs.set_rhs(i, reduced)
                    sides[i] = (old_lhs, reduced)
                    head = texts[i][: len(old_lhs) + 1]  # through _ARROW
                    texts[i] = head + self._spell(reduced)
            self._unnormalized = set()
            # pair with the rules whose left side starts with a proper
            # suffix of the new one (side 0), or ends with a proper prefix
            # of it (side 1), pushing each overlap of k letters the index
            # found, sorted as `_offsets` yields them: rule by rule, side 0
            # first, k growing.  Side 0 is searched once the new rule is
            # indexed, so its self-overlaps come last, from there alone
            n = len(lhs)
            found = _overlapping(self._tails, word[::-1], 1)
            self._index(new_idx)
            found += _overlapping(self._heads, word, 0)
            new = sides[new_idx]
            for i, side, k in sorted(found):
                l2, _r2, on = rules[i]
                if not on:
                    continue
                n2, other = len(l2), sides[i]
                if side:
                    enqueue(n + n2 - k, other, new, n2 - k)
                else:
                    enqueue(n + n2 - k, new, other, n - k)
        if rs.active_count() > self.max_rules:
            return "rules"
        if self._waiting:
            return None
        return "rule length" if self.discarded else CONFLUENT


def _overlapping(index: tuple, word: str, side: int) -> list:
    """(rule index, side, k) for each key in index whose first k letters
    are word's last k, with k shorter than both.

    A key equal to a suffix of word would be a containment, and sorts
    first in its bisect range, so each range starts past it."""
    keys, ids = index
    n = len(word)
    out = []
    for j in range(1, n):
        suffix = word[j:]
        lo = bisect_right(keys, suffix)
        hi = bisect_left(keys, suffix + _TOP, lo)
        out += [(i, side, n - j) for i in ids[lo:hi]]
    return out
