"""Partial deterministic automata over one- and two-track alphabets.

States are 0..num_states-1 and a missing transition rejects.  Track-1
machines read plain words; track-2 machines read words of symbol pairs in
which the shorter of two words has been padded at its tail end.  Valid pair
words never pad both coordinates at once and never resume a track after it
padded; the padding discipline is its own small automaton, and complement is
taken relative to it.

Every construction returns machines in a canonical form: minimal, trimmed,
and numbered breadth-first in alphabet order, so identical languages
serialize identically and callers never minimize a result again.

Two helpers carry all the graph searches.  `explore` builds a machine
breadth-first from a start state and a successor function; every product
and subset construction here and in the acceptor and multiplier builders
goes through it.  `coreachable` is one backward search from acceptance,
used for trimming, enumeration and emptiness.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from .errors import InputError, LogicError, ResourceLimit
from .words import PAD, Word


def pair_symbols(gens: Iterable[str]) -> tuple:
    """Canonical two-track alphabet over the given ordered generators:
    every pair except (padding, padding), padding ranked last."""
    ext = tuple(gens) + (PAD,)
    return tuple(
        (a, b) for a in ext for b in ext if not (a == PAD and b == PAD)
    )


def _pad_kind(sym) -> int:
    # 0: both live, 1: track 2 padded, 2: track 1 padded
    a, b = sym
    if a == PAD:
        return 2
    if b == PAD:
        return 1
    return 0


class Fsa:
    """Partial DFA.  Instances are treated as immutable once built."""

    def __init__(self, symbols, num_states, start, accepting, transitions, track=1):
        self.symbols = tuple(symbols)
        self.num_states = int(num_states)
        self.start = int(start)
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)
        self.track = track
        self._symset = frozenset(self.symbols)

    # ------------------------------------------------------------- basics

    def validate(self) -> None:
        if self.num_states < 1:
            raise LogicError("a machine needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise LogicError("start state out of range")
        if self.track not in (1, 2):
            raise LogicError("track must be 1 or 2")
        if len(set(self.symbols)) != len(self.symbols):
            raise LogicError("duplicate symbols")
        for s in self.accepting:
            if not 0 <= s < self.num_states:
                raise LogicError("accepting state out of range")
        for (s, sym), t in self.transitions.items():
            if not 0 <= s < self.num_states or not 0 <= t < self.num_states:
                raise LogicError("transition endpoint out of range")
            if sym not in self._symset:
                raise LogicError(f"transition on foreign symbol {sym!r}")
        if self.track == 2:
            for sym in self.symbols:
                if not (isinstance(sym, tuple) and len(sym) == 2):
                    raise LogicError("track-2 symbols must be pairs")
                if sym == (PAD, PAD):
                    raise LogicError("the double-padding pair is not a symbol")

    def step(self, s: int, sym) -> Optional[int]:
        return self.transitions.get((s, sym))

    def accepts(self, w) -> bool:
        s = self.start
        for sym in w:
            s = self.transitions.get((s, sym))
            if s is None:
                return False
        return s in self.accepting

    def accepts_pair(self, w1: Word, w2: Word) -> bool:
        """Convenience for track-2 machines: pad two words and run them."""
        if self.track != 2:
            raise LogicError("accepts_pair needs a track-2 machine")
        return self.accepts(pad_pair(w1, w2))

    def is_empty(self) -> bool:
        return self.start not in coreachable(self)

    def successors(self, s: int) -> Iterator[tuple]:
        """(symbol, target) for each move out of s, in alphabet order."""
        for sym in self.symbols:
            t = self.transitions.get((s, sym))
            if t is not None:
                yield sym, t

    # -------------------------------------------------- canonical rebuilds

    def completed(self) -> tuple:
        """(machine with a total transition function, sink index)."""
        sink = self.num_states
        trans = dict(self.transitions)
        for s in range(self.num_states + 1):
            for sym in self.symbols:
                trans.setdefault((s, sym), sink)
        return (
            Fsa(self.symbols, sink + 1, self.start, self.accepting, trans, self.track),
            sink,
        )

    def minimized(self) -> "Fsa":
        """Canonical minimal partial DFA with the same language."""
        total, _sink = self.completed()
        n = total.num_states
        # Moore refinement on the completed machine
        block = [1 if s in total.accepting else 0 for s in range(n)]
        while True:
            sig = {}
            newblock = [0] * n
            for s in range(n):
                key = (block[s],) + tuple(
                    block[total.transitions[(s, sym)]] for sym in total.symbols
                )
                if key not in sig:
                    sig[key] = len(sig)
                newblock[s] = sig[key]
            if newblock == block:
                break
            block = newblock
        # quotient, then keep the states that can reach acceptance
        q_trans = {}
        for s in range(n):
            for sym in total.symbols:
                q_trans[(block[s], sym)] = block[total.transitions[(s, sym)]]
        quotient = Fsa(
            self.symbols, len(set(block)), block[self.start],
            {block[s] for s in total.accepting}, q_trans, self.track,
        )
        alive = coreachable(quotient)
        if quotient.start not in alive:
            return empty_fsa(self.symbols, self.track)

        def live_successors(s):
            for sym in self.symbols:
                t = q_trans[(s, sym)]
                if t in alive:
                    yield sym, t

        canon, _ = explore(
            self.symbols, quotient.start, live_successors,
            quotient.accepting.__contains__, self.track,
        )
        return canon

    def _bfs_form(self) -> tuple:
        """(reachable part renumbered breadth-first in alphabet order,
        the original state behind each new number)."""
        return explore(
            self.symbols, self.start, self.successors,
            self.accepting.__contains__, self.track,
        )

    # ------------------------------------------------------ rational ops

    def _check_compatible(self, other: "Fsa") -> None:
        if self.symbols != other.symbols or self.track != other.track:
            raise LogicError("machines over different alphabets")

    def intersect(self, other: "Fsa") -> "Fsa":
        self._check_compatible(other)

        def successors(pair):
            s, t = pair
            for sym in self.symbols:
                s2 = self.transitions.get((s, sym))
                t2 = other.transitions.get((t, sym))
                if s2 is not None and t2 is not None:
                    yield sym, (s2, t2)

        def is_accept(pair):
            return pair[0] in self.accepting and pair[1] in other.accepting

        raw, _ = explore(
            self.symbols, (self.start, other.start), successors, is_accept,
            self.track,
        )
        return raw.minimized()

    def union(self, other: "Fsa") -> "Fsa":
        self._check_compatible(other)
        a, _ = self.completed()
        b, _ = other.completed()

        def successors(pair):
            s, t = pair
            for sym in self.symbols:
                yield sym, (a.transitions[(s, sym)], b.transitions[(t, sym)])

        def is_accept(pair):
            return pair[0] in a.accepting or pair[1] in b.accepting

        raw, _ = explore(
            self.symbols, (a.start, b.start), successors, is_accept, self.track
        )
        return raw.minimized()

    def complement(self) -> "Fsa":
        """Complement within valid words: all words for track 1, the padding
        discipline's language for track 2."""
        total, _ = self.completed()
        flipped = Fsa(
            self.symbols,
            total.num_states,
            total.start,
            frozenset(range(total.num_states)) - total.accepting,
            total.transitions,
            self.track,
        )
        if self.track == 2:
            return flipped.intersect(pad_universe(self.symbols))
        return flipped.minimized()

    def project(self, keep: int) -> "Fsa":
        """Track-1 machine for one coordinate of a track-2 language.

        Pairs padded on the kept coordinate contribute nothing and become
        silent moves, so the result is built by subset construction.
        """
        if self.track != 2:
            raise LogicError("project needs a track-2 machine")
        if keep not in (1, 2):
            raise InputError("keep must be 1 or 2")
        idx = keep - 1
        silent = []
        visible = {}  # kept generator -> the pairs that read it
        for sym in self.symbols:
            out = sym[idx]
            if out == PAD:
                silent.append(sym)
            else:
                visible.setdefault(out, []).append(sym)

        def closure(states) -> frozenset:
            seen = set(states)
            queue = deque(states)
            while queue:
                s = queue.popleft()
                for sym in silent:
                    t = self.transitions.get((s, sym))
                    if t is not None and t not in seen:
                        seen.add(t)
                        queue.append(t)
            return frozenset(seen)

        def successors(cur):
            for g, syms in visible.items():
                nxt = set()
                for s in cur:
                    for sym in syms:
                        t = self.transitions.get((s, sym))
                        if t is not None:
                            nxt.add(t)
                if nxt:
                    yield g, closure(nxt)

        raw, _ = explore(
            tuple(visible), closure({self.start}), successors,
            lambda cur: not self.accepting.isdisjoint(cur), 1,
        )
        return raw.minimized()

    def compose(self, other: "Fsa") -> "Fsa":
        """Relational composition of two pair languages.

        Accepts (u, w) when some middle word v has (u, v) here and (v, w)
        there.  The middle word may outlive both outer words; such silent
        tail moves are folded into acceptance.  A machine whose input ends
        early freezes in an accepting state while the other finishes.
        """
        self._check_compatible(other)
        gens = tuple(g for g, b in self.symbols if g != PAD and b == PAD)
        # silent tail pairs: self reads (PAD, y) while other reads (y, PAD)
        tail = set()
        pool = {
            (sa, sb)
            for sa in self.accepting
            for sb in other.accepting
        }
        tail |= pool
        changed = True
        while changed:
            changed = False
            for sa in range(self.num_states):
                for sb in range(other.num_states):
                    if (sa, sb) in tail:
                        continue
                    for y in gens:
                        ta = self.transitions.get((sa, (PAD, y)))
                        tb = other.transitions.get((sb, (y, PAD)))
                        if ta is not None and tb is not None and (ta, tb) in tail:
                            tail.add((sa, sb))
                            changed = True
                            break

        LIVE, A_DONE, B_DONE = 0, 1, 2

        def moves(state, sym):
            sa, sb, tag = state
            x, z = sym
            out = set()
            if tag == A_DONE:
                if x == PAD:
                    tb = other.transitions.get((sb, (PAD, z)))
                    if tb is not None:
                        out.add((sa, tb, A_DONE))
                return out
            if tag == B_DONE:
                if z == PAD:
                    ta = self.transitions.get((sa, (x, PAD)))
                    if ta is not None:
                        out.add((ta, sb, B_DONE))
                return out
            for y in gens:
                ta = self.transitions.get((sa, (x, y)))
                tb = other.transitions.get((sb, (y, z)))
                if ta is not None and tb is not None:
                    out.add((ta, tb, LIVE))
            if x != PAD and z != PAD:
                ta = self.transitions.get((sa, (x, PAD)))
                tb = other.transitions.get((sb, (PAD, z)))
                if ta is not None and tb is not None:
                    out.add((ta, tb, LIVE))
            if x == PAD and sa in self.accepting:
                tb = other.transitions.get((sb, (PAD, z)))
                if tb is not None:
                    out.add((sa, tb, A_DONE))
            if z == PAD and sb in other.accepting:
                ta = self.transitions.get((sa, (x, PAD)))
                if ta is not None:
                    out.add((ta, sb, B_DONE))
            return out

        def is_accept(state):
            sa, sb, tag = state
            if tag == A_DONE:
                return sb in other.accepting
            if tag == B_DONE:
                return sa in self.accepting
            return (sa, sb) in tail

        start = {(self.start, other.start, LIVE)}
        composed = _determinize(self.symbols, 2, start, moves, is_accept)
        return composed.intersect(pad_universe(self.symbols))

    # -------------------------------------------------------- enumeration

    def enumerate_words(self, max_len: int) -> Iterator[tuple]:
        """Accepted words in length order, alphabet order within a length."""
        dist = coreachable(self)
        if self.start not in dist:
            return
        for n in range(max_len + 1):
            yield from self._enum_at(self.start, n, (), dist)

    def _enum_at(self, s, remaining, prefix, dist):
        if remaining == 0:
            if s in self.accepting:
                yield prefix
            return
        for sym in self.symbols:
            t = self.transitions.get((s, sym))
            if t is not None and dist.get(t, remaining + 1) <= remaining - 1:
                yield from self._enum_at(t, remaining - 1, prefix + (sym,), dist)

    def count_accepted(self, length: int) -> int:
        """Number of accepted words of exactly the given length."""
        vec = {self.start: 1}
        for _ in range(length):
            nxt = {}
            for s, c in vec.items():
                for sym in self.symbols:
                    t = self.transitions.get((s, sym))
                    if t is not None:
                        nxt[t] = nxt.get(t, 0) + c
            vec = nxt
        return sum(c for s, c in vec.items() if s in self.accepting)

    # -------------------------------------------------------- comparisons

    def equal_languages(self, other: "Fsa") -> Optional[tuple]:
        """None when the languages agree, else the shortest (then earliest
        in alphabet order) word accepted by exactly one machine.

        For track-2 machines only words obeying the padding discipline are
        compared; disagreement outside it is meaningless.
        """
        self._check_compatible(other)
        a, _ = self.completed()
        b, _ = other.completed()
        start = (a.start, b.start, 0)
        seen = {start}
        queue = deque([(start, ())])
        while queue:
            (sa, sb, pk), path = queue.popleft()
            if (sa in a.accepting) != (sb in b.accepting):
                return path
            for sym in self.symbols:
                if self.track == 2:
                    k = _pad_kind(sym)
                    if pk and k != pk:
                        continue
                    nk = k
                else:
                    nk = 0
                nxt = (a.transitions[(sa, sym)], b.transitions[(sb, sym)], nk)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, path + (sym,)))
        return None


def empty_fsa(symbols, track: int = 1) -> Fsa:
    return Fsa(symbols, 1, 0, frozenset(), {}, track)


def pad_universe(symbols) -> Fsa:
    """All pair words whose padding, if any, sits at one track's tail."""
    trans = {}
    for sym in symbols:
        k = _pad_kind(sym)
        trans[(0, sym)] = k
        if k:
            trans[(k, sym)] = k
    return Fsa(symbols, 3, 0, {0, 1, 2}, trans, 2)


def pad_pair(w1: Word, w2: Word) -> tuple:
    """Zip two words into a padded pair word."""
    n = max(len(w1), len(w2))
    return tuple(
        (w1[i] if i < len(w1) else PAD, w2[i] if i < len(w2) else PAD)
        for i in range(n)
    )


def _determinize(symbols, track, start_set, moves, is_accept) -> Fsa:
    """Subset construction over an implicit nondeterministic machine."""

    def successors(cur):
        for sym in symbols:
            nxt = set()
            for s in cur:
                nxt |= moves(s, sym)
            if nxt:
                yield sym, frozenset(nxt)

    raw, _ = explore(
        symbols, frozenset(start_set), successors,
        lambda cur: any(is_accept(s) for s in cur), track,
    )
    return raw.minimized()


def explore(symbols, start, successors, is_accept, track, max_states=None):
    """Build a machine breadth-first from start.

    successors(state) yields (symbol, next state) in alphabet order; states
    are any hashable values and are numbered as they are discovered.
    Returns (machine, the state behind each number).  Raises ResourceLimit
    when a new state would pass max_states.
    """
    ids = {start: 0}
    states = [start]
    transitions = {}
    accepting = []
    # the list of states is its own queue: it grows as they are discovered
    for sid, state in enumerate(states):
        if is_accept(state):
            accepting.append(sid)
        for sym, nxt in successors(state):
            tid = ids.get(nxt)
            if tid is None:
                tid = len(states)
                if max_states is not None and tid >= max_states:
                    raise ResourceLimit(
                        f"construction exceeded {max_states} states"
                    )
                ids[nxt] = tid
                states.append(nxt)
            transitions[(sid, sym)] = tid
    return Fsa(symbols, len(states), 0, accepting, transitions, track), states


def coreachable(fsa: Fsa) -> dict:
    """The states that can reach acceptance, each mapped to the length of
    its shortest path there."""
    back = {}
    for (s, _sym), t in fsa.transitions.items():
        back.setdefault(t, []).append(s)
    dist = {s: 0 for s in fsa.accepting}
    queue = deque(dist)
    while queue:
        t = queue.popleft()
        for s in back.get(t, ()):
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist
