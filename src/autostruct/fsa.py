"""Partial deterministic automata over one- and two-track alphabets.

States are 0..num_states-1 and a missing move rejects.  A machine holds its
moves as one row per state, a dict from symbol to target with its symbols
in alphabet order, so walking a state's row visits its moves in the order
every search here needs; `explore` builds the rows once its search ends.
A machine's track follows from its alphabet: track-1 machines read plain
words; track-2 machines, over symbol pairs, read words of pairs in which
the shorter of two words has been padded at its tail end.
Valid pair words never pad both coordinates at once and never resume a
track after it padded; that padding discipline lives in `_pad_kind`, which
the language comparison and composition carry in their state.  Complement
is for word machines only.  The word acceptor, the multipliers and the
difference machine (`DiffMachine.fsa`, a track-2 machine in which every
state accepts) are all machines of this one kind.

Every construction returns machines in a canonical form: minimal, trimmed,
and numbered breadth-first in alphabet order, so identical languages
serialize identically and callers never minimize a result again.
Minimization trims by a filter, keeping the states that can still accept,
and then refines only along the defined moves; the final `explore` from
the start's block drops whatever the start cannot reach.
No machine ever gets a sink state: the products (the complement is one)
and the language comparison walk each machine's own moves and carry None
for a side that has fallen off; no move leaves None, so it acts as the sink.

A few helpers carry all the graph searches.  `explore` builds a machine
breadth-first from a start state and a successor function; every product
and subset construction here and in the acceptor builder goes through it.
It searches on the states themselves, with their moves in flat lists, and
numbers them and builds their rows only when no state is left to expand,
so a search its state cap stops has built neither.  The multiplier
product (`pipeline.build_multiplier`) alone does not: it finds its states
first, holding no move, and then builds the same numbering and rows.
`coreachable` is one backward search from acceptance, used for trimming,
enumeration and emptiness; `search_back` is the same search over an
implicit graph, which composition uses for its silent tail and to keep
only the middle pairs that can still accept.
`search_forward` is its forward twin, which stops at the first node where
a test holds: the language comparison and `domain_gap` (the pipeline's
domain check) use it to find their least disagreeing word, and
`composite_distinct_pair` to find two distinct words a composition relates
without building it.  A machine gathers its predecessor lists once, when
it is first minimized, so one set of moves minimized under several
accepting states (the multipliers of one product) is trimmed from one
copy; it builds its composition table once, when composition or
`domain_gap` first reads it, and no other module reads that table.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, count, islice
from typing import Iterable, Iterator, Optional

from .errors import LogicError, ResourceLimit
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
    """Partial DFA.  Instances are treated as immutable once built.

    moves holds one row per state: moves[s] maps each symbol defined at s
    to its target, the symbols in alphabet order.  The list is kept as
    given, not copied; `from_rows` builds a machine from rows in any
    order."""

    def __init__(self, symbols, start, accepting, moves):
        self.symbols = tuple(symbols)
        self.num_states = len(moves)
        self.start = int(start)
        self.accepting = frozenset(accepting)
        self.moves = moves
        self.track = 2 if self.symbols and isinstance(self.symbols[0], tuple) else 1
        self._back = None  # predecessor lists, kept by `minimized`
        self._table = None  # kept by `_composition`

    @classmethod
    def from_rows(cls, symbols, start, accepting, rows) -> "Fsa":
        """A machine whose rows, read from a file or written by hand, are
        put into alphabet order; a foreign symbol goes last for `validate`
        to find."""
        rank = {sym: k for k, sym in enumerate(symbols)}.get
        moves = [
            dict(sorted(row.items(), key=lambda m: rank(m[0], len(symbols))))
            for row in rows
        ]
        return cls(symbols, start, accepting, moves)

    # ------------------------------------------------------------- basics

    def validate(self) -> None:
        if self.num_states < 1:
            raise LogicError("a machine needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise LogicError("start state out of range")
        if len(set(self.symbols)) != len(self.symbols):
            raise LogicError("duplicate symbols")
        for s in self.accepting:
            if not 0 <= s < self.num_states:
                raise LogicError("accepting state out of range")
        rank = {sym: k for k, sym in enumerate(self.symbols)}
        for s, row in enumerate(self.moves):
            last = -1
            for sym, t in row.items():
                if sym not in rank:
                    raise LogicError(f"move from {s} on foreign symbol {sym!r}")
                if rank[sym] <= last:
                    raise LogicError(f"the moves of {s} are out of alphabet order")
                last = rank[sym]
                if not 0 <= t < self.num_states:
                    raise LogicError(f"move from {s} on {sym!r} out of range")
        for sym in self.symbols:
            if isinstance(sym, tuple) != (self.track == 2):
                raise LogicError("the alphabet mixes pairs and generator names")
            if self.track == 2 and len(sym) != 2:
                raise LogicError("track-2 symbols must be pairs")
            if sym == (PAD, PAD):
                raise LogicError("the double-padding pair is not a symbol")

    def step(self, s: int, sym) -> Optional[int]:
        return self.moves[s].get(sym)

    def accepts(self, w) -> bool:
        s, moves = self.start, self.moves
        for sym in w:
            s = moves[s].get(sym)
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

    # -------------------------------------------------- canonical rebuilds

    def minimized(self, accepting=None) -> "Fsa":
        """Canonical minimal partial DFA with the same language, or with
        these moves under the given accepting states instead of its own.
        One machine minimized under several accepting sets gathers its
        predecessor lists once and keeps them, since it does not change.

        The machine is trimmed first and never made total: only the states
        that can still reach acceptance are kept, in index order, with the
        moves between them.  Moore refinement then reads only those defined
        moves, so a round costs O(kept moves) rather than O(states *
        symbols).  A missing move counts as its own value, which is exact
        only because every kept state is live: without the trim, a move into
        a dead state would be told apart from a missing move.  The quotient
        is numbered by `explore` from the start's block, one member per
        block, so a live state the start cannot reach (only a parsed or
        hand-written machine has one) adds blocks the quotient never visits.
        """
        accepting = (
            self.accepting if accepting is None else frozenset(accepting)
        )
        if self._back is None:
            self._back = _predecessors(self.moves)
        alive = coreachable(self, accepting)
        if self.start not in alive:
            return empty_fsa(self.symbols)
        # trim: the live states in index order, each with its row of
        # symbols and targets in alphabet order
        kept = sorted(alive)
        ids = {s: i for i, s in enumerate(kept)}
        rows, targets = [], []
        moves = self.moves
        for s in kept:
            row, tgts = [], []
            for sym, t in moves[s].items():
                if t in alive:
                    row.append(sym)
                    tgts.append(ids[t])
            rows.append(tuple(row))
            targets.append(tgts)
        # Moore refinement; the symbols of a row are fixed, so one id per
        # distinct row stands for them and a signature is one flat tuple
        row_ids = {}
        row_id = [row_ids.setdefault(row, len(row_ids)) for row in rows]
        block = [1 if s in accepting else 0 for s in kept]
        count = len(set(block))
        while True:
            sig = {}
            get = block.__getitem__
            block = [
                sig.setdefault((b, r, *map(get, tgts)), len(sig))
                for b, r, tgts in zip(block, row_id, targets)
            ]
            if len(sig) == count:
                break
            count = len(sig)
        # the partition is stable, so one member per block gives its moves
        rep = {}
        for i, b in enumerate(block):
            rep.setdefault(b, i)
        final = {block[i] for i, s in enumerate(kept) if s in accepting}

        def successors(b):
            i = rep[b]
            return zip(rows[i], map(block.__getitem__, targets[i]))

        canon, _ = explore(
            self.symbols, block[ids[self.start]], successors,
            final.__contains__,
        )
        return canon

    def _bfs_form(self) -> tuple:
        """(reachable part renumbered breadth-first in alphabet order,
        the original state behind each new number)."""
        return explore(
            self.symbols, self.start, lambda s: self.moves[s].items(),
            self.accepting.__contains__,
        )

    # ------------------------------------------------------ rational ops

    def _check_compatible(self, other: "Fsa") -> None:
        if self.symbols != other.symbols:
            raise LogicError("machines over different alphabets")

    def _pairs(self, other: "Fsa", kinds):
        """Successors of (state here, state there, pad kind) nodes, a side
        that has fallen off carried as None.  kinds pairs each symbol with
        its pad kind; a symbol of another kind than the node's (unless
        that is 0) would break the padding discipline and is skipped."""
        moves_a, moves_b = self.moves, other.moves

        def successors(node):
            s, t, kind = node
            row_a = {} if s is None else moves_a[s]
            row_b = {} if t is None else moves_b[t]
            for sym, k in kinds:
                if kind and k != kind:
                    continue
                s2, t2 = row_a.get(sym), row_b.get(sym)
                if s2 is not None or t2 is not None:
                    yield sym, (s2, t2, k)

        return successors

    def _product(self, other: "Fsa", accept) -> "Fsa":
        """Product machine accepting where accept(here, there) holds."""
        self._check_compatible(other)
        raw, _ = explore(
            self.symbols, (self.start, other.start, 0),
            self._pairs(other, [(sym, 0) for sym in self.symbols]),
            lambda n: accept(n[0] in self.accepting, n[1] in other.accepting),
        )
        return raw.minimized()

    def intersect(self, other: "Fsa") -> "Fsa":
        return self._product(other, lambda a, b: a and b)

    def union(self, other: "Fsa") -> "Fsa":
        return self._product(other, lambda a, b: a or b)

    def complement(self) -> "Fsa":
        """Complement of a word machine's language among all words: the
        product with the one-state machine that reads every word."""
        if self.track != 1:
            raise LogicError("complement needs a track-1 machine")
        every = Fsa(self.symbols, 0, (), [dict.fromkeys(self.symbols, 0)])
        return self._product(every, lambda a, _: not a)

    def compose(self, other: "Fsa") -> "Fsa":
        """Relational composition of two pair languages.

        Accepts (u, w) when some middle word v has (u, v) here and (v, w)
        there.  One subset construction reads (x, z) by guessing the middle
        letter y, padding included: this machine steps on (x, y) and the
        other on (y, z), except that a side whose pair is (padding, padding)
        has finished.  A side may finish only from an accepting state, and
        then it stays frozen; each side reads that finishing move like any
        other, from its kept table (`_composition`).  Each subset state also
        carries the pad kind read so far, so only words obeying the padding
        discipline are accepted.  The middle word may outlive both outer words; those
        silent tail moves read (padding, padding) on the outer tracks, and
        one backward search folds them into acceptance.

        Before the subset construction one walk finds the middle pairs
        (state here, state there) reachable from the start pair over every
        triple move, silent and finishing ones included, and a second
        backward search keeps the live ones: those that reach an accepting
        pair.  A subset takes in live pairs only.  This is exact: a dead
        pair accepts nothing on any continuation, so dropping it from every
        subset leaves the language unchanged.  Liveness ignores the pad
        kind, so it keeps a pair too many rather than one too few.  The
        result is minimized, which is canonical, so the trim changes the
        raw machine's size but not the bytes of the result.
        """
        if self.track != 2:
            raise LogicError("compose needs track-2 machines")
        self._check_compatible(other)
        done = -1  # a finished side: it counts as accepting
        final_a = self.accepting | {done}
        final_b = other.accepting | {done}
        rows_a, moves_b = self._composition()[0], other._composition()[1]
        # every middle pair reachable from the start over the triple moves,
        # silent and finishing ones included, with its predecessors, and
        # apart from them its predecessors on silent moves alone
        start = (self.start, other.start)
        into, silent_into = {start: []}, {}
        found = [start]  # the list of pairs is its own queue
        for pair in found:
            sa, sb = pair
            by_y = moves_b[sb]
            for (x, y), ta in rows_a[sa]:
                for z, tb in by_y.get(y, ()):
                    sources = into.get((ta, tb))
                    if sources is None:
                        into[ta, tb] = [pair]
                        found.append((ta, tb))
                    else:
                        sources.append(pair)
                    if x == PAD and z == PAD:
                        silent_into.setdefault((ta, tb), []).append(pair)
        # a pair accepts when silent moves take it to two accepting sides,
        # and is live when some moves take it to an accepting pair
        tail = search_back(
            [p for p in found if p[0] in final_a and p[1] in final_b],
            lambda p: silent_into.get(p, ()),
        )
        live = search_back(tail, into.__getitem__)

        rank = {sym: k for k, sym in enumerate(self.symbols)}.__getitem__

        def successors(state):
            kind, cur = state
            nxt = {}
            for sa, sb in cur:
                by_y = moves_b[sb]
                for (x, y), ta in rows_a[sa]:
                    for z, tb in by_y.get(y, ()):
                        if (ta, tb) in live:
                            nxt.setdefault((x, z), set()).add((ta, tb))
            # (PAD, PAD) here is a silent tail move, which acceptance covers
            nxt.pop((PAD, PAD), None)
            for sym in sorted(nxt, key=rank):
                k = _pad_kind(sym)
                if k == kind or not kind:
                    yield sym, (k, frozenset(nxt[sym]))

        raw, _ = explore(
            self.symbols, (0, frozenset({start})), successors,
            lambda state: not tail.keys().isdisjoint(state[1]),
        )
        return raw.minimized()

    def composite_distinct_pair(self, other: "Fsa") -> Optional[tuple]:
        """A padded pair word (u, w) with u != w that the composite
        ``self.compose(other)`` accepts, or None when it accepts no such
        pair, found without building the composite.

        One `search_forward` over nodes (state here, state there, whether
        the outer words differ yet, outer pad kind) reads triples (x, y, z)
        that share the middle letter y: this machine steps on (x, y) and
        the other on (y, z).  As in `compose`, a side may finish only from
        an accepting state; finishing reads (padding, padding), after which
        the side is done and reads only that.  No move leaves both sides
        done.  Also as in `compose`, the outer pair (x, z) keeps the padding
        discipline, its kind carried in the node, and once both outer
        letters are padding only such silent moves follow.  A node is found
        when the flag is set and both sides accept or are done.  Rows are
        in alphabet order with padding last, and finishing comes after
        them, so the search meets the least triple word first.  The witness
        is that word with the middle track and the silent tail dropped.
        """
        if self.track != 2:
            raise LogicError("composite_distinct_pair needs track-2 machines")
        self._check_compatible(other)
        done = -1  # a finished side: it counts as accepting
        final_a = self.accepting | {done}
        final_b = other.accepting | {done}
        rows_a, moves_b = self._composition()[0], other._composition()[1]

        def successors(node):
            sa, sb, differs, kind = node
            by_y = moves_b[sb]
            for (x, y), ta in rows_a[sa]:
                for z, tb in by_y.get(y, ()):
                    # the pad kind of (x, z), 3 when both are padding
                    k = (z == PAD) + 2 * (x == PAD)
                    if kind and k != kind and k != 3 or ta == tb == done:
                        continue
                    yield (x, y, z), (ta, tb, differs or x != z, k)

        path = search_forward(
            (self.start, other.start, False, 0), successors,
            lambda n: n[2] and n[0] in final_a and n[1] in final_b,
        )
        if path is None:
            return None
        return tuple((x, z) for x, _y, z in path if (x, z) != (PAD, PAD))

    def domain_gap(self, words: "Fsa") -> Optional[tuple]:
        """The shortest, then alphabet-first, word that the word machine
        and this machine's first track do not both accept or both reject,
        or None.  One `search_forward` runs over nodes (state of words, or
        None once it has fallen off; the set of states here the word can
        reach as a first track, closed under the silent moves (padding,
        b)): the subset construction of the first-track projection run in
        step with the word machine.  Whether the two disagree is a function
        of the node, so the first disagreeing node gives the least word,
        the witness comparing with the minimized projection would return."""
        by_first = self._composition()[1]  # the moves by first-track letter

        def closure(seeds) -> frozenset:
            # along the silent moves (PAD, b); (PAD, PAD) finishes, into -1
            seen = set(seeds)
            todo = list(seen)
            while todo:
                for b, t in by_first[todo.pop()].get(PAD, ()):
                    if b != PAD and t not in seen:
                        seen.add(t)
                        todo.append(t)
            return frozenset(seen)

        def successors(node):
            w, cur = node
            reads = {}  # first-track letter -> the states here it leads to
            for s in cur:
                for a, moves in by_first[s].items():
                    if a != PAD:
                        into = reads.setdefault(a, set())
                        for _b, t in moves:
                            into.add(t)
            row_w = {} if w is None else words.moves[w]
            for a in words.symbols:
                nw, nxt = row_w.get(a), reads.get(a, ())
                if nw is not None or nxt:  # else both reject every longer word
                    yield a, (nw, closure(nxt))

        def disagree(node):
            w, cur = node
            return (w in words.accepting) != (not self.accepting.isdisjoint(cur))

        return search_forward(
            (words.start, closure((self.start,))), successors, disagree
        )

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
        for sym, t in self.moves[s].items():
            if dist.get(t, remaining + 1) <= remaining - 1:
                yield from self._enum_at(t, remaining - 1, prefix + (sym,), dist)

    def count_accepted(self, length: int) -> int:
        """Number of accepted words of exactly the given length."""
        vec = {self.start: 1}
        for _ in range(length):
            nxt = {}
            for s, c in vec.items():
                for t in self.moves[s].values():
                    nxt[t] = nxt.get(t, 0) + c
            vec = nxt
        return sum(c for s, c in vec.items() if s in self.accepting)

    def _composition(self) -> tuple:
        """The composition table, built on first use and kept: (rows,
        by_first).  rows lists each state's (symbol, target) moves in
        alphabet order, finishing last: (PAD, PAD) from an accepting state
        into -1, the finished side, whose row, the extra last one, holds
        only that move.  by_first groups each row's moves (y, z) as (z,
        target) lists keyed by y, which on the right is the middle letter."""
        if self._table is None:
            rows = [list(row.items()) for row in self.moves] + [[]]
            for s in (*self.accepting, -1):
                rows[s].append(((PAD, PAD), -1))
            by_first = [{} for _ in rows]
            for group, row in zip(by_first, rows):
                for (y, z), t in row:
                    group.setdefault(y, []).append((z, t))
            self._table = rows, by_first
        return self._table

    # -------------------------------------------------------- comparisons

    def equal_languages(self, other: "Fsa") -> Optional[tuple]:
        """None when the languages agree, else the shortest (then earliest
        in alphabet order) word accepted by exactly one machine.

        For track-2 machines only words obeying the padding discipline are
        compared; disagreement outside it is meaningless.
        """
        self._check_compatible(other)
        pair = self.track == 2
        kinds = [(sym, _pad_kind(sym) if pair else 0) for sym in self.symbols]
        return search_forward(
            (self.start, other.start, 0), self._pairs(other, kinds),
            lambda n: (n[0] in self.accepting) != (n[1] in other.accepting),
        )


def empty_fsa(symbols) -> Fsa:
    return Fsa(symbols, 0, frozenset(), [{}])


def pad_pair(w1: Word, w2: Word) -> tuple:
    """Zip two words into a padded pair word."""
    n = max(len(w1), len(w2))
    return tuple(
        (w1[i] if i < len(w1) else PAD, w2[i] if i < len(w2) else PAD)
        for i in range(n)
    )


def explore(symbols, start, successors, is_accept, max_states=None):
    """Build a machine breadth-first from start.

    successors(state) yields (symbol, next state) in alphabet order; states
    are any hashable values.  The search keeps each state once, as the
    object it was first found as, and each expanded state's moves as flat
    lists of symbols and target states.  Only once the queue drains are the
    states numbered, in discovery order, and the rows built, so a search
    the cap stops has built neither.  Returns (machine, the state behind
    each number).  Raises ResourceLimit when a new state would pass
    max_states.  The multiplier product does not come here: it finds its
    states in the same order first and then builds these rows
    (`pipeline.build_multiplier`).
    """
    found = {start: start}  # each state, to the object first found as it
    states = [start]
    accept = bytearray()  # per expanded state, 1 where it accepts
    syms, targets, widths = [], [], []  # every move; the moves per state
    new = object()  # what get gives for a state not found; None may be one
    # the list of states is its own queue: it grows as they are discovered
    for state in states:
        accept.append(1 if is_accept(state) else 0)
        before = len(syms)
        for sym, nxt in successors(state):
            t = found.get(nxt, new)
            if t is new:
                if max_states is not None and len(states) >= max_states:
                    raise ResourceLimit("states", max_states)
                found[nxt] = t = nxt
                states.append(nxt)
            syms.append(sym)
            targets.append(t)
        widths.append(len(syms) - before)
    found.update(zip(states, count()))  # each state, now to its number
    # zip takes a symbol before a target, so it ends each row at its width
    # without taking the next row's first target
    sym_at, target_at = iter(syms), map(found.__getitem__, targets)
    moves = [dict(zip(islice(sym_at, width), target_at)) for width in widths]
    return Fsa(symbols, 0, compress(count(), accept), moves), states


def coreachable(fsa: Fsa, accepting=None) -> dict:
    """The states that can reach acceptance (the machine's own, or the
    given accepting states), each mapped to the length of its shortest
    path there."""
    # kept by a minimization, or built for this search alone: walked
    # machines keep no copy
    back = fsa._back if fsa._back is not None else _predecessors(fsa.moves)
    if accepting is None:
        accepting = fsa.accepting
    return search_back(accepting, back.__getitem__)


def _predecessors(moves) -> list:
    back = [[] for _ in moves]
    for s, row in enumerate(moves):
        for t in row.values():
            back[t].append(s)
    return back


def search_forward(start, successors, found) -> Optional[tuple]:
    """Breadth-first search forwards from start: the shortest, then
    alphabet-first, word to a node where found holds, or None.

    successors(node) yields (symbol, next node) in alphabet order, at most
    one move per symbol, so the search reaches each node first by its
    least word."""
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        node, path = queue.popleft()
        if found(node):
            return path
        for sym, nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + (sym,)))
    return None


def search_back(targets, predecessors) -> dict:
    """Breadth-first search backwards from targets: each state that can
    reach one of them, mapped to the length of its shortest path there."""
    dist = dict.fromkeys(targets, 0)
    queue = deque(dist)
    while queue:
        t = queue.popleft()
        for s in predecessors(t):
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist
