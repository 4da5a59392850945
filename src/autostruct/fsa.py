"""Partial deterministic automata over one- and two-track alphabets.

States are 0..num_states-1 and a missing move rejects.  A machine holds its
moves as one row per state, a dict from symbol to target with its symbols
in alphabet order, so walking a state's row visits its moves in the order
every search here needs; `explore` fills each row as it expands its state.
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
No machine ever gets a sink state.  Every product of whole machines, the
complement and the language comparison (and, in the pipeline, the general
multiplier of given machines and the walk of it with D) goes through one
walk, `in_step`: it reads each machine's own moves and carries None for a
machine that has fallen off; no move leaves None, so it acts as the sink.

A few helpers carry all the graph searches.  `explore` builds a machine
breadth-first from a start state and a successor function; every product
and subset construction here, in the acceptor builder and in the
multiplier product goes through it.  It numbers each state when it finds
it and fills the state's row when it expands it.  The multiplier product
(`pipeline.build_multiplier`) first counts its states against its cap in
a walk of its own, holding no move, and calls `explore` only once the
product is known to fit.
`coreachable` is one backward search from acceptance, used for trimming,
enumeration and emptiness; `search_back` is the same search over an
implicit graph, which composition uses to keep only the middle pairs that
can still accept.
`search_forward` is its forward twin: for each bit of a mask, it finds
the least word to a node whose label has that bit, so one search answers
for every bit at once.  A labelled machine carries a label per state
(`Fsa.labels`, a bit mask), and a machine without labels has label 1
where it accepts.  `minimized` always refines from the partition by
label and keeps the labels it refined from.  `compose` and
`composite_distinct_pairs` both take a list of bit pairs (i, j): pair k
composes this machine under the states whose label has bit i with the
other under those with bit j.  `compose` builds every pair as a bit of
one labelled machine, all from one subset construction (the axiom
check's halves of one length); `composite_distinct_pairs` (two distinct
words a composition relates, found without building it: the axiom
check) searches for every pair at once.  The multipliers of one product
are kept as one labelled machine (`pipeline.GeneralMultiplier`).  The
language comparison searches for one bit, and `domain_gaps` (the
pipeline's domain check) for every bit of a machine's labels.  A
machine gathers its predecessor lists once, when it is first minimized,
so one set of moves minimized under several labellings is trimmed from
one copy; it builds its composition table once, when composition or a
search first reads it, and no other module reads that table.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import reduce
from itertools import chain, count
from operator import or_
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
        self.labels = None  # a label per state, kept by `minimized`
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

    # -------------------------------------------------- canonical rebuilds

    def minimized(self, labels=None) -> "Fsa":
        """Canonical minimal partial DFA with the same language, or with
        these moves under the given labels instead of its own acceptance.
        One machine minimized under several labellings gathers its
        predecessor lists once and keeps them, since it does not change.

        labels maps each accepting state to its label, any value but 0; a
        machine minimized without them has label 1 where it accepts.
        Refinement starts from the partition by label, and the result
        keeps each state's label, 0 where it rejects, in `labels`.  Under
        the states whose label has a given bit, the result accepts from
        each state what this machine accepts from the states it stands
        for, so minimizing it under them gives the bytes minimizing this
        machine under theirs would.

        The machine is trimmed first and never made total: only the states
        that can still reach acceptance are kept, in index order, with the
        moves between them.  A kept state is the id of its row of symbols
        (each distinct row is kept once) and a span of one flat list of
        targets, and the trim's tables are dropped before refinement.
        Moore refinement then reads only those defined moves, so a round
        costs O(kept moves) rather than O(states * symbols).  A missing
        move counts as its own value, which is exact only because every
        kept state is live: without the trim, a move into a dead state
        would be told apart from a missing move.  Once the last round's
        signatures are dropped, the quotient is numbered by `explore` from
        the start's block, one member per block, so a live state the start
        cannot reach (only a parsed or hand-written machine has one) adds
        blocks the quotient never visits.
        """
        accepting = self.accepting if labels is None else labels
        if self._back is None:
            self._back = _predecessors(self.moves)
        alive = coreachable(self, accepting)
        if self.start not in alive:
            empty = empty_fsa(self.symbols)
            empty.labels = [0]
            return empty
        # trim: the live states in index order, each with its label, as the
        # id of its row of symbols in alphabet order and a span of one flat
        # target list
        kept = sorted(alive)
        first = (
            [int(s in accepting) for s in kept] if labels is None
            else [labels.get(s, 0) for s in kept]
        )
        alive.update(zip(kept, count()))  # each live state, to its new index
        start = alive[self.start]
        row_ids = {}  # each distinct row of symbols, to its id
        row_id, targets, ends = [], [], array("q")
        moves = self.moves
        for s in kept:
            row = []
            for sym, t in moves[s].items():
                t = alive.get(t)
                if t is not None:
                    row.append(sym)
                    targets.append(t)
            row_id.append(row_ids.setdefault(tuple(row), len(row_ids)))
            ends.append(len(targets))
        rows = list(row_ids)
        del alive, kept, row_ids
        # Moore refinement from the partition by label; a row id stands for
        # the row's symbols, so a signature is one flat tuple of block, row
        # id and target blocks
        block = first
        blocks = len(set(block))
        while True:
            sig = {}
            hit = list(map(block.__getitem__, targets))
            block = [
                sig.setdefault((b, r, *hit[lo:hi]), len(sig))
                for b, r, lo, hi in zip(block, row_id, chain((0,), ends), ends)
            ]
            if len(sig) == blocks:
                break
            blocks = len(sig)
        del sig, hit
        # the partition is stable, so one member per block gives its moves
        rep = {}
        for i, b in enumerate(block):
            rep.setdefault(b, i)

        def successors(b):
            i = rep[b]
            span = targets[ends[i - 1] if i else 0 : ends[i]]
            return zip(rows[row_id[i]], map(block.__getitem__, span))

        canon, found = explore(
            self.symbols, block[start], successors, lambda b: first[rep[b]]
        )
        canon.labels = [first[rep[b]] for b in found]
        return canon

    # ------------------------------------------------------ rational ops

    def _product(self, other: "Fsa", keep) -> "Fsa":
        """Product machine accepting where keep(label) holds: bit 0 of the
        label is set where this machine accepts, bit 1 where the other
        does (`in_step`)."""
        start, successors, label = in_step((self, other))
        raw, _ = explore(self.symbols, start, successors, lambda n: keep(label(n)))
        return raw.minimized()

    def intersect(self, other: "Fsa") -> "Fsa":
        return self._product(other, lambda label: label == 3)

    def union(self, other: "Fsa") -> "Fsa":
        return self._product(other, bool)

    def complement(self) -> "Fsa":
        """Complement of a word machine's language among all words: the
        product with the one-state machine that reads every word."""
        if self.track != 1:
            raise LogicError("complement needs a track-1 machine")
        every = Fsa(self.symbols, 0, (), [dict.fromkeys(self.symbols, 0)])
        return self._product(every, lambda label: not label & 1)

    def compose(self, other: "Fsa", pairs=((0, 0),)) -> "Fsa":
        """Relational composition of two pair languages, one per pair of
        label bits.

        pairs lists bit pairs (i, j), and the result is a labelled machine:
        its bit k accepts (u, w) when some middle word v has (u, v) here
        under the states whose label has bit i and (v, w) there under those
        with bit j, where (i, j) is pairs[k].  A machine without labels has
        label 1 where it accepts, so the one pair (0, 0), the default,
        composes two such machines' languages.  Each bit of the result,
        minimized alone, has the bytes the composition of the two machines
        minimized under those bits has: both accept the same language, a
        side finishing from a state without its bit keeps a label without
        it, and minimization is canonical.

        One subset construction reads (x, z) by guessing the middle letter
        y, padding included: this machine steps on (x, y) and the other on
        (y, z), except that a side whose pair is (padding, padding) has
        finished.  A side may finish only from a state with a label, and
        then it stays frozen, keeping that label; each side reads that
        finishing move like any other, from its kept table
        (`_composition`), with each label read as the mask of the pairs
        whose bit it holds on that side (`_sides`).  Each subset state also
        carries the pad kind read so far, so only words obeying the padding
        discipline are accepted.  The middle word may outlive both outer
        words; those silent tail moves read (padding, padding) on the outer
        tracks.

        Before the subset construction one walk finds the middle pairs
        (state here, state there) reachable from the start pair over every
        triple move, silent and finishing ones included.  A middle pair's
        label holds bit k when its sides' masks hold it, and its tail label
        is the OR of the labels the silent moves reach from it, itself
        included: one fixpoint back along the silent moves.  A backward
        search from every pair with a tail label keeps the live pairs, and
        a subset takes in live pairs only.  This is exact: a dead pair
        accepts nothing on any continuation under any bit, so dropping it
        from every subset leaves each bit's language unchanged.  Liveness
        ignores the pad kind, so it keeps a pair too many rather than one
        too few.  A subset's label is the OR of its members' tail labels.
        The raw machine is minimized once, under those labels, which is
        canonical, so the trim changes the raw machine's size but not the
        bytes of the result.
        """
        rows_a, moves_b, bits_a, bits_b = self._sides(other, pairs)
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
        # a pair's tail label: the bits of the pairs its silent moves reach
        tail = {}
        for p in found:
            mask = bits_a[p[0]] & bits_b[p[1]]
            if mask:
                tail[p] = mask
        todo = list(tail)
        while todo:
            q = todo.pop()
            mask = tail[q]
            for p in silent_into.get(q, ()):
                old = tail.get(p, 0)
                if old | mask != old:
                    tail[p] = old | mask
                    todo.append(p)
        # a pair is live when some moves take it to a pair with a label
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

        def label(state) -> int:
            out = 0
            for p in state[1]:
                out |= tail.get(p, 0)
            return out

        raw, states = explore(
            self.symbols, (0, frozenset({start})), successors, label
        )
        return raw.minimized({i: label(states[i]) for i in raw.accepting})

    def composite_distinct_pairs(self, other: "Fsa", pairs=((0, 0),)) -> dict:
        """For each bit pair (i, j) of pairs, as in `compose`: a padded pair
        word (u, w) with u != w that the composite of this machine under
        the states whose label has bit i and the other under those with
        bit j accepts, as {k: (u, w)} for pairs[k]; a pair with no such
        word has no entry.  A machine without labels has label 1 where it
        accepts.

        One `search_forward` over nodes (state here, state there, whether
        the outer words differ yet, outer pad kind) reads triples (x, y, z)
        that share the middle letter y: this machine steps on (x, y) and
        the other on (y, z), each label read as the mask of the pairs whose
        bit it holds on that side (`_sides`).  As in `compose`, a side may
        finish only from a state with a label, here one whose mask is not
        0; finishing reads (padding, padding) into the finished side that
        keeps that label, which reads only that.  No move leaves both
        sides finished.  Also as in `compose`, the outer pair (x, z) keeps
        the padding discipline, its kind carried in the node, and once
        both outer letters are padding only such silent moves follow.  A
        node has bit k when the flag is set and both sides' masks have it.
        Rows are in alphabet order with padding last, and finishing comes
        after them, so the search meets the least triple word to each bit
        first: the one the search for that pair alone, over the two
        machines minimized under its bits, would meet, since each side
        then finishes exactly where it may there.  The witness is that
        word with the middle track and the silent tail dropped.
        """
        rows_a, moves_b, bits_a, bits_b = self._sides(other, pairs)
        # the finished sides are numbered past the machines' own states
        ends_a, ends_b = self.num_states, other.num_states

        def successors(node):
            sa, sb, differs, kind = node
            by_y = moves_b[sb]
            for (x, y), ta in rows_a[sa]:
                done_a = ta >= ends_a
                if done_a and not bits_a[sa]:
                    continue
                for z, tb in by_y.get(y, ()):
                    if tb >= ends_b and (done_a or not bits_b[sb]):
                        continue
                    # the pad kind of (x, z), 3 when both are padding
                    k = (z == PAD) + 2 * (x == PAD)
                    if kind and k != kind and k != 3:
                        continue
                    yield (x, y, z), (ta, tb, differs or x != z, k)

        paths = search_forward(
            (self.start, other.start, False, 0), successors,
            lambda n: n[2] and bits_a[n[0]] & bits_b[n[1]],
            reduce(or_, set(bits_a)) & reduce(or_, set(bits_b)),
        )
        return {
            k: tuple((x, z) for x, _y, z in path if (x, z) != (PAD, PAD))
            for k, path in paths.items()
        }

    def _sides(self, other: "Fsa", pairs) -> tuple:
        """(rows here, moves there by middle letter, each side's labels as
        the mask of the pairs whose bit they hold), from the kept tables."""
        if self.track != 2:
            raise LogicError("composition needs track-2 machines")
        if self.symbols != other.symbols:
            raise LogicError("machines over different alphabets")
        rows_a, _, labels_a = self._composition()
        _, moves_b, labels_b = other._composition()
        return (
            rows_a, moves_b,
            _pair_bits(labels_a, [i for i, _ in pairs]),
            _pair_bits(labels_b, [j for _, j in pairs]),
        )

    def domain_gaps(self, words: "Fsa", want: int) -> dict:
        """For each bit k of want: the shortest, then alphabet-first, word
        that the word machine and this machine's first track, under its
        states whose label has bit k, do not both accept or both reject, as
        {k: word}; a bit on which they agree has no entry.  A machine
        without labels has label 1 where it accepts.

        One `search_forward` runs over nodes (state of words, or None once
        it has fallen off; the set of states here the word can reach as a
        first track, closed under the silent moves (padding, b)): the
        subset construction of the first-track projection run in step with
        the word machine.  A node has bit k when the word machine's verdict
        differs from whether some state of the set has bit k, a function
        of the node, so the first node found with it ends the least word,
        the witness comparing with the projection minimized under bit k
        would return."""
        _, by_first, labels = self._composition()  # moves by first-track letter
        accepted = want  # every bit, where the word machine accepts

        def closure(seeds) -> frozenset:
            # along the silent moves (PAD, b); (PAD, PAD) finishes
            seen = set(seeds)
            todo = list(seen)
            while todo:
                for b, t in by_first[todo.pop()].get(PAD, ()):
                    if b != PAD and t not in seen:
                        seen.add(t)
                        todo.append(t)
            return frozenset(seen)

        # each state's targets by first-track letter, closed under the
        # silent moves, so a set's successor is the union of its members';
        # filled as the search meets the state
        steps = [None] * self.num_states
        nothing = frozenset()

        def successors(node):
            w, cur = node
            reads = {}  # first-track letter -> the states here it leads to
            for s in cur:
                row = steps[s]
                if row is None:
                    row = steps[s] = {
                        a: closure(t for _b, t in moves)
                        for a, moves in by_first[s].items() if a != PAD
                    }
                for a, into in row.items():
                    got = reads.get(a)
                    reads[a] = into if got is None else got | into
            row_w = {} if w is None else words.moves[w]
            for a in words.symbols:
                nw, nxt = row_w.get(a), reads.get(a)
                if nw is not None or nxt:  # else both reject every longer word
                    yield a, (nw, nxt or nothing)

        def disagree(node):
            w, cur = node
            found = 0
            for s in cur:
                found |= labels[s]
            return found ^ accepted if w in words.accepting else found

        return search_forward(
            (words.start, closure((self.start,))), successors, disagree, want
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
        by_first, labels).  rows lists each state's (symbol, target) moves
        in alphabet order, finishing last: (PAD, PAD) from a state with a
        label into the finished side that keeps it.  The finished sides,
        one per distinct label, are states of their own numbered past the
        machine's, each with a row that holds only its finishing move.
        labels gives every state's label, the finished sides' too; a
        machine without labels has label 1 where it accepts.  by_first
        groups each row's moves (y, z) as (z, target) lists keyed by y,
        which on the right is the middle letter."""
        if self._table is None:
            n = self.num_states
            labels = (
                [int(s in self.accepting) for s in range(n)]
                if self.labels is None else list(self.labels)
            )
            rows = [list(row.items()) for row in self.moves]
            done = {}  # each label, to its finished side
            for s in range(n):
                if labels[s]:
                    t = done.get(labels[s])
                    if t is None:
                        t = done[labels[s]] = len(rows)
                        rows.append([])
                        labels.append(labels[s])
                    rows[s].append(((PAD, PAD), t))
            for t in done.values():
                rows[t].append(((PAD, PAD), t))
            by_first = [{} for _ in rows]
            for group, row in zip(by_first, rows):
                for (y, z), t in row:
                    group.setdefault(y, []).append((z, t))
            self._table = rows, by_first, labels
        return self._table

    # -------------------------------------------------------- comparisons

    def equal_languages(self, other: "Fsa") -> Optional[tuple]:
        """None when the languages agree, else the shortest (then earliest
        in alphabet order) word accepted by exactly one machine.

        For track-2 machines only words obeying the padding discipline are
        compared; disagreement outside it is meaningless.
        """
        pair = self.track == 2
        start, successors, label = in_step((self, other), disciplined=pair)
        return search_forward(
            start, successors, lambda n: label(n) in (1, 2), 1
        ).get(0)


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
    are any hashable values.  Each state is numbered when it is first
    found, in discovery order, and its row is filled when it is expanded.
    Returns (machine, the state behind each number).  Raises ResourceLimit
    when a new state would pass max_states; the start is always admitted.
    """
    ids = {start: 0}
    states = [start]
    accepting = []
    moves = []
    # the list of states is its own queue: it grows as they are discovered
    for sid, state in enumerate(states):
        if is_accept(state):
            accepting.append(sid)
        row = {}
        for sym, nxt in successors(state):
            tid = ids.get(nxt)
            if tid is None:
                tid = len(states)
                if max_states is not None and tid >= max_states:
                    raise ResourceLimit("states", max_states)
                ids[nxt] = tid
                states.append(nxt)
            row[sym] = tid
        moves.append(row)
    return Fsa(symbols, 0, accepting, moves), states


def in_step(machines, disciplined=False) -> tuple:
    """Machines over one alphabet run in step, as (start node, successors,
    label) for `explore` or `search_forward`: the one walk of every product
    of whole machines.

    A node holds each machine's state, None once that machine has fallen
    off (no move leaves None, so it acts as the sink), and then the pad
    kind read so far.  successors(node) yields, in alphabet order, each
    symbol some machine moves on.  With disciplined, a pair symbol of
    another pad kind than the node's, unless that is 0, would break the
    padding discipline and is skipped; without it the kind stays 0.
    label(node) has bit i set where machine i accepts."""
    symbols = machines[0].symbols
    if any(m.symbols != symbols for m in machines):
        raise LogicError("machines over different alphabets")
    rows = [m.moves for m in machines]
    accepting = [m.accepting for m in machines]
    kinds = [(sym, _pad_kind(sym) if disciplined else 0) for sym in symbols]
    nothing = {}

    def successors(node):
        kind = node[-1]
        here = [nothing if s is None else r[s] for r, s in zip(rows, node)]
        for sym, k in kinds:
            if kind and k != kind:
                continue
            nxt = tuple(row.get(sym) for row in here)
            if nxt.count(None) < len(nxt):
                yield sym, (*nxt, k)

    def label(node) -> int:
        return sum(
            1 << i for i, (acc, s) in enumerate(zip(accepting, node)) if s in acc
        )

    return (*(m.start for m in machines), 0), successors, label


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


def _pair_bits(labels, bits) -> list:
    """Each label as the mask of the positions k whose bits[k] it holds."""
    masks = {
        label: sum(1 << k for k, i in enumerate(bits) if label >> i & 1)
        for label in set(labels)
    }
    return [masks[label] for label in labels]


def _predecessors(moves) -> list:
    back = [[] for _ in moves]
    for s, row in enumerate(moves):
        for t in row.values():
            back[t].append(s)
    return back


def search_forward(start, successors, label, want: int) -> dict:
    """Breadth-first search forwards from start: for each bit k of want,
    the shortest, then alphabet-first, word to a node whose label(node)
    has bit k, as {k: word}; a bit no node has gets no entry.  The search
    stops once every bit of want is found.

    successors(node) yields (symbol, next node) in alphabet order, at most
    one move per symbol, so the search reaches each node first by its
    least word, and the first node found with a bit ends the least word
    to that bit."""
    found = {}
    seen = {start}
    queue = deque([(start, ())])
    while queue and want:
        node, path = queue.popleft()
        hit = label(node) & want
        if hit:
            want ^= hit
            while hit:
                low = hit & -hit
                found[low.bit_length() - 1] = path
                hit ^= low
        for sym, nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + (sym,)))
    return found


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
