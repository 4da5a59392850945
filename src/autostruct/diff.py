"""The word difference machine: reduced differences with recomputed moves.

States are distinct reduced words ("differences"); the start state is the
empty word.  Rather than storing transitions found during tracing, every
move is defined by recomputation: there is a move from d to d' on the pair
(a, b) exactly when reducing inverse(a).d.b yields the label of an existing
state d' (with a padded coordinate contributing nothing).  This makes the
start state's diagonal loops, the prefix/suffix moves required by substring
closure, and label consistency hold by construction; closing the label set
under inversion, prefix and suffix is then a plain set fixpoint.  The
moves form an `Fsa` over the padded pair alphabet, like the acceptor and
the multipliers: one row per state, start state the empty word, every
state accepting.  Every walk of the machine reads its rows.

Labels are reduced by the rewriting system.  When the system is confluent
the labels are the least representatives under the order; otherwise they
are a best effort, which the later verification stages compensate for.

Reducing a word asks one question of the machine: the least word z that
the padded pair (factor, z) drives from the start state back to it.  Every
order here is translation invariant with the empty word least, so u < v
gives u.h < v.h, and u < u.h.  Hence a search may keep one least companion
per state, and the companions longer than the factor, read on silent
track-1 moves (PAD, h), come from one best-first search by sort key that
is exact (``DiffMachine._least_silent_tail``).  The word acceptor asks the
same question of each generator through ``DiffMachine.reduce``.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Iterable, Optional

from .errors import InputError, LogicError, ResourceLimit
from .fsa import Fsa, pad_pair, pair_symbols
from .rewrite import RewriteSystem
from .words import PAD, Word

EPS = 0  # index of the start state; its label is the empty word


def prefix_differences(rws: RewriteSystem, x: Word, y: Word) -> list:
    """The reduced words inv(x[:i]).y[:i], for i from 0 to the longer
    length: the differences along the padded pair (x, y)."""
    rw, inv = rws.rewrite, rws.order.alphabet.invert
    return [rw(inv(x[:i]) + y[:i]) for i in range(max(len(x), len(y)) + 1)]


class DiffMachine:
    """labels[s] is the reduced word of state s and index maps it back;
    fsa holds the moves, one row per state as of the last `rebuild`, and
    inverse_state[s] is the state labelled by the inverse of labels[s].
    Labels that `add_equation` adds run ahead of fsa until `close`."""

    def __init__(self, rws: RewriteSystem, labels: Optional[Iterable[Word]] = None):
        self.rws = rws
        self.order = rws.order
        self.alpha = rws.order.alphabet
        self.labels = [()]
        self.index = {(): EPS}
        self.fsa = Fsa(pair_symbols(self.alpha.symbols), EPS, [EPS], [{}])
        self.inverse_state = [EPS]
        # per label: its reduced inverse and moved words, as of rws.changes
        self._kept, self._kept_at = {}, rws.changes
        for w in labels or ():
            self._add_label(w)

    @classmethod
    def from_rules(cls, rws: RewriteSystem) -> "DiffMachine":
        """Differences traced along every rule, closed and wired up."""
        d = cls(rws)
        for lhs, rhs in rws.active():
            d.add_equation(lhs, rhs)
        d.close()
        return d

    # ------------------------------------------------------------- labels

    def _add_label(self, w: Word) -> int:
        if w in self.index:
            return self.index[w]
        if self.rws.rewrite(w) != w:
            raise LogicError(f"difference label {w!r} is not reduced")
        self.labels.append(w)
        self.index[w] = len(self.labels) - 1
        return self.index[w]

    def state_count(self) -> int:
        return len(self.labels)

    def add_equation(self, x: Word, y: Word) -> None:
        """Record the differences along the padded pair (x, y).

        Both the from-scratch reductions of the prefix differences and the
        incrementally chained ones are added; they agree for a confluent
        system, and the chain keeps the trace walkable for an incomplete
        one.  Call close() afterwards to recompute the moves.
        """
        for label in prefix_differences(self.rws, x, y):
            self._add_label(label)
        d: Word = ()
        for a, b in pad_pair(x, y):
            d = self._moved(d, a, b)
            self._add_label(d)

    def _moved(self, label: Word, a: str, b: str) -> Word:
        """The reduced a^-1 label b, a padded coordinate counting as empty."""
        left = self.alpha.invert((a,)) if a != PAD else ()
        right = (b,) if b != PAD else ()
        return self.rws.rewrite(left + label + right)

    def close(self) -> None:
        """Close labels under inversion, prefix and suffix; recompute moves.

        Factors of reduced words are reduced, so only the inverses need a
        rewrite.  The fixpoint is capped for pathological incomplete
        systems where inversion chains could wander; the cap raises
        ResourceLimit.
        """
        max_states = 10 * len(self.labels) + 1000
        queue = list(self.labels)
        while queue:
            w = queue.pop()
            for cand in (self.rws.rewrite(self.alpha.invert(w)), w[:-1], w[1:]):
                if cand not in self.index:
                    if len(self.labels) >= max_states:
                        raise ResourceLimit("difference labels", max_states)
                    self._add_label(cand)
                    queue.append(cand)
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute every move and the inversion map from the labels:
        one row per label, in alphabet order, as a new `fsa`.

        Each label's reduced inverse and moved words are kept, so a later
        rebuild rewrites only the labels it has not seen and maps the kept
        words through the current index.  Labels are never removed, so a
        word that hits a label keeps hitting it, and a word that missed
        may hit a label added since.  The kept rows are dropped whenever
        the rewriting system has changed since they were filled."""
        rws, index = self.rws, self.index
        if self._kept_at != rws.changes:
            self._kept, self._kept_at = {}, rws.changes
        kept, rw, inv = self._kept, rws.rewrite, self.alpha.invert
        symbols = self.fsa.symbols
        shared = {}  # equal words in the rows filled here share one tuple
        rows, inverse = [], []
        for label in self.labels:
            words = kept.get(label)
            if words is None:
                words = [rw(inv(label))]
                words += [self._moved(label, a, b) for a, b in symbols]
                words = kept[label] = tuple(shared.setdefault(w, w) for w in words)
            moved = map(index.get, words)
            t = next(moved)
            if t is None:
                raise LogicError("labels are not closed under inversion")
            inverse.append(t)
            rows.append({sym: t for sym, t in zip(symbols, moved) if t is not None})
        self.fsa = Fsa(symbols, EPS, range(len(rows)), rows)
        self.inverse_state = inverse

    def restricted(self, keep_labels: Iterable[Word]) -> "DiffMachine":
        """Copy with only the given labels (the empty word always kept)."""
        d = DiffMachine(self.rws, keep_labels)
        d.rebuild()
        return d

    def violations(self) -> list:
        """Audit the defining conditions of a difference machine.

        Returns human-readable complaints; an empty list means the machine
        is sound: states labelled by distinct words over the alphabet, the
        start state labelled by the empty word, every diagonal loop at the
        start present, and each transition on (a, b) carrying its source
        label d to a state whose label spells the same group element as
        a^-1 d b.  Every state accepting is structural here: the machine
        stores no rejecting states at all.
        """
        out = []
        seen = {}
        for i, w in enumerate(self.labels):
            try:
                self.alpha.check_word(w)
            except InputError:
                out.append(f"state {i} label {w!r} is not a word")
                continue
            if w in seen:
                out.append(f"states {seen[w]} and {i} share the label {w!r}")
            else:
                seen[w] = i
        if self.labels[EPS] != ():
            out.append("start state is not labelled by the empty word")
        moves = self.fsa.moves
        for g in self.alpha.symbols:
            if moves[EPS].get((g, g)) != EPS:
                out.append(f"missing diagonal loop on {g!r}")
        rw = self.rws.rewrite
        for s, row in enumerate(moves):
            for (a, b), t in row.items():
                if self._moved(self.labels[s], a, b) != rw(self.labels[t]):
                    out.append(
                        f"transition {s} --({a},{b})--> {t} does not track the labels"
                    )
        return out

    # ----------------------------------------------------------- reducing

    def reduce(self, w: Word) -> Word:
        """Iteratively replace factors with earlier spellings the machine
        can witness; deterministic and terminating."""
        w = tuple(w)
        while True:
            hit = self._find_reduction(w)
            if hit is None:
                return w
            p, i, u = hit
            w = w[:p] + u + w[i:]

    def _find_reduction(self, w: Word):
        """(p, i, u) for the first factor w[p:i], scanning p then i upwards,
        with a witnessed earlier spelling u, the least one; None if none."""
        key = lru_cache(maxsize=None)(self.order.key)
        rows = self.fsa.moves
        moves = (PAD,) + self.alpha.symbols
        for p in range(len(w)):
            # (state, track-2 padded) -> earliest candidate spelling
            frontier = {(EPS, False): ()}
            for i in range(p, len(w)):
                g = w[i]
                nxt = {}
                for (d, padded), cand in frontier.items():
                    row = rows[d]
                    for b in (PAD,) if padded else moves:
                        t = row.get((g, b))
                        if t is None:
                            continue
                        at = (t, b == PAD)
                        longer = cand if b == PAD else cand + (b,)
                        old = nxt.get(at)
                        if old is None or key(longer) < key(old):
                            nxt[at] = longer
                frontier = nxt
                if not frontier:
                    break
                factor = key(w[p : i + 1])
                # companions longer than the factor go on from the unpadded
                # states, the start state among them, on silent moves
                tail = self._least_silent_tail(
                    {d: c for (d, padded), c in frontier.items() if not padded}
                )
                hits = [
                    c
                    for c in (frontier.get((EPS, True)), tail)
                    if c is not None and key(c) < factor
                ]
                if hits:
                    return p, i + 1, min(hits, key=key)
        return None

    def _least_silent_tail(self, seeds: dict) -> Optional[Word]:
        """Least z.t over the seeds {state: z} and the words t whose silent
        track-1 moves (PAD, h) drive the seed's state to the start state;
        None when no seed gets there.

        A best-first search by sort key that settles each state the first
        time it is popped.  It is exact because the order is translation
        invariant with the empty word least: u < v gives u.h < v.h, so the
        least word at a state extends to the least words beyond it, and
        u < u.h, so no word popped later leads to anything smaller.
        """
        key = self.order.key
        gens = self.alpha.symbols
        rows = self.fsa.moves
        heap = [(key(z), d, z) for d, z in seeds.items()]
        heapq.heapify(heap)
        settled = set()
        while heap:
            _, d, z = heapq.heappop(heap)
            if d == EPS:
                return z
            if d in settled:
                continue
            settled.add(d)
            row = rows[d]
            for h in gens:
                t = row.get((PAD, h))
                if t is not None and t not in settled:
                    longer = z + (h,)
                    heapq.heappush(heap, (key(longer), t, longer))
        return None
