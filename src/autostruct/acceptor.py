"""Word acceptor built outwards from histories of candidate reductions.

A state of the acceptor is a set of pairs (difference state, history):
one for each way some suffix of the word read so far could be shadowed
by a smaller-so-far companion word walking through the difference
machine.  Reading a further generator either extends each shadow, kills
the word (some shadow is certified to complete into an earlier equal
word), or drops shadows that leave the bounded sufficient set.  Every
surviving state accepts.

The result accepts every word with no machine-witnessed reduction, and
never both a word and its machine reduction.

The subset construction runs on Python ints.  Each shadow is interned to
a bit, so a subset state is one int and the union of its members'
successors is one `|` per member.  Whether a shadow kills the word under
a generator does not depend on the subset it sits in, so each shadow
carries one kill mask over the generators, worked out the first time a
subset holding it is expanded; a subset ORs its members' masks once and
skips every generator whose bit is set.  A shadow's successor mask under a generator is filled
the first time a subset holding it survives that generator, so exactly
the shadows some surviving subset reaches are interned, and the raw
machine, numbered breadth-first in generator order, does not depend on
how subsets are stored.
"""

from __future__ import annotations

from typing import Optional

from .diff import EPS, DiffMachine
from .errors import ResourceLimit
from .fsa import Fsa, explore
from .history import (
    HistoryBounds,
    bounds_for,
    decide_precedes,
    history,
    history_step,
    in_bounds,
)
from .rewrite import RewriteSystem
from .words import PAD, Word

# caps on the interned shadows and on the subset states of build_acceptor
MAX_SHADOWS = 200_000
MAX_STATES = 150_000


def irreducible_word_acceptor(rs: RewriteSystem) -> Fsa:
    """Automaton of the words containing no left-hand side as a factor.

    For a confluent system this language is exactly the set of least
    representatives, so it can serve as the word acceptor directly,
    bypassing the history construction."""
    prefixes = {()}
    for lhs, _ in rs.active():
        for i in range(len(lhs)):
            prefixes.add(lhs[:i])

    def extend(p: Word, a: str) -> Optional[Word]:
        # the live suffix p holds no left side, so any in w ends at a
        w = p + (a,)
        if not rs.is_irreducible(w):
            return None
        for i in range(len(w) + 1):
            if w[i:] in prefixes:
                return w[i:]  # longest live suffix
        return ()

    gens = rs.order.alphabet.symbols

    def successors(p: Word):
        for a in gens:
            t = extend(p, a)
            if t is not None:
                yield a, t

    raw, _ = explore(gens, (), successors, lambda p: True, 1)
    return raw.minimized()


def _fresh_shadows(diff: DiffMachine, bounds: HistoryBounds, g: str) -> frozenset:
    """Shadows opened by g itself: companions h (a generator or nothing)
    whose difference with g is a known state, bounded."""
    order = diff.order
    row = diff.fsa.moves[EPS]
    out = set()
    for h in diff.alpha.symbols + (PAD,):
        t = row.get((g, h))
        if t is not None and h != g:
            hist = history(order, (g,), () if h == PAD else (h,))
            if in_bounds(order, bounds, hist, diff.labels[t]):
                out.add((t, hist))
    return frozenset(out)


def build_acceptor(diff: DiffMachine) -> Fsa:
    order = diff.order
    gens = diff.alpha.symbols
    rows = diff.fsa.moves
    pad_first = (PAD,) + gens  # the companion's letters, padding first
    bounds = bounds_for(order, diff.labels)
    # indices of the generators that do not reduce on their own
    live = [i for i, g in enumerate(gens) if diff.reduce((g,)) == (g,)]

    # per shadow id: its key, its kill mask over the live generators, and
    # per generator its successor mask (each None until first needed)
    shadow_ids: dict = {}
    shadow_list: list = []
    kill_masks: list = []
    succ_cols: list = [[] for _ in gens]

    def intern(d: int, hist) -> int:
        key = (d, hist)
        sid = shadow_ids.get(key)
        if sid is None:
            sid = len(shadow_list)
            if sid >= MAX_SHADOWS:
                raise ResourceLimit("shadows", MAX_SHADOWS)
            shadow_ids[key] = sid
            shadow_list.append(key)
            kill_masks.append(None)
            for col in succ_cols:
                col.append(None)
        return sid

    def kill_mask(sid: int) -> int:
        # the live generators under which the shadow kills the word;
        # compute_kill interns nothing
        d, hist = shadow_list[sid]
        mask = 0
        for i in live:
            if compute_kill(d, hist, gens[i]):
                mask |= 1 << i
        return mask

    def compute_kill(d: int, hist, g: str) -> bool:
        # (a) the companion already equals the extended word
        row = rows[d]
        t = row.get((g, PAD))
        if t == EPS and decide_precedes(order, hist, (g,), ()):
            return True
        for h in gens:
            t = row.get((g, h))
            if t is None:
                continue
            if t == EPS:
                # (b) companion plus one generator
                if decide_precedes(order, hist, (g,), (h,)):
                    return True
            else:
                # (c) companion, a generator, and the closing word
                dd = diff.labels[diff.inverse_state[t]]
                if decide_precedes(order, hist, (g,), (h,) + dd):
                    return True
        return False

    def compute_successors(sid: int, g: str) -> int:
        d, hist = shadow_list[sid]
        out = 0
        # a move onto the trivial difference is not a shadow (the kill rules
        # weighed it, and an equal companion stays larger); a companion
        # that stopped cannot resume
        row = rows[d]
        for h in (PAD,) if hist.longer else pad_first:
            t = row.get((g, h))
            if t is not None and t != EPS:
                nh = history_step(order, hist, g, h)
                if in_bounds(order, bounds, nh, diff.labels[t]):
                    out |= 1 << intern(t, nh)
        return out

    fresh_masks = [0] * len(gens)
    for i in live:
        for d, hist in _fresh_shadows(diff, bounds, gens[i]):
            fresh_masks[i] |= 1 << intern(d, hist)

    def successors(subset: int):
        # decode the members once, lowest id first, and OR their kills
        bits = bin(subset)[:1:-1]
        members = []
        killed = 0
        sid = bits.find("1")
        while sid >= 0:
            members.append(sid)
            kill = kill_masks[sid]
            if kill is None:
                kill = kill_masks[sid] = kill_mask(sid)
            killed |= kill
            sid = bits.find("1", sid + 1)
        for i in live:
            if killed >> i & 1:
                continue
            col = succ_cols[i]
            out = fresh_masks[i]
            for sid in members:
                t = col[sid]
                if t is None:
                    t = col[sid] = compute_successors(sid, gens[i])
                out |= t
            yield gens[i], out

    raw, _ = explore(
        gens, 0, successors, lambda subset: True, 1, max_states=MAX_STATES,
    )
    return raw.minimized()
