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
    out = set()
    cap = bounds.overhang_cap
    for h in diff.alpha.symbols:
        if h == g:
            continue
        t = diff.step(EPS, g, h)
        if t is not None:
            hist = history(order, (g,), (h,), overhang_cap=cap)
            if in_bounds(order, bounds, hist, diff.labels[t]):
                out.add((t, hist))
    t = diff.step(EPS, g, PAD)
    if t is not None:
        hist = history(order, (g,), (), overhang_cap=cap)
        if in_bounds(order, bounds, hist, diff.labels[t]):
            out.add((t, hist))
    return frozenset(out)


def build_acceptor(diff: DiffMachine) -> Fsa:
    order = diff.order
    gens = diff.alpha.symbols
    bounds = bounds_for(order, diff.labels)
    cap = bounds.overhang_cap

    reduces = {g: diff.reduce((g,)) != (g,) for g in gens}
    fresh = {
        g: (frozenset() if reduces[g] else _fresh_shadows(diff, bounds, g))
        for g in gens
    }

    # Shadows are interned to integers so the hot loop hashes small ints,
    # not nested history records.  A shadow's fate under a generator is
    # independent of the set it sits in, so kill flags and successor id
    # tuples are filled lazily per (shadow id, generator index).
    n_gens = len(gens)
    gen_index = {g: i for i, g in enumerate(gens)}
    shadow_ids: dict = {}
    shadow_list: list = []
    kill_rows: list = []
    succ_rows: list = []

    def intern(d: int, hist) -> int:
        key = (d, hist)
        sid = shadow_ids.get(key)
        if sid is None:
            sid = len(shadow_list)
            if sid >= MAX_SHADOWS:
                raise ResourceLimit("shadows", MAX_SHADOWS)
            shadow_ids[key] = sid
            shadow_list.append(key)
            kill_rows.append([None] * n_gens)
            succ_rows.append([None] * n_gens)
        return sid

    def compute_kill(sid: int, g: str) -> bool:
        d, hist = shadow_list[sid]
        # (a) the companion already equals the extended word
        t = diff.step(d, g, PAD)
        if t == EPS and decide_precedes(order, hist, (g,), ()):
            return True
        for h in gens:
            t = diff.step(d, g, h)
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

    def compute_successors(sid: int, g: str) -> tuple:
        d, hist = shadow_list[sid]
        out = []
        # a move onto the trivial difference is not a shadow: the kill
        # rules already weighed it and found the companion larger, and
        # an equal companion stays larger
        t = diff.step(d, g, PAD)
        if t is not None and t != EPS:
            nh = history_step(order, hist, g, PAD, overhang_cap=cap)
            if in_bounds(order, bounds, nh, diff.labels[t]):
                out.append(intern(t, nh))
        if not hist.longer:  # a companion that stopped cannot resume
            for h in gens:
                t = diff.step(d, g, h)
                if t is not None and t != EPS:
                    nh = history_step(order, hist, g, h, overhang_cap=cap)
                    if in_bounds(order, bounds, nh, diff.labels[t]):
                        out.append(intern(t, nh))
        return tuple(out)

    fresh_ids = {
        g: frozenset(intern(d, h) for d, h in fresh[g]) for g in gens
    }

    def target(sids: frozenset, g: str) -> Optional[frozenset]:
        if reduces[g]:
            return None
        gi = gen_index[g]
        for sid in sids:
            row = kill_rows[sid]
            v = row[gi]
            if v is None:
                v = compute_kill(sid, g)
                row[gi] = v
            if v:
                return None
        out = set(fresh_ids[g])
        for sid in sids:
            row = succ_rows[sid]
            t = row[gi]
            if t is None:
                t = compute_successors(sid, g)
                row[gi] = t
            out.update(t)
        return frozenset(out)

    def successors(shadows: frozenset):
        for g in gens:
            tset = target(shadows, g)
            if tset is not None:
                yield g, tset

    raw, _ = explore(
        gens, frozenset(), successors, lambda shadows: True, 1,
        max_states=MAX_STATES,
    )
    return raw.minimized()
