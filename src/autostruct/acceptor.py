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

Every subset holds the root shadow: the trivial difference with the
history of the equal pair (`history.root_history`), a companion that has
not yet left the word.  Its successors are the shadows a generator
opens, so every other shadow is a step of one already in the subset, and
its kill mask is the generators that reduce on their own.

The subset construction runs on Python ints.  Each shadow is interned to
a bit, so a subset state is one int and the union of its members'
successors is one `|` per member.  Whether a shadow kills the word under
a generator does not depend on the subset it sits in, so each shadow
carries one kill mask over the generators, worked out the first time a
subset holding it is expanded; a subset ORs its members' masks once and
skips every generator whose bit is set.  A shadow's successor mask under
a generator is filled the first time a subset holding it survives that
generator, so exactly the shadows some surviving subset reaches are
interned, and the raw machine, numbered breadth-first in generator
order, does not depend on how subsets are stored.

Shadows come in dominance classes (`history.dominance`): at one
difference state, a subset holding a class's own history accepts the same
words with or without the histories it dominates, the -1 twin of a
weight history and, under shortlex, the one longer history.  So each
class is interned to adjacent bits, as many as `history.dominance_slots`
gives the order (three under shortlex, two under the other weighted
orders, one under the wreath order): the class's own history sits at the
lowest and the histories it dominates above it.  The mask ``base`` holds
the low bit of every class interned so far, and one mask operation per
successor subset, ``out &= ~((out & base) * spread)``, drops every
dominated history whose dominator is in the same subset: ``spread`` is
the class's bits but its lowest (``0b110`` under shortlex), the product
puts it over each class present, and no carry crosses into the next
class.  The language is unchanged; the raw machine is smaller, and
dropped histories are never expanded.
"""

from __future__ import annotations

from .diff import EPS, DiffMachine
from .errors import ResourceLimit
from .fsa import Fsa, explore
from .history import (
    bounds_for, decide_precedes, dominance, dominance_slots, history_step,
    in_bounds, root_history,
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
    bypassing the history construction.  A state is the longest suffix of
    the word read so far that is a proper prefix of a left side.  A left
    side that a further letter a completes ends at a, and the rest of it
    is such a suffix, no longer than the state; so the move on a dies
    exactly when some suffix of state + a is a left side, and otherwise
    goes to the longest suffix of state + a that is a proper prefix."""
    lefts = {lhs for lhs, _ in rs.active()}
    prefixes = {lhs[:i] for lhs in lefts for i in range(len(lhs))}
    gens = rs.order.alphabet.symbols

    def successors(p: Word):
        for a in gens:
            w = p + (a,)
            suffixes = [w[i:] for i in range(len(w))]  # longest first
            if lefts.isdisjoint(suffixes):
                yield a, next((s for s in suffixes if s in prefixes), ())

    raw, _ = explore(gens, (), successors, lambda p: True)
    return raw.minimized()


def build_acceptor(diff: DiffMachine) -> Fsa:
    """The minimal word acceptor of the difference machine.  The raw
    machine is built in a call of its own, so its interning tables and
    search states are freed before the minimization copies it."""
    return _raw_acceptor(diff).minimized()


def _raw_acceptor(diff: DiffMachine) -> Fsa:
    """The subset construction over shadows, unminimized."""
    order = diff.order
    gens = diff.alpha.symbols
    rows = diff.fsa.moves
    pad_first = (PAD,) + gens  # the companion's letters, padding first
    bound = bounds_for(order, diff.labels)

    # per shadow bit: its key (None for a bit not yet used), its kill mask
    # over the generators, and per generator its successor mask (each None
    # until first needed); class c has the bits from slots * c on
    shadow_ids: dict = {}
    class_ids: dict = {}
    shadow_list: list = []
    kill_masks: list = []
    succ_cols: list = [[] for _ in gens]
    slots = dominance_slots(order)
    base = 0  # the low bit of every class
    spread = (1 << slots) - 2  # over a class's low bit, its other bits
    unused = (None,) * slots

    def intern(d: int, hist) -> int:
        nonlocal base
        key = (d, hist)
        sid = shadow_ids.get(key)
        if sid is None:
            if len(shadow_ids) > MAX_SHADOWS:  # the root is not counted
                raise ResourceLimit("shadows", MAX_SHADOWS)
            cls, slot = dominance(order, hist)
            c = class_ids.setdefault((d, cls), len(class_ids))
            if slots * c == len(shadow_list):
                base |= 1 << slots * c
                shadow_list.extend(unused)
                kill_masks.extend(unused)
                for col in succ_cols:
                    col.extend(unused)
            sid = slots * c + slot
            shadow_ids[key] = sid
            shadow_list[sid] = key
        return sid

    root = intern(EPS, root_history(order))  # a member of every subset
    kill_masks[root] = root_kill = sum(
        1 << i for i, g in enumerate(gens) if diff.reduce((g,)) != (g,)
    )

    def kill_mask(sid: int) -> int:
        # the generators the root leaves alive under which the shadow kills
        # the word; compute_kill interns nothing
        d, hist = shadow_list[sid]
        mask = 0
        for i, g in enumerate(gens):
            if not root_kill >> i & 1 and compute_kill(d, hist, g):
                mask |= 1 << i
        return mask

    def compute_kill(d: int, hist, g: str) -> bool:
        # (a) the companion already equals the extended word
        row = rows[d]
        if row.get((g, PAD)) == EPS and decide_precedes(order, hist, (g,), ()):
            return True
        # (b) companion, a generator, and the closing word, which is empty
        # when the generator lands on the trivial difference
        for h in gens:
            t = row.get((g, h))
            if t is not None:
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
                if in_bounds(order, bound, nh, diff.labels[t]):
                    out |= 1 << intern(t, nh)
        return out

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
        for i, g in enumerate(gens):
            if killed >> i & 1:
                continue
            col = succ_cols[i]
            out = 1 << root
            for sid in members:
                t = col[sid]
                if t is None:
                    t = col[sid] = compute_successors(sid, g)
                out |= t
            # drop each dominated history whose dominator is here
            out &= ~((out & base) * spread)
            yield g, out

    raw, _ = explore(
        gens, 1 << root, successors, lambda subset: True, max_states=MAX_STATES
    )
    return raw
