"""Comparison histories for synchronously read word pairs.

The acceptor construction walks pairs (w1, w2) of words letter by letter,
where w1 is the candidate being tested (track 1) and w2 a potential earlier
spelling of the same group element (track 2).  A history is a bounded summary
of the pair that still answers, for appended endings e1 and e2, whether
w2.e2 strictly precedes w1.e1 in the reduction order.  There is one way to
make a history: `root_history` is the history of the equal (empty) pair,
and `history_step` extends a history by one letter pair, so a pair's
history is its letter pairs stepped from the root.  `bounds_for` reads one
bound off a difference machine's label set, and `in_bounds` filters
histories against it.

Conventions:

* the pair's common prefix is never read: the acceptor starts a shadow at
  the pair's first divergent letter pair, stepped from the root.  Track 1
  is never shorter than track 2; once track 2 has fallen behind (the
  ``longer`` flag), it stays behind and only (letter, padding) steps are
  legal
* for the weighted orders the summary is (longer, lexsign, wtdiff), with
  lexsign read as "+1 when track 2 is lex-earlier at the first divergence",
  set by the step that diverges and 0 before it, and wtdiff capped at 1
  once track 1 is strictly longer
* for the wreath-product order the summary keeps, per level, either a final
  verdict (level settled for one side) or an overhang queue: the lex sign
  of the matched parts of the level projections and the letters of one
  track's projection still unmatched.  A letter on one track is matched
  against the head of the other track's queue, or else joins its own, and a
  step's two letters may go in either order; an equal level, kept as 0,
  reads as the empty queue.  Overhangs are not capped here: `in_bounds` is
  the one filter, and the acceptor steps, decides on and keeps only
  histories that pass it
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

from .errors import LogicError
from .orders import LT, EQ, Order, SHORTLEX, WTLEX, WTSHORTLEX, lex_cmp
from .words import PAD, Word


@dataclass(frozen=True)
class WtHistory:
    longer: bool  # track 1 strictly longer than track 2
    lexsign: int  # +1: track 2 lex-earlier, -1: later; 0 only when unset
    wtdiff: int  # weight(track 1) - weight(track 2), capped at 1 once longer


@dataclass(frozen=True)
class LevelRec:
    """Unsettled level: matched parts compared, one side may overhang."""

    sign: int  # lex sign of matched projection parts, track 2 vs track 1
    over1: Word  # overhang of track 1's projection (then over2 is empty)
    over2: Word  # overhang of track 2's projection (then over1 is empty)


LevelComp = Union[int, LevelRec]  # int is -1, 0 or +1

# an equal level (0) reads as this record: no sign, nothing overhanging
EQUAL_LEVEL = LevelRec(EQ, (), ())


@dataclass(frozen=True)
class WreathHistory:
    longer: bool
    top1: int  # highest level in track 1's stripped word
    top2: int  # highest level in track 2's stripped word
    levels: tuple  # component per level 1..max(top1, top2)


History = Union[WtHistory, WreathHistory]


def _pi(order: Order, w: Word, j: int) -> Word:
    """Level-j symbols of the longest prefix of w that stays at level <= j."""
    a = order.alphabet
    return a.project(a.prefix_below(w, j + 1), j)


def _wt_like(order: Order) -> bool:
    return order.kind in (SHORTLEX, WTLEX, WTSHORTLEX)


# ----------------------------------------------------------------- stepping


def root_history(order: Order) -> History:
    """History of the equal pair: every other history is stepped from it."""
    if _wt_like(order):
        return WtHistory(False, 0, 0)
    return WreathHistory(False, 0, 0, ())


def history_step(order: Order, h: History, a: str, b: str) -> History:
    """History of the pair extended by one letter pair (a, b).

    a is a generator; b is a generator or the padding symbol.  A history
    whose track 1 is already longer only accepts padded steps.  The first
    step from the root must diverge (a != b): a common prefix is never
    stepped, and the wreath levels would read it as part of the pair.
    """
    if a == PAD:
        raise LogicError("track 1 never pads")
    if h.longer and b != PAD:
        raise LogicError("track 2 cannot resume after falling behind")
    if _wt_like(order):
        return _wt_step(order, h, a, b)
    return _wreath_step(order, h, a, b)


def _wt_step(order: Order, h: WtHistory, a: str, b: str) -> WtHistory:
    lexsign = h.lexsign
    if not lexsign and a != b:
        # the first divergent pair sets the sign; a padded track 2 is a
        # proper prefix of track 1, so lex-earlier
        rank = order.alphabet.rank
        lexsign = 1 if b == PAD or rank(b) < rank(a) else -1
    if b == PAD:
        wtd = min(h.wtdiff + order.weight(a), 1)
        # length ties are what the lex component is for; once longer, only
        # wtlex still reads it
        return WtHistory(True, lexsign if order.kind == WTLEX else 0, wtd)
    wtd = h.wtdiff + order.weight(a) - order.weight(b)
    return WtHistory(False, lexsign, wtd)


def dominance(h: History) -> tuple:
    """(class, dominated): the history naming h's dominance class, and
    whether h is the class's dominated twin.

    Twins are the weight histories (longer, +1, wtdiff) and
    (longer, -1, wtdiff); the class is named by the +1 twin, which
    dominates: at the same difference state, a shadow set holding both
    accepts exactly the words it accepts without the -1 twin.

    * Stepping.  `_wt_step` sets the sign only while it is 0, so a set
      sign never changes, and the new wtdiff and longer flag read only
      the old ones and the letter pair.  Twins stepped by the same pair
      are twins again, or one history once track 2 pads under shortlex
      or wtshortlex (the sign is dropped there).  Both read the same
      `longer`, so they step on the same letter pairs.
    * Deciding.  `decide_precedes` reads the sign only at the final tie,
      through ``lexsign == 1``, so wherever the -1 twin answers True the
      +1 twin does too: the +1 twin kills the word under every generator
      the -1 twin kills it under.
    * Bounds.  `in_bounds` reads only wtdiff, so twins pass or fail it
      together.

    By induction on the word read: a subset with the dominated twin added
    has the same kills, and its successors are those of the subset without
    it, plus twins dominated by members of those.  So it accepts the same
    words.  Histories with sign 0 (the root, and longer ones under
    shortlex and wtshortlex) have no twin.  A `WreathHistory` is its own
    class and is never dominated.
    """
    if isinstance(h, WtHistory) and h.lexsign == -1:
        return WtHistory(h.longer, 1, h.wtdiff), True
    return h, False


def _wreath_step(order: Order, h: WreathHistory, a: str, b: str) -> WreathHistory:
    alpha = order.alphabet
    la = alpha.level(a)
    lb = None if b == PAD else alpha.level(b)
    top1 = max(h.top1, la)
    top2 = h.top2 if lb is None else max(h.top2, lb)
    longer = h.longer or b == PAD
    comps = []
    for j in range(1, max(top1, top2) + 1):
        old = h.levels[j - 1] if j <= len(h.levels) else 0
        # a letter lands in a level projection only while nothing above that
        # level has been seen on its own track
        app1 = a if (h.top1 <= j and la == j) else None
        app2 = b if (lb is not None and h.top2 <= j and lb == j) else None
        comps.append(
            _step_level(alpha, old, app1, app2, j, longer, top1, top2)
        )
    return WreathHistory(longer, top1, top2, tuple(comps))


def _normalize_level(
    sign: int,
    over1: Word,
    over2: Word,
    j: int,
    longer: bool,
    top1: int,
    top2: int,
) -> LevelComp:
    """Classify one level from its raw matched-part/overhang content."""
    if not over1 and not over2 and sign == EQ:
        return 0
    # a nonempty over1 makes track 1's projection longer, so track 2's is
    # shortlex-smaller at this level, and symmetrically
    side2_smaller = bool(over1) or (not over2 and sign == LT)
    if side2_smaller:
        if longer or top2 > j:
            return 1
    else:
        if top1 > j:
            return -1
    return LevelRec(sign, over1, over2)


def _step_level(alpha, old, app1, app2, j, longer, top1, top2):
    if old == 1 or old == -1:
        # settled levels stay settled: the losing side's projection is
        # frozen by construction while the winner can only grow
        return old
    rec = EQUAL_LEVEL if old == 0 else old
    sign, over1, over2 = rec.sign, rec.over1, rec.over2
    if app1 is not None:
        if over2:
            if sign == EQ:
                sign = lex_cmp(alpha, over2[:1], (app1,))
            over2 = over2[1:]
        else:
            over1 += (app1,)
    if app2 is not None:
        if over1:
            if sign == EQ:
                sign = lex_cmp(alpha, (app2,), over1[:1])
            over1 = over1[1:]
        else:
            over2 += (app2,)
    return _normalize_level(sign, over1, over2, j, longer, top1, top2)


# ----------------------------------------------------------------- deciding


def decide_precedes(order: Order, h: History, e1: Word, e2: Word) -> bool:
    """Does (track 2).e2 strictly precede (track 1).e1 in the order?

    Once track 1 is longer, the exact length gap is gone from a weight
    history (the weight gap is clamped), so a track-2 extension can only
    be affirmed by a strict weight drop; anything else answers False,
    which for the acceptor's pruning is the safe side.  Level histories
    carry enough to stay exact.
    """
    if _wt_like(order):
        if h.longer and e2:
            return h.wtdiff + order.word_weight(e1) - order.word_weight(e2) > 0
        return _wt_decide(order, h, e1, e2)
    return _wreath_decide(order, h, e1, e2)


def _wt_decide(order: Order, h: WtHistory, e1: Word, e2: Word) -> bool:
    d = h.wtdiff + order.word_weight(e1) - order.word_weight(e2)
    if d != 0:
        return d > 0
    if order.kind == WTLEX:
        return h.lexsign == 1
    if h.longer:
        # equal weight and track 2 strictly shorter
        return True
    if len(e1) != len(e2):
        return len(e2) < len(e1)
    return h.lexsign == 1


def _wreath_decide(order: Order, h: WreathHistory, e1: Word, e2: Word) -> bool:
    a = order.alphabet
    t1 = max(h.top1, a.max_level(e1))
    t2 = max(h.top2, a.max_level(e2))
    for j in range(max(t1, t2), 0, -1):
        c = h.levels[j - 1] if j <= len(h.levels) else 0
        ext1 = _pi(order, e1, j) if h.top1 <= j else ()
        ext2 = _pi(order, e2, j) if h.top2 <= j else ()
        if c == 1:
            # settled for synced steps, but an extension can reopen the
            # level unless track 2's projection here is frozen
            return not ext2
        if c == -1:
            # track 1's projection is frozen here and track 2 can only
            # grow past it, so this stands
            return False
        if c == 0:
            c = EQUAL_LEVEL
        # unsettled (or equal) level: matched parts carry c.sign, then the
        # overhangs and the extensions fight it out by shortlex
        delta = (len(c.over2) + len(ext2)) - (len(c.over1) + len(ext1))
        if delta != 0:
            return delta < 0
        if c.sign != EQ:
            return c.sign == LT
        s = lex_cmp(a, c.over2 + ext2, c.over1 + ext1)
        if s != EQ:
            return s == LT
    return False


# ------------------------------------------------------------------- bounds


def bounds_for(order: Order, labels) -> int:
    """The bound a history must keep at every difference label.

    For the weighted orders it is the greatest label weight, which caps
    the weight gap; for the wreath-product order it is the most letters
    any label has on one level, which caps every level's overhang.
    """
    if _wt_like(order):
        return max(order.word_weight(d) for d in labels)
    counts = (Counter(map(order.alphabet.level, d)) for d in labels)
    return max((n for c in counts for n in c.values()), default=0)


def in_bounds(order: Order, bound: int, h: History, label: Word) -> bool:
    """Is this history inside the sufficient set at the given state label?"""
    if _wt_like(order):
        return -order.word_weight(label) <= h.wtdiff <= bound
    for c in h.levels:
        if isinstance(c, LevelRec) and (len(c.over1) > bound or len(c.over2) > bound):
            return False
    return True
