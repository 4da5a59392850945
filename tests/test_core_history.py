"""Histories must agree with direct order comparisons.

The evolutions generated here mirror how the acceptor walks pairs: step
from the root with two distinct letters (or a letter against nothing), then
extend with letter pairs, padding track 2 once it has fallen behind.  At
every stage the stepped history must match `reference_history`, which
builds the summary of the spelled pair from scratch, and its verdicts must
match comparing the fully spelled words.
"""

import itertools
import random

import pytest

from autostruct import Alphabet, Order, LT
from autostruct.history import (
    WreathHistory,
    WtHistory,
    _normalize_level,
    _pi,
    _wt_like,
    bounds_for,
    decide_precedes,
    dominance,
    history_step,
    in_bounds,
    root_history,
)
from autostruct.orders import SHORTLEX, WTLEX, lex_cmp
from autostruct.words import PAD


def strip_common_prefix(u, v):
    i = 0
    n = min(len(u), len(v))
    while i < n and u[i] == v[i]:
        i += 1
    return u[i:], v[i:]


def reference_history(order, w1, w2):
    """Summary of the pair (w1, w2) computed from scratch, with no steps."""
    w1, w2 = strip_common_prefix(w1, w2)
    assert w1 != w2 and len(w1) >= len(w2)
    longer = len(w1) > len(w2)
    a = order.alphabet
    if _wt_like(order):
        wtd = order.word_weight(w1) - order.word_weight(w2)
        if longer:
            wtd = min(wtd, 1)
        # +1 iff track 2 is lex-earlier; a proper prefix counts as earlier.
        # Length ties are what the lex component is for, so once longer
        # only wtlex keeps it
        sign = 1 if lex_cmp(a, w2, w1) == LT else -1
        return WtHistory(longer, sign if order.kind == WTLEX or not longer else 0, wtd)
    top1, top2 = a.max_level(w1), a.max_level(w2)
    comps = []
    for j in range(1, max(top1, top2) + 1):
        p1, p2 = _pi(order, w1, j), _pi(order, w2, j)
        m = min(len(p1), len(p2))
        sign = lex_cmp(a, p2[:m], p1[:m])
        comps.append(
            _normalize_level(sign, p1[m:], p2[m:], j, longer, top1, top2)
        )
    return WreathHistory(longer, top1, top2, tuple(comps))


def stepped(order, w1, w2):
    """History of (w1, w2) stepped from the root, track 2 padded."""
    h = root_history(order)
    for i, a in enumerate(w1):
        h = history_step(order, h, a, w2[i] if i < len(w2) else PAD)
    return h


def wt_alpha():
    return Alphabet(
        ["a", "A", "b", "B"],
        {"a": "A", "A": "a", "b": "B", "B": "b"},
        weights={"a": 1, "A": 1, "b": 2, "B": 2},
    )


def z2_alpha():
    return Alphabet(
        ["x", "X", "y", "Y"],
        {"x": "X", "X": "x", "y": "Y", "Y": "y"},
        levels={"x": 1, "X": 1, "y": 2, "Y": 2},
    )


def three_level_alpha():
    return Alphabet(
        ["a", "A", "b", "B", "c", "C"],
        {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"},
        levels={"a": 1, "A": 1, "b": 2, "B": 2, "c": 3, "C": 3},
    )


def gap_level_alpha():
    # declared levels 1, 3 and 6: the wreath steps walk the empty levels
    # between them
    return Alphabet(
        ["a", "A", "b", "B", "c", "C"],
        {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"},
        levels={"a": 1, "A": 1, "b": 3, "B": 3, "c": 6, "C": 6},
    )


ORDERS = [
    Order(wt_alpha(), "shortlex"),
    Order(wt_alpha(), "wtlex"),
    Order(wt_alpha(), "wtshortlex"),
    Order(z2_alpha(), "wreathshortlex"),
    Order(three_level_alpha(), "wreathshortlex"),
    Order(gap_level_alpha(), "wreathshortlex"),
]


def order_id(order):
    """Kind and alphabet size, plus the declared levels when they skip one."""
    tiers = sorted(set((order.alphabet.levels or {}).values()))
    name = f"{order.kind}-{len(order.alphabet.symbols)}"
    if tiers != list(range(1, len(tiers) + 1)):
        name += "-levels-" + "-".join(map(str, tiers))
    return name


def _evolve(order, rng, steps):
    """Yield (w1, w2, hist) along one construction-style pair walk."""
    syms = order.alphabet.symbols
    g = rng.choice(syms)
    if rng.random() < 0.25:
        w1, w2 = (g,), ()
        h = history_step(order, root_history(order), g, PAD)
    else:
        hh = rng.choice([s for s in syms if s != g])
        w1, w2 = (g,), (hh,)
        h = history_step(order, root_history(order), g, hh)
    yield w1, w2, h
    for _ in range(steps):
        a = rng.choice(syms)
        if h.longer or rng.random() < 0.2:
            b = PAD
            w1 = w1 + (a,)
        else:
            b = rng.choice(syms)
            w1, w2 = w1 + (a,), w2 + (b,)
        h = history_step(order, h, a, b)
        yield w1, w2, h


@pytest.mark.parametrize("order", ORDERS, ids=order_id)
def test_step_matches_recompute(order):
    # every first step the acceptor takes from the root
    syms = order.alphabet.symbols
    for g in syms:
        for h in syms + (PAD,):
            if h != g:
                w2 = () if h == PAD else (h,)
                first = history_step(order, root_history(order), g, h)
                assert first == reference_history(order, (g,), w2), (g, h)
    rng = random.Random(911)
    for _ in range(600):
        for w1, w2, h in _evolve(order, rng, rng.randrange(0, 10)):
            assert h == reference_history(order, w1, w2), (w1, w2)


@pytest.mark.parametrize("order", ORDERS, ids=order_id)
def test_decide_matches_compare(order):
    rng = random.Random(1723)
    syms = order.alphabet.symbols
    checked = 0
    while checked < 10200:
        for w1, w2, h in _evolve(order, rng, rng.randrange(0, 8)):
            for _q in range(4):
                e1 = (rng.choice(syms),)
                n = rng.randrange(0, 4)
                e2 = tuple(rng.choice(syms) for _ in range(n))
                want = order.compare(w2 + e2, w1 + e1) == LT
                got = decide_precedes(order, h, e1, e2)
                if h.longer and e2:
                    # the length gap is abstracted away, so the verdict
                    # is one-sided: an affirmative must be correct
                    assert not got or want, (w1, w2, e1, e2)
                else:
                    assert got == want, (w1, w2, e1, e2)
                checked += 1
    assert checked >= 10000


def test_decide_conservative_when_longer():
    # a one-letter track-2 extension against a one-letter lead is still
    # affirmable by weight; a longer extension is not, even when true
    order = ORDERS[0]
    h = stepped(order, ("a", "a"), ("b",))
    assert h.longer
    assert decide_precedes(order, h, ("a",), ("b",))
    h3 = stepped(order, ("a", "a", "a"), ("b",))
    assert not decide_precedes(order, h3, ("a",), ("b", "b"))
    assert order.compare(("b", "b", "b"), ("a", "a", "a", "a")) == LT
    # same for a level record settled only by the length flag
    worder = Order(z2_alpha(), "wreathshortlex")
    wh = stepped(worder, ("x",), ())
    assert not decide_precedes(worder, wh, ("x",), ("x",))
    assert worder.compare(("x",), ("x", "x")) == LT


def test_wt_history_values_fixed():
    order = Order(wt_alpha(), "wtlex")
    # b (weight 2) against a (weight 1): track 2 lex-earlier, lighter
    h = stepped(order, ("b",), ("a",))
    assert h == WtHistory(longer=False, lexsign=1, wtdiff=1)
    # pad step caps the weight surplus at 1
    h2 = history_step(order, h, "b", PAD)
    assert h2.longer and h2.wtdiff == 1
    # equal-weight divergence keeps the lex verdict
    h3 = stepped(order, ("a", "b"), ("b", "a"))
    assert h3.wtdiff == 0 and h3.lexsign == -1  # ba comes after ab at equal weight? no:
    # track 2 is "ba", track 1 is "ab"; "ab" is lex-earlier, so sign is -1


def test_wtshortlex_lex_zeroed_when_longer():
    order = Order(wt_alpha(), "wtshortlex")
    h = stepped(order, ("a", "a"), ("b",))
    assert h.longer and h.lexsign == 0


def test_wreath_history_worked_example():
    order = Order(z2_alpha(), "wreathshortlex")
    h = stepped(order, ("x", "y"), ("y", "x"))
    assert h == WreathHistory(longer=False, top1=2, top2=2, levels=(1, 0))
    # appending (x, x) changes nothing: both tracks are already above level 1
    h2 = history_step(order, h, "x", "x")
    assert h2 == reference_history(order, ("x", "y", "x"), ("y", "x", "x"))
    assert h2.levels == (1, 0)
    # and the verdict stands: yx then anything stays ahead of xy
    assert decide_precedes(order, h, (), ())
    assert decide_precedes(order, h2, ("x",), ("x",))


def test_wreath_overflow_and_bounds():
    order = Order(z2_alpha(), "wreathshortlex")
    # track 1 piles up level-1 letters against a frozen track 2 projection
    h = stepped(order, ("x", "x", "x", "y"), ("y", "x", "x"))
    # at level 1 track 1's projection xxx overhangs track 2's empty one,
    # but track 2 is already at level 2, so the level is settled
    assert h.levels[0] == 1
    hb = stepped(order, ("x", "x", "x"), ("X", "X", "X"))
    bounds = bounds_for(order, [(), ("x",), ("Y", "x")])
    assert bounds == 1
    assert in_bounds(order, bounds, hb, ())


def test_wreath_overflow_collapse():
    order = Order(z2_alpha(), "wreathshortlex")
    # yyy against xxy: at level 2 the projections are yyy and y, leaving an
    # unsettled two-letter overhang on track 1, past a cap of 1
    h = stepped(order, ("y", "y", "y"), ("x", "x", "y"))
    assert len(h.levels[1].over1) == 2
    bounds = bounds_for(order, [(), ("x",)])
    assert not in_bounds(order, bounds, h, ())
    # a synced step keeps the overhang, so the history stays out of bounds
    h2 = history_step(order, h, "y", "y")
    assert not in_bounds(order, bounds, h2, ())


def test_wt_bounds_filter():
    order = Order(wt_alpha(), "wtlex")
    labels = [(), ("a",), ("b", "a")]
    bounds = bounds_for(order, labels)
    assert bounds == 3
    h = stepped(order, ("b", "b"), ("a",))
    assert h.wtdiff == 1  # capped: longer
    assert in_bounds(order, bounds, h, ("a",))
    deep = stepped(order, ("b", "b"), ("a", "a"))
    assert deep.wtdiff == 2
    assert in_bounds(order, bounds, deep, ())
    light = stepped(order, ("a", "a"), ("b", "b"))
    assert light.wtdiff == -2
    assert not in_bounds(order, bounds, light, ("a",))  # -wt(a) = -1 > -2
    assert in_bounds(order, bounds, light, ("b", "a"))



@pytest.mark.parametrize(
    "order", [o for o in ORDERS if _wt_like(o)], ids=order_id
)
def test_dominating_twin_kills_wherever_its_twin_does(order):
    # the acceptor drops a shadow whose dominating twin shares its subset
    # (history.dominance); that is sound only if the dominator decides True
    # wherever the dropped twin does and the two keep stepping as twins
    rng = random.Random(5081)
    syms = order.alphabet.symbols
    split = 0  # endings where the sign decides, so the pair differs
    for _ in range(500):
        longer = rng.random() < 0.3
        wtdiff = rng.randrange(-3, 2 if longer else 4)  # capped once longer
        twins = [WtHistory(longer, s, wtdiff) for s in (1, -1)]
        top, low = sorted(twins, key=lambda h: dominance(order, h)[1])
        assert dominance(order, top) == (top, False)
        assert dominance(order, low) == (top, True)
        for _q in range(8):
            e1 = tuple(rng.choice(syms) for _ in range(rng.randrange(1, 4)))
            e2 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 4)))
            kills_low = decide_precedes(order, low, e1, e2)
            kills_top = decide_precedes(order, top, e1, e2)
            assert kills_top or not kills_low, (top, low, e1, e2)
            split += kills_top != kills_low
        a = rng.choice(syms)
        for b in (PAD,) if longer else syms + (PAD,):
            st, sl = history_step(order, top, a, b), history_step(order, low, a, b)
            assert in_bounds(order, 2, st, ()) == in_bounds(order, 2, sl, ())
            if st == sl:
                # track 2 padding drops the sign where it no longer counts
                assert b == PAD and order.kind != WTLEX, (top, a, b)
            else:
                assert dominance(order, sl) == (st, True), (top, a, b)
    assert split > 0


@pytest.mark.parametrize(
    "order", [o for o in ORDERS if _wt_like(o)], ids=order_id
)
def test_shortlex_longer_history_decides_and_steps_as_its_dominator(order):
    # under shortlex the acceptor also drops (True, 0, 1) where
    # (False, +1, 0) shares its subset and difference state: the two must
    # decide alike on every ending, and the longer one's only step must be
    # one the other takes too
    syms = order.alphabet.symbols
    longer, top = WtHistory(True, 0, 1), WtHistory(False, 1, 0)
    if order.kind != SHORTLEX:
        assert dominance(order, longer) == (longer, 0)
        return
    assert dominance(order, longer) == (top, 2)
    assert dominance(order, top) == (top, 0)
    endings = [
        tuple(w) for n in range(3) for w in itertools.product(syms, repeat=n)
    ]
    for e1 in endings:
        for e2 in endings:
            want = len(e2) <= len(e1)
            assert decide_precedes(order, top, e1, e2) == want, (e1, e2)
            assert decide_precedes(order, longer, e1, e2) == want, (e1, e2)
    for a in syms:
        assert history_step(order, longer, a, PAD) == longer
        assert history_step(order, top, a, PAD) == longer
