"""Order comparisons against independently written reference definitions.

The references below implement each order straight from its definition
(the wreath one as the literal strip/compare/recurse form) and are kept
separate from the package implementation on purpose.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autostruct import Alphabet, Order, InputError, LT, EQ, GT


# ---------------------------------------------------------------- references


def ref_lex(alpha, u, v):
    for a, b in zip(u, v):
        if a != b:
            return -1 if alpha.rank(a) < alpha.rank(b) else 1
    if len(u) == len(v):
        return 0
    return -1 if len(u) < len(v) else 1


def ref_shortlex(alpha, u, v):
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    return ref_lex(alpha, u, v)


def ref_wtlex(alpha, u, v):
    wu = sum(alpha.weights[s] for s in u)
    wv = sum(alpha.weights[s] for s in v)
    if wu != wv:
        return -1 if wu < wv else 1
    return ref_lex(alpha, u, v)


def ref_wtshortlex(alpha, u, v):
    wu = sum(alpha.weights[s] for s in u)
    wv = sum(alpha.weights[s] for s in v)
    if wu != wv:
        return -1 if wu < wv else 1
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    return ref_lex(alpha, u, v)


def ref_wreath(alpha, u, v):
    # literal recursive form: strip, compare highest levels, compare the
    # top-level projections by shortlex, recurse on the prefixes before the
    # first top-level symbol
    i = 0
    while i < min(len(u), len(v)) and u[i] == v[i]:
        i += 1
    u, v = u[i:], v[i:]
    if u == v:
        return 0
    lu = max((alpha.level(s) for s in u), default=0)
    lv = max((alpha.level(s) for s in v), default=0)
    if lu != lv:
        return -1 if lu < lv else 1
    j = lu
    pu = tuple(s for s in u if alpha.level(s) == j)
    pv = tuple(s for s in v if alpha.level(s) == j)
    c = ref_shortlex(alpha, pu, pv)
    if c != 0:
        return c

    def before(w):
        for k, s in enumerate(w):
            if alpha.level(s) == j:
                return w[:k]
        return w

    return ref_wreath(alpha, before(u), before(v))


# ---------------------------------------------------------------- alphabets


def ab_alpha(weights=None):
    return Alphabet(["a", "b"], {"a": "b", "b": "a"}, weights=weights)


def z2_alpha():
    # x,X at level 1 and y,Y at level 2; lex order x < X < y < Y
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


def all_words(alpha, up_to):
    for n in range(up_to + 1):
        for w in itertools.product(alpha.symbols, repeat=n):
            yield w


# -------------------------------------------------------------- fixed facts


def test_shortlex_small_table():
    o = Order(ab_alpha(), "shortlex")
    expected = [
        (),
        ("a",),
        ("b",),
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("b", "b"),
    ]
    got = sorted(all_words(ab_alpha(), 2), key=_cmp_key(o))
    assert got == expected


def _cmp_key(order):
    return functools.cmp_to_key(lambda u, v: order.compare(u, v))


def test_wreath_z2_facts():
    o = Order(z2_alpha(), "wreathshortlex")
    # a level-2 letter dominates any pile of level-1 letters
    assert o.precedes(("x",) * 9, ("y",))
    # commuted forms: y before x is the smaller spelling
    assert o.precedes(("y", "x"), ("x", "y"))
    assert o.compare(("y", "x"), ("x", "y")) == LT
    assert o.compare(("x", "y"), ("y", "x")) == GT
    # the empty word is least
    assert o.precedes((), ("x",))
    assert o.precedes((), ("Y",))
    # within a level, shortlex on the projection decides
    assert o.precedes(("x",), ("X",))
    assert o.precedes(("y",), ("Y",))
    # common prefixes are stripped before anything else
    assert o.precedes(("y", "y", "x"), ("y", "x", "y"))


def test_wtlex_prefix_precedes():
    o = Order(ab_alpha(weights={"a": 2, "b": 3}), "wtlex")
    assert o.precedes(("a",), ("a", "a"))
    assert o.precedes((), ("b",))
    # weight dominates length: b (weight 3) comes after aa (weight 4)? no:
    # 3 < 4 so b precedes aa even though b is later in lex
    assert o.precedes(("b",), ("a", "a"))


def test_order_kind_validation():
    with pytest.raises(InputError):
        Order(ab_alpha(), "no-such-order")
    with pytest.raises(InputError):
        Order(ab_alpha(), "wreathshortlex")  # no levels declared


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet([], {})
    with pytest.raises(InputError):
        Alphabet(["a", "a"], {"a": "a"})
    with pytest.raises(InputError):
        Alphabet(["a", "b"], {"a": "b"})  # involution not closed
    with pytest.raises(InputError):
        Alphabet(["e", "E"], {"e": "E", "E": "e"})  # reserved name
    with pytest.raises(InputError):
        Alphabet(["a", "b"], {"a": "b", "b": "a"}, weights={"a": 0, "b": 1})
    with pytest.raises(InputError):
        Alphabet(
            ["a", "A"], {"a": "A", "A": "a"}, levels={"a": 1, "A": 2}
        )  # inverse pair split across levels


def test_self_inverse_generator_allowed():
    a = Alphabet(["t"], {"t": "t"})
    assert a.invert(("t", "t")) == ("t", "t")


# ------------------------------------------------------- reference agreement


AGREEMENT_CASES = [
    ("shortlex", ab_alpha(), ref_shortlex),
    ("wtlex", ab_alpha(weights={"a": 2, "b": 3}), ref_wtlex),
    ("wtshortlex", ab_alpha(weights={"a": 1, "b": 2}), ref_wtshortlex),
    ("wreathshortlex", z2_alpha(), ref_wreath),
    ("wreathshortlex", three_level_alpha(), ref_wreath),
]


@pytest.mark.parametrize("kind,alpha,ref", AGREEMENT_CASES)
def test_exhaustive_agreement_short_words(kind, alpha, ref):
    o = Order(alpha, kind)
    limit = 4 if len(alpha) <= 4 else 3
    words = list(all_words(alpha, limit))
    for u in words:
        for v in words:
            assert o.compare(u, v) == ref(alpha, u, v), (u, v)


@pytest.mark.parametrize("kind,alpha,ref", AGREEMENT_CASES)
def test_random_agreement_longer_words(kind, alpha, ref):
    o = Order(alpha, kind)
    rng = random.Random(20260822)
    syms = alpha.symbols
    for _ in range(2000):
        u = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 12)))
        v = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 12)))
        assert o.compare(u, v) == ref(alpha, u, v), (u, v)


@pytest.mark.parametrize("alpha", [z2_alpha(), three_level_alpha()])
def test_wreath_key_sorts_like_the_reference(alpha):
    o = Order(alpha, "wreathshortlex")
    rng = random.Random(7351)
    words = [_random_word(rng, alpha.symbols, 13) for _ in range(500)]
    ref_key = functools.cmp_to_key(lambda u, v: ref_wreath(alpha, u, v))
    assert sorted(words, key=o.key) == sorted(words, key=ref_key)


# ------------------------------------------------------------- order axioms


def _random_word(rng, syms, n):
    return tuple(rng.choice(syms) for _ in range(rng.randrange(0, n)))


@pytest.mark.parametrize("kind,alpha,_", AGREEMENT_CASES)
def test_order_axioms_sampled(kind, alpha, _):
    o = Order(alpha, kind)
    rng = random.Random(4127)
    syms = alpha.symbols
    for _i in range(3000):
        u = _random_word(rng, syms, 9)
        v = _random_word(rng, syms, 9)
        w = _random_word(rng, syms, 9)
        cu, cv, cw = o.compare(u, v), o.compare(v, w), o.compare(u, w)
        # totality and antisymmetry
        assert cu == -o.compare(v, u)
        assert (cu == EQ) == (u == v)
        # transitivity
        if cu == LT and cv == LT:
            assert cw == LT
        if cu == EQ:
            assert cv == cw
        # least element and translation invariance
        assert u == () or o.precedes((), u)
        if cu == LT:
            g = rng.choice(syms)
            h = rng.choice(syms)
            assert o.compare((g,) + u + (h,), (g,) + v + (h,)) == LT
            # each side separately
            assert o.compare((g,) + u, (g,) + v) == LT
            assert o.compare(u + (h,), v + (h,)) == LT


word_st = st.lists(st.sampled_from(["x", "X", "y", "Y"]), max_size=8).map(tuple)


@settings(max_examples=300, deadline=None)
@given(u=word_st, v=word_st, w=word_st)
def test_wreath_axioms_hypothesis(u, v, w):
    o = Order(z2_alpha(), "wreathshortlex")
    c = o.compare(u, v)
    assert c == -o.compare(v, u)
    assert (c == EQ) == (u == v)
    if c == LT and o.compare(v, w) == LT:
        assert o.compare(u, w) == LT
    if c == LT:
        assert o.compare(("y",) + u, ("y",) + v) == LT
        assert o.compare(u + ("X",), v + ("X",)) == LT

