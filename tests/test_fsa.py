"""Automaton operations against brute-force set computations."""

import itertools
import random

import pytest

from autostruct.errors import LogicError
from autostruct.fsa import (
    Fsa,
    empty_fsa,
    pad_pair,
    pair_symbols,
)
from autostruct.words import PAD

AB = ("a", "b")
PAIRS = pair_symbols(AB)


def brute_language(m, max_len):
    out = set()
    for n in range(max_len + 1):
        for w in itertools.product(m.symbols, repeat=n):
            if m.accepts(w):
                out.add(w)
    return out


def fsa_from_words(symbols, words, track=1):
    """Trie of an explicit finite language, minimized."""
    trans = {}
    accepting = set()
    states = {(): 0}
    for w in words:
        for i in range(len(w)):
            pre, sym = tuple(w[:i]), w[i]
            nxt = tuple(w[: i + 1])
            if nxt not in states:
                states[nxt] = len(states)
            trans[(states[pre], sym)] = states[nxt]
        accepting.add(states[tuple(w)])
    return Fsa(symbols, len(states), 0, accepting, trans, track).minimized()


def even_a_machine():
    # words over {a,b} with an even number of a's
    trans = {
        (0, "a"): 1,
        (1, "a"): 0,
        (0, "b"): 0,
        (1, "b"): 1,
    }
    return Fsa(AB, 2, 0, {0}, trans)


def no_bb_machine():
    # words without the factor bb
    trans = {
        (0, "a"): 0,
        (0, "b"): 1,
        (1, "a"): 0,
    }
    return Fsa(AB, 2, 0, {0, 1}, trans)


def all_words_machine():
    return Fsa(AB, 1, 0, {0}, {(0, "a"): 0, (0, "b"): 0})


def fingerprint(m):
    return (
        m.symbols,
        m.num_states,
        m.start,
        tuple(sorted(m.accepting)),
        tuple(sorted(m.transitions.items())),
        m.track,
    )


def test_accepts_and_enumerate():
    m = even_a_machine()
    want = {
        w
        for n in range(6)
        for w in itertools.product(AB, repeat=n)
        if sum(1 for s in w if s == "a") % 2 == 0
    }
    assert brute_language(m, 5) == want
    got = list(m.enumerate_words(5))
    assert set(got) == want
    # length order, alphabet order within a length
    assert got == sorted(got, key=lambda w: (len(w), [AB.index(s) for s in w]))


def test_count_accepted_matches_enumeration():
    for m in (even_a_machine(), no_bb_machine(), all_words_machine()):
        per_len = {}
        for w in m.enumerate_words(7):
            per_len[len(w)] = per_len.get(len(w), 0) + 1
        for n in range(8):
            assert m.count_accepted(n) == per_len.get(n, 0)


def test_minimize_canonical_and_minimal():
    # two different constructions of the even-a language
    a = even_a_machine().minimized()
    bloated = Fsa(
        AB,
        5,
        2,
        {2, 3},
        {
            (2, "a"): 4,
            (4, "a"): 3,
            (3, "a"): 4,
            (2, "b"): 3,
            (3, "b"): 2,
            (4, "b"): 4,
            # unreachable junk
            (0, "a"): 1,
            (1, "b"): 0,
        },
    )
    # bloated has two interchangeable accept states: same language
    assert brute_language(bloated, 6) == brute_language(a, 6)
    b = bloated.minimized()
    assert fingerprint(a) == fingerprint(b)
    assert a.num_states == 2
    empty = Fsa(AB, 3, 0, set(), {(0, "a"): 1, (1, "b"): 2})
    assert fingerprint(empty.minimized()) == fingerprint(empty_fsa(AB))


def test_boolean_ops_against_sets():
    m1, m2 = even_a_machine(), no_bb_machine()
    l1, l2 = brute_language(m1, 6), brute_language(m2, 6)
    assert brute_language(m1.intersect(m2), 6) == l1 & l2
    assert brute_language(m1.union(m2), 6) == l1 | l2
    universe = brute_language(all_words_machine(), 6)
    assert brute_language(m1.complement(), 6) == universe - l1


def test_equal_languages_and_witness():
    m1 = even_a_machine()
    m2 = even_a_machine().minimized()
    assert m1.equal_languages(m2) is None
    m3 = no_bb_machine()
    w = m1.equal_languages(m3)
    assert w is not None
    assert m1.accepts(w) != m3.accepts(w)
    # shortest possible disagreement, earliest in alphabet order
    assert w == ("a",)


# ------------------------------------------------------------- track 2


def diagonal_machine():
    trans = {(0, (g, g)): 0 for g in AB}
    return Fsa(PAIRS, 1, 0, {0}, trans, 2)


def append_machine(suffix):
    """Pairs (w, w . suffix)."""
    trans = {(0, (g, g)): 0 for g in AB}
    for i, s in enumerate(suffix):
        trans[(i, (PAD, s))] = i + 1
    n = len(suffix)
    return Fsa(PAIRS, n + 1, 0, {n}, trans, 2)


def strip_machine(suffix):
    """Pairs (w . suffix, w)."""
    trans = {(0, (g, g)): 0 for g in AB}
    for i, s in enumerate(suffix):
        trans[(i, (s, PAD))] = i + 1
    n = len(suffix)
    return Fsa(PAIRS, n + 1, 0, {n}, trans, 2)


def brute_pairs(m, max_len):
    out = set()
    for n1 in range(max_len + 1):
        for w1 in itertools.product(AB, repeat=n1):
            for n2 in range(max_len + 1):
                for w2 in itertools.product(AB, repeat=n2):
                    if m.accepts_pair(w1, w2):
                        out.add((w1, w2))
    return out


def test_pad_pair_and_universe():
    assert pad_pair(("a",), ("a", "b")) == (("a", "a"), (PAD, "b"))


def test_complement_refuses_pair_machines():
    with pytest.raises(LogicError):
        diagonal_machine().complement()


def test_accepts_pair_and_brute():
    ap = append_machine(("a",))
    want = {
        (w, w + ("a",))
        for n in range(4)
        for w in itertools.product(AB, repeat=n)
    }
    assert brute_pairs(ap, 4) == {(u, v) for u, v in want if len(v) <= 4}


def test_project():
    ap = append_machine(("a",))
    left = ap.project(1)
    assert left.equal_languages(all_words_machine()) is None
    right = ap.project(2)
    # all nonempty words ending in a
    ends_a = fsa_from_words(
        AB,
        [
            w
            for n in range(1, 7)
            for w in itertools.product(AB, repeat=n)
            if w[-1] == "a"
        ],
    )
    assert brute_language(right, 6) == brute_language(ends_a, 6)


def test_compose_append_then_append():
    c = append_machine(("a",)).compose(append_machine(("b",)))
    want = append_machine(("a", "b")).minimized()
    assert c.equal_languages(want) is None


def test_compose_middle_outlives_both():
    # append a, then strip it again: the middle word is the longest of the
    # three, so acceptance happens on silent tail moves
    c = append_machine(("a",)).compose(strip_machine(("a",)))
    assert c.equal_languages(diagonal_machine()) is None


def test_compose_with_early_finisher():
    # diagonal then append: the first machine ends before the output does
    c = diagonal_machine().compose(append_machine(("b", "b")))
    want = append_machine(("b", "b")).minimized()
    assert c.equal_languages(want) is None


def test_compose_asymmetric_lengths():
    # strip one letter then append two: net effect replaces a trailing a
    # with bb only via the middle word
    c = strip_machine(("a",)).compose(append_machine(("b", "b")))
    got = brute_pairs(c, 4)
    want = {
        (w + ("a",), w + ("b", "b"))
        for n in range(4)
        for w in itertools.product(AB, repeat=n)
    }
    want = {(u, v) for u, v in want if len(u) <= 4 and len(v) <= 4}
    assert got == want


def relation_machine(pairs):
    return fsa_from_words(PAIRS, [pad_pair(u, v) for u, v in pairs], track=2)


def test_compose_matches_brute_force_join():
    # random finite relations, joined by comparing middle words; every pair
    # word of length <= 3 is probed, including ones that break the padding
    # discipline
    rng = random.Random(1997)
    words = [w for n in range(4) for w in itertools.product(AB, repeat=n)]
    probes = [w for n in range(4) for w in itertools.product(PAIRS, repeat=n)]
    for _ in range(100):
        first = {
            (rng.choice(words), rng.choice(words))
            for _ in range(rng.randint(0, 5))
        }
        # middle words are also drawn from the first relation's outputs,
        # so that most joins are not empty
        mids = [v for _, v in first] + words
        second = {
            (rng.choice(mids), rng.choice(words))
            for _ in range(rng.randint(0, 5))
        }
        joined = {
            pad_pair(u, w)
            for u, v in first
            for v2, w in second
            if v == v2
        }
        c = relation_machine(first).compose(relation_machine(second))
        for p in probes:
            assert c.accepts(p) == (p in joined), (first, second, p)


def test_compose_keeps_the_padding_discipline():
    # an input that resumes a padded track cannot make the composite do so
    resumed = fsa_from_words(PAIRS, [((PAD, "a"), ("a", "a"))], track=2)
    assert resumed.compose(diagonal_machine()).is_empty()


def test_validate_catches_malformed():
    with pytest.raises(LogicError):
        Fsa(AB, 2, 5, set(), {}).validate()
    with pytest.raises(LogicError):
        Fsa(AB, 2, 0, {7}, {}).validate()
    with pytest.raises(LogicError):
        Fsa(AB, 2, 0, set(), {(0, "z"): 1}).validate()
    ok = even_a_machine()
    ok.validate()


def test_empty_fsa():
    e = empty_fsa(AB)
    assert e.is_empty()
    assert list(e.enumerate_words(4)) == []
    assert not even_a_machine().is_empty()
