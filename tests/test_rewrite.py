"""Rewriting and completion behavior on known group presentations."""

import itertools
import random

import pytest

from autostruct import Alphabet, Order
from autostruct.errors import LogicError
from autostruct.pipeline import run_knuth_bendix
from autostruct.presentations import FamilySpec, builtin_family
from autostruct.rewrite import (
    CONFLUENT,
    STOPPED,
    KbCompletion,
    RewriteSystem,
    critical_pairs,
    is_confluent,
    kb_complete,
)


def free_alpha():
    return Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})


def z2_wreath_order():
    alpha = Alphabet(
        ["x", "X", "y", "Y"],
        {"x": "X", "X": "x", "y": "Y", "Y": "y"},
        levels={"x": 1, "X": 1, "y": 2, "Y": 2},
    )
    return Order(alpha, "wreathshortlex")


def sl(alpha):
    return Order(alpha, "shortlex")


def test_free_reduction():
    rs = RewriteSystem(sl(free_alpha()))
    assert rs.rewrite(tuple("aAabB")) == ("a",)
    assert rs.rewrite(tuple("abBA")) == ()
    assert rs.rewrite(()) == ()
    assert is_confluent(rs)


def test_rewrite_is_normalizing_and_monotone():
    rs = RewriteSystem(sl(free_alpha()))
    rng = random.Random(5)
    syms = rs.order.alphabet.symbols
    for _ in range(500):
        w = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 14)))
        r = rs.rewrite(w)
        assert rs.is_irreducible(r)
        assert rs.rewrite(r) == r
        assert rs.order.compare(r, w) <= 0


def test_critical_pair_generation():
    got = list(
        critical_pairs(("a", "b", "a"), ("c",), ("a", "b"), ("d",), False)
    )
    # overlap: suffix a of aba meets prefix a of ab, superposing abab;
    # containment: ab inside aba at position 0
    assert (("a", "b", "a", "b"), ("c", "b"), ("a", "b", "d")) in got
    assert (("a", "b", "a"), ("c",), ("d", "a")) in got
    # a rule does not superpose with itself at full overlap
    self_pairs = list(critical_pairs(("a", "b"), ("c",), ("a", "b"), ("c",), True))
    assert self_pairs == []


def test_z2_shortlex_completion():
    # commuting generators: completion must finish with the four commuted
    # spellings oriented toward a-first normal forms
    order = sl(free_alpha())
    rs = RewriteSystem.from_relations(
        order, [(("a", "b"), ("b", "a"))]
    )
    assert kb_complete(rs) == CONFLUENT
    assert is_confluent(rs)
    # commutator collapses
    assert rs.rewrite(tuple("aBAb")) == ()
    # normal forms: a-power then b-power
    assert rs.rewrite(tuple("baba")) == tuple("aabb")
    assert rs.rewrite(tuple("bA")) == tuple("Ab")
    # every word of length <= 5 joins with every group-equal spelling
    seen = {}
    for n in range(4):
        for w in itertools.product(order.alphabet.symbols, repeat=n):
            nf = rs.rewrite(w)
            key = (
                sum(1 for s in w if s == "a") - sum(1 for s in w if s == "A"),
                sum(1 for s in w if s == "b") - sum(1 for s in w if s == "B"),
            )
            seen.setdefault(key, set()).add(nf)
    assert all(len(v) == 1 for v in seen.values())


def test_g11_wreath_rules_confluent():
    order = z2_wreath_order()
    rs = RewriteSystem.from_relations(
        order,
        [
            (("x", "Y"), ("Y", "x")),
            (("X", "Y"), ("Y", "X")),
            (("x", "y"), ("y", "x")),
            (("X", "y"), ("y", "X")),
        ],
    )
    # the relations orient toward y-first spellings under the wreath order
    for lhs, rhs in rs.active():
        if rhs and len(lhs) == 2 and lhs[0] in ("x", "X"):
            assert rhs[0] in ("y", "Y")
    assert is_confluent(rs)
    assert kb_complete(rs) == CONFLUENT
    assert rs.rewrite(tuple("xy")) == ("y", "x")
    assert rs.rewrite(tuple("xxY")) == ("Y", "x", "x")


def test_bs12_shortlex_diverges():
    # y x = x x y under shortlex is the classic runaway completion
    order = sl(free_alpha())
    rs = RewriteSystem.from_relations(
        order, [(("b", "a"), ("a", "a", "b"))]
    )
    kb = KbCompletion(rs, max_rules=60, max_len=25)
    status = kb.run(20000)
    assert status == STOPPED


def test_incremental_driver_matches_oneshot():
    order = sl(free_alpha())
    rs1 = RewriteSystem.from_relations(order, [(("a", "b"), ("b", "a"))])
    kb = KbCompletion(rs1)
    while kb.run(3) == "running":
        pass
    assert kb.status() == CONFLUENT
    rs2 = RewriteSystem.from_relations(order, [(("a", "b"), ("b", "a"))])
    kb_complete(rs2)
    assert sorted(rs1.active()) == sorted(rs2.active())


def test_discard_flags_incomplete():
    order = sl(free_alpha())
    rs = RewriteSystem.from_relations(order, [(("b", "a"), ("a", "a", "b"))])
    kb = KbCompletion(rs, max_rules=500, max_len=6)
    status = kb.run(50000)
    # every long equation was dropped, so the drained queue must not claim
    # confluence
    assert status == STOPPED
    assert kb.discarded


def test_add_rule_rejects_misoriented():
    rs = RewriteSystem(sl(free_alpha()))
    with pytest.raises(LogicError):
        rs.add_rule(("a",), ("a", "a"))


def test_trivial_equation_dropped():
    rs = RewriteSystem(sl(free_alpha()))
    n = rs.active_count()
    assert rs.add_equation(("a", "b"), ("a", "b")) is None
    assert rs.active_count() == n


# ------------------------------------------- the documented rewrite choice


def _brute_rewrite(rs, w):
    """Leftmost start first, then the lowest active rule index among every
    left side that starts there; rescan from the start after each step."""
    w = tuple(w)
    while True:
        for i in range(len(w)):
            hits = [
                k for k, (lhs, _rhs, on) in enumerate(rs.rules)
                if on and w[i : i + len(lhs)] == lhs
            ]
            if hits:
                lhs, rhs, _on = rs.rules[min(hits)]
                w = w[:i] + rhs + w[i + len(lhs) :]
                break
        else:
            return w


def _brute_irreducible(rs, w):
    return not any(
        on and w[i : i + len(lhs)] == lhs
        for i in range(len(w))
        for lhs, _rhs, on in rs.rules
    )


def _tangled_system(rng):
    """Rules whose left sides overlap, nest, share prefixes and repeat,
    added in shuffled order so neither the shortest nor the longest left
    side at a position is reliably the lowest index; some retired."""
    order = sl(free_alpha())
    syms = order.alphabet.symbols
    rs = RewriteSystem(order)
    sides = []
    for _ in range(4):
        stem = tuple(rng.choice(syms) for _ in range(rng.randrange(3, 6)))
        sides += [stem[:n] for n in range(1, len(stem) + 1)]  # nested
        sides.append(stem[1:])  # overlaps the stem
        sides.append(stem[:2] + (rng.choice(syms),))  # shares a prefix
    sides += rng.sample(sides, 3)  # the same left side twice
    rng.shuffle(sides)
    for lhs in sides:
        # anything shorter is earlier in shortlex
        rhs = tuple(rng.choice(syms) for _ in range(rng.randrange(len(lhs))))
        rs.add_rule(lhs, rhs)
    for idx in rng.sample(range(len(rs.rules)), len(rs.rules) // 4):
        rs.deactivate(idx)
    return rs


def test_rewrite_keeps_the_documented_choice():
    rng = random.Random(20261018)
    for _ in range(20):
        rs = _tangled_system(rng)
        syms = rs.order.alphabet.symbols
        for _ in range(100):
            w = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 13)))
            assert rs.rewrite(w) == _brute_rewrite(rs, w), w
            assert rs.is_irreducible(w) == _brute_irreducible(rs, w), w


def test_active_count_follows_completion():
    for name, p, q in (("KNOT41", 1, 1), ("BSpq", 1, 2)):
        fam = builtin_family(FamilySpec(name, p, q), wirtinger=name == "KNOT41")
        rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
        run_knuth_bendix(rs)
        assert any(not on for _l, _r, on in rs.rules)  # some rules retired
        assert rs.active_count() == sum(1 for _l, _r, on in rs.rules if on)


def test_deactivating_twice_counts_once():
    rs = RewriteSystem.from_relations(sl(free_alpha()), [(("a", "b"), ("b", "a"))])
    n = rs.active_count()
    rs.deactivate(len(rs.rules) - 1)
    rs.deactivate(len(rs.rules) - 1)
    assert rs.active_count() == n - 1
    assert rs.rewrite(("b", "a")) == ("b", "a")
