import itertools
import random

import pytest

from autostruct import (
    Alphabet,
    FamilySpec,
    LogicError,
    Order,
    PAD,
    SHORTLEX,
    WREATH,
    builtin_family,
    compute_structure,
)
from autostruct.diff import DiffMachine, EPS
from autostruct.errors import ResourceLimit
from autostruct.rewrite import CONFLUENT, RewriteSystem, kb_complete


def free_order():
    return Order(Alphabet(("a", "A"), {"a": "A", "A": "a"}), SHORTLEX)


def z2_system():
    alpha = Alphabet(
        ("a", "A", "b", "B"), {"a": "A", "A": "a", "b": "B", "B": "b"}
    )
    rs = RewriteSystem.from_relations(
        Order(alpha, SHORTLEX), [(("b", "a"), ("a", "b"))]
    )
    assert kb_complete(rs, 50, 20) == CONFLUENT
    return rs


def g11_system():
    alpha = Alphabet(
        ("x", "X", "y", "Y"),
        {"x": "X", "X": "x", "y": "Y", "Y": "y"},
        levels={"x": 1, "X": 1, "y": 2, "Y": 2},
    )
    rs = RewriteSystem(Order(alpha, WREATH))
    for lhs, rhs in [
        (("x", "Y"), ("Y", "x")),
        (("X", "Y"), ("Y", "X")),
        (("x", "y"), ("y", "x")),
        (("X", "y"), ("y", "X")),
    ]:
        rs.add_rule(lhs, rhs)
    return rs


def check_machine_axioms(d, strict=True):
    """Structural requirements every difference machine must satisfy."""
    alpha = d.alpha
    assert d.labels[EPS] == ()
    assert len(set(d.labels)) == len(d.labels)
    for label in d.labels:
        assert d.rws.is_irreducible(label)
    moves = d.fsa.moves
    # every move's target label is the reduction of inverse(a).source.b
    for s, row in enumerate(moves):
        for (a, b), t in row.items():
            left = alpha.invert((a,)) if a != PAD else ()
            right = (b,) if b != PAD else ()
            assert d.rws.rewrite(left + d.labels[s] + right) == d.labels[t]
    # diagonal loops at the start state
    for g in alpha.symbols:
        assert d.fsa.step(EPS, (g, g)) == EPS
    # labels are closed under inversion, prefix and suffix, and the
    # one-letter moves witnessing the factor labels exist
    for s, label in enumerate(d.labels):
        inv = d.inverse_state[s]
        assert d.rws.rewrite(alpha.invert(label)) == d.labels[inv]
        if not label:
            continue
        pre = d.index[label[:-1]]
        suf = d.index[label[1:]]
        assert d.fsa.step(pre, (PAD, label[-1])) == s
        assert d.fsa.step(suf, (alpha.inverse[label[0]], PAD)) == s
    if strict:
        # moves reverse under inversion when reduction is canonical
        for s, row in enumerate(moves):
            for (a, b), t in row.items():
                ra = alpha.inverse[a] if a != PAD else PAD
                rb = alpha.inverse[b] if b != PAD else PAD
                assert d.fsa.step(t, (ra, rb)) == s


def test_free_group_machine():
    rs = RewriteSystem(free_order())
    d = DiffMachine.from_rules(rs)
    assert sorted(d.labels) == [(), ("A",), ("a",)]
    check_machine_axioms(d)
    assert d.trace_pair(("a", "A", "a"), ("a",)) == EPS
    assert d.reduce(("a", "A", "a")) == ("a",)
    assert d.reduce(("a", "a", "A")) == ("a",)
    assert d.reduce(("A", "a")) == ()


GRID = {
    (e1 + e2): ()
    for e1 in [(), ("a",), ("A",)]
    for e2 in [(), ("b",), ("B",)]
}


def test_z2_traced_labels():
    # one commuting pair generates the full 3x3 grid of differences
    d = DiffMachine.from_rules(z2_system())
    assert set(d.labels) == set(GRID)
    check_machine_axioms(d)


def test_z2_extension_completes_grid():
    # a machine lacking the ab / AB corners cannot witness bA -> Ab;
    # feeding it one multiplication instance restores them
    full = DiffMachine.from_rules(z2_system())
    d = full.restricted(
        [w for w in GRID if w not in {("a", "b"), ("A", "B")}]
    )
    assert d.state_count() == 7
    assert d.trace_pair(("b", "A"), ("A", "b")) is None
    assert d.reduce(("b", "A")) == ("b", "A")
    d.add_equation(("A", "b", "a"), ("b",))
    d.close()
    assert ("a", "b") in d.index and ("A", "B") in d.index
    assert d.state_count() == 9
    check_machine_axioms(d)
    assert d.trace_pair(("b", "A"), ("A", "b")) == EPS
    assert d.reduce(("b", "A")) == ("A", "b")


def full_z2_machine():
    return DiffMachine.from_rules(z2_system())


def test_z2_reduce_matches_rewrite():
    d = full_z2_machine()
    rs = d.rws
    rng = random.Random(7)
    syms = list(d.alpha.symbols)
    for _ in range(300):
        w = tuple(rng.choices(syms, k=rng.randrange(9)))
        assert d.reduce(w) == rs.rewrite(w)


def test_z2_rule_steps_witnessed():
    d = full_z2_machine()
    rng = random.Random(11)
    syms = list(d.alpha.symbols)
    for lhs, rhs in d.rws.active():
        assert d.trace_pair(lhs, rhs) == EPS
        # shared prefixes keep the tracks aligned; unequal rule sides
        # shift any appended context out of step, so none is added
        a = tuple(rng.choices(syms, k=2))
        assert d.trace_pair(a + lhs, a + rhs) == EPS


def test_g11_wreath_machine():
    d = DiffMachine.from_rules(g11_system())
    assert d.state_count() == 9
    assert ("y", "x") in d.index and ("Y", "X") in d.index
    check_machine_axioms(d)
    assert d.reduce(("x", "y")) == ("y", "x")
    assert d.reduce(("x", "x", "Y")) == ("Y", "x", "x")
    assert d.reduce(("x", "X", "y")) == ("y",)


def test_restricted_machine():
    d = full_z2_machine()
    small = d.restricted([(), ("a",), ("A",)])
    assert small.state_count() == 3
    check_machine_axioms(small, strict=False)
    with pytest.raises(LogicError):
        d.restricted([(), ("a",)])


def test_unreduced_label_rejected():
    d = DiffMachine.from_rules(RewriteSystem(free_order()))
    with pytest.raises(LogicError):
        d.restricted([(), ("a", "A")])


def test_trace_pair_falls_off():
    d = DiffMachine.from_rules(RewriteSystem(free_order()))
    assert d.trace_pair(("a", "a", "a"), ()) is None


def test_violations_clean_on_constructed_machines():
    for rs in (z2_system(), g11_system()):
        assert DiffMachine.from_rules(rs).violations() == []


def test_violations_flag_a_relabelled_state():
    d = DiffMachine.from_rules(z2_system())
    d.labels[2] = ("a", "a", "a")
    bad = d.violations()
    assert bad
    assert any("does not track the labels" in msg for msg in bad)


def test_violations_flag_a_missing_diagonal():
    d = DiffMachine.from_rules(z2_system())
    del d.fsa.moves[EPS][("b", "b")]
    assert d.violations() == ["missing diagonal loop on 'b'"]


def test_violations_flag_duplicate_labels():
    d = DiffMachine.from_rules(z2_system())
    d.labels[3] = d.labels[2]
    assert any("share the label" in msg for msg in d.violations())


def test_closure_cap_raises_resource_limit(monkeypatch):
    # a rewrite that lengthens every word makes inversion chains wander
    rs = RewriteSystem(Order(Alphabet(("x", "X"), {"x": "X", "X": "x"}), SHORTLEX))
    monkeypatch.setattr(rs, "rewrite", lambda w: ("x",) * (len(w) + 1))
    with pytest.raises(ResourceLimit):
        DiffMachine(rs).close()


def _brute_witnesses(d, factor, bound):
    """Every track-2 word of length at most bound that the padded pair
    (factor, z) walks from the start state back to it, and that precedes
    the factor."""
    key = d.order.key
    return [
        z
        for n in range(bound + 1)
        for z in itertools.product(d.alpha.symbols, repeat=n)
        if key(z) < key(factor) and d.trace_pair(factor, z) == EPS
    ]


@pytest.mark.parametrize(
    "family, pq, extra",
    [("BSpq", (1, 2), 2), ("KNOT41", (1, 1), 0)],
    ids=["BSpq-1-2", "KNOT41"],
)
def test_find_reduction_matches_brute_force(family, pq, extra):
    # BSpq(1,2) runs under the wreath order, where the least witness can be
    # longer than the factor and come from the silent track-1 tail; KNOT41
    # runs under shortlex, where no witness is longer, so a bound of the
    # factor's length enumerates them all
    fam = builtin_family(
        FamilySpec(family, *pq), wirtinger=family.startswith("KNOT")
    )
    d = compute_structure(fam.order, fam.presentation.relations).diff
    assert any(a == PAD for row in d.fsa.moves for a, _b in row)
    exact = d.order.kind == SHORTLEX
    key = d.order.key
    rng = random.Random(11)
    tails = 0
    for _ in range(12):
        w = tuple(rng.choice(d.alpha.symbols) for _ in range(rng.randint(2, 6)))
        hit = d._find_reduction(w)
        # the factors the search scans before its hit have no witness
        scan = [(p, i) for p in range(len(w)) for i in range(p + 1, len(w) + 1)]
        for p, i in scan[: scan.index(hit[:2]) if hit else len(scan)]:
            assert _brute_witnesses(d, w[p:i], i - p + extra) == [], (w, p, i)
        if hit is None:
            continue
        p, i, u = hit
        factor = w[p:i]
        found = _brute_witnesses(d, factor, len(factor) + extra)
        assert d.trace_pair(factor, u) == EPS
        assert key(u) < key(factor)
        assert all(key(u) <= key(z) for z in found)
        if exact:
            assert u == min(found, key=key)
        tails += len(u) > len(factor)
    if not exact:
        assert tails > 0  # the silent-tail search was exercised


# -------------------------------------- moved words kept across rebuilds


def rebuilt_afresh(d):
    """A machine over d's rules and labels, in d's order, rebuilt with
    nothing kept."""
    fresh = DiffMachine(d.rws, d.labels)
    fresh.rebuild()
    return fresh


@pytest.mark.parametrize("family,p,q", [("BSpq", 1, 2), ("KNOT52", 1, 1)])
def test_kept_rows_give_the_machine_a_fresh_rebuild_gives(
    monkeypatch, family, p, q
):
    # every rebuild of a run, the one closing each repair loop among them,
    # must give the moves and inverses a machine rebuilt from nothing gives
    fam = builtin_family(
        FamilySpec(family, p, q), wirtinger=family.startswith("KNOT")
    )
    real_rebuild, real_moved = DiffMachine.rebuild, DiffMachine._moved
    rebuilds, rewrites, rewritten = [], 0, 0

    def moved(self, *args):
        nonlocal rewrites
        rewrites += 1
        return real_moved(self, *args)

    def rebuild(self):
        nonlocal rewritten
        before = rewrites
        real_rebuild(self)
        rewritten += rewrites - before
        with monkeypatch.context() as mp:
            mp.setattr(DiffMachine, "rebuild", real_rebuild)
            mp.setattr(DiffMachine, "_moved", real_moved)
            fresh = rebuilt_afresh(self)
            bad = self.violations()
        rebuilds.append((
            self.fsa.moves == fresh.fsa.moves,
            self.inverse_state == fresh.inverse_state,
            bad,
        ))

    monkeypatch.setattr(DiffMachine, "rebuild", rebuild)
    monkeypatch.setattr(DiffMachine, "_moved", moved)
    res = compute_structure(fam.order, fam.presentation.relations)
    assert res.loops >= 1 and len(rebuilds) >= 2
    assert rebuilds == [(True, True, [])] * len(rebuilds)
    # the rules stay as they are over the loops, so each label's row of
    # moved words is rewritten once, however many rebuilds read it
    assert rewritten == res.diff.state_count() * len(res.diff.fsa.symbols)


def test_a_rule_changed_after_a_rebuild_is_seen_by_the_next():
    rs = RewriteSystem(free_order())
    d = DiffMachine(rs, [("a",), ("A",)])
    d.rebuild()
    a, big_a = d.index[("a",)], d.index[("A",)]
    assert d.fsa.step(a, ("A", "a")) is None  # a a a is no label
    for change, target in [
        (lambda: rs.add_rule(("a", "a", "a"), ("A",)), big_a),
        (lambda: rs.deactivate(len(rs.rules) - 1), None),
        (lambda: rs.add_rule(("a", "a", "a"), ("A",)), big_a),
        (lambda: rs.set_rhs(len(rs.rules) - 1, ("a", "a")), None),
    ]:
        change()
        d.rebuild()
        assert d.fsa.step(a, ("A", "a")) == target
        fresh = rebuilt_afresh(d)
        assert d.fsa.moves == fresh.fsa.moves
        assert d.inverse_state == fresh.inverse_state
