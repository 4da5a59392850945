import random
from itertools import product

import pytest

from autostruct import Alphabet, Order, SHORTLEX, WREATH, WTLEX, acceptor, pipeline
from autostruct.acceptor import build_acceptor, irreducible_word_acceptor
from autostruct.diff import EPS, DiffMachine
from autostruct.errors import LogicError, ResourceLimit
from autostruct.formats import diff_to_fsa, serialize_fsa
from autostruct.fsa import Fsa, explore, pair_symbols
from autostruct.history import (
    WtHistory, bounds_for, decide_precedes, dominance, history_step, in_bounds,
)
from autostruct.orders import KINDS
from autostruct.pipeline import LOOP_LIMIT, compute_structure, run_knuth_bendix
from autostruct.presentations import FamilySpec, builtin_family
from autostruct.rewrite import CONFLUENT, MAX_PAIRS, KbCompletion, RewriteSystem
from autostruct.words import PAD
from test_core_history import reference_history
from test_rewrite import _random_presentation


def all_words(syms, max_len):
    for n in range(max_len + 1):
        yield from (tuple(w) for w in product(syms, repeat=n))


def irreducible_language(rs, max_len):
    return {
        w for w in all_words(rs.order.alphabet.symbols, max_len)
        if rs.rewrite(w) == w
    }


def accepted_language(fsa, max_len):
    return set(fsa.enumerate_words(max_len))


def _left_sides(rng) -> list:
    """A few left sides over the self-inverse a and b, mostly alternating
    (the words aa and bb leave alive), one a proper factor of another."""
    def word(lo, hi):
        n = rng.randint(lo, hi)
        if rng.random() < 0.25:
            return tuple(rng.choice("ab") for _ in range(n))
        first = rng.randrange(2)
        return tuple("ab"[(first + i) % 2] for i in range(n))

    outer = word(3, 6)
    n = rng.randint(2, len(outer) - 1)
    start = rng.randint(0, len(outer) - n)
    inner = outer[start : start + n]
    return [outer, inner] + [word(2, 5) for _ in range(rng.randint(0, 3))]


def test_irreducible_acceptor_matches_a_factor_check_on_any_rules():
    # rule sets completion never produces: a left side holding another as
    # a factor, as b a beside a b a b, and right sides never reduced
    alpha = Alphabet(("a", "b"), {"a": "a", "b": "b"})
    order = Order(alpha, SHORTLEX)
    words = list(all_words(alpha.symbols, 6))
    rng = random.Random(47)
    for _ in range(200):
        rs = RewriteSystem(order)
        for lhs in _left_sides(rng):
            rhs = tuple(rng.choice("ab") for _ in range(rng.randrange(len(lhs))))
            rs.add_rule(lhs, rhs)
        lefts = [lhs for lhs, _ in rs.active()]
        want = {
            w for w in words
            if not any(w[i : i + len(lhs)] == lhs
                       for lhs in lefts for i in range(len(w)))
        }
        acc = irreducible_word_acceptor(rs)
        assert accepted_language(acc, 6) == want, lefts


def test_free_group_two_generators():
    alpha = Alphabet(
        ("a", "A", "b", "B"), {"a": "A", "A": "a", "b": "B", "B": "b"}
    )
    rs = RewriteSystem(Order(alpha, SHORTLEX))
    w = build_acceptor(DiffMachine.from_rules(rs))
    assert w.num_states == 5
    assert w.accepts(())
    assert accepted_language(w, 6) == irreducible_language(rs, 6)


def test_z2_shortlex_acceptor():
    alpha = Alphabet(
        ("a", "A", "b", "B"), {"a": "A", "A": "a", "b": "B", "B": "b"}
    )
    rs = RewriteSystem.from_relations(
        Order(alpha, SHORTLEX), [(("b", "a"), ("a", "b"))]
    )
    assert KbCompletion(rs, 50, 20).run(MAX_PAIRS) == CONFLUENT
    w = build_acceptor(DiffMachine.from_rules(rs))
    assert w.num_states == 5
    assert accepted_language(w, 6) == irreducible_language(rs, 6)
    for n in range(1, 9):
        assert w.count_accepted(n) == 4 * n


def test_z2_wreath_acceptor():
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
    w = build_acceptor(DiffMachine.from_rules(rs))
    assert accepted_language(w, 6) == irreducible_language(rs, 6)
    for n in range(1, 9):
        assert w.count_accepted(n) == 4 * n


def test_weighted_redundant_generator():
    # one generator worth two of the other: the heavy letter never
    # appears in an accepted word, and the start state already bars it
    alpha = Alphabet(
        ("a", "A", "b", "B"),
        {"a": "A", "A": "a", "b": "B", "B": "b"},
        weights={"a": 1, "A": 1, "b": 3, "B": 3},
    )
    rs = RewriteSystem(Order(alpha, WTLEX))
    rs.add_rule(("b",), ("a", "a"))
    rs.add_rule(("B",), ("A", "A"))
    w = build_acceptor(DiffMachine.from_rules(rs))
    assert accepted_language(w, 6) == irreducible_language(rs, 6)
    assert w.num_states == 3
    assert not w.accepts(("b",))
    assert not w.accepts(("a", "b"))
    assert not w.accepts(("a", "A"))


def test_acceptor_language_prefix_closed():
    alpha = Alphabet(
        ("a", "A", "b", "B"), {"a": "A", "A": "a", "b": "B", "B": "b"}
    )
    rs = RewriteSystem.from_relations(
        Order(alpha, SHORTLEX), [(("b", "a"), ("a", "b"))]
    )
    KbCompletion(rs, 50, 20).run(MAX_PAIRS)
    w = build_acceptor(DiffMachine.from_rules(rs))
    lang = accepted_language(w, 6)
    for word in lang:
        assert all(word[:i] in lang for i in range(len(word)))


# ------------------------------ bitset subsets against frozenset subsets


def fresh_shadows(diff, bound, g) -> frozenset:
    """Shadows opened by g itself: companions h (a generator or nothing)
    whose difference with g is a known state other than the trivial one,
    bounded, with histories built from scratch."""
    order = diff.order
    out = set()
    for h in diff.alpha.symbols + (PAD,):
        t = diff.fsa.moves[EPS].get((g, h))
        if t is not None and t != EPS and h != g:
            hist = reference_history(order, (g,), () if h == PAD else (h,))
            if in_bounds(order, bound, hist, diff.labels[t]):
                out.add((t, hist))
    return frozenset(out)


def without_dominated(order, shadows: frozenset) -> frozenset:
    """The shadows (d, hist) less each weight history with lex sign -1
    whose twin, the same but with sign +1, is there too, and, under
    shortlex, less the longer history (True, 0, 1) where (False, +1, 0)
    is there too."""
    def dominated(d, h):
        if not isinstance(h, WtHistory):
            return False
        if h.lexsign == -1:
            return (d, WtHistory(h.longer, 1, h.wtdiff)) in shadows
        return (
            order.kind == SHORTLEX and h == WtHistory(True, 0, 1)
            and (d, WtHistory(False, 1, 0)) in shadows
        )

    return frozenset((d, h) for d, h in shadows if not dominated(d, h))


def reference_kills(diff, d, hist, g) -> bool:
    """Does the shadow (d, hist) kill the word under g?"""
    order = diff.order
    t = diff.fsa.moves[d].get((g, PAD))
    if t == EPS and decide_precedes(order, hist, (g,), ()):
        return True
    for h in diff.alpha.symbols:
        t = diff.fsa.moves[d].get((g, h))
        if t is None:
            continue
        if t == EPS:
            if decide_precedes(order, hist, (g,), (h,)):
                return True
        else:
            dd = diff.labels[diff.inverse_state[t]]
            if decide_precedes(order, hist, (g,), (h,) + dd):
                return True
    return False


def reference_steps(diff, bound, d, hist, g) -> list:
    """The shadows (t, history) the shadow (d, hist) steps to under g."""
    order = diff.order
    out = []
    for h in (PAD,) if hist.longer else (PAD,) + diff.alpha.symbols:
        t = diff.fsa.moves[d].get((g, h))
        if t is not None and t != EPS:
            nh = history_step(order, hist, g, h)
            if in_bounds(order, bound, nh, diff.labels[t]):
                out.append((t, nh))
    return out


def dominance_breaks(diff) -> tuple:
    """(order kind, checked, breaks) for the relations `history.dominance` declares
    between the weight histories of one difference state, on every state
    and generator of diff: a dominated history must kill only where its
    dominator does (the longer one under shortlex exactly where it does),
    and step only to shadows its dominator steps to or dominates there."""
    order = diff.order
    if order.kind != SHORTLEX:
        return order.kind, 0, []
    bound = bounds_for(order, diff.labels)
    histories = [
        WtHistory(False, 1, 0), WtHistory(False, -1, 0), WtHistory(True, 0, 1)
    ]
    pairs = [(h, *dominance(order, h)) for h in histories]
    checked, breaks = 0, []
    for d in range(diff.state_count()):
        for g in diff.alpha.symbols:
            for h, top, slot in pairs:
                if not slot:
                    continue
                checked += 1
                kills = reference_kills(diff, d, h, g)
                kills_top = reference_kills(diff, d, top, g)
                if kills > kills_top or (slot == 2 and kills != kills_top):
                    breaks.append((d, g, h, "kills"))
                steps_top = set(reference_steps(diff, bound, d, top, g))
                for t, nh in reference_steps(diff, bound, d, h, g):
                    if not {(t, nh), (t, dominance(order, nh)[0])} & steps_top:
                        breaks.append((d, g, h, "steps", t, nh))
    return order.kind, checked, breaks


def reference_acceptor(diff, filtered: bool = True) -> tuple:
    """The subset construction as it was before subsets became bitsets:
    each subset a frozenset of interned shadow ids, kill flags and
    successor tuples filled lazily per (shadow, generator), and the
    members walked twice per generator.  When filtered, each successor
    subset drops its dominated twins (`without_dominated`), as
    build_acceptor does.  Returns (raw machine, number of shadows
    interned).  Reads the caps of the acceptor module."""
    order = diff.order
    gens = diff.alpha.symbols
    bound = bounds_for(order, diff.labels)
    reduces = {g: diff.reduce((g,)) != (g,) for g in gens}
    fresh = {
        g: (frozenset() if reduces[g] else fresh_shadows(diff, bound, g))
        for g in gens
    }
    gen_index = {g: i for i, g in enumerate(gens)}
    shadow_ids, shadow_list, kill_rows, succ_rows = {}, [], [], []

    def intern(d, hist):
        key = (d, hist)
        sid = shadow_ids.get(key)
        if sid is None:
            sid = len(shadow_list)
            if sid >= acceptor.MAX_SHADOWS:
                raise ResourceLimit("shadows", acceptor.MAX_SHADOWS)
            shadow_ids[key] = sid
            shadow_list.append(key)
            kill_rows.append([None] * len(gens))
            succ_rows.append([None] * len(gens))
        return sid

    def compute_kill(sid, g):
        return reference_kills(diff, *shadow_list[sid], g)

    def compute_successors(sid, g):
        steps = reference_steps(diff, bound, *shadow_list[sid], g)
        return tuple(intern(t, nh) for t, nh in steps)

    fresh_ids = {g: frozenset(intern(d, h) for d, h in fresh[g]) for g in gens}

    def target(sids, g):
        if reduces[g]:
            return None
        gi = gen_index[g]
        for sid in sids:
            row = kill_rows[sid]
            if row[gi] is None:
                row[gi] = compute_kill(sid, g)
            if row[gi]:
                return None
        out = set(fresh_ids[g])
        for sid in sids:
            row = succ_rows[sid]
            if row[gi] is None:
                row[gi] = compute_successors(sid, g)
            out.update(row[gi])
        if filtered:
            keys = without_dominated(
                order, frozenset(shadow_list[sid] for sid in out)
            )
            out = {shadow_ids[key] for key in keys}
        return frozenset(out)

    def successors(shadows):
        for g in gens:
            tset = target(shadows, g)
            if tset is not None:
                yield g, tset

    raw, _ = explore(
        gens, frozenset(), successors, lambda shadows: True,
        max_states=acceptor.MAX_STATES,
    )
    return raw, len(shadow_list)


def reference_result(diff, filtered: bool = True) -> tuple:
    """(W's bytes, raw states, raw moves), or the cap the reference hit."""
    try:
        raw, _ = reference_acceptor(diff, filtered)
    except ResourceLimit as hit:
        return ("cap", hit.cap, hit.limit)
    return serialize_fsa(raw.minimized()), raw.num_states, sum(map(len, raw.moves))


def bitset_build(diff) -> tuple:
    """(W, result) for build_acceptor, as reference_result gives them; W
    is None when a cap fired.  The raw machine is the one build_acceptor
    hands to minimization."""
    raws = []
    real = Fsa.minimized

    def spy(self, *args):
        raws.append(self)
        return real(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fsa, "minimized", spy)
        try:
            w = build_acceptor(diff)
        except ResourceLimit as hit:
            return None, ("cap", hit.cap, hit.limit)
    return w, (serialize_fsa(w), raws[0].num_states, sum(map(len, raws[0].moves)))


# A confluent run reads its acceptor off the rules, so the pipeline never
# builds the history acceptor from those machines; from some of them
# (Hpq(2,1), BSpq(1,2) after a few loops) the construction runs away.
# These caps stop it within a fraction of a second, and both constructions
# must then stop at the same cap.  KNOT74, the largest acceptor the
# pipeline builds, has 4 805 raw states: 9 124 with every dominated
# history kept, 5 525 with only the -1 twins dropped; its longer
# histories, dominated under shortlex too, account for the rest.
TEST_SHADOWS, TEST_STATES = 400, 12_000

CORPUS = {
    "BSpq-1-1": ("BSpq", 1, 1), "BSpq-2-2": ("BSpq", 2, 2),
    "BSpq-3-3": ("BSpq", 3, 3), "BSpNegq-1-1": ("BSpNegq", 1, 1),
    "Hpq-1-1": ("Hpq", 1, 1), "Hpq-2-1": ("Hpq", 2, 1),
    "HpNegq-1-1": ("HpNegq", 1, 1), "HpNegq-2-1": ("HpNegq", 2, 1),
    "BSpq-1-2": ("BSpq", 1, 2), "KNOT41": ("KNOT41", 1, 1),
    "KNOT52": ("KNOT52", 1, 1), "KNOT74": ("KNOT74", 1, 1),
}


@pytest.fixture(scope="module", params=sorted(CORPUS))
def corpus_loops(request) -> list:
    """One run of a corpus case (knots on their Wirtinger presentations)
    under the test caps, with the (reference, bitsets, unfiltered
    reference) results for the difference machine of each correction
    loop, taken as the loop reaches its multipliers, whether every state
    of that loop's W accepts, what `dominance_breaks` finds on D, where
    D's moves differ from the recomputed ones (`recomputed_moves`, before
    and after the product), and what `validate` says of that loop's W,
    M_e, D (as `diff_to_fsa` shows it, before and after the product) and
    every M_g.  Where the run builds W from that machine itself, its
    build is the one compared."""
    family, p, q = CORPUS[request.param]
    fam = builtin_family(
        FamilySpec(family, p, q), wirtinger=family.startswith("KNOT")
    )
    loops, built = [], []
    real = pipeline.build_all_multipliers

    def build(diff):
        w, got = bitset_build(diff)
        assert w is not None, got  # no corpus run stops at the test caps
        built.append(got)
        return w

    def record(acc, diff):
        got = built.pop() if built else bitset_build(diff)[1]
        every_state = acc.accepting == frozenset(range(acc.num_states))
        drift = recomputed_moves(diff)
        checks = validated(
            W=acc, M_e=pipeline._diagonal_multiplier(acc), D=diff_to_fsa(diff)[0]
        )
        loops.append((
            reference_result(diff), got, reference_result(diff, filtered=False),
            every_state, dominance_breaks(diff), drift, checks,
        ))
        mults, identity = real(acc, diff)  # KNOT74's product stops at its cap
        mults_named = {f"M_{g}": m for g, m in mults.items()}
        drift += recomputed_moves(diff)
        checks += validated(D=diff_to_fsa(diff)[0], **mults_named)
        return mults, identity

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptor, "MAX_SHADOWS", TEST_SHADOWS)
        mp.setattr(acceptor, "MAX_STATES", TEST_STATES)
        mp.setattr(pipeline, "build_acceptor", build)
        mp.setattr(pipeline, "build_all_multipliers", record)
        compute_structure(fam.order, fam.presentation.relations)
    assert loops
    return loops


def recomputed_moves(diff) -> list:
    """Where D's moves are not the ones its labels define: ("states", rows,
    labels) when the row count is not the label count, else (state, pair,
    move, recomputed move) for each pair symbol whose move from the state
    is not the state labelled by the reduced a^-1 label b (a padded side
    counting as empty), or is missing although that state exists."""
    if diff.fsa.num_states != diff.state_count():
        return [("states", diff.fsa.num_states, diff.state_count())]
    rewrite, inv = diff.rws.rewrite, diff.alpha.invert
    out = []
    for s, label in enumerate(diff.labels):
        for a, b in pair_symbols(diff.alpha.symbols):
            left = inv((a,)) if a != PAD else ()
            right = (b,) if b != PAD else ()
            want = diff.index.get(rewrite(left + label + right))
            got = diff.fsa.moves[s].get((a, b))
            if got != want:
                out.append((s, (a, b), got, want))
    return out


def validated(**machines) -> list:
    """(name, None or what `Fsa.validate` raised) for each machine."""
    out = []
    for name, m in machines.items():
        try:
            m.validate()
        except LogicError as err:
            out.append((name, str(err)))
        else:
            out.append((name, None))
    return out


def test_bitset_acceptor_matches_reference_on_corpus(corpus_loops):
    for n, (want, got, *_) in enumerate(corpus_loops):
        assert got == want, n


def test_every_corpus_acceptor_state_accepts(corpus_loops):
    # W is prefix-closed: the axiom check's exactness rests on it
    for n, (_want, _got, _unfiltered, every_state, *_) in enumerate(corpus_loops):
        assert every_state, n


def test_dominated_histories_kill_and_step_within_their_dominators(
    corpus_loops,
):
    # the knots are shortlex; the wreath cases have nothing to check
    for n, (*_, (kind, checked, breaks), _drift, _checks) in enumerate(
        corpus_loops
    ):
        assert (checked > 0) == (kind == SHORTLEX), n
        assert breaks == [], n


def test_every_corpus_difference_machine_has_exactly_the_recomputed_moves(
    corpus_loops,
):
    for n, (*_, drift, _checks) in enumerate(corpus_loops):
        assert drift == [], n


def test_every_corpus_machine_keeps_one_ordered_row_per_state(corpus_loops):
    for n, (*_, checks) in enumerate(corpus_loops):
        names = [name for name, _ in checks]
        assert {"W", "M_e", "D"} <= set(names), n
        assert [c for c in checks if c[1] is not None] == [], n


def same_w_with_fewer_states(got, unfiltered) -> bool:
    """Do the dropped twins leave W's bytes as they were and only remove
    raw states?  Where the unfiltered reference stopped at a cap there is
    nothing to compare; the filtered build may stop only if it did."""
    if unfiltered[0] == "cap":
        return True
    return got[0] == unfiltered[0] and got[1] <= unfiltered[1]


def test_dominance_filter_keeps_w_on_corpus(corpus_loops):
    for n, (_want, got, unfiltered, *_) in enumerate(corpus_loops):
        assert same_w_with_fewer_states(got, unfiltered), n


def random_machines(seed: int, count: int):
    """(case, difference machine) for the seeded random presentations
    whose machine closes, each completed under KB caps 60/12."""
    rng = random.Random(seed)
    for n in range(count):
        order, relations = _random_presentation(rng, KINDS[n % len(KINDS)])
        rs = RewriteSystem.from_relations(order, relations)
        run_knuth_bendix(rs, max_rules=60, max_len=12)
        try:
            diff = DiffMachine.from_rules(rs)
        except ResourceLimit:
            continue
        yield n, diff


def test_bitset_acceptor_matches_reference_on_random_presentations(monkeypatch):
    monkeypatch.setattr(acceptor, "MAX_SHADOWS", TEST_SHADOWS)
    monkeypatch.setattr(acceptor, "MAX_STATES", TEST_STATES)
    built = 0
    for n, diff in random_machines(9, 32):
        want = reference_result(diff)
        assert bitset_build(diff)[1] == want, n
        built += want[0] != "cap"
    assert built >= 16  # most cases compare whole machines


def test_dominance_filter_keeps_w_on_random_presentations(monkeypatch):
    monkeypatch.setattr(acceptor, "MAX_SHADOWS", TEST_SHADOWS)
    monkeypatch.setattr(acceptor, "MAX_STATES", TEST_STATES)
    compared = fewer = 0
    for n, diff in random_machines(9, 32):
        got = bitset_build(diff)[1]
        unfiltered = reference_result(diff, filtered=False)
        assert same_w_with_fewer_states(got, unfiltered), n
        compared += unfiltered[0] != "cap"
        fewer += unfiltered[0] != "cap" and got[1] < unfiltered[1]
    assert compared >= 16 and fewer >= 1


@pytest.mark.parametrize(
    "seed, cases", [(9, (47, 71, 79, 89)), (10, (73, 79, 91, 97))]
)
def test_no_fresh_companion_lands_on_the_trivial_difference(
    monkeypatch, seed, cases
):
    # presentations where a generator has a companion equal to it in the
    # group: the reference once opened a shadow on the trivial difference
    # there, which build_acceptor does not, and the raw machines differed
    monkeypatch.setattr(acceptor, "MAX_SHADOWS", TEST_SHADOWS)
    monkeypatch.setattr(acceptor, "MAX_STATES", TEST_STATES)
    rng = random.Random(seed)
    for n in range(max(cases) + 1):
        order, relations = _random_presentation(rng, KINDS[n % len(KINDS)])
        if n not in cases:
            continue
        rs = RewriteSystem.from_relations(order, relations)
        run_knuth_bendix(rs, max_rules=60, max_len=12)
        diff = DiffMachine.from_rules(rs)
        want = reference_result(diff)
        assert want[0] != "cap", n
        assert bitset_build(diff)[1] == want, n


def test_shadow_cap_is_exact(monkeypatch):
    fam = builtin_family(FamilySpec("KNOT41", 1, 1), wirtinger=True)
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    run_knuth_bendix(rs)
    diff = DiffMachine.from_rules(rs)  # the first loop's machine
    want = build_acceptor(diff)
    _, shadows = reference_acceptor(diff)
    monkeypatch.setattr(acceptor, "MAX_SHADOWS", shadows)
    assert serialize_fsa(build_acceptor(diff)) == serialize_fsa(want)
    n = shadows - 1
    monkeypatch.setattr(acceptor, "MAX_SHADOWS", n)
    with pytest.raises(ResourceLimit) as hit:
        build_acceptor(diff)
    assert (hit.value.cap, hit.value.limit) == ("shadows", n)
    # in a full run the cap is reported with the stage it stopped
    res = compute_structure(fam.order, fam.presentation.relations)
    assert res.outcome == LOOP_LIMIT
    assert res.stopped_by == {"stage": "acceptor", "cap": "shadows", "limit": n}
